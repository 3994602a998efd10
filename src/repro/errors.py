"""Structured error taxonomy for the query path.

Every public failure in the repository derives from :class:`ReproError`, so
callers (the CLI, the serving layer, retry loops) can catch one root
type and branch on the subclass — or on ``exit_code``, which maps each
class to a distinct nonzero process exit status, or on ``http_status``,
which maps each class to the HTTP response the query service returns.

The subclasses additionally inherit the closest builtin exception
(``ValueError``, ``TimeoutError``, ``RuntimeError``) so that pre-taxonomy
callers catching builtins keep working: the taxonomy is an upgrade, not a
breaking change.

Taxonomy
--------

``ReproError``                 root; never raised directly            (10, 500)
├── ``InvalidQueryError``      bad query/config input (ValueError)    (11, 400)
├── ``CorruptDataError``       unreadable/inconsistent data (ValueError) (12, 422)
├── ``QueryTimeout``           deadline expired (TimeoutError)        (13, 504)
├── ``BackendUnavailableError`` no usable bitset backend (ValueError) (14, 503)
├── ``InjectedFault``          raised only by the fault harness       (16, 500)
└── ``ServiceOverloadedError`` request shed by admission control      (17, 429)

Exit code 15 is unassigned: it belonged to a verifier-pool failure that
no longer exists, and the other codes keep their numbers.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Root of all public failures raised by this package."""

    #: Distinct nonzero process exit status for the CLI (see ``repro.cli``).
    exit_code: int = 10
    #: HTTP status the query service maps this failure to (see
    #: ``repro.service``); 500 marks an unexpected internal failure.
    http_status: int = 500


class InvalidQueryError(ReproError, ValueError):
    """A query or configuration parameter is structurally invalid."""

    exit_code = 11
    http_status = 400


class CorruptDataError(ReproError, ValueError):
    """Stored or supplied data cannot be parsed or is internally inconsistent."""

    exit_code = 12
    http_status = 422


class QueryTimeout(ReproError, TimeoutError):
    """A query deadline expired in a phase that cannot return an anytime answer."""

    exit_code = 13
    http_status = 504

    def __init__(
        self,
        message: str,
        phase: Optional[str] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        #: Pipeline phase whose deadline check fired (e.g. ``"lower_bounding"``).
        self.phase = phase
        #: Seconds spent when the expiry was detected (None if unknown).
        self.elapsed = elapsed


class BackendUnavailableError(ReproError, ValueError):
    """No bitset backend (requested or fallback) could be resolved."""

    exit_code = 14
    http_status = 503


class InjectedFault(ReproError, RuntimeError):
    """A deliberate failure raised by :mod:`repro.faults` during testing."""

    exit_code = 16
    http_status = 500

    def __init__(self, message: str, point: Optional[str] = None) -> None:
        super().__init__(message)
        #: Name of the injection point that fired.
        self.point = point


class ServiceOverloadedError(ReproError, RuntimeError):
    """The query service shed this request (admission queue full or draining).

    Raised server-side when admission control rejects a request, and
    client-side by :class:`~repro.service.client.ServiceClient` once its
    retry budget is exhausted.  ``retry_after`` carries the server's
    backoff hint in seconds (the HTTP ``Retry-After`` header).
    """

    exit_code = 17
    http_status = 429

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        #: Suggested seconds to wait before retrying (None if the server
        #: offered no hint).
        self.retry_after = retry_after
