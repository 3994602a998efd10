"""Service configuration: admission, deadline, breaker, and drain knobs.

One frozen dataclass holds every tuning knob of the hardened query
service, validated up front so a misconfigured deployment fails at
startup with :class:`~repro.errors.InvalidQueryError` (exit code 11)
instead of misbehaving under load.  ``docs/service.md`` carries the
tuning guide; the short version:

* ``max_inflight`` bounds concurrent query execution (the GIL makes more
  than a handful of compute-bound workers counterproductive);
* ``max_queue`` bounds the admission queue -- waiting requests burn
  their own deadline budget, so the queue should hold at most a few
  multiples of ``max_inflight``;
* ``default_timeout_ms``/``max_timeout_ms`` cap per-request budgets;
* the ``breaker_*`` knobs shape the circuit breaker around the primary
  execution path (see :mod:`repro.service.breaker`);
* ``drain_s`` bounds graceful shutdown: how long in-flight requests may
  finish while ``/readyz`` reports unready.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidQueryError


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the concurrent MIO query service."""

    #: Interface and port ``repro serve`` binds (port 0 = ephemeral).
    host: str = "127.0.0.1"
    port: int = 8080
    #: Maximum requests executing concurrently (admission semaphore).
    max_inflight: int = 4
    #: Maximum requests waiting for an execution slot; beyond this the
    #: service sheds with HTTP 429 + ``Retry-After``.
    max_queue: int = 16
    #: Budget applied when a request carries no ``timeout_ms``.
    default_timeout_ms: float = 1000.0
    #: Hard cap on any requested budget (0 disables the cap).
    max_timeout_ms: float = 30000.0
    #: Largest accepted ``/batch`` workload.
    max_batch: int = 64
    #: Consecutive primary-path failures that trip the circuit breaker.
    breaker_failures: int = 5
    #: Base open interval before a half-open probe, and its cap across
    #: consecutive re-trips (exponential backoff between the two).
    breaker_reset_s: float = 2.0
    breaker_max_reset_s: float = 30.0
    #: Jitter fraction applied to the open interval (0.5 = up to +50%).
    breaker_jitter: float = 0.5
    #: Graceful-shutdown drain budget for in-flight requests.
    drain_s: float = 5.0
    #: Floor for the ``Retry-After`` hint on shed responses (seconds).
    retry_after_floor_s: float = 0.05
    #: Cap for the ``Retry-After`` hint (seconds).
    retry_after_cap_s: float = 5.0
    #: Head-sampling rate for always-on span telemetry (queries carrying
    #: a full span tree into ``/tracez``); 0 disables sampling.
    sample_rate: float = 0.01
    #: Latency threshold for the slow-query log (``/slowlogz``).
    slow_query_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise InvalidQueryError("max_inflight must be at least 1")
        if self.max_queue < 0:
            raise InvalidQueryError("max_queue must be >= 0")
        if self.default_timeout_ms is not None and self.default_timeout_ms <= 0:
            raise InvalidQueryError("default_timeout_ms must be positive")
        if self.max_timeout_ms < 0:
            raise InvalidQueryError("max_timeout_ms must be >= 0 (0 disables the cap)")
        if self.max_batch < 1:
            raise InvalidQueryError("max_batch must be at least 1")
        if self.breaker_failures < 1:
            raise InvalidQueryError("breaker_failures must be at least 1")
        if self.breaker_reset_s <= 0 or self.breaker_max_reset_s < self.breaker_reset_s:
            raise InvalidQueryError(
                "breaker_reset_s must be positive and <= breaker_max_reset_s"
            )
        if not 0.0 <= self.breaker_jitter <= 1.0:
            raise InvalidQueryError("breaker_jitter must lie in [0, 1]")
        if self.drain_s < 0:
            raise InvalidQueryError("drain_s must be >= 0")
        if not 0.0 < self.retry_after_floor_s <= self.retry_after_cap_s:
            raise InvalidQueryError(
                "retry_after floor must be positive and <= its cap"
            )
        if not 0.0 <= self.sample_rate <= 1.0:
            raise InvalidQueryError("sample_rate must lie in [0, 1]")
        if self.slow_query_ms < 0:
            raise InvalidQueryError("slow_query_ms must be >= 0")

    def clamp_timeout_ms(self, timeout_ms) -> float:
        """The effective budget for one request (default + cap applied)."""
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        if self.max_timeout_ms and timeout_ms > self.max_timeout_ms:
            return self.max_timeout_ms
        return timeout_ms
