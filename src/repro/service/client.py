"""A bundled, retry-aware client for the hardened query service.

``http.client`` only (the service stack is stdlib end to end).  The
client is the other half of the backpressure contract: when the service
sheds with 429/503 it names a ``Retry-After``, and :class:`ServiceClient`
honors it -- sleeping at least that long, plus jittered exponential
backoff on top -- instead of hammering an overloaded server.  Error
envelopes map back onto the repro error taxonomy, so callers see the
same exception types in-process and over the wire.

Each thread a client is used from keeps one HTTP/1.1 connection open
across requests, so a request pays no TCP connect and no fresh server
handler thread.  A reused connection the server has meanwhile closed
fails before any status line arrives; the request is then sent once more
on a new connection.  :meth:`ServiceClient.close` (or leaving a ``with``
block) closes every connection the client opened.

Clock, sleep, and RNG are injectable; the retry schedule is unit-tested
with a fake sleeper and never actually waits.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BackendUnavailableError,
    CorruptDataError,
    InjectedFault,
    InvalidQueryError,
    QueryTimeout,
    ReproError,
    ServiceOverloadedError,
)
from repro.obs.telemetry import new_trace_id

#: Wire name -> exception class, the inverse of the service's error
#: envelope (``{"error": ClassName, ...}``).
_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        InvalidQueryError,
        CorruptDataError,
        QueryTimeout,
        BackendUnavailableError,
        InjectedFault,
        ServiceOverloadedError,
    )
}

#: Statuses worth retrying: shed (429), draining/unavailable (503), and
#: gateway timeout (504).  4xx input errors and 200s never retry.
RETRYABLE_STATUSES = frozenset({429, 503, 504})


class ServiceError(ReproError, RuntimeError):
    """A service-side error that has no taxonomy class (e.g. a raw 500).

    Inherits the root's generic exit code / status -- this is the "the
    server told us something we don't have a name for" bucket.
    """

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def _decode_error(status: int, payload: dict) -> ReproError:
    """The taxonomy exception encoded by one error envelope."""
    name = payload.get("error", "")
    message = payload.get("message", f"HTTP {status}")
    cls = _ERROR_CLASSES.get(name)
    if cls is ServiceOverloadedError:
        return ServiceOverloadedError(message, retry_after=payload.get("retry_after_s"))
    if cls is not None:
        return cls(message)
    return ServiceError(message, status)


class ServiceClient:
    """HTTP client with jittered retries that honor ``Retry-After``.

    Safe to share between threads: each thread gets a keep-alive
    connection of its own.  Use it as a context manager, or call
    :meth:`close`, to close the connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 3,
        backoff_s: float = 0.1,
        max_backoff_s: float = 2.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        #: Retry telemetry: attempts beyond the first, and total slept.
        self.retries = 0
        self.slept_s = 0.0
        #: The trace id of the most recent response (from ``X-Trace-Id``
        #: or the body) -- quote it when reporting a service problem.
        self.last_trace_id: Optional[str] = None
        #: Each thread's open connection, and every open one (for close).
        self._local = threading.local()
        self._open: set = set()
        self._open_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection this client holds open."""
        with self._open_lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def query(
        self, r: float, k: int = 1, timeout_ms: Optional[float] = None
    ) -> dict:
        """One MIO query; returns the decoded answer payload."""
        body: Dict[str, object] = {"r": r, "k": k}
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return self.request("POST", "/query", body)

    def topk(self, r: float, k: int, timeout_ms: Optional[float] = None) -> dict:
        body: Dict[str, object] = {"r": r, "k": k}
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return self.request("POST", "/topk", body)

    def batch(self, queries: List[dict]) -> dict:
        return self.request("POST", "/batch", {"queries": queries})

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def readyz(self) -> dict:
        """Readiness payload; raises only on transport failure."""
        status, _, payload = self._round_trip("GET", "/readyz", None)
        if isinstance(payload, dict):
            payload.setdefault("ready", status == 200)
            return payload
        return {"ready": status == 200}

    def metrics_text(self) -> str:
        status, _, payload = self._round_trip("GET", "/metrics", None)
        if status != 200:
            raise ServiceError(f"/metrics returned HTTP {status}", status)
        return payload if isinstance(payload, str) else json.dumps(payload)

    def statusz(self) -> dict:
        """Service + telemetry state (the ``/statusz`` page)."""
        return self.request("GET", "/statusz")

    def tracez(self) -> dict:
        """Recent sampled span trees."""
        return self.request("GET", "/tracez")

    def slowlogz(self) -> dict:
        """Captured slow/degraded queries."""
        return self.request("GET", "/slowlogz")

    # ------------------------------------------------------------------
    # Transport with retries
    # ------------------------------------------------------------------

    def request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        """One logical request; retries shed/unavailable responses.

        Every attempt of one logical request carries the same outbound
        ``X-Trace-Id``, so server-side telemetry correlates retries of
        the same call; errors carry the id as ``exc.trace_id``.
        """
        attempt = 0
        trace_id = new_trace_id()
        while True:
            status, headers, payload = self._round_trip(
                method, path, body, trace_id=trace_id
            )
            if status == 200:
                return payload if isinstance(payload, dict) else {"raw": payload}
            error = (
                _decode_error(status, payload)
                if isinstance(payload, dict)
                else ServiceError(str(payload), status)
            )
            error.trace_id = self.last_trace_id or trace_id
            if status not in RETRYABLE_STATUSES or attempt >= self.max_retries:
                raise error
            self._back_off(attempt, headers.get("Retry-After"))
            attempt += 1

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's open connection and whether it served a request
        before, or a new one."""
        connection = getattr(self._local, "connection", None)
        with self._open_lock:
            if connection is not None and connection in self._open:
                return connection, True
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._open.add(connection)
        self._local.connection = connection
        return connection, False

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        with self._open_lock:
            self._open.discard(connection)
        connection.close()

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[dict],
        trace_id: Optional[str] = None,
    ):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if trace_id:
            headers["X-Trace-Id"] = trace_id
        while True:
            connection, reused = self._connection()
            response = None
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except OSError as exc:
                self._discard(connection)
                if reused and response is None and isinstance(exc, ConnectionError):
                    # The server closed the idle connection before this
                    # request reached it (no status line came back): send
                    # it once more, on a new connection.
                    continue
                raise BackendUnavailableError(
                    f"cannot reach {self.host}:{self.port}: {exc}"
                ) from exc
            except http.client.HTTPException:
                self._discard(connection)  # its state is unknown now
                raise
            break
        if response.will_close:
            self._discard(connection)
        header_map = {k: v for k, v in response.getheaders()}
        if header_map.get("X-Trace-Id"):
            self.last_trace_id = header_map["X-Trace-Id"]
        content_type = header_map.get("Content-Type", "")
        if content_type.startswith("application/json"):
            try:
                decoded: object = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = raw.decode("utf-8", "replace")
        else:
            decoded = raw.decode("utf-8", "replace")
        return response.status, header_map, decoded

    def _back_off(self, attempt: int, retry_after_header: Optional[str]) -> None:
        """Sleep max(server hint, jittered exponential backoff)."""
        backoff = min(self.backoff_s * (2.0 ** attempt), self.max_backoff_s)
        backoff *= 0.5 + self._rng.random()  # full jitter in [0.5x, 1.5x)
        hint = 0.0
        if retry_after_header:
            try:
                hint = float(retry_after_header)
            except ValueError:
                hint = 0.0
        delay = max(backoff, hint)
        self.retries += 1
        self.slept_s += delay
        self._sleep(delay)
