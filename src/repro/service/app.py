"""The HTTP-agnostic core of the hardened concurrent MIO query service.

:class:`ServiceApp` owns everything between "bytes arrived" and "bytes to
send back": request parsing, admission control, end-to-end deadlines,
the circuit-breaker-guarded degradation chain, taxonomy-to-HTTP error
mapping, and readiness/drain state.  The HTTP layer
(:mod:`repro.service.server`) is a thin adapter over :meth:`handle`, so
every robustness behavior is testable in-process without sockets.

Request lifecycle
-----------------

1. **Parse** -- the body must be a JSON object; every field passes
   through :func:`repro.session.normalize_request`, so malformed input is
   HTTP 400 (:class:`~repro.errors.InvalidQueryError`), never a
   traceback.
2. **Deadline** -- a :class:`~repro.resilience.Deadline` starts at
   *arrival* with the clamped budget.  Everything after -- queueing,
   execution, degradation -- happens inside that one budget.
3. **Admit** -- the bounded admission queue either admits, sheds (429 +
   ``Retry-After``), refuses while draining (503), or reports the budget
   expired in line (the request degrades to a vacuous anytime answer:
   HTTP 200, ``exact: false``).
4. **Execute** -- the degradation chain below.
5. **Respond** -- 200 with the answer (``exact`` says whether it is), or
   a taxonomy-mapped error envelope.

Degradation chain
-----------------

``primary session -> fallback session -> vacuous anytime answer``

The *primary* session runs the configured kernel and bitset backend.
A backend-shaped failure (:class:`~repro.errors.InjectedFault`,
:class:`~repro.errors.BackendUnavailableError`) feeds the circuit
breaker and falls through to the *fallback* session (pure-python kernel,
plain bitsets, serial) under the same deadline.  When the breaker is
open, requests skip the primary path entirely.  If the fallback fails
too, or the deadline expires before verification, the response is still
HTTP 200 -- an anytime answer whose score is a (possibly vacuous) lower
bound, flagged ``exact: false`` with a ``degraded_*`` note -- because a
degraded answer with an explicit quality marker beats an error page for
LBS-style traffic.  Only invalid input (400) and admission refusals
(429/503) are non-200.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.query import MIOResult
from repro.dynamic import DynamicMIO
from repro.errors import (
    BackendUnavailableError,
    CorruptDataError,
    InjectedFault,
    InvalidQueryError,
    QueryTimeout,
    ReproError,
    ServiceOverloadedError,
)
from repro.obs import metrics as obs_metrics
from repro.obs.export import prometheus_text
from repro.obs.telemetry import bind_trace_id, get_telemetry, new_trace_id
from repro.resilience import Deadline
from repro.service.admission import (
    ADMITTED,
    DRAINING,
    EXPIRED,
    SHED,
    AdmissionController,
)
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.session import QueryRequest, QuerySession, normalize_request

#: Failures that indicate a broken execution path (they feed the circuit
#: breaker and trigger the fallback chain), as opposed to bad input or an
#: expired deadline.
BACKEND_FAILURES = (
    InjectedFault,
    BackendUnavailableError,
    CorruptDataError,
)

JSON_TYPE = "application/json"
PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Characters allowed in a caller-supplied ``X-Trace-Id`` (anything else
#: is stripped -- the id lands in headers, logs, and JSON verbatim).
_TRACE_ID_SAFE = re.compile(r"[^A-Za-z0-9._\-]")


def sanitize_trace_id(raw: Optional[str]) -> Optional[str]:
    """A header-safe trace id from caller input, or None if nothing survives."""
    if not raw:
        return None
    cleaned = _TRACE_ID_SAFE.sub("", raw)[:64]
    return cleaned or None


@dataclass
class Response:
    """One HTTP-shaped reply, transport-agnostic."""

    status: int
    payload: Union[dict, str]
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: str = JSON_TYPE

    def body_bytes(self) -> bytes:
        if isinstance(self.payload, str):
            return self.payload.encode("utf-8")
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


def error_response(exc: ReproError, retry_after: Optional[float] = None) -> Response:
    """The taxonomy-mapped error envelope (never a traceback)."""
    headers = {}
    if retry_after is not None:
        # Retry-After is integer-seconds per RFC 9110; round up so a hint
        # of 0.2s does not become "retry immediately".
        headers["Retry-After"] = str(max(1, int(-(-retry_after // 1))))
    return Response(
        status=type(exc).http_status,
        payload={
            "error": type(exc).__name__,
            "message": str(exc),
            "status": type(exc).http_status,
            **({"retry_after_s": retry_after} if retry_after is not None else {}),
        },
        headers=headers,
    )


class ServiceApp:
    """The query service's request-handling core (no sockets here)."""

    def __init__(
        self,
        source,
        config: Optional[ServiceConfig] = None,
        *,
        backend: str = "ewah",
        kernel: str = "auto",
        label_dir=None,
        clock: Callable[[], float] = time.monotonic,
        breaker: Optional[CircuitBreaker] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        #: Primary path: the configured engine stack, caches shared across
        #: worker threads (the cache tiers are individually thread-safe and
        #: published label snapshots are read-only -- see LabelStore).
        self.primary = QuerySession(
            source, backend=backend, kernel=kernel, label_dir=label_dir
        )
        #: Fallback path: the most dependable stack we have -- pure-python
        #: kernel, plain bitsets, serial engine, no shared label directory.
        self.fallback = QuerySession(source, backend="plain", kernel="python")
        self._dynamic = source if isinstance(source, DynamicMIO) else None
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                self.config.max_inflight, self.config.max_queue, clock=clock
            )
        )
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(
                failure_threshold=self.config.breaker_failures,
                reset_s=self.config.breaker_reset_s,
                max_reset_s=self.config.breaker_max_reset_s,
                jitter=self.config.breaker_jitter,
                clock=clock,
            )
        )
        self._ready = True
        self._started = clock()
        self._stats_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "requests": 0,
            "served": 0,
            "degraded": 0,
            "shed": 0,
            "errors": 0,
            "fallback_served": 0,
        }
        #: EWMA of end-to-end request seconds, seeding the Retry-After hint.
        self._ewma_seconds = 0.05
        self._ewma_gauge = obs_metrics.gauge(
            "repro_service_latency_ewma_seconds",
            "EWMA of per-request service time (the Retry-After basis)",
        )
        self._ewma_gauge.set(self._ewma_seconds)
        #: Always-on telemetry: the service turns the process hub's dials
        #: to its configured sampling rate and slow-query threshold, so
        #: /statusz, /tracez, and /slowlogz have data from request one.
        self.telemetry = get_telemetry()
        self.telemetry.reconfigure(
            enabled=True,
            sample_rate=self.config.sample_rate,
            slow_ms=self.config.slow_query_ms,
        )
        self._responses = obs_metrics.counter(
            "repro_service_responses_total", "Service responses by endpoint and status"
        )
        self._latency = obs_metrics.histogram(
            "repro_service_request_seconds",
            "End-to-end service request latency (admission wait included)",
        )
        self._degraded = obs_metrics.counter(
            "repro_service_degraded_total",
            "Responses degraded to inexact anytime answers, by cause",
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, str]] = None,
        body: Optional[bytes] = None,
        trace_id: Optional[str] = None,
    ) -> Response:
        """Route one request; never raises, never leaks a traceback.

        Every response -- success, error envelope, or shed -- carries a
        trace id, in both the JSON body and the ``X-Trace-Id`` header:
        the caller's (sanitized) ``X-Trace-Id`` when one was sent, a
        fresh id otherwise.  The id is bound to the request's context so
        the telemetry profile, the slow-query log entry, and any sampled
        span tree correlate with the response the caller saw.
        """
        started = self._clock()
        endpoint = path.rstrip("/") or "/"
        trace_id = sanitize_trace_id(trace_id) or new_trace_id()
        with bind_trace_id(trace_id):
            try:
                response = self._route(method, endpoint, params or {}, body)
            except ReproError as exc:
                response = error_response(exc)
            except Exception as exc:  # noqa: BLE001 -- the no-traceback boundary
                with self._stats_lock:
                    self.stats["errors"] += 1
                response = Response(
                    status=500,
                    payload={
                        "error": "InternalError",
                        "message": f"{type(exc).__name__}: {exc}",
                        "status": 500,
                    },
                )
        if isinstance(response.payload, dict):
            response.payload.setdefault("trace_id", trace_id)
        response.headers.setdefault("X-Trace-Id", trace_id)
        self._responses.inc(endpoint=endpoint, status=response.status)
        self._latency.observe(self._clock() - started)
        return response

    def _route(
        self, method: str, path: str, params: Dict[str, str], body: Optional[bytes]
    ) -> Response:
        if path == "/healthz":
            return self.handle_healthz()
        if path == "/readyz":
            return self.handle_readyz()
        if path == "/metrics":
            return self.handle_metrics()
        if path == "/statusz":
            return self.handle_statusz()
        if path == "/tracez":
            return self.handle_tracez()
        if path == "/slowlogz":
            return self.handle_slowlogz()
        if path == "/query":
            return self.handle_query(self._parse_body(params, body))
        if path == "/topk":
            payload = self._parse_body(params, body)
            if "k" not in payload:
                raise InvalidQueryError('/topk requires a "k" field')
            return self.handle_query(payload)
        if path == "/batch":
            if method != "POST":
                raise InvalidQueryError("/batch requires POST")
            return self.handle_batch(self._parse_body(params, body))
        return Response(
            status=404,
            payload={"error": "NotFound", "message": f"no route for {path}", "status": 404},
        )

    @staticmethod
    def _parse_body(params: Dict[str, str], body: Optional[bytes]) -> dict:
        """A request object from a JSON body or (GET) query parameters."""
        if body:
            try:
                document = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InvalidQueryError(f"request body is not valid JSON ({exc})") from exc
            if not isinstance(document, dict):
                raise InvalidQueryError("request body must be a JSON object")
            return document
        return dict(params)

    # ------------------------------------------------------------------
    # Liveness / readiness / metrics
    # ------------------------------------------------------------------

    def handle_healthz(self) -> Response:
        return Response(
            status=200,
            payload={"status": "ok", "uptime_s": round(self._clock() - self._started, 3)},
        )

    def handle_readyz(self) -> Response:
        ready = self._ready
        payload = {
            "ready": ready,
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
        }
        if ready:
            return Response(status=200, payload=payload)
        return Response(
            status=503,
            payload=payload,
            headers={"Retry-After": str(max(1, int(self.config.drain_s)))},
        )

    def handle_metrics(self) -> Response:
        return Response(status=200, payload=prometheus_text(), content_type=PROM_TYPE)

    # ------------------------------------------------------------------
    # Introspection (telemetry)
    # ------------------------------------------------------------------

    def handle_statusz(self) -> Response:
        """One page of service + telemetry state for a human operator."""
        return Response(
            status=200,
            payload={
                "uptime_s": round(self._clock() - self._started, 3),
                "ready": self._ready,
                "service": self.snapshot(),
                "telemetry": self.telemetry.snapshot(),
                "retry_after_hint_s": self.retry_after_hint(),
            },
        )

    def handle_tracez(self) -> Response:
        """The hub's recent sampled span trees, oldest first."""
        traces = self.telemetry.traces_snapshot()
        return Response(
            status=200,
            payload={
                "sampler": self.telemetry.sampler.snapshot(),
                "count": len(traces),
                "traces": traces,
            },
        )

    def handle_slowlogz(self) -> Response:
        """Captured slow/degraded queries with their span trees."""
        entries = self.telemetry.slowlog.snapshot()
        return Response(
            status=200,
            payload={
                "threshold_ms": self.telemetry.slowlog.threshold_ms,
                "captured": self.telemetry.slowlog.captured,
                "count": len(entries),
                "entries": entries,
            },
        )

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------

    def handle_query(self, payload: dict) -> Response:
        """``/query`` and ``/topk``: one request through the full chain."""
        with self._stats_lock:
            self.stats["requests"] += 1
        request = normalize_request(payload)
        deadline = Deadline.from_timeout_ms(
            self.config.clamp_timeout_ms(request.timeout_ms), clock=self._clock
        )
        decision = self.admission.admit(deadline)
        if decision.outcome in (SHED, DRAINING):
            return self._shed_response(decision.outcome)
        if decision.outcome == EXPIRED:
            result = self._vacuous_result(
                request, cause="admission_queue",
                note="deadline expired waiting in the admission queue",
            )
            return self._result_response(
                request, result, deadline, decision.queue_wait_s, 0.0
            )
        started = time.perf_counter()
        try:
            result = self._execute_chain(request, deadline)
        finally:
            self.admission.release()
        return self._result_response(
            request, result, deadline, decision.queue_wait_s,
            time.perf_counter() - started,
        )

    def handle_batch(self, payload: dict) -> Response:
        """``/batch``: one admission slot, per-request deadline isolation."""
        with self._stats_lock:
            self.stats["requests"] += 1
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise InvalidQueryError('a batch needs a non-empty "queries" list')
        if len(queries) > self.config.max_batch:
            raise InvalidQueryError(
                f"batch size {len(queries)} exceeds max_batch={self.config.max_batch}"
            )
        requests = [self._with_default_timeout(normalize_request(q)) for q in queries]
        # The whole batch shares one admission slot; its queue wait is
        # bounded by the largest per-request budget in the batch.
        deadline = Deadline.from_timeout_ms(
            max(request.timeout_ms for request in requests), clock=self._clock
        )
        decision = self.admission.admit(deadline)
        if decision.outcome in (SHED, DRAINING):
            return self._shed_response(decision.outcome)
        started = time.perf_counter()
        if decision.outcome == EXPIRED:
            results = [
                self._vacuous_result(
                    request, cause="admission_queue",
                    note="deadline expired waiting in the admission queue",
                )
                for request in requests
            ]
        else:
            try:
                results = self.primary.query_many(requests)
            except BACKEND_FAILURES:
                self.breaker.on_failure()
                results = self._batch_fallback(requests)
            finally:
                self.admission.release()
        elapsed_s = time.perf_counter() - started
        payload_out = {
            "count": len(results),
            "queue_wait_ms": round(decision.queue_wait_s * 1000.0, 3),
            # The batch shares one execution, so its wall clock is the
            # only one measured; entries report their phase sums.
            "elapsed_ms": round(elapsed_s * 1000.0, 3),
            "results": [self._result_payload(req, res, res.total_time)
                        for req, res in zip(requests, results)],
        }
        self._observe_served(results, elapsed_s)
        return Response(status=200, payload=payload_out)

    def _with_default_timeout(self, request: QueryRequest) -> QueryRequest:
        """Batch entries always carry an explicit, clamped budget."""
        return QueryRequest(
            r=request.r,
            k=request.k,
            timeout_ms=self.config.clamp_timeout_ms(request.timeout_ms),
            deadline=request.deadline,
        )

    def _batch_fallback(self, requests: List[QueryRequest]) -> List[MIOResult]:
        """Re-run a failed batch on the dependable stack (fresh budgets)."""
        try:
            results = self.fallback.query_many(requests)
        except BACKEND_FAILURES as exc:
            return [
                self._vacuous_result(
                    request, cause="fault",
                    note=f"{type(exc).__name__} on both execution paths",
                )
                for request in requests
            ]
        with self._stats_lock:
            self.stats["fallback_served"] += len(results)
        for result in results:
            result.notes.setdefault("degraded_path", "fallback")
        return results

    # ------------------------------------------------------------------
    # The degradation chain
    # ------------------------------------------------------------------

    def _execute_chain(self, request: QueryRequest, deadline: Optional[Deadline]) -> MIOResult:
        """primary -> fallback -> vacuous anytime, all under one deadline."""
        breaker_open = not self.breaker.allow()
        if not breaker_open:
            try:
                result = self._run(self.primary, request, deadline)
                self.breaker.on_success()
                return result
            except QueryTimeout as exc:
                # An expired budget says nothing about backend health.
                self.breaker.on_success()
                return self._vacuous_result(
                    request, cause="deadline",
                    note=f"deadline expired during {exc.phase or 'filtering'}",
                )
            except BACKEND_FAILURES as exc:
                self.breaker.on_failure()
                cause = type(exc).__name__
        else:
            cause = "breaker_open"
        # Fallback path: the same end-to-end deadline keeps ticking.
        try:
            result = self._run(self.fallback, request, deadline)
        except QueryTimeout as exc:
            return self._vacuous_result(
                request, cause="deadline",
                note=f"deadline expired during {exc.phase or 'filtering'} (fallback)",
            )
        except BACKEND_FAILURES as exc:
            return self._vacuous_result(
                request, cause="fault",
                note=f"{cause}, then {type(exc).__name__} on the fallback path",
            )
        result.notes["degraded_path"] = f"fallback ({cause})"
        with self._stats_lock:
            self.stats["fallback_served"] += 1
        return result

    @staticmethod
    def _run(
        session: QuerySession, request: QueryRequest, deadline: Optional[Deadline]
    ) -> MIOResult:
        """Hand one request to a session under the *remaining* budget.

        ``deadline`` was started at arrival, so queue wait has already
        been charged; ``Deadline.remaining_ms`` documents the contract.
        """
        if deadline is not None and deadline.remaining_ms() <= 0.0:
            raise QueryTimeout(
                "request budget exhausted before execution", phase="admission_queue"
            )
        if request.k == 1:
            return session.query(request.r, deadline=deadline)
        return session.topk(request.r, request.k, deadline=deadline)

    def _vacuous_result(self, request: QueryRequest, cause: str, note: str) -> MIOResult:
        """The chain's last resort: a valid (if vacuous) lower-bound answer."""
        self._degraded.inc(cause=cause)
        result = MIOResult(
            algorithm="bigrid",
            r=request.r,
            winner=-1,
            score=0,
            exact=False,
            notes={"anytime": note, f"degraded_{cause}": note},
        )
        # No pipeline ran, so no choke point saw this query; record the
        # degraded outcome here so the slow-query log never misses one.
        collection = self.primary.collection
        self.telemetry.observe_result(
            result,
            engine="service",
            r=request.r,
            k=request.k,
            n=collection.n if collection is not None else 0,
        )
        return result

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _result_payload(
        self, request: QueryRequest, result: MIOResult, elapsed_s: float
    ) -> dict:
        payload = {
            "r": result.r,
            "k": request.k,
            "algorithm": result.algorithm,
            "winner": result.winner,
            "score": result.score,
            "exact": result.exact,
            "notes": result.notes,
            "elapsed_ms": round(elapsed_s * 1000.0, 3),
        }
        if result.topk is not None:
            payload["topk"] = [[oid, score] for oid, score in result.topk]
        return payload

    def _result_response(
        self,
        request: QueryRequest,
        result: MIOResult,
        deadline: Optional[Deadline],
        queue_wait_s: float,
        elapsed_s: float,
    ) -> Response:
        """``elapsed_s``: wall clock of the execution chain, finalize and
        fallbacks included (0 when the request never executed)."""
        payload = self._result_payload(request, result, elapsed_s)
        payload["queue_wait_ms"] = round(queue_wait_s * 1000.0, 3)
        if deadline is not None:
            payload["budget_remaining_ms"] = round(deadline.remaining_ms(), 3)
        self._observe_served([result], elapsed_s)
        return Response(status=200, payload=payload)

    def _observe_served(self, results: List[MIOResult], elapsed_s: float) -> None:
        """Count served results; ``elapsed_s`` is the wall clock of the
        admission slot they shared, one latency sample for Retry-After."""
        degraded = sum(1 for result in results if result is not None and not result.exact)
        with self._stats_lock:
            self.stats["served"] += len(results)
            self.stats["degraded"] += degraded
        for result in results:
            if result is not None and not result.exact:
                if "degraded_deadline" in result.notes:
                    self._degraded.inc(cause="deadline")
        self._note_latency(elapsed_s)

    def _note_latency(self, seconds: float) -> None:
        # EWMA with alpha=0.2: recent service time dominates Retry-After.
        self._ewma_seconds += 0.2 * (seconds - self._ewma_seconds)
        self._ewma_gauge.set(self._ewma_seconds)

    def _shed_response(self, outcome: str) -> Response:
        with self._stats_lock:
            self.stats["shed"] += 1
        retry_after = self.retry_after_hint()
        if outcome == DRAINING:
            exc: ReproError = ServiceOverloadedError(
                "service is draining for shutdown", retry_after=retry_after
            )
            response = error_response(exc, retry_after)
            response.status = 503
            response.payload["status"] = 503
            return response
        return error_response(
            ServiceOverloadedError(
                "admission queue full; retry with backoff", retry_after=retry_after
            ),
            retry_after,
        )

    def retry_after_hint(self) -> float:
        """Seconds until a retry has a fair shot at being admitted.

        Scales the recent per-request latency EWMA by the backlog ahead
        of a retrying client, clamped to the configured floor/cap.
        """
        snapshot = self.admission.snapshot()
        backlog = snapshot["queued"] + snapshot["inflight"]
        hint = self._ewma_seconds * max(1.0, backlog / self.config.max_inflight)
        return round(
            min(max(hint, self.config.retry_after_floor_s), self.config.retry_after_cap_s),
            3,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self._ready

    def begin_drain(self) -> None:
        """Flip unready and refuse new admissions (idempotent)."""
        self._ready = False
        self.admission.begin_drain()

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Begin drain and wait for in-flight requests (True = drained)."""
        self.begin_drain()
        budget = self.config.drain_s if timeout_s is None else timeout_s
        return self.admission.await_idle(budget)

    def snapshot(self) -> Dict[str, object]:
        """Service-level stats (the CLI prints this on shutdown)."""
        with self._stats_lock:
            stats = dict(self.stats)
        return {
            **stats,
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "session": self.primary.stats(),
        }
