"""Batched query sessions with cross-query label and index reuse.

The labeling scheme of Section III-D exists so that *future* queries with
the same ``ceil(r)`` skip work, yet a bare :class:`~repro.core.engine.
MIOEngine` only reuses state if the caller hand-threads a
:class:`~repro.core.labels.LabelStore` through every call.
:class:`QuerySession` packages that lifecycle for a query *workload*: it
owns one collection plus three positional caches, each sound at a
different granularity:

===================  =======================  ==============================
cache                keyed by                 sound because
===================  =======================  ==============================
point labels         ``ceil(r)``              Definition 4 / Section III-D
resident grids       exact ``r``, label       the BIGrid is a pure function
                     identity, backend        of ``r``, the bitset backend
                                              and the grid-mapping label
                                              filter (Algorithm 3)
lower-bound state    exact ``r``              small width = ``r / sqrt(d)``;
                                              Labeling-1 points never enter
                                              shared small cells (Lemma 3)
===================  =======================  ==============================

Both exact-``r`` tiers share the ``lower_cache_entries`` LRU capacity.  A
resident grid is kept only from a query that armed no labeler, and every
query runs on its own kernel view of it (:mod:`repro.grid.cache`), so
its answer, counters and ``memory_bytes`` are a fresh build's.
``stats()`` reports the resident-grid tier as ``grid_key_cache_hits``
(queries that reused a grid) and ``grid_key_cache_misses`` (queries that
built one), key names kept from the large-key cache it replaced.

All three are positional (object ids), so the session is also the unit of
*invalidation*: a session over a :class:`~repro.dynamic.DynamicMIO` watches
its mutation :attr:`~repro.dynamic.DynamicMIO.version` and drops every
cache when the collection changes -- the shape-based
``labels_match_collection`` guard cannot catch a remove+add of same-shaped
objects, the unsound-reuse scenario ``dynamic.py`` documents.

:meth:`QuerySession.query_many` plans a batch the way Section III-D's
analyst workload wants: requests grouped by ``ceil(r)``, largest ``r``
first within each group, so the group's first query produces labels at the
most general threshold and every other query runs the WITH-LABEL pipeline.
Each request keeps its own deadline (PR 1 semantics); a request that times
out degrades to an ``exact=False`` result *for that request only* and never
poisons the rest of the batch.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.pipeline import run_grouped_sweep
from repro.core.lower_bound import LowerBoundCache
from repro.core.objects import ObjectCollection
from repro.core.query import MIOResult
from repro.dynamic import DynamicMIO
from repro.errors import InvalidQueryError, QueryTimeout
from repro.grid.cache import ResidentGridCache
from repro.kernels import resolve_kernel
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, new_id
from repro.obs.recorders import register_cache_metrics
from repro.obs.telemetry import bind_trace_id, get_telemetry
from repro.obs.trace import ensure_tracer
from repro.resilience import Deadline


@dataclass(frozen=True)
class QueryRequest:
    """One request of a batched workload.

    ``timeout_ms`` budgets the request from its own start (PR 1 semantics);
    ``deadline`` overrides it with an explicit budget object, which lets
    tests drive expiry deterministically with a
    :class:`~repro.resilience.ManualClock`.
    """

    r: float
    k: int = 1
    timeout_ms: Optional[float] = None
    deadline: Optional[Deadline] = None

    def ceiling(self) -> int:
        return math.ceil(self.r)


RequestLike = Union[QueryRequest, float, int, dict]


def _number(value: object, field_name: str) -> float:
    """Coerce one numeric request field, mapping junk to the taxonomy.

    ``float("abc")`` and ``int(None)`` raise builtin ``ValueError`` /
    ``TypeError``; letting those escape would hand a raw traceback to the
    CLI and the service, so every coercion funnels through here and comes
    out as :class:`InvalidQueryError` (exit code 11 / HTTP 400).
    """
    if isinstance(value, bool):
        raise InvalidQueryError(f'request field "{field_name}" must be a number')
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise InvalidQueryError(
            f'request field "{field_name}" must be a number, got {value!r}'
        ) from None


def normalize_request(spec: RequestLike) -> QueryRequest:
    """Coerce a workload entry (number, dict, or request) to a request.

    The one validation funnel for every ingress surface -- the session's
    own entry points, ``repro batch`` workload files, and the HTTP
    service's request bodies -- so malformed input always surfaces as
    :class:`InvalidQueryError` (exit code 11 / HTTP 400), never as a raw
    ``ValueError`` traceback.
    """
    if isinstance(spec, QueryRequest):
        request = spec
    elif isinstance(spec, dict):
        unknown = set(spec) - {"r", "k", "timeout_ms"}
        if unknown:
            raise InvalidQueryError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        if "r" not in spec:
            raise InvalidQueryError('a request object needs an "r" field')
        k = _number(spec.get("k", 1), "k")
        if k != int(k):
            raise InvalidQueryError(f'request field "k" must be an integer, got {k!r}')
        request = QueryRequest(
            r=_number(spec["r"], "r"),
            k=int(k),
            timeout_ms=(
                _number(spec["timeout_ms"], "timeout_ms")
                if spec.get("timeout_ms") is not None
                else None
            ),
        )
    elif isinstance(spec, (int, float)) and not isinstance(spec, bool):
        request = QueryRequest(r=float(spec))
    else:
        raise InvalidQueryError(
            f"a request must be a number, a dict, or a QueryRequest, got {spec!r}"
        )
    if math.isnan(request.r) or not request.r > 0 or math.isinf(request.r):
        raise InvalidQueryError("the distance threshold r must be positive and finite")
    if request.k < 1:
        raise InvalidQueryError("k must be at least 1")
    if request.timeout_ms is not None and request.timeout_ms < 0:
        raise InvalidQueryError("timeout_ms must be >= 0")
    return request


class QuerySession:
    """A long-lived query context over one collection with warm caches.

    Parameters
    ----------
    source:
        A static :class:`ObjectCollection`, or a :class:`DynamicMIO` whose
        mutations the session tracks (every mutation invalidates all
        caches before the next query runs).
    backend / label_reuse / kernel:
        Forwarded to the engine (see :class:`MIOEngine`).
    cores:
        Validated (at least 1), then ignored: every query runs the serial
        engine.  Kept only because the end-to-end benchmark passes it;
        ROADMAP item 1 removes it at the next benchmark change.
    label_dir:
        Optional directory for a disk-backed label store (labels survive
        the session, as the paper's external-memory setting assumes).
    lower_cache_entries:
        LRU capacity of both exact-``r`` tiers: lower-bound results and
        resident grids.
    """

    def __init__(
        self,
        source: Union[ObjectCollection, DynamicMIO],
        backend: str = "ewah",
        label_reuse: str = "safe",
        cores: int = 1,
        label_dir=None,
        lower_cache_entries: int = 8,
        tracer=None,
        kernel: str = "python",
    ) -> None:
        if cores < 1:
            raise InvalidQueryError("cores must be at least 1")
        resolve_kernel(kernel)  # validate the name up front
        self.backend = backend
        self.label_reuse = label_reuse
        #: Compute-kernel backend forwarded to the engine
        #: (see :mod:`repro.kernels`).
        self.kernel = kernel
        #: Optional tracer shared with the engine: batched workloads
        #: produce one ``batch`` root span with a ``request`` child per
        #: query, each containing that query's full phase tree.
        self.tracer = tracer
        self.label_store = LabelStore(label_dir)
        # Both exact-``r`` tiers share one capacity, so they hold the same
        # set of thresholds.
        self.grid_cache = ResidentGridCache(lower_cache_entries)
        self.lower_cache = LowerBoundCache(lower_cache_entries)
        register_cache_metrics()
        # Concurrent use (the query service): the cache tiers are
        # individually thread-safe; these two locks cover the session's own
        # shared state.  ``_stats_lock`` guards the counters dict (plain
        # ``+=`` is not atomic), ``_refresh_lock`` serializes the dynamic
        # re-snapshot so exactly one thread rebuilds the engine per version.
        self._stats_lock = threading.Lock()
        self._refresh_lock = threading.RLock()
        self.counters: Dict[str, int] = {
            "queries": 0,
            "batches": 0,
            "label_hits": 0,
            "label_misses": 0,
            "points_skipped_by_labels": 0,
            "timeouts": 0,
            "anytime_results": 0,
            "invalidations": 0,
        }
        self._engine: Optional[MIOEngine] = None
        if isinstance(source, DynamicMIO):
            self._dynamic: Optional[DynamicMIO] = source
            self._seen_version: Optional[int] = None
            self.collection: Optional[ObjectCollection] = None
            self.handle_of_position: List[int] = []
        elif isinstance(source, ObjectCollection):
            self._dynamic = None
            self._seen_version = None
            self.collection = source
            self.handle_of_position = list(range(source.n))
            self._build_engine()
        else:
            raise InvalidQueryError(
                "source must be an ObjectCollection or a DynamicMIO, "
                f"got {type(source).__name__}"
            )

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cross-query cache (labels, resident grids, lower bounds).

        Called automatically when a :class:`DynamicMIO` source mutates;
        callable directly when the caller knows its data changed under a
        static collection (e.g. after rebuilding the session's input).
        """
        self.label_store.clear()
        self.grid_cache.clear()
        self.lower_cache.clear()
        with self._stats_lock:
            self.counters["invalidations"] += 1

    def _build_engine(self) -> None:
        self._engine = MIOEngine(
            self.collection,
            backend=self.backend,
            label_store=self.label_store,
            label_reuse=self.label_reuse,
            grid_cache=self.grid_cache,
            lower_cache=self.lower_cache,
            tracer=self.tracer,
            kernel=self.kernel,
        )

    def _refresh(self) -> None:
        """Re-snapshot a dynamic source; invalidate if it mutated.

        Version-checked and lock-guarded: concurrent service workers all
        pass through here before querying, and exactly one rebuilds the
        shared snapshot per observed mutation while the rest proceed on
        the (read-only) result.
        """
        if self._dynamic is None:
            return
        if self._engine is not None and self._seen_version == self._dynamic.version:
            return
        with self._refresh_lock:
            if self._engine is not None and self._seen_version == self._dynamic.version:
                return  # another worker already re-snapshotted this version
            collection, handles = self._dynamic.snapshot()
            if self._engine is not None:
                # The previous snapshot's positional caches are unsound for
                # the re-compacted collection even when every shape
                # coincides.
                self.invalidate()
            self.collection = collection
            self.handle_of_position = handles
            self._seen_version = self._dynamic.version
            self._build_engine()

    def handle_of(self, position: int) -> int:
        """Map a result's winner position to the source's stable handle."""
        if position < 0:
            return position
        return self.handle_of_position[position]

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------

    def query(
        self,
        r: float,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> MIOResult:
        """One MIO query through the session's warm caches."""
        self._refresh()
        return self._execute(
            normalize_request(QueryRequest(r=r, timeout_ms=timeout_ms, deadline=deadline)),
            catch_timeout=False,
        )

    def topk(
        self,
        r: float,
        k: int,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> MIOResult:
        """The top-k variant through the session's warm caches."""
        self._refresh()
        return self._execute(
            normalize_request(QueryRequest(r=r, k=k, timeout_ms=timeout_ms, deadline=deadline)),
            catch_timeout=False,
        )

    # Alias mirroring the engine's method name.
    query_topk = topk

    def query_many(self, requests: Iterable[RequestLike]) -> List[MIOResult]:
        """Run a batch of requests, maximizing cross-query reuse.

        Execution order groups requests by ``ceil(r)`` (ascending) and runs
        the largest ``r`` of each group first, so one labeling run serves
        the whole group; ties keep submission order.  Results come back in
        the *caller's* order.  A request whose deadline expires before
        verification yields an ``exact=False`` result with ``winner == -1``
        (no verified answer exists yet) instead of raising, so one slow
        request cannot poison its batch; an expiry during verification
        already degrades to the engine's anytime answer.
        """
        self._refresh()
        normalized = [normalize_request(spec) for spec in requests]
        if not normalized:
            return []
        tracer = ensure_tracer(self.tracer)
        logger = get_logger()
        batch_id = new_id("batch")

        def run_request(index: int) -> MIOResult:
            request = normalized[index]
            query_id = new_id("query")
            with tracer.span(
                "request",
                batch_id=batch_id,
                query_id=query_id,
                request_index=index,
                r=request.r,
                k=request.k,
            ), bind_trace_id(query_id):
                # The query id doubles as the request's trace id: the
                # pipeline's telemetry profile, the structured log line,
                # and the span all correlate on it.
                result = self._execute(request, catch_timeout=True)
            if logger.enabled:
                logger.log(
                    "query",
                    batch_id=batch_id,
                    query_id=query_id,
                    request_index=index,
                    r=request.r,
                    k=request.k,
                    algorithm=result.algorithm,
                    winner=result.winner,
                    score=result.score,
                    exact=result.exact,
                    seconds=result.total_time,
                )
            return result

        with tracer.span("batch", batch_id=batch_id, size=len(normalized)):
            # The pipeline's shared ceil(r)-grouped sweep (the same sweep
            # MIOEngine.query_batch uses): the stable sort keeps submission
            # order within equal (ceiling, r) groups.
            results = run_grouped_sweep(
                [request.r for request in normalized], run_request
            )
        with self._stats_lock:
            self.counters["batches"] += 1
        obs_metrics.counter(
            "repro_batches_total", "Batched query_many calls completed"
        ).inc()
        if logger.enabled:
            logger.log(
                "batch",
                batch_id=batch_id,
                size=len(normalized),
                timeouts=sum(1 for res in results if res is not None and res.winner < 0),
                anytime=sum(1 for res in results if res is not None and not res.exact),
            )
        return results

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, request: QueryRequest, catch_timeout: bool) -> MIOResult:
        deadline = request.deadline
        if deadline is None:
            deadline = Deadline.from_timeout_ms(request.timeout_ms)
        engine = self._engine
        try:
            if request.k == 1:
                result = engine.query(request.r, deadline=deadline)
            else:
                result = engine.query_topk(request.r, request.k, deadline=deadline)
        except QueryTimeout as exc:
            if not catch_timeout:
                raise
            result = self._timeout_result(request, exc)
        self._account(result)
        return result

    def _timeout_result(self, request: QueryRequest, exc: QueryTimeout) -> MIOResult:
        """A degraded per-request answer for a pre-verification expiry.

        No verified lower bound exists before verification starts, so the
        result carries the sentinel ``winner == -1`` with score 0 (a valid,
        if vacuous, lower bound) and records where time ran out.
        """
        with self._stats_lock:
            self.counters["timeouts"] += 1
        phase = exc.phase or "filtering"
        result = MIOResult(
            algorithm="bigrid",
            r=request.r,
            winner=-1,
            score=0,
            exact=False,
            notes={
                "anytime": f"deadline expired during {phase} (no verified answer)",
                "degraded_deadline": phase,
            },
        )
        # The pipeline never completed, so its choke point never saw this
        # query; emit the degraded profile here so the slow-query log
        # captures every pre-verification expiry too.
        get_telemetry().observe_result(
            result,
            engine="session",
            r=request.r,
            k=request.k,
            ceil_r=request.ceiling(),
            n=self.collection.n if self.collection is not None else 0,
        )
        return result

    def _account(self, result: MIOResult) -> None:
        """Fold one result into the session counters (and annotate it)."""
        with_label = result.algorithm.startswith("bigrid-label")
        skipped = 0
        if self.collection is not None and "mapped_points" in result.counters:
            skipped = self.collection.total_points - result.counters["mapped_points"]
        if not result.exact and "degraded_deadline" not in result.notes:
            # Every anytime answer names its degradation cause uniformly,
            # whichever layer produced it (engine verification timeout here,
            # pre-verification expiry in _timeout_result above).
            result.notes["degraded_deadline"] = "verification"
        verify_path = result.notes.get("verification_path")
        with self._stats_lock:
            self.counters["queries"] += 1
            if with_label:
                self.counters["label_hits"] += 1
            else:
                self.counters["label_misses"] += 1
            self.counters["points_skipped_by_labels"] += skipped
            if not result.exact:
                self.counters["anytime_results"] += 1
            if verify_path:
                # Per-implementation tally (e.g. verify_path_numpy_batch):
                # which verification scorer actually served the session's
                # traffic, for `repro explain` and capacity planning.
                key = "verify_path_" + verify_path.replace("-", "_")
                self.counters[key] = self.counters.get(key, 0) + 1
        result.counters["session_label_hit"] = int(with_label)
        result.counters["session_points_skipped"] = skipped

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Merged session counters: reuse, cache hit/miss, degradations."""
        merged = dict(self.counters)
        merged.update(self.grid_cache.counters())
        merged.update(self.lower_cache.counters())
        merged["label_store_hits"] = self.label_store.hits
        merged["label_store_misses"] = self.label_store.misses
        merged["label_ceilings"] = len(self.label_store.ceilings())
        return merged

    def __repr__(self) -> str:
        target = (
            f"dynamic v{self._dynamic.version}" if self._dynamic is not None
            else repr(self.collection)
        )
        return (
            f"QuerySession({target}, backend={self.backend!r}, "
            f"queries={self.counters['queries']})"
        )
