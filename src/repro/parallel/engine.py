"""Parallel MIO query processing (Section IV).

:class:`ParallelMIOEngine` is the shared
:class:`~repro.core.pipeline.PhasePipeline` with the serial stage set up
to verification -- backend resolution, planning, grid mapping, lower and
upper bounding, all run once by the coordinator against the *global*
threshold -- followed by a verification stage that hands the candidates
to the engine's verifiers.  The coordinator and ``cores - 1`` persistent
worker processes take candidates from one shared queue in upper-bound
order and score them over the coordinator's packed grid, published in
shared memory (:mod:`repro.shard.executor`).  Threshold updates, early
termination, tie selection, top-k and the anytime prefix all come from
the serial best-first loop, so the answer, the work counters and
``memory_bytes`` are the serial engine's.  The engine always runs
label-free: labels encode the canonical serial access order, and a
label-free score depends only on the grid and the object.

Serial fallback is the pipeline's ``fallback`` hook: when a verifier
hand-off fails past its retry budget, the query re-runs through the
serial stage set -- a mid-run stage-implementation swap, not a separate
code path.  The serial engine opens its own ``query`` span (a child of
ours) and observes itself as ``engine="serial"``, so the fallback is
visible in both the trace and the metrics without double counting.

The paper's Fig. 8/9 and Table III schedule study (simulated makespans
of the partitioning schemes) is a benchmark device, not an engine mode:
see :mod:`repro.bench.schedule`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.objects import ObjectCollection
from repro.core.pipeline import (
    SERIAL_PIPELINE,
    BackendResolutionStage,
    GridMappingStage,
    LowerBoundingStage,
    PhasePipeline,
    PlanningStage,
    QueryContext,
    SerialFinalizeStage,
    Stage,
    UpperBoundingStage,
    VerificationStage,
)
from repro.core.query import MIOResult
from repro.errors import InjectedFault, InvalidQueryError, PartitionTaskError
from repro.grid.cache import LargeKeyCache
from repro.kernels import numpy_kernel_available, resolve_kernel
from repro.obs import metrics as obs_metrics
from repro.obs.trace import ensure_tracer
from repro.planner import Plan, capture_statistics, resolve_planner
from repro.resilience import Deadline
from repro.shard.executor import ShardExecutor


class ParallelVerificationStage(VerificationStage):
    """VERIFICATION by the engine's verifiers over one shared queue.

    Records one child span per verifier (candidates scored, busy time,
    speculative scores), the ``cores`` and ``shards`` counters, and the
    scores computed past the loop's break as
    ``extra["speculative_scores"]`` -- not a counter, because it depends
    on timing while every counter matches the serial engine's.
    """

    def verify(self, ctx: QueryContext):
        engine = ctx.engine
        verifiers = ctx.shards if ctx.shards is not None else engine.shards
        verification, reports = engine.shard_executor.verify(
            ctx.kernel,
            ctx.bigrid,
            ctx.upper.candidates,
            ctx.r,
            ctx.k,
            verifiers=verifiers,
            deadline=ctx.deadline,
            stats=ctx.stats,
        )
        for report in reports:
            ctx.tracer.record(
                f"verifier-{report.slot}",
                report.busy,
                candidates=report.scored,
                speculative=report.speculative,
            )
        ctx.stats.set_count("cores", engine.cores)
        ctx.stats.set_count("shards", verifiers)
        ctx.extra["speculative_scores"] = sum(
            report.speculative for report in reports
        )
        return verification


#: The sharded engine's stage set: the serial filter stages, label-free,
#: then pool-backed verification.
SHARDED_STAGES: Tuple[Stage, ...] = (
    BackendResolutionStage(),
    # The parallel engine pins the plan before the pipeline runs; this
    # stage applies it (kernel resolution + plan notes + predictions).
    # Inert without a planner.
    PlanningStage(),
    # A warm engine serves many queries: holding the last grid would
    # keep one more grid alive through the next query's build.
    GridMappingStage(keeps_grid=False),
    LowerBoundingStage(),
    UpperBoundingStage(),
    ParallelVerificationStage(),
    SerialFinalizeStage(algorithm="bigrid-sharded"),
)


def _fall_back_to_serial(ctx: QueryContext, cause: Exception, root) -> MIOResult:
    """Swap in the serial stage set mid-run (the pipeline's fallback hook).

    A verifier hand-off failed past its retry budget.  The answer is still
    computable: degrade to the serial engine rather than crash the query.  The serial engine
    reads this engine's label store, label policy, and key cache.
    """
    engine = ctx.engine
    if not engine.serial_fallback:
        raise cause
    obs_metrics.counter(
        "repro_serial_fallbacks_total",
        "Parallel queries that degraded to the serial engine",
    ).inc()
    root.set_attributes(serial_fallback=True)
    serial = MIOEngine(
        engine.collection,
        backend=engine.backend,
        label_store=engine.label_store,
        label_reuse=engine.label_reuse,
        key_cache=engine.key_cache,
        kernel=engine.kernel,
    )
    if ctx.want_ranking:
        result = serial.query_topk(
            ctx.r, ctx.k, deadline=ctx.deadline, tracer=ctx.tracer
        )
    else:
        result = serial.query(ctx.r, deadline=ctx.deadline, tracer=ctx.tracer)
    result.counters["serial_fallback"] = 1
    if isinstance(cause, PartitionTaskError) and cause.task_index is not None:
        result.counters["failed_task_index"] = cause.task_index
    result.notes["serial_fallback"] = f"parallel execution failed: {cause}"
    return result


#: The orchestrator configured for parallel verification.  Stages are
#: wall-clock-timed like the serial pipeline's, and the root span keeps
#: its measured duration.
SHARDED_PIPELINE = PhasePipeline(
    SHARDED_STAGES,
    engine="parallel",
    root_attributes=lambda ctx: {
        "cores": ctx.engine.cores,
        "shards": ctx.shards if ctx.shards is not None else ctx.engine.shards,
        "mode": "sharded",
        "r": ctx.r,
        "k": ctx.k,
        "backend": ctx.backend,
    },
    fallback=_fall_back_to_serial,
    fallback_errors=(PartitionTaskError, InjectedFault),
)


class ParallelMIOEngine:
    """Multi-core MIO query processing: parallel verification.

    Each query's verification runs on the coordinator plus a persistent
    pool of ``cores - 1`` worker processes: exact, serial-identical
    answers with real wall-clock speedup.  ``shards`` is the number of
    verifiers per query (default ``cores``).  ``mode`` only accepts
    ``"sharded"``; the simulated schedule study lives in
    :mod:`repro.bench.schedule`.
    """

    def __init__(
        self,
        collection: ObjectCollection,
        cores: int,
        backend: str = "ewah",
        label_store: Optional[LabelStore] = None,
        label_reuse: str = "safe",
        retries: int = 2,
        serial_fallback: bool = True,
        key_cache: Optional[LargeKeyCache] = None,
        tracer=None,
        kernel: str = "python",
        mode: str = "sharded",
        shards: Optional[int] = None,
        planner=None,
    ) -> None:
        if mode != "sharded":
            raise InvalidQueryError(
                f'mode must be "sharded" (got {mode!r}); the simulated schedule '
                "study is repro.bench.schedule.simulate_query"
            )
        if label_reuse not in ("safe", "paper"):
            raise InvalidQueryError('label_reuse must be "safe" or "paper"')
        if shards is not None and shards < 1:
            raise InvalidQueryError("shards must be at least 1")
        if cores < 1:
            raise InvalidQueryError("cores must be at least 1")
        resolve_kernel(kernel)  # validate the name up front
        self.collection = collection
        self.cores = cores
        self.backend = backend
        #: Label store and label policy serve only the serial fallback
        #: engine: parallel queries run label-free.  The key cache serves
        #: every grid mapping, as in the serial engine.
        self.label_store = label_store
        self.label_reuse = label_reuse
        self.key_cache = key_cache
        #: Re-executions granted to a failing verifier hand-off before the
        #: query aborts (and, with ``serial_fallback``, degrades to the serial
        #: engine instead of crashing).
        self.retries = retries
        self.serial_fallback = serial_fallback
        #: Optional tracer: each query records phase spans (wall-clock,
        #: with one verification child span per verifier).
        self.tracer = tracer
        #: Compute-kernel backend (see :mod:`repro.kernels`); the
        #: serial fallback engine inherits it.  Workers verify only over
        #: the numpy kernel's packed grids.
        self.kernel = kernel
        #: Verifiers per query (default: one per core).
        self.shards = shards if shards is not None else cores
        #: Optional query planner (see :mod:`repro.planner`): per query it
        #: picks sharded or serial (a small query degenerates to the
        #: serial pipeline in-process), shard count, and kernel, against
        #: this engine's static configuration as the baseline.
        self.planner = resolve_planner(planner)
        self._shard_executor: Optional[ShardExecutor] = None

    # ------------------------------------------------------------------
    # Sharded-execution resources
    # ------------------------------------------------------------------

    @property
    def shard_executor(self) -> ShardExecutor:
        """The lazy verifier pool (inline when ``cores <= 1``)."""
        if self._shard_executor is None:
            self._shard_executor = ShardExecutor(
                self.collection, self.cores - 1, retries=self.retries
            )
        return self._shard_executor

    def close(self) -> None:
        """Release worker processes and shared memory (idempotent)."""
        if self._shard_executor is not None:
            self._shard_executor.close()
            self._shard_executor = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(
        self,
        r: float,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        """The MIO answer plus per-phase wall-clock times."""
        if deadline is None:
            deadline = Deadline.from_timeout_ms(timeout_ms)
        return self._run(r, k=1, want_ranking=False, deadline=deadline, tracer=tracer)

    def query_topk(
        self,
        r: float,
        k: int,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        """The top-k variant under parallel processing."""
        if k < 1:
            raise InvalidQueryError("k must be at least 1")
        if deadline is None:
            deadline = Deadline.from_timeout_ms(timeout_ms)
        return self._run(r, k=k, want_ranking=True, deadline=deadline, tracer=tracer)

    # ------------------------------------------------------------------
    # Pipeline entry
    # ------------------------------------------------------------------

    def _run(
        self,
        r: float,
        k: int,
        want_ranking: bool,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        if r <= 0:
            raise InvalidQueryError("the distance threshold r must be positive")
        tracer = ensure_tracer(tracer if tracer is not None else self.tracer)
        plan = decision = stats = None
        if self.planner is not None:
            # Engine-level planning: sharded-vs-serial and the shard count
            # must be known before a pipeline is even selected, so the
            # decision happens here and rides into the context pre-pinned
            # (the planning stage then only applies it).  The baseline is
            # this engine's static configuration -- the planner must
            # predict a real win to deviate from it.
            stats = capture_statistics(
                self.collection,
                r,
                k=k,
                cores=self.cores,
                sharding_available=True,
                numpy_available=numpy_kernel_available(),
            )
            baseline = Plan(
                kernel=resolve_kernel(self.kernel).name,
                mode="sharded",
                shards=self.shards,
            )
            decision = self.planner.decide(stats, baseline)
            plan = decision.plan
        run_serial = plan is not None and plan.mode == "serial"
        ctx = QueryContext(
            collection=self.collection,
            r=r,
            k=k,
            want_ranking=want_ranking,
            deadline=deadline,
            tracer=tracer,
            backend=self.backend,
            # Label-free, including a planner-degenerated serial run
            # (module docstring).
            label_store=None,
            label_reuse=self.label_reuse,
            key_cache=self.key_cache,
            engine=self,
            kernel=self.kernel,
            shards=(
                None
                if run_serial
                else (plan.shards if plan is not None else self.shards)
            ),
            planner=self.planner,
            plan=plan,
        )
        ctx.plan_decision = decision
        ctx.plan_stats = stats
        # A planner-chosen serial run skips the hand-off overhead; answers
        # are bit-identical either way (one best-first loop).
        pipeline = SERIAL_PIPELINE if run_serial else SHARDED_PIPELINE
        return pipeline.run(ctx)
