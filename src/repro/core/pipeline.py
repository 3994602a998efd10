"""The phase pipeline: one orchestrator for every MIO query variant.

Algorithm 2's filter-and-verification skeleton

    GRID-MAPPING -> LOWER-BOUNDING -> UPPER-BOUNDING -> VERIFICATION

used to be hand-woven separately by the serial engine, the temporal
engine, and the progressive iterator, each
re-threading the same cross-cutting concerns (tracing spans, fault trips,
deadline checkpoints, phase timing, metric recording) in slightly
different ways.  This module factors the skeleton out:

* :class:`QueryContext` carries one query's inputs (``r``, ``k``,
  deadline, tracer, caches, backend) and accumulates its intermediate
  state (labels, BIGrid, bounds, candidates, verification, result).
* :class:`Stage` is one pipeline step.  A stage declares *what* it
  computes (:meth:`Stage.run`) plus which middleware applies to it via
  four flags -- ``trips_fault``, ``checks_deadline``, ``traced``,
  ``timed`` -- so boilerplate never appears in stage bodies.
* :class:`PhasePipeline` composes stages and applies the middleware
  uniformly: fault trip, deadline checkpoint, span creation, wall-clock
  timing, root-span bookkeeping, trace-derived ``phases`` and metric
  recording.

An engine is then just a stage list plus a pipeline configuration: the
temporal engine swaps in ``(bin, key)``-indexed stages, and the
progressive iterator runs the filter prefix of the serial stage list.

Faults are tripped and deadlines checkpointed *before* a phase span
opens: a fault aborts the query before the span exists.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults
from repro.bitset.factory import resolve_backend
from repro.core.labels import PointLabels, labels_match_collection
from repro.core.query import MIOResult, PhaseStats
from repro.grid.bigrid import BIGrid
from repro.kernels import resolve_kernel
from repro.obs import metrics as obs_metrics
from repro.obs.recorders import observe_query
from repro.obs.telemetry import get_telemetry
from repro.obs.trace import NULL_TRACER, Tracer, phase_durations
from repro.resilience import checkpoint


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def kth_largest(values: Sequence[int], k: int) -> int:
    """The k-th highest value (0 when fewer than ``k`` values exist).

    The pruning threshold of the top-k variant: lower-bounding keeps the
    k-th best lower bound, so upper-bounding prunes objects that cannot
    reach the provisional top-k.
    """
    if k > len(values):
        return 0
    return heapq.nlargest(k, values)[-1]


def batch_order(r_values: Sequence[float]) -> List[int]:
    """Section III-D's sweep order over a batch of thresholds.

    Indices grouped by ``ceil(r)`` ascending, largest ``r`` first within
    each group, ties keeping submission order (the sort is stable): the
    first -- most general -- query of each group produces the labels and
    every other query in the group runs the WITH-LABEL pipeline.
    """
    return sorted(
        range(len(r_values)),
        key=lambda index: (math.ceil(r_values[index]), -r_values[index]),
    )


def run_grouped_sweep(
    r_values: Sequence[float], run_one: Callable[[int], MIOResult]
) -> List[MIOResult]:
    """Run ``run_one(index)`` in :func:`batch_order`; results in caller order.

    The single ceil(r)-grouped sweep implementation behind both
    :meth:`~repro.core.engine.MIOEngine.query_batch` and
    :meth:`~repro.session.QuerySession.query_many`.
    """
    results: List[Optional[MIOResult]] = [None] * len(r_values)
    for index in batch_order(r_values):
        results[index] = run_one(index)
    return results  # type: ignore[return-value]


def verify_mask_provider(
    labels: Optional[PointLabels], r: float, label_reuse: str
):
    """Labeling-3 mask provider, honoring the reuse policy."""
    if labels is None:
        return None
    if label_reuse == "safe" and labels.r != r:
        # Labeling-1 still filters grid mapping; Labeling-3 is withheld.
        return None
    return labels.verify_mask


# ----------------------------------------------------------------------
# Query context
# ----------------------------------------------------------------------


class QueryContext:
    """One query's inputs and accumulated pipeline state.

    Inputs are fixed at construction (engines re-read their own mutable
    configuration -- e.g. a batch-scoped label store -- per query, so a
    module-level pipeline instance is safe to share).  Intermediates are
    written by stages as the pipeline advances; variant pipelines may
    attach extra attributes (the temporal engine stores ``delta`` and its
    fused index here).
    """

    def __init__(
        self,
        collection,
        r: float,
        k: int = 1,
        want_ranking: bool = False,
        deadline=None,
        tracer=None,
        backend: str = "ewah",
        label_store=None,
        label_reuse: str = "safe",
        grid_cache=None,
        lower_cache=None,
        engine=None,
        kernel=None,
    ) -> None:
        self.collection = collection
        self.r = r
        self.k = k
        self.want_ranking = want_ranking
        self.deadline = deadline
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.backend = backend
        self.resolved_backend = backend
        self.label_store = label_store
        self.label_reuse = label_reuse
        self.grid_cache = grid_cache
        self.lower_cache = lower_cache
        #: The owning engine (or None): stages publish inspection state
        #: (``last_bigrid``) through it.
        self.engine = engine
        self.ceil_r = math.ceil(r)
        self.stats = PhaseStats()
        self.notes: Dict[str, str] = {}
        #: Resolved compute backend for the hot phase loops; an explicit
        #: ``"numpy"`` request degrades to the reference backend (noted)
        #: when numpy cannot serve, mirroring the bitset chain.
        self.kernel = resolve_kernel(kernel)
        if (
            isinstance(kernel, str)
            and kernel not in ("auto", self.kernel.name)
        ):
            self.notes["degraded_kernel"] = f"{kernel}->{self.kernel.name}"
        self.extra: Dict[str, float] = {}
        # -- intermediates -------------------------------------------------
        self.labels: Optional[PointLabels] = None
        self.labeler: Optional[PointLabels] = None
        self.bigrid: Optional[BIGrid] = None
        self.lower = None
        self.threshold: int = 0
        self.upper = None
        self.verification = None
        self.lower_values: Optional[List[int]] = None
        self.candidates: Optional[List[Tuple[int, int]]] = None
        self.ranking: Optional[List[Tuple[int, int]]] = None
        self.verified: int = 0
        self.result: Optional[MIOResult] = None


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------


class Stage:
    """One pipeline step plus its middleware contract.

    Class attributes declare the defaults; constructor keyword overrides
    re-flag an *instance* (e.g. the progressive iterator reuses the
    serial filter stages with ``trips_fault=False, checks_deadline=False``
    to preserve its fault- and checkpoint-free behavior).

    ``name`` is the phase identity used by every middleware: the fault
    injection point, the deadline checkpoint's phase, the span name, and
    the ``PhaseStats`` timing key.  Anonymous (``name=None``) stages are
    glue and must disable all four flags.
    """

    #: Phase name (fault point / checkpoint phase / span / timing key).
    name: Optional[str] = None
    #: Arm ``faults.trip(name)`` at the stage boundary.
    trips_fault: bool = True
    #: Run ``checkpoint(deadline, name)`` at the stage boundary.
    checks_deadline: bool = True
    #: Open a ``tracer.span(name)`` around the stage.
    traced: bool = True
    #: Wrap the stage in ``time.perf_counter`` and ``stats.add_time(name)``.
    timed: bool = True

    def __init__(self, **overrides: Any) -> None:
        for key, value in overrides.items():
            if not hasattr(type(self), key):
                raise AttributeError(f"{type(self).__name__} has no flag {key!r}")
            setattr(self, key, value)

    def active(self, ctx: QueryContext) -> bool:
        """Whether the stage participates in this query (default: always)."""
        return True

    def span_attributes(self, ctx: QueryContext) -> Dict[str, Any]:
        """Attributes the stage's span opens with."""
        return {}

    def run(self, ctx: QueryContext, span) -> None:
        """Do the stage's work, reading and writing ``ctx``."""
        raise NotImplementedError


class BackendResolutionStage(Stage):
    """Backend degradation chain: an unavailable backend downgrades the
    query instead of failing it, and the downgrade is recorded."""

    trips_fault = False
    checks_deadline = False
    traced = False
    timed = False

    def run(self, ctx: QueryContext, span) -> None:
        _, resolved = resolve_backend(ctx.backend)
        ctx.resolved_backend = resolved
        if resolved != ctx.backend:
            ctx.notes["degraded_backend"] = f"{ctx.backend}->{resolved}"
            ctx.stats.set_count("degraded_backend", 1)
            obs_metrics.counter(
                "repro_backend_degradations_total",
                "Bitset backend downgrades (requested backend unavailable)",
            ).inc(requested=ctx.backend, resolved=resolved)


class LabelInputStage(Stage):
    """Section III-D label lookup (and staleness guard) for ``ceil(r)``.

    A missed lookup reads no labels: its span is renamed ``label_lookup``
    so it stays visible in the trace without counting as a phase
    (``phase_durations`` must mirror the untraced ``PhaseStats``
    semantics), and a fresh labeler is armed so this query produces the
    group's labels.

    Under a resident-grid tier, a query whose ``r`` is the one the
    ceiling's labels were produced at reads no labels either: the
    labeling query kept its label-free grid, and the memo it filled
    answers the repeat (an uncounted :meth:`~repro.core.labels.
    LabelStore.peek` decides).
    """

    name = "label_input"
    trips_fault = False
    checks_deadline = False
    timed = False  # times itself: only a *hit* reads labels (a phase)

    def active(self, ctx: QueryContext) -> bool:
        return ctx.label_store is not None

    def run(self, ctx: QueryContext, span) -> None:
        started = time.perf_counter()
        if ctx.grid_cache is not None:
            stored = ctx.label_store.peek(ctx.ceil_r)
            if stored is not None and stored.r == ctx.r:
                span.rename("label_lookup")
                span.set_attributes(cache_hit=False, label_free_repeat=True)
                return
        labels = ctx.label_store.get(ctx.ceil_r)
        if labels is not None and not labels_match_collection(labels, ctx.collection):
            # Stored labels describe a different collection (stale store);
            # ignore them and relabel rather than risk a wrong answer.
            labels = None
        if labels is not None:
            ctx.stats.add_time("label_input", time.perf_counter() - started)
        else:
            span.rename("label_lookup")
        span.set_attributes(cache_hit=labels is not None)
        ctx.labels = labels
        if labels is None:
            ctx.labeler = PointLabels.for_collection(ctx.collection, ctx.r)


class GridMappingStage(Stage):
    """GRID-MAPPING (Algorithm 3), skipping ``label(p) = 0**`` points.

    Under a :class:`~repro.grid.cache.ResidentGridCache` the query takes
    a kernel view of the resident grid for its exact ``r`` and labels
    instead of building one.  A build is kept resident -- and the query
    runs on a view of it -- when the kernel can view it.  A labeling
    query's grid is label-free, so it is kept under no labels: later
    queries at its ``r`` run label-free on it (:class:`LabelInputStage`).
    A build cut short by a deadline or a fault raises before the store.
    """

    name = "grid_mapping"

    def run(self, ctx: QueryContext, span) -> None:
        tier = ctx.grid_cache
        resident = (
            tier.get(ctx.collection, ctx.r, ctx.resolved_backend, ctx.labels)
            if tier is not None
            else None
        )
        bigrid = ctx.kernel.grid_view(resident) if resident is not None else None
        if bigrid is None:
            bigrid = ctx.kernel.build_bigrid(
                ctx.collection,
                ctx.r,
                backend=ctx.resolved_backend,
                labels=ctx.labels,
                deadline=ctx.deadline,
            )
            view = ctx.kernel.grid_view(bigrid) if tier is not None else None
            if view is not None:
                tier.put(ctx.r, ctx.resolved_backend, ctx.labels, bigrid)
                bigrid = view
        span.set_attribute("cache_hit", resident is not None)
        ctx.bigrid = bigrid
        if ctx.engine is not None:
            ctx.engine.last_bigrid = bigrid
        ctx.stats.set_count("small_cells", len(bigrid.small_grid))
        ctx.stats.set_count("large_cells", len(bigrid.large_grid))
        ctx.stats.set_count("mapped_points", bigrid.mapped_points)
        span.set_attributes(
            small_cells=len(bigrid.small_grid),
            large_cells=len(bigrid.large_grid),
            mapped_points=bigrid.mapped_points,
        )


class LowerBoundingStage(Stage):
    """LOWER-BOUNDING (Algorithm 4), with the exact-``r`` cache in front.

    The result keeps every object's union as seeds for verification, so a
    cached entry serves label-free and with-label queries alike.  Also
    derives the pruning threshold (the top-k variant keeps the k-th best
    lower bound).
    """

    name = "lower_bounding"

    def run(self, ctx: QueryContext, span) -> None:
        lower = ctx.lower_cache.get(ctx.r) if ctx.lower_cache is not None else None
        if lower is not None:
            ctx.stats.set_count("lower_cache_hit", 1)
            ctx.stats.set_count("tau_max_low", lower.tau_max)
            span.set_attribute("cache_hit", True)
        else:
            lower = ctx.kernel.lower_bounds(
                ctx.bigrid, stats=ctx.stats, deadline=ctx.deadline
            )
            if ctx.lower_cache is not None:
                ctx.lower_cache.put(ctx.r, lower)
        span.set_attribute("tau_max_low", lower.tau_max)
        ctx.lower = lower
        ctx.notes["lower_bound_path"] = lower.path
        ctx.threshold = (
            lower.tau_max if ctx.k == 1 else kth_largest(lower.values, ctx.k)
        )


class UpperBoundingStage(Stage):
    """UPPER-BOUNDING + pruning (Algorithm 5)."""

    name = "upper_bounding"

    def run(self, ctx: QueryContext, span) -> None:
        upper = ctx.kernel.upper_bounds(
            ctx.bigrid,
            ctx.threshold,
            labels=ctx.labels,
            labeler=ctx.labeler,
            stats=ctx.stats,
            deadline=ctx.deadline,
        )
        ctx.upper = upper
        span.set_attribute("candidates", len(upper.candidates))


class VerificationStage(Stage):
    """VERIFICATION (Algorithm 6 / top-k variant).

    No boundary checkpoint: from here on an expired deadline degrades to
    an anytime answer instead of raising -- every settled candidate's
    score is exact, so the best one is a correct lower bound on the
    optimum (Corollary 1).
    """

    name = "verification"
    checks_deadline = False

    def run(self, ctx: QueryContext, span) -> None:
        # Scores computed ahead in a block but dropped at the loop's break
        # are reported as ``extra["speculative_scores"]`` (every counter
        # stays the reference's).
        verification = ctx.kernel.verify_candidates(
            ctx.bigrid,
            ctx.upper.candidates,
            ctx.r,
            k=ctx.k,
            seeds=ctx.lower.seeds,
            verify_masks=verify_mask_provider(ctx.labels, ctx.r, ctx.label_reuse),
            labeler=ctx.labeler,
            stats=ctx.stats,
            deadline=ctx.deadline,
        )
        ctx.extra["speculative_scores"] = verification.speculative
        ctx.verification = verification
        ctx.notes["verification_path"] = verification.path
        span.set_attributes(
            candidates=len(ctx.upper.candidates),
            settled=verification.verified,
            timed_out=verification.timed_out,
            path=verification.path,
        )


class LabelOutputStage(Stage):
    """Persist a completed labeling pass for later same-ceiling queries.

    Skipped after a verification timeout: a partial labeling pass must
    not be persisted -- its marks are individually sound but the store
    would record the pass as complete for this ``ceil(r)``.
    """

    name = "label_output"
    trips_fault = False
    checks_deadline = False

    def active(self, ctx: QueryContext) -> bool:
        return ctx.labeler is not None and not ctx.verification.timed_out

    def run(self, ctx: QueryContext, span) -> None:
        ctx.label_store.put(ctx.ceil_r, ctx.labeler)
        for kind, count in ctx.labeler.count_cleared().items():
            ctx.stats.set_count(f"labeled_{kind}", count)


class SerialFinalizeStage(Stage):
    """Assemble the serial :class:`MIOResult` (exact or anytime)."""

    trips_fault = False
    checks_deadline = False
    traced = False
    timed = False

    @staticmethod
    def _algorithm(ctx: QueryContext) -> str:
        return "bigrid-label" if ctx.labels is not None else "bigrid"

    def run(self, ctx: QueryContext, span) -> None:
        if ctx.verification.timed_out:
            ctx.result = self._anytime_result(ctx)
            return
        ranking = ctx.verification.ranking
        if not ranking:
            raise AssertionError(
                "verification produced no answer for a non-empty collection"
            )
        winner, score = ranking[0]
        ctx.result = MIOResult(
            algorithm=self._algorithm(ctx),
            r=ctx.r,
            winner=winner,
            score=score,
            topk=ranking if ctx.want_ranking else None,
            phases=ctx.stats.phases,
            counters=ctx.stats.counters,
            memory_bytes=ctx.bigrid.memory_bytes(),
            notes=ctx.notes,
            extra=ctx.extra,
        )

    def _anytime_result(self, ctx: QueryContext) -> MIOResult:
        """Best verified answer under an expired deadline (``exact=False``).

        Two certified lower bounds are available: the best *exact* score
        among settled candidates, and the best Lemma-1 lower bound over
        all objects.  Both are correct; the larger one wins.  The result's
        score is therefore always ``<= tau(winner) <=`` the true optimum.
        """
        lower = ctx.lower
        ranking = ctx.verification.ranking
        best_lb_oid = max(
            range(ctx.bigrid.collection.n),
            key=lambda oid: (lower.values[oid], -oid),
        )
        best_lb = lower.values[best_lb_oid]
        if ranking and ranking[0][1] >= best_lb:
            winner, score = ranking[0]
        else:
            winner, score = best_lb_oid, best_lb
        notes = dict(ctx.notes)
        notes["anytime"] = "deadline expired during verification"
        notes["degraded_deadline"] = "verification"
        return MIOResult(
            algorithm=self._algorithm(ctx),
            r=ctx.r,
            winner=winner,
            score=score,
            topk=ranking if ctx.want_ranking and ranking else None,
            phases=ctx.stats.phases,
            counters=ctx.stats.counters,
            memory_bytes=ctx.bigrid.memory_bytes(),
            exact=False,
            notes=notes,
            extra=ctx.extra,
        )


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------


class PhasePipeline:
    """Composes stages and applies every cross-cutting middleware.

    Parameters
    ----------
    stages:
        The stage instances, in execution order.
    engine:
        Label for the root span's ``engine`` attribute and the metric
        recorder (``"serial"``, ``"temporal"``, ...).
    root_attributes:
        ``ctx -> dict`` of extra attributes for the root ``query`` span.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        engine: str,
        root_attributes: Optional[Callable[[QueryContext], Dict[str, Any]]] = None,
    ) -> None:
        self.stages = tuple(stages)
        self.engine = engine
        self.root_attributes = root_attributes

    def execute(self, ctx: QueryContext) -> QueryContext:
        """Run the stage list under the middleware (no root span).

        The entry point for pipeline *fragments* -- the progressive
        iterator runs the filter prefix this way and takes over after
        bounding.  Full queries go through :meth:`run`.
        """
        tracer = ctx.tracer
        for stage in self.stages:
            if not stage.active(ctx):
                continue
            name = stage.name
            if stage.trips_fault:
                faults.trip(name)
            if stage.checks_deadline:
                checkpoint(ctx.deadline, name)
            if stage.traced:
                with tracer.span(name, **stage.span_attributes(ctx)) as span:
                    self._invoke(stage, ctx, span)
            else:
                self._invoke(stage, ctx, None)
        return ctx

    @staticmethod
    def _invoke(stage: Stage, ctx: QueryContext, span) -> None:
        if stage.timed:
            started = time.perf_counter()
            stage.run(ctx, span)
            ctx.stats.add_time(stage.name, time.perf_counter() - started)
        else:
            stage.run(ctx, span)

    def run(self, ctx: QueryContext) -> MIOResult:
        """One full query: root span, stages, finalization, recording.

        This is also the telemetry hub's single choke point: when the
        caller did not bring its own tracer, the hub's head sampler may
        attach one here (always-on sampled tracing), and every observed
        result is folded into the hub -- profile ring, JSONL sink, and
        slow-query log -- alongside the metrics recorder.
        """
        tracer = ctx.tracer
        telemetry = get_telemetry()
        if not tracer.enabled and telemetry.should_sample():
            # Sampled-in: this query carries a full span tree that lands
            # in the hub's trace ring (the caller's NULL tracer is only
            # replaced for this one context, never shared back).
            ctx.tracer = tracer = Tracer()
        attributes = self.root_attributes(ctx) if self.root_attributes else {}
        with tracer.span("query", engine=self.engine, **attributes) as root:
            self.execute(ctx)
            result = ctx.result
            root.set_attributes(
                winner=result.winner, score=result.score, exact=result.exact
            )
        if tracer.enabled:
            # The trace is the source of truth: the reported per-phase
            # times ARE the span durations, so tree and result agree.
            result.phases = phase_durations(root)
        observe_query(result, engine=self.engine)
        telemetry.observe_result(
            result,
            engine=self.engine,
            r=ctx.r,
            k=ctx.k,
            ceil_r=ctx.ceil_r,
            n=getattr(ctx.collection, "n", 0),
            sampled=tracer.enabled,
            span_root=root if tracer.enabled else None,
        )
        return result


# ----------------------------------------------------------------------
# Canonical pipelines
# ----------------------------------------------------------------------

#: The serial engine's stage set (Algorithm 2 with Section III-D labels).
SERIAL_STAGES: Tuple[Stage, ...] = (
    BackendResolutionStage(),
    LabelInputStage(),
    GridMappingStage(),
    LowerBoundingStage(),
    UpperBoundingStage(),
    VerificationStage(),
    LabelOutputStage(),
    SerialFinalizeStage(),
)

SERIAL_PIPELINE = PhasePipeline(
    SERIAL_STAGES,
    engine="serial",
    root_attributes=lambda ctx: {"r": ctx.r, "k": ctx.k, "backend": ctx.backend},
)

#: The filter prefix (no verification) with fault trips and boundary
#: checkpoints disabled: the progressive iterator's entry point, which
#: preserves its historical behavior (phase functions honor the deadline
#: internally; no injection points fire).
FILTER_PIPELINE = PhasePipeline(
    (
        BackendResolutionStage(),
        GridMappingStage(trips_fault=False, checks_deadline=False),
        LowerBoundingStage(trips_fault=False, checks_deadline=False),
        UpperBoundingStage(trips_fault=False, checks_deadline=False),
    ),
    engine="progressive",
)
