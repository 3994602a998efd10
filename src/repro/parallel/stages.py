"""Sharded stage implementations for the shared phase pipeline.

The parallel engine is the same :class:`~repro.core.pipeline.PhasePipeline`
as the serial engine with this stage set swapped in: route the collection
onto curve-contiguous shards with exact halos, fan the per-shard phase
chain out to the engine's worker pool, replay the serial best-first loop
over the shards' answers, and assemble the result.  Stages are
wall-clock-timed by the pipeline like the serial ones.

Sharded fault injection is the ``shard_task`` point, tripped by the
shard executor before each dispatch; a task dying past its retry budget
surfaces as the pipeline's fallback (see
:data:`~repro.parallel.engine.SHARDED_PIPELINE`), which swaps in the
serial stage set mid-run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.pipeline import (
    BackendResolutionStage,
    PlanningStage,
    QueryContext,
    Stage,
)
from repro.core.query import MIOResult
from repro.errors import QueryTimeout
from repro.shard.executor import ShardTimeout
from repro.shard.merge import merge_outcomes


def _merge_paths(paths: List[str]) -> str:
    """One note value from per-shard path reports ("mixed" when they differ)."""
    unique = sorted(set(paths))
    if not unique:
        return "reference"
    return unique[0] if len(unique) == 1 else "mixed"


class ShardRouteStage(Stage):
    """Route the collection onto curve-contiguous shards with exact halos.

    The plan comes from the engine's :class:`~repro.shard.router.
    ShardPlanCache` — one routing pass per ``(ceil_r, shards, curve)``
    per engine lifetime, the shard analogue of the large-key cache tier.
    """

    name = "shard_route"
    trips_fault = False  # sharded fault injection is the "shard_task" point

    def span_attributes(self, ctx: QueryContext) -> Dict[str, str]:
        return {"curve": ctx.engine.curve}

    def run(self, ctx: QueryContext, span) -> None:
        engine = ctx.engine
        shards = ctx.shards if ctx.shards is not None else engine.shards
        plan = engine.plan_cache.get(ctx.collection, ctx.r, shards, engine.curve)
        ctx.shard_plan = plan
        ctx.stats.set_count("shards", plan.shards)
        ctx.stats.set_count("shard_halo_objects", plan.halo_objects)
        span.set_attributes(
            shards=plan.shards,
            halo_objects=plan.halo_objects,
            curve_bits=plan.bits,
            plan_cache_hits=engine.plan_cache.hits,
        )


class ShardExecuteStage(Stage):
    """Fan the per-shard phase chain out to the engine's process pool.

    Each worker runs grid mapping, lower/upper bounding, and best-first
    verification for its shard over shared-memory coordinates; retries,
    respawns, and the ``shard_task`` fault point live in the executor.
    A pre-verification deadline expiry inside a worker is re-raised here
    as :class:`QueryTimeout` (same contract as the serial boundary
    checkpoints); mid-verification expiry degrades at merge time.
    """

    name = "shard_execute"
    trips_fault = False

    def run(self, ctx: QueryContext, span) -> None:
        engine = ctx.engine
        plan = ctx.shard_plan
        timeout_ms = (
            ctx.deadline.remaining_ms() if ctx.deadline is not None else None
        )
        payloads = [
            {
                "shard": shard,
                "owned": [int(oid) for oid in plan.owned[shard]],
                "halo": [int(oid) for oid in plan.halo[shard]],
                "r": ctx.r,
                "k": ctx.k,
                "backend": ctx.resolved_backend,
                "kernel": ctx.kernel.name,
                "timeout_ms": timeout_ms,
            }
            for shard in range(plan.shards)
        ]
        try:
            outcomes = engine.shard_executor.run_query(
                payloads, retries=engine.retries, deadline=ctx.deadline
            )
        except ShardTimeout as exc:
            raise QueryTimeout(
                f"shard deadline expired during {exc.phase}", phase=exc.phase
            ) from exc
        ctx.shard_outcomes = outcomes
        ctx.notes["verification_path"] = _merge_paths(
            [outcome.verification_path for outcome in outcomes]
        )
        ctx.notes["lower_bound_path"] = _merge_paths(
            [outcome.lower_bound_path for outcome in outcomes]
        )
        if ctx.tracer.enabled:
            for outcome in outcomes:
                ctx.tracer.record(
                    f"shard-{outcome.shard}",
                    outcome.seconds,
                    shard=outcome.shard,
                    owned_objects=outcome.owned_objects,
                    halo_objects=outcome.halo_objects,
                    candidates=outcome.candidates,
                    verified=outcome.verified,
                )
        span.set_attributes(
            shards=len(outcomes),
            workers=engine.shard_executor.workers,
            inline=engine.shard_executor.inline,
        )


class ShardMergeStage(Stage):
    """Replay the serial best-first loop over the shards' answers.

    No boundary checkpoint: verification already ran, so an expired
    deadline from here on degrades to an anytime answer (the replay
    surfaces the settled prefix), mirroring the serial pipeline.
    """

    name = "shard_merge"
    trips_fault = False
    checks_deadline = False

    def run(self, ctx: QueryContext, span) -> None:
        merged = merge_outcomes(ctx.shard_outcomes, ctx.k)
        ctx.merged = merged
        ctx.stats.set_count("candidates_total", merged.candidates)
        ctx.stats.set_count("candidates_settled", merged.verified)
        ctx.stats.set_count("verified_objects", merged.verified)
        ctx.stats.set_count("early_terminated", int(merged.early_terminated))
        ctx.stats.set_count("verification_timed_out", int(merged.timed_out))
        span.set_attributes(
            candidates=merged.candidates,
            settled=merged.verified,
            timed_out=merged.timed_out,
        )


class ShardFinalizeStage(Stage):
    """Assemble the sharded :class:`MIOResult` (exact or anytime)."""

    trips_fault = False
    checks_deadline = False
    traced = False
    timed = False

    def run(self, ctx: QueryContext, span) -> None:
        merged = ctx.merged
        plan = ctx.shard_plan
        counters = dict(ctx.stats.counters)
        counters.update(
            {
                "cores": ctx.engine.cores,
                "shards": plan.shards,
                "candidates": merged.candidates,
                "verified_objects": merged.verified,
            }
        )
        memory = sum(outcome.memory_bytes for outcome in ctx.shard_outcomes)
        if merged.timed_out:
            ctx.result = self._anytime_result(ctx, counters, memory)
            return
        ranking = merged.ranking
        if not ranking:
            raise AssertionError(
                "sharded merge produced no answer for a non-empty collection"
            )
        winner, score = ranking[0]
        ctx.result = MIOResult(
            algorithm="bigrid-sharded",
            r=ctx.r,
            winner=winner,
            score=score,
            topk=ranking if ctx.want_ranking else None,
            phases=ctx.stats.phases,
            counters=counters,
            memory_bytes=memory,
            notes=ctx.notes,
            extra=ctx.extra,
        )

    @staticmethod
    def _anytime_result(ctx: QueryContext, counters, memory) -> MIOResult:
        """Anytime answer when a shard's verification was cut short.

        Same certificate as the serial engine's anytime path: the larger
        of the best settled exact score and the best Lemma-1 lower bound
        (here the max over the shards' per-owned-object maxima, which
        covers every object exactly once).
        """
        merged = ctx.merged
        ranking = merged.ranking
        best_lb_value, best_lb_oid = merged.best_lb
        if ranking and ranking[0][1] >= best_lb_value:
            winner, score = ranking[0]
        else:
            winner, score = best_lb_oid, best_lb_value
        notes = dict(ctx.notes)
        notes["anytime"] = "deadline expired during verification"
        notes["degraded_deadline"] = "verification"
        return MIOResult(
            algorithm="bigrid-sharded",
            r=ctx.r,
            winner=winner,
            score=score,
            topk=ranking if ctx.want_ranking and ranking else None,
            phases=ctx.stats.phases,
            counters=counters,
            memory_bytes=memory,
            exact=False,
            notes=notes,
            extra=ctx.extra,
        )


#: The sharded engine's stage set, consumed by
#: :data:`repro.parallel.engine.SHARDED_PIPELINE`.
SHARDED_STAGES: Tuple[Stage, ...] = (
    BackendResolutionStage(),
    # The parallel engine pins the plan before the pipeline runs; this
    # stage applies it (kernel resolution + plan notes + predictions)
    # before routing, so the per-shard payloads inherit the planned
    # kernel.  Inert without a planner.
    PlanningStage(),
    ShardRouteStage(),
    ShardExecuteStage(),
    ShardMergeStage(),
    ShardFinalizeStage(),
)
