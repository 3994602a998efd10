"""Space-filling-curve sharding: routing, curves, and the process executor.

The subsystem behind the parallel engine
(:class:`~repro.parallel.engine.ParallelMIOEngine`): :mod:`repro.shard.curves` orders grid cells along a Hilbert
or Z-order curve, :mod:`repro.shard.router` cuts collections into
curve-contiguous shards with exact Lemma-2 halos, and
:mod:`repro.shard.executor` runs the vectorized phase chain per shard in
worker processes over shared-memory coordinates.

Layering: this package sits below :mod:`repro.parallel` (which
orchestrates it through the phase pipeline) and must never import the
session, service, or CLI layers — ``tests/test_layering.py`` enforces
that.
"""

from repro.shard.curves import CURVES, curve_codes
from repro.shard.executor import ShardExecutor, ShardOutcome, run_shard_task
from repro.shard.router import ShardPlan, ShardPlanCache, plan_shards

__all__ = [
    "CURVES",
    "curve_codes",
    "ShardExecutor",
    "ShardOutcome",
    "run_shard_task",
    "ShardPlan",
    "ShardPlanCache",
    "plan_shards",
]
