"""Shard plumbing: the parallel verification pool, routing and curves.

The subsystem behind the parallel engine
(:class:`~repro.parallel.engine.ParallelMIOEngine`):
:mod:`repro.shard.executor` runs best-first verification across a
persistent pool of worker processes over one coordinator-built packed
grid in shared memory.  :mod:`repro.shard.router` (curve-contiguous
shards with exact Lemma-2 halos) and :mod:`repro.shard.curves` (Hilbert
and Z-order cell codes) no longer serve queries; they remain only for
the end-to-end benchmark's routing probe.

Layering: this package sits below :mod:`repro.parallel` (which
orchestrates it through the phase pipeline) and must never import the
session, service, or CLI layers — ``tests/test_layering.py`` enforces
that.
"""

from repro.shard.curves import CURVES, curve_codes
from repro.shard.executor import ShardExecutor, VerifierReport
from repro.shard.router import ShardPlan, plan_shards

__all__ = [
    "CURVES",
    "curve_codes",
    "ShardExecutor",
    "VerifierReport",
    "ShardPlan",
    "plan_shards",
]
