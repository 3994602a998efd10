"""Shard routing and curves, kept for the end-to-end benchmark's probe.

:mod:`repro.shard.router` (curve-contiguous shards with exact Lemma-2
halos) and :mod:`repro.shard.curves` (Hilbert and Z-order cell codes)
serve no query: the end-to-end benchmark's traced pass times
``plan_shards`` directly.  ROADMAP item 1 deletes both once that probe
is gone.

Layering: this package must never import the session, service, CLI or
orchestration layers — ``tests/test_layering.py`` enforces that.
"""

from repro.shard.curves import CURVES, curve_codes
from repro.shard.router import ShardPlan, plan_shards

__all__ = [
    "CURVES",
    "curve_codes",
    "ShardPlan",
    "plan_shards",
]
