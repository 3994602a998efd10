"""Parallel MIO query processing (Section IV of the paper).

* :mod:`repro.parallel.partitioning` -- multi-way number partitioning
  (Theorem 3 shows optimal balancing is NP-complete, so the paper uses
  greedy heuristics) and the Eq. (3) cost model.
* :mod:`repro.parallel.plans`        -- per-phase partitioning plans:
  LB-greedy-d / LB-hash-p for lower-bounding, UB-greedy-p / UB-greedy-d
  for upper-bounding, the point-splitting plan for verification.
* :mod:`repro.parallel.engine`       -- ``ParallelMIOEngine``, the serial
  engine under its former multi-core name (kept for the end-to-end
  benchmark).

The paper's schedule study (Figs. 8/9, Table III), which applies the
partitioning plans to measured per-task costs, is the bench-only module
:mod:`repro.bench.schedule`.
"""

from repro.parallel.engine import ParallelMIOEngine
from repro.parallel.partitioning import (
    greedy_partition,
    hash_partition,
    karmarkar_karp_partition,
    load_balance_ratio,
    streaming_greedy_partition,
    upper_bounding_group_cost,
)

__all__ = [
    "ParallelMIOEngine",
    "greedy_partition",
    "hash_partition",
    "karmarkar_karp_partition",
    "load_balance_ratio",
    "streaming_greedy_partition",
    "upper_bounding_group_cost",
]
