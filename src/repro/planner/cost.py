"""The analytical cost model: Eq. (3) extended to whole-plan selection.

The paper uses its cost model once, to balance UPPER-BOUNDING key groups
across cores (Eq. (3): a group's cost is ``3^d`` bitset unions per *new*
large cell, one OR per *reused* cell, plus per-point labeling work —
implemented verbatim in
:func:`repro.parallel.partitioning.upper_bounding_group_cost`).  This
module extends the same functional form to every phase and every knob,
so one model prices an entire :class:`~repro.planner.plan.Plan`:

* each phase's **work units** are estimated from
  :class:`~repro.planner.stats.QueryStatistics` with a Poisson occupancy
  model (cell intensity ``lambda = density * width^d``; the fraction of
  points landing in shared cells is ``lambda / (1 + lambda)``), all
  terms monotone non-decreasing in the collection's point count — more
  points never predict cheaper, which ``tests/test_planner.py`` pins;
* each ``(kernel, phase)`` pair has a **fixed dispatch cost** plus a
  **per-unit cost**: the numpy kernel's fixed costs are higher (array
  setup) and its unit costs far lower (vectorized loops), reproducing
  the measured crossovers — e.g. the 768-shared-row lower-bounding
  dispatch in :mod:`repro.kernels.numpy_backend`;
* the sharded mode divides the parallelizable work by an efficiency-
  discounted worker count, then adds routing, per-task, and merge
  overheads, discounted further by the observed plan-cache balance.

Seeds are analytical; :class:`CostModel` then **calibrates online**:
every finished query's per-phase wall-clock updates the matching
per-unit cost by exponential moving average (:meth:`CostModel.observe`),
so a host where numpy underperforms drifts the model — and the
decisions — toward the reference kernel, deterministically.

This module deliberately re-states Eq. (3) instead of importing
``repro.parallel.partitioning``: the planner sits *below* the engines
(the pipeline imports it), so reaching up into ``repro.parallel`` would
cycle the import graph — the layering lint enforces the boundary.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

from repro.planner.plan import Plan
from repro.planner.stats import QueryStatistics

# ----------------------------------------------------------------------
# Seed coefficients
# ----------------------------------------------------------------------

#: ``(kernel, phase) -> (fixed_seconds, seconds_per_unit)`` seeds.  The
#: absolute values are order-of-magnitude estimates from the recorded
#: ``BENCH_kernel_speedup`` runs; what matters for decisions is the
#: *shape*: python has tiny fixed costs and large unit costs, numpy the
#: reverse, so the model reproduces the measured small/large crossovers
#: and online calibration refines the rest.
SEED_COSTS: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("python", "grid_mapping"): (5e-5, 2.2e-6),
    ("python", "lower_bounding"): (2e-5, 9e-7),
    ("python", "upper_bounding"): (2e-5, 6e-7),
    ("python", "verification"): (3e-5, 1.1e-6),
    ("numpy", "grid_mapping"): (4e-4, 4.5e-7),
    # Lower bounding has two dispatchable paths with their own cost
    # shapes (see LOWER_BOUND_DISPATCH_MIN_ROWS): the sequential path is
    # near-python, the vectorized path pays reduceat setup once.
    ("numpy", "lower_bounding_seq"): (1.5e-5, 8e-7),
    ("numpy", "lower_bounding_vec"): (3.5e-4, 3e-8),
    ("numpy", "upper_bounding"): (2.5e-4, 9e-8),
    ("numpy", "verification"): (3e-4, 2.2e-7),
}

#: Fraction of work the Section III-D labels shave off every phase when
#: labels for the ceiling exist (labeled-useless points never map).
LABEL_DISCOUNT = 0.75

#: Grid-key cache effect on GRID-MAPPING: reading large keys from the
#: ceil(r)-keyed cache skips part of the per-point key computation.
KEY_CACHE_DISCOUNT = 0.8

#: Parallel efficiency per extra worker (coordination, GIL-free but
#: fork/IPC-taxed); the remainder shows up as overhead terms below.
PARALLEL_EFFICIENCY = 0.7

#: Fixed cost per shard task (payload marshalling + result transport).
SHARD_TASK_SECONDS = 1.2e-3

#: Routing cost: fixed + per-point curve coding (discounted when the
#: caller reports a plan-cache balance > 1, which implies a warm cache).
SHARD_ROUTE_SECONDS = 5e-4
SHARD_ROUTE_PER_POINT = 2.5e-7

#: Merge cost per candidate the coordinator's best-first replay touches
#: (workers carry the distance rows; the merge sees one entry per
#: surviving object, so it scales with ``n``, not with verify rows).
SHARD_MERGE_PER_UNIT = 4e-7

#: EWMA step for online unit-cost calibration.
CALIBRATION_ALPHA = 0.3

#: Clamp on a single observation's implied unit cost relative to the
#: current estimate, so one garbage-collected outlier cannot wreck the
#: model (it still drifts there if the signal repeats).
CALIBRATION_CLAMP = 10.0


# ----------------------------------------------------------------------
# Work-unit estimation
# ----------------------------------------------------------------------


def shared_fraction(density: float, width: float, dimension: int) -> float:
    """Expected fraction of points in cells holding other points too.

    Poisson occupancy: with cell intensity ``lambda = density *
    width^d``, a point shares its cell with ``lambda / (1 + lambda)``
    probability (smooth, in [0, 1), monotone in density).
    """
    lam = max(density, 0.0) * max(width, 1e-9) ** max(dimension, 1)
    return lam / (1.0 + lam)


def eq3_group_cost(
    new_cells: float, reused_cells: float, points: float, dimension: int
) -> float:
    """Eq. (3) extended: expected UPPER-BOUNDING units for one query.

    The paper's per-group cost — ``3^d`` unions for every large cell
    whose adjacency union is computed fresh, one OR for every reused
    cell, plus per-point labeling — summed in expectation over the whole
    query instead of per partition group (the partitioner's per-group
    form lives in ``repro.parallel.partitioning``).
    """
    return (3 ** dimension) * max(new_cells, 0.0) + max(reused_cells, 0.0) + max(
        points, 0.0
    )


def estimate_units(stats: QueryStatistics) -> Dict[str, float]:
    """Per-phase work units for one query (monotone in total_points).

    ===============  ===================================================
    phase            unit meaning
    ===============  ===================================================
    grid_mapping     points mapped into the BIGrid
    lower_bounding   shared small-cell rows OR-ed (Algorithm 4)
    upper_bounding   Eq. (3) units (adjacency unions + labeling)
    verification     candidate distance rows scored (Algorithm 6)
    ===============  ===================================================
    """
    dimension = max(stats.dimension, 1)
    mapped = float(stats.total_points)
    if stats.labels_available:
        mapped *= LABEL_DISCOUNT
    # Small cells have width r / sqrt(d); only shared rows cost ORs.
    small_width = stats.r / math.sqrt(dimension)
    small_shared = shared_fraction(stats.density, small_width, dimension)
    lower_rows = mapped * small_shared
    # Large cells have width ceil(r).  A denser grid reuses more
    # adjacency unions (neighbouring cells occupied), so the reused
    # share grows with occupancy and the fresh share shrinks.
    large_shared = shared_fraction(stats.density, float(stats.ceil_r), dimension)
    occupied_cells = mapped * (1.0 - 0.5 * large_shared) / max(
        1.0, stats.mean_points
    ) + stats.n
    upper_units = eq3_group_cost(
        new_cells=occupied_cells * (1.0 - large_shared),
        reused_cells=occupied_cells * large_shared,
        points=mapped,
        dimension=dimension,
    )
    # Denser neighbourhoods leave more candidates above the pruning
    # threshold; each costs distance rows proportional to local mass.
    verify_rows = mapped * large_shared * (1.0 + math.log1p(stats.k))
    return {
        "grid_mapping": mapped,
        "lower_bounding": lower_rows,
        "upper_bounding": upper_units,
        "verification": verify_rows,
    }


#: Counter keys that report each phase's *actual* work, for feedback.
#: Falls back to ``mapped_points`` when a phase-specific counter is
#: absent (e.g. python lower bounding counts OR operations too, but a
#: cache hit records none).
ACTUAL_UNIT_COUNTERS = {
    "grid_mapping": ("mapped_points",),
    "lower_bounding": ("lower_or_operations", "mapped_points"),
    "upper_bounding": ("candidates_total", "mapped_points"),
    "verification": ("distance_rows", "candidates_total"),
}


def actual_units(phase: str, counters: Dict[str, int]) -> float:
    """Observed work units for one finished phase (0 = unusable)."""
    for key in ACTUAL_UNIT_COUNTERS.get(phase, ()):
        value = counters.get(key)
        if value:
            return float(value)
    return 0.0


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------

#: The row-count threshold the numpy lower-bounding auto-dispatch uses;
#: restated here (the real constant lives in the kernel layer, which the
#: planner must not import) so ``lb_dispatch="auto"`` predictions price
#: the path that will actually run.
LOWER_BOUND_SEQ_ROWS = 768


class CostModel:
    """Per-(kernel, phase) unit costs: analytical seeds + EWMA updates.

    Thread-safe: the service plans queries from worker threads while the
    feedback hook updates coefficients.  ``version`` increments on every
    accepted observation, so decision memos key on it and recompute
    exactly when the model moved.
    """

    def __init__(
        self, seeds: Optional[Dict[Tuple[str, str], Tuple[float, float]]] = None
    ) -> None:
        seeds = dict(SEED_COSTS if seeds is None else seeds)
        self._fixed = {key: float(pair[0]) for key, pair in seeds.items()}
        self._unit = {key: float(pair[1]) for key, pair in seeds.items()}
        self._lock = threading.Lock()
        self.version = 0
        self.observations = 0

    # -- coefficients ---------------------------------------------------

    def unit_cost(self, kernel: str, phase: str) -> float:
        with self._lock:
            return self._unit[(kernel, phase)]

    def fixed_cost(self, kernel: str, phase: str) -> float:
        with self._lock:
            return self._fixed[(kernel, phase)]

    def _phase_seconds(self, kernel: str, phase: str, units: float) -> float:
        key = (kernel, phase)
        return self._fixed[key] + self._unit[key] * max(units, 0.0)

    # -- prediction -----------------------------------------------------

    def lower_bounding_key(self, plan: Plan, rows: float) -> str:
        """Which lower-bounding coefficient row prices this plan."""
        if plan.kernel != "numpy":
            return "lower_bounding"
        dispatch = plan.lb_dispatch
        if dispatch == "auto":
            dispatch = "seq" if rows < LOWER_BOUND_SEQ_ROWS else "vectorized"
        return (
            "lower_bounding_seq" if dispatch == "seq" else "lower_bounding_vec"
        )

    def predict(self, plan: Plan, stats: QueryStatistics) -> Dict[str, float]:
        """Per-phase predicted seconds for one plan, plus ``"total"``.

        Serial plans predict the four pipeline phases directly; sharded
        plans predict the same work divided across efficiency-discounted
        workers and report it under the sharded stage names
        (``shard_route`` / ``shard_execute`` / ``shard_merge``) so
        predicted-vs-actual lines up with the phases the query records.
        """
        units = estimate_units(stats)
        kernel = plan.kernel
        with self._lock:
            phases = {
                "grid_mapping": self._phase_seconds(
                    kernel, "grid_mapping", units["grid_mapping"]
                ),
                "lower_bounding": self._phase_seconds(
                    kernel,
                    self.lower_bounding_key(plan, units["lower_bounding"]),
                    units["lower_bounding"],
                ),
                "upper_bounding": self._phase_seconds(
                    kernel, "upper_bounding", units["upper_bounding"]
                ),
                "verification": self._phase_seconds(
                    kernel, "verification", units["verification"]
                ),
            }
        if plan.grid_keys != "fresh" and stats.key_cache:
            phases["grid_mapping"] *= KEY_CACHE_DISCOUNT
        if plan.lb_dispatch == "auto" and stats.lower_cache:
            # An attached exact-r cache may skip the phase outright; a
            # mild discount keeps the hint without betting on a hit.
            phases["lower_bounding"] *= 0.9
        if plan.mode == "serial":
            prediction = dict(phases)
            prediction["total"] = sum(phases.values())
            return prediction
        # -- sharded: divide the phase work, add coordination ------------
        workers = max(1, min(plan.shards, stats.cores))
        efficiency = 1.0 + (workers - 1) * PARALLEL_EFFICIENCY
        efficiency /= max(stats.plan_cache_balance, 1.0)
        execute = sum(phases.values()) / max(efficiency, 1.0)
        execute += SHARD_TASK_SECONDS * plan.shards
        route = SHARD_ROUTE_SECONDS + SHARD_ROUTE_PER_POINT * stats.total_points
        if stats.plan_cache_balance > 1.0:
            route *= 0.1  # a measured balance implies a warm plan cache
        merge = SHARD_MERGE_PER_UNIT * stats.n + 1e-4
        prediction = {
            "shard_route": route,
            "shard_execute": execute,
            "shard_merge": merge,
        }
        prediction["total"] = route + execute + merge
        return prediction

    # -- feedback -------------------------------------------------------

    def observe(
        self,
        plan: Plan,
        phases: Dict[str, float],
        counters: Dict[str, int],
    ) -> int:
        """Fold one finished query's timings in; returns updates applied.

        Only serial plans calibrate (a sharded execution splits
        verification across processes, so its per-phase seconds do not
        isolate a kernel's unit cost).  Each accepted phase updates
        ``unit_cost[kernel, phase]`` by EWMA of the observed
        seconds-per-unit, clamped against outliers.
        """
        updated = 0
        if plan.mode != "serial":
            return updated
        for phase, seconds in phases.items():
            if phase not in ACTUAL_UNIT_COUNTERS:
                continue
            units = actual_units(phase, counters)
            if units <= 0.0 or seconds <= 0.0:
                continue
            key = (plan.kernel, phase)
            if phase == "lower_bounding" and plan.kernel == "numpy":
                key = (plan.kernel, self.lower_bounding_key(plan, units))
            with self._lock:
                if key not in self._unit:
                    continue
                current = self._unit[key]
                observed = max(seconds - self._fixed[key], 0.0) / units
                observed = min(
                    max(observed, current / CALIBRATION_CLAMP),
                    current * CALIBRATION_CLAMP,
                )
                self._unit[key] = (
                    1.0 - CALIBRATION_ALPHA
                ) * current + CALIBRATION_ALPHA * observed
                self.version += 1
                self.observations += 1
                updated += 1
        return updated
