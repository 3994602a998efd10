"""The paper's Section IV schedule study (Figs. 8/9, Table III).

The paper's parallel contributions are *partitioning schemes*, and their
quality is the makespan of the schedule they produce (DESIGN.md §3,
§5).  CPython's GIL makes real-thread speedups unobservable for CPU
work, so this module measures schedules instead of threads: every task
runs serially (answers stay exact and deterministic), its wall-clock
cost is charged to the core the plan chose, and a phase reports

    makespan = barrier rounds + max over cores of (charged task costs) + merge

No constants are invented: every charged cost is a measured execution,
and merge work is really executed and timed.

:func:`simulate_query` runs the four BIGrid phases under the paper's
partitioning schemes (the plans of :mod:`repro.parallel.plans` over the
partitioners of :mod:`repro.parallel.partitioning`):

* grid mapping   -- points of each object hash-partitioned (barrier per
  object; parallelizing the object loop is NP-complete, Theorem 3);
* lower-bounding -- ``lb_strategy="greedy-d"`` (objects by ``|o_i.L|``,
  no synchronization) or ``"hash-p"`` (per-object key split with local
  bitsets merged at each object barrier);
* upper-bounding -- ``ub_strategy="greedy-p"`` (Eq. (3) cost-based key
  groups with single-core key ownership) or ``"greedy-d"`` (naive split
  of objects by point count);
* verification   -- best-first candidate loop with each candidate's point
  groups split across cores and local bitsets merged per candidate.

The result's ``phases`` hold the simulated makespans and
``extra["serial:<phase>"]`` the serial cost of the same work, so a
speedup is one division.  :func:`parallel_nested_loop` and
:func:`parallel_simple_grid` are the paper's parallel renditions of the
competitors, reported the same way.

This is a measurement device for the benchmarks, not a query engine:
every real query runs the serial engine.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappush, heappushpop
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.simple_grid import SimpleGridAlgorithm
from repro.bitset.factory import resolve_backend
from repro.core.geometry import point_sets_interact
from repro.core.labels import LabelStore, PointLabels, labels_match_collection
from repro.core.objects import ObjectCollection
from repro.core.pipeline import kth_largest
from repro.core.query import MIOResult
from repro.core.verification import bits_of
from repro.errors import InvalidQueryError
from repro.grid.bigrid import BIGrid
from repro.grid.keys import large_cell_width, small_cell_width
from repro.grid.large_grid import LargeGrid
from repro.grid.small_grid import SmallGrid
from repro.kernels import resolve_kernel
from repro.parallel.partitioning import hash_partition, static_block_partition
from repro.parallel.plans import (
    plan_lower_bounding_greedy_d,
    plan_upper_bounding_greedy_d,
    plan_upper_bounding_greedy_p,
    plan_verification_chunks,
)

LB_STRATEGIES = ("greedy-d", "hash-p")
UB_STRATEGIES = ("greedy-p", "greedy-d")

Task = Callable[[], Any]


@contextmanager
def gc_paused():
    """Suspend the cyclic GC while measuring a schedule.

    A collection pause landing inside one micro-task would be charged to a
    single simulated core and distort the makespan; deferring collection to
    the end of the phase keeps per-task costs attributable.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class CoreReport:
    """Accumulated schedule of one simulated phase."""

    cores: int
    per_core_seconds: List[float] = field(default_factory=list)
    merge_seconds: float = 0.0
    #: Sum over completed barrier rounds of the round's max core time.
    barrier_seconds: float = 0.0
    serial_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.per_core_seconds:
            self.per_core_seconds = [0.0] * self.cores

    @property
    def makespan(self) -> float:
        """The simulated parallel wall-clock of the schedule."""
        return self.barrier_seconds + max(self.per_core_seconds) + self.merge_seconds


class SimulatedExecutor:
    """Serial execution with per-core cost accounting."""

    def __init__(self, cores: int) -> None:
        if cores < 1:
            raise InvalidQueryError("need at least one core")
        self.cores = cores

    def run(
        self,
        tasks: Sequence[Task],
        assignment: Sequence[int],
        merge: Optional[Task] = None,
    ) -> tuple:
        """Run one fan-out/merge round.

        ``assignment[i]`` is the core charged for ``tasks[i]``.  Returns
        ``(results, report)`` with results in task order.
        """
        if len(tasks) != len(assignment):
            raise InvalidQueryError("every task needs a core assignment")
        report = CoreReport(self.cores)
        results = []
        with gc_paused():
            for task, core in zip(tasks, assignment):
                started = time.perf_counter()
                results.append(task())
                elapsed = time.perf_counter() - started
                report.per_core_seconds[core] += elapsed
                report.serial_seconds += elapsed
            if merge is not None:
                started = time.perf_counter()
                merge()
                report.merge_seconds = time.perf_counter() - started
                report.serial_seconds += report.merge_seconds
        return results, report


@dataclass
class _Study:
    """One simulated query's fixed configuration."""

    collection: ObjectCollection
    cores: int
    bitset_cls: type
    kernel: Any
    lb_strategy: str
    ub_strategy: str
    executor: SimulatedExecutor


def simulate_query(
    collection: ObjectCollection,
    r: float,
    cores: int,
    *,
    k: Optional[int] = None,
    lb_strategy: str = "greedy-d",
    ub_strategy: str = "greedy-p",
    label_store: Optional[LabelStore] = None,
    backend: str = "ewah",
    kernel: str = "python",
) -> MIOResult:
    """One MIO query (top-``k`` when ``k`` is given) under the schedule study.

    ``label_store`` holds labels produced by earlier *serial* queries
    (Fig. 9 "BIGrid-label"); the study only reads them, because labeling
    requires the canonical serial access order.  Labels for another
    collection are ignored.  Labeling-3 (the verification mask) applies
    only when the labels were made at exactly ``r``.
    """
    if r <= 0:
        raise InvalidQueryError("the distance threshold r must be positive")
    if k is not None and k < 1:
        raise InvalidQueryError("k must be at least 1")
    if lb_strategy not in LB_STRATEGIES:
        raise InvalidQueryError(f"lb_strategy must be one of {LB_STRATEGIES}")
    if ub_strategy not in UB_STRATEGIES:
        raise InvalidQueryError(f"ub_strategy must be one of {UB_STRATEGIES}")
    bitset_cls, _ = resolve_backend(backend)
    study = _Study(
        collection=collection,
        cores=cores,
        bitset_cls=bitset_cls,
        kernel=resolve_kernel(kernel),
        lb_strategy=lb_strategy,
        ub_strategy=ub_strategy,
        executor=SimulatedExecutor(cores),
    )
    labels = label_store.get(math.ceil(r)) if label_store is not None else None
    if labels is not None and not labels_match_collection(labels, collection):
        labels = None
    top = 1 if k is None else k

    phases: Dict[str, float] = {}
    extra: Dict[str, float] = {}

    def charge(phase: str, report: CoreReport) -> None:
        phases[phase] = report.makespan
        extra[f"serial:{phase}"] = report.serial_seconds

    bigrid, report = _grid_mapping(study, r, labels)
    charge("grid_mapping", report)
    values, bitsets, report = _lower_bounding(study, bigrid)
    charge("lower_bounding", report)
    candidates, report = _upper_bounding(
        study, bigrid, kth_largest(values, top), labels
    )
    charge("upper_bounding", report)
    verify_mask = labels is not None and labels.r == r
    ranking, report, verified = _verification(
        study, bigrid, candidates, r, bitsets, labels if verify_mask else None, top
    )
    charge("verification", report)

    winner, score = (
        ranking[0] if ranking else (candidates[0][1] if candidates else 0, 0)
    )
    return MIOResult(
        algorithm="bigrid-parallel" if labels is None else "bigrid-label-parallel",
        r=r,
        winner=winner,
        score=score,
        topk=ranking if k is not None else None,
        phases=phases,
        counters={
            "cores": cores,
            "candidates": len(candidates),
            "verified_objects": verified,
        },
        memory_bytes=bigrid.memory_bytes(),
        notes={"verification_path": "parallel-chunked"},
        extra=extra,
    )


# ----------------------------------------------------------------------
# PARALLEL-GRID-MAPPING: hash-partition each object's points
# ----------------------------------------------------------------------


def _grid_mapping(
    study: _Study, r: float, labels: Optional[PointLabels]
) -> Tuple[BIGrid, CoreReport]:
    collection = study.collection
    dimension = collection.dimension
    s_width = small_cell_width(r, dimension)
    l_width = large_cell_width(r)
    small_grid = SmallGrid(s_width, dimension, study.bitset_cls)
    large_grid = LargeGrid(l_width, dimension, study.bitset_cls)
    key_lists = [set() for _ in range(collection.n)]
    object_groups: List[Dict] = [{} for _ in range(collection.n)]

    report = CoreReport(study.cores)
    with gc_paused():
        for obj in collection:
            oid = obj.oid
            if labels is not None:
                indices = np.nonzero(labels.grid_mask(oid))[0]
            else:
                indices = np.arange(obj.num_points)
            if len(indices) == 0:
                continue
            small_keys = study.kernel.cell_keys(obj.points[indices], s_width)
            large_keys = study.kernel.cell_keys(obj.points[indices], l_width)
            round_max = 0.0
            for chunk in hash_partition(len(indices), study.cores):
                if not chunk:
                    continue
                started = time.perf_counter()
                for position in chunk:
                    point_index = int(indices[position])
                    reached, first_oid = small_grid.add_point(oid, small_keys[position])
                    if reached == 2:
                        key_lists[first_oid].add(small_keys[position])
                        key_lists[oid].add(small_keys[position])
                    elif reached is not None and reached > 2:
                        key_lists[oid].add(small_keys[position])
                    large_key = large_keys[position]
                    large_grid.add_point(oid, large_key, point_index)
                    object_groups[oid].setdefault(large_key, []).append(point_index)
                elapsed = time.perf_counter() - started
                report.serial_seconds += elapsed
                round_max = max(round_max, elapsed)
            report.barrier_seconds += round_max
    mapped_points = sum(
        len(points)
        for groups in object_groups
        for points in groups.values()
    )

    bigrid = BIGrid(
        collection, r, small_grid, large_grid, key_lists, object_groups, mapped_points
    )
    return bigrid, report


# ----------------------------------------------------------------------
# PARALLEL-LOWER-BOUNDING
# ----------------------------------------------------------------------


def _lower_bounding(
    study: _Study, bigrid: BIGrid
) -> Tuple[List[int], List, CoreReport]:
    """Every object's lower bound and union ``b(o_i)`` (None if empty):
    verification seeds every query with the unions, as the serial
    engine does."""
    if study.lb_strategy == "greedy-d":
        return _lower_bounding_greedy_d(study, bigrid)
    return _lower_bounding_hash_p(study, bigrid)


def _lower_bounding_greedy_d(
    study: _Study, bigrid: BIGrid
) -> Tuple[List[int], List, CoreReport]:
    """Objects split by ``|o_i.L|``; no synchronization, no merge."""
    plan = plan_lower_bounding_greedy_d(bigrid, study.cores)
    small_grid = bigrid.small_grid
    values = [0] * bigrid.collection.n
    bitsets = [None] * bigrid.collection.n

    def make_task(oid: int):
        def task() -> None:
            union = 0
            for key in bigrid.key_lists[oid]:
                union |= small_grid.cells[key].bitset.to_int()
            cardinality = union.bit_count()
            values[oid] = cardinality - 1 if cardinality else 0
            if cardinality:
                bitsets[oid] = union
        return task

    tasks = [make_task(oid) for oid in range(bigrid.collection.n)]
    _, report = study.executor.run(tasks, plan.assignment)
    return values, bitsets, report


def _lower_bounding_hash_p(
    study: _Study, bigrid: BIGrid
) -> Tuple[List[int], List, CoreReport]:
    """Per-object key split with per-core local bitsets merged at a barrier."""
    small_grid = bigrid.small_grid
    values = [0] * bigrid.collection.n
    bitsets = [None] * bigrid.collection.n
    report = CoreReport(study.cores)

    with gc_paused():
        for oid in range(bigrid.collection.n):
            keys = list(bigrid.key_lists[oid])
            if not keys:
                continue
            locals_: List = [None] * study.cores
            round_max = 0.0
            for core, chunk in enumerate(hash_partition(len(keys), study.cores)):
                if not chunk:
                    continue
                started = time.perf_counter()
                union = 0
                for position in chunk:
                    union |= small_grid.cells[keys[position]].bitset.to_int()
                locals_[core] = union
                elapsed = time.perf_counter() - started
                report.serial_seconds += elapsed
                round_max = max(round_max, elapsed)
            started = time.perf_counter()
            merged = 0
            for local in locals_:
                if local is not None:
                    merged |= local
            cardinality = merged.bit_count()
            values[oid] = cardinality - 1 if cardinality else 0
            if cardinality:
                bitsets[oid] = merged
            merge_elapsed = time.perf_counter() - started
            report.serial_seconds += merge_elapsed
            report.barrier_seconds += round_max + merge_elapsed
    return values, bitsets, report


# ----------------------------------------------------------------------
# PARALLEL-UPPER-BOUNDING
# ----------------------------------------------------------------------


def _upper_bounding(
    study: _Study, bigrid: BIGrid, tau_max: int, labels: Optional[PointLabels]
) -> Tuple[List[Tuple[int, int]], CoreReport]:
    if study.ub_strategy == "greedy-p":
        report, unions = _upper_bounding_greedy_p(study, bigrid, labels)
    else:
        report, unions = _upper_bounding_greedy_d(study, bigrid, labels)
    # Pruning + best-first sort stay serial (their cost is dominated by
    # the bounding work); charge them to the barrier.
    started = time.perf_counter()
    candidates = []
    for oid, union in enumerate(unions):
        cardinality = union.bit_count() if union is not None else 0
        upper = cardinality - 1 if cardinality else 0
        if upper >= tau_max:
            candidates.append((upper, oid))
    candidates.sort(key=lambda entry: (-entry[0], entry[1]))
    elapsed = time.perf_counter() - started
    report.barrier_seconds += elapsed
    report.serial_seconds += elapsed
    return candidates, report


def _upper_bounding_greedy_p(
    study: _Study, bigrid: BIGrid, labels: Optional[PointLabels]
) -> Tuple[CoreReport, List]:
    """Eq. (3) cost-based group assignment with key ownership."""
    plan = plan_upper_bounding_greedy_p(
        bigrid, study.cores, include_labeling=labels is None
    )
    large_grid = bigrid.large_grid
    #: local_unions[core][oid] -- per-core partial unions (big ints).
    local_unions: List[Dict[int, int]] = [{} for _ in range(study.cores)]

    masks = (
        [labels.upper_mask(oid).tolist() for oid in range(bigrid.collection.n)]
        if labels is not None
        else None
    )

    def make_task(core: int, oid: int, key, point_indices):
        def task() -> None:
            if masks is not None and not any(masks[oid][i] for i in point_indices):
                return
            adjacent = large_grid.adjacent_union_int(key)
            local_unions[core][oid] = local_unions[core].get(oid, 0) | adjacent
        return task

    tasks = [
        make_task(core, oid, key, points)
        for (oid, key, points), core in zip(plan.tasks, plan.assignment)
    ]
    unions: List = [None] * bigrid.collection.n

    def merge() -> None:
        for core in range(study.cores):
            for oid, partial in local_unions[core].items():
                if unions[oid] is None:
                    unions[oid] = partial
                else:
                    unions[oid] |= partial

    _, report = study.executor.run(tasks, plan.assignment, merge=merge)
    return report, unions


def _upper_bounding_greedy_d(
    study: _Study, bigrid: BIGrid, labels: Optional[PointLabels]
) -> Tuple[CoreReport, List]:
    """Naive competitor: whole objects assigned by point count."""
    plan = plan_upper_bounding_greedy_d(bigrid, study.cores)
    large_grid = bigrid.large_grid
    unions: List = [None] * bigrid.collection.n

    def make_task(oid: int):
        def task() -> None:
            union = 0
            mask = labels.upper_mask(oid).tolist() if labels is not None else None
            for key, point_indices in bigrid.object_groups[oid].items():
                if mask is not None and not any(mask[i] for i in point_indices):
                    continue
                union |= large_grid.adjacent_union_int(key)
            if union:
                unions[oid] = union
        return task

    tasks = [make_task(oid) for oid in range(bigrid.collection.n)]
    _, report = study.executor.run(tasks, plan.assignment)
    return report, unions


# ----------------------------------------------------------------------
# PARALLEL-VERIFICATION
# ----------------------------------------------------------------------


def _verification(
    study: _Study,
    bigrid: BIGrid,
    candidates: List[Tuple[int, int]],
    r: float,
    lower_bitsets: List,
    mask_labels: Optional[PointLabels],
    k: int,
) -> Tuple[List[Tuple[int, int]], CoreReport, int]:
    """Best-first verification; ``mask_labels`` applies Labeling-3."""
    r_squared = r * r
    report = CoreReport(study.cores)
    best_heap: List[Tuple[int, int]] = []  # (score, -oid), min-heap
    verified = 0
    with gc_paused():
        for upper, oid in candidates:
            threshold = best_heap[0][0] if len(best_heap) >= k else -1
            if upper <= threshold:
                break
            verified += 1
            groups = bigrid.object_groups[oid]
            if mask_labels is not None:
                mask = mask_labels.verify_mask(oid).tolist()
                groups = {
                    key: [p for p in points if mask[p]]
                    for key, points in groups.items()
                }
                groups = {key: points for key, points in groups.items() if points}
            seed = lower_bitsets[oid]
            locals_: List = [None] * study.cores
            round_max = 0.0
            per_core = plan_verification_chunks(groups, study.cores)
            for core, chunk_list in enumerate(per_core):
                if not chunk_list:
                    continue
                started = time.perf_counter()
                locals_[core] = _verify_chunks(
                    bigrid, oid, chunk_list, r_squared, seed, study.kernel
                )
                elapsed = time.perf_counter() - started
                report.serial_seconds += elapsed
                round_max = max(round_max, elapsed)
            started = time.perf_counter()
            merged = (seed or 0) | (1 << oid)
            for local in locals_:
                if local is not None:
                    merged |= local
            score = merged.bit_count() - 1
            merge_elapsed = time.perf_counter() - started
            report.serial_seconds += merge_elapsed
            report.barrier_seconds += round_max + merge_elapsed
            entry = (score, -oid)
            if len(best_heap) < k:
                heappush(best_heap, entry)
            elif entry > best_heap[0]:
                heappushpop(best_heap, entry)
    ranking = sorted(
        ((-neg_oid, score) for score, neg_oid in best_heap),
        key=lambda item: (-item[1], item[0]),
    )
    return ranking, report, verified


def _verify_chunks(
    bigrid: BIGrid,
    oid: int,
    chunk_list,
    r_squared: float,
    seed,
    kernel,
) -> int:
    """One core's share of a candidate's exact-score computation."""
    collection = bigrid.collection
    large_grid = bigrid.large_grid
    points = collection[oid].points
    confirmed = (seed or 0) | (1 << oid)
    for key, point_indices in chunk_list:
        for point_index in point_indices:
            pending = large_grid.adjacent_union_int(key) & ~confirmed
            if not pending:
                continue
            remaining = bits_of(pending)
            point = points[point_index]
            for cell in large_grid.cells[key].neighbor_cells:
                for candidate_oid in remaining.intersection(cell.postings):
                    candidate_points = cell.posting_points(
                        candidate_oid, collection[candidate_oid].points
                    )
                    if kernel.any_within(candidate_points, point, r_squared):
                        confirmed |= 1 << candidate_oid
                        remaining.discard(candidate_oid)
                if not remaining:
                    break
    return confirmed


# ----------------------------------------------------------------------
# Parallel competitors (Fig. 9)
# ----------------------------------------------------------------------


def parallel_nested_loop(collection: ObjectCollection, r: float, cores: int) -> MIOResult:
    """Parallel NL: the partner loop of each outer object is partitioned.

    As in the paper, there is a barrier per outer object and per-pair costs
    are unpredictable, so load balance -- and therefore speedup -- is poor.
    """
    if r <= 0:
        raise InvalidQueryError("the distance threshold r must be positive")
    tau = [0] * collection.n
    report = CoreReport(cores)
    with gc_paused():
        for i in range(collection.n):
            partners = list(range(i + 1, collection.n))
            if not partners:
                continue
            # OpenMP-style static blocks: contiguous partner ranges whose
            # costs correlate spatially, the load-balance failure the paper
            # observes for parallel NL.
            points_i = collection[i].points
            round_max = 0.0
            for chunk in static_block_partition(len(partners), cores):
                if not chunk:
                    continue
                started = time.perf_counter()
                for position in chunk:
                    j = partners[position]
                    if point_sets_interact(points_i, collection[j].points, r):
                        tau[i] += 1
                        tau[j] += 1
                elapsed = time.perf_counter() - started
                report.serial_seconds += elapsed
                round_max = max(round_max, elapsed)
            report.barrier_seconds += round_max
    winner = max(range(len(tau)), key=lambda oid: (tau[oid], -oid))
    return MIOResult(
        algorithm="nl-parallel",
        r=r,
        winner=winner,
        score=tau[winner],
        phases={"scan": report.makespan},
        counters={"cores": cores},
        extra={"serial:scan": report.serial_seconds},
    )


def parallel_simple_grid(collection: ObjectCollection, r: float, cores: int) -> MIOResult:
    """Parallel SG: serial grid build, hash-partitioned per-object scoring.

    Hash partitioning balances only when tasks cost alike; skewed data makes
    per-object scoring costs vary widely, which is what limits SG's scaling
    in Fig. 9.
    """
    algorithm = SimpleGridAlgorithm(collection)
    build_seconds = algorithm.build(r)
    tau = [0] * collection.n
    report = CoreReport(cores)
    with gc_paused():
        for core, chunk in enumerate(hash_partition(collection.n, cores)):
            started = time.perf_counter()
            for oid in chunk:
                tau[oid] = algorithm._score(oid, r)
            elapsed = time.perf_counter() - started
            report.per_core_seconds[core] += elapsed
            report.serial_seconds += elapsed
    report.barrier_seconds += build_seconds
    report.serial_seconds += build_seconds
    winner = max(range(len(tau)), key=lambda oid: (tau[oid], -oid))
    return MIOResult(
        algorithm="sg-parallel",
        r=r,
        winner=winner,
        score=tau[winner],
        phases={"build_and_scoring": report.makespan},
        counters={"cores": cores},
        memory_bytes=algorithm.memory_bytes(),
        extra={"serial:build_and_scoring": report.serial_seconds},
    )
