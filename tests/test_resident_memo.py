"""Resident-grid memos: a memo hit gives exactly what a fresh build gives.

A resident grid's first view gives it a memo. The memo holds the
upper-bounding pass of queries that arm no labeler, each candidate's
box-only and refined skip bound, and the encoded row sizes that
``memory_bytes`` sums.  Later views of the grid read these instead of
computing them.  Every sequence below runs twice: on one resident entry,
where the memo is filled and then read, and on builds that keep no grid.
Each pair of results must be equal: winner, score, top-k, every counter
and ``memory_bytes`` (``assert_results_equal``).  The kernel-level cases
compare whole phase outputs, clock reads included, against fresh builds.
"""

import math

import pytest

import repro.core.verification as verification
from repro import load_dataset
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.lower_bound import IntSeeds
from repro.core.pipeline import kth_largest, verify_mask_provider
from repro.core.query import PhaseStats
from repro.errors import QueryTimeout
from repro.grid.cache import ResidentGridCache
from repro.kernels import numpy_kernel_available
from repro.kernels.numpy_backend import NUMPY_KERNEL
from repro.resilience import Deadline, ManualClock
from repro.session import QuerySession

from test_kernel_conformance import assert_results_equal

pytestmark = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)

BACKENDS = ("ewah", "plain", "roaring")
#: Thresholds whose top-5 queries skip candidates on their bounds, and
#: whose refined bounds skip more than the box-only ones.
R = 6.0
REFINED_R = 8.0


@pytest.fixture(scope="module")
def bird():
    """bird-2 at a tenth of its size: 32 objects, queries of ~1 ms."""
    return load_dataset("bird-2", scale=0.1)


@pytest.fixture(scope="module")
def bird_refined():
    return load_dataset("bird-2", scale=0.2)


def _call(target, r, k):
    if isinstance(target, QuerySession):
        return target.query(r) if k == 1 else target.topk(r, k)
    return target.query(r) if k == 1 else target.query_topk(r, k)


def _pair(collection, backend, with_label):
    """``(resident, fresh)``: one target keeping its grids resident and
    one building every grid, otherwise alike.  With labels, both are
    sessions that have labeled every ceiling used here."""
    if with_label:
        resident = QuerySession(collection, kernel="numpy", backend=backend)
        fresh = QuerySession(collection, kernel="numpy", backend=backend)
        fresh._engine.grid_cache = None
        for session in (resident, fresh):
            for r in (R, REFINED_R):
                session.query(r)  # the labeling run keeps no grid
        return resident, fresh
    resident = MIOEngine(
        collection, kernel="numpy", backend=backend, grid_cache=ResidentGridCache()
    )
    return resident, MIOEngine(collection, kernel="numpy", backend=backend)


def _memo(target, r):
    """The memo of ``target``'s resident grid for ``r``."""
    grid = target.grid_cache._entries[r][0]
    return grid.large_grid.tables.memo


def _assert_same(resident, fresh, calls):
    results = []
    for r, k in calls:
        got, want = _call(resident, r, k), _call(fresh, r, k)
        assert_results_equal(got, want)
        assert type(got.memory_bytes) is int
        results.append(got)
    return results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_label", [False, True], ids=["label-free", "with-label"])
class TestUpperPassMemo:
    def test_threshold_refilters_the_memoized_pass(self, bird, backend, with_label):
        """k=1 fills the memo; k=5 has a lower pruning threshold, so its
        candidates are a longer prefix of the memoized pass; k=1 again
        reads the short prefix."""
        resident, fresh = _pair(bird, backend, with_label)
        first, topk, again = _assert_same(resident, fresh, [(R, 1), (R, 5), (R, 1)])
        assert topk.counters["candidates"] > first.counters["candidates"]
        memo = _memo(resident, R)
        assert memo.upper is not None and memo.upper.labels is (
            resident.label_store.get(math.ceil(R)) if with_label else None
        )
        assert memo.bounds is not None and memo.adj_bytes is not None
        assert resident.grid_cache.hits == 2

    def test_threshold_narrows_the_memoized_pass(self, bird, backend, with_label):
        resident, fresh = _pair(bird, backend, with_label)
        _assert_same(resident, fresh, [(R, 5), (R, 1), (R, 5), (REFINED_R, 1)])


@pytest.mark.parametrize(
    "refine_order",
    [(False, True, True, False), (True, False, False, True)],
    ids=["box-first", "refined-first"],
)
def test_box_and_refined_bounds_in_either_order(
    bird_refined, monkeypatch, refine_order
):
    """Refinement on (``REFINE_MIN_ROWS = 0``) or off per call: a hit
    reads the box bounds an earlier query memoized and fills the refined
    ones it lacks, or the reverse."""
    resident, fresh = _pair(bird_refined, "ewah", with_label=True)
    skipped = []
    for refine in refine_order:
        monkeypatch.setattr(
            verification, "REFINE_MIN_ROWS", 0 if refine else 10 ** 9
        )
        (result,) = _assert_same(resident, fresh, [(REFINED_R, 5)])
        skipped.append(result.counters["box_skipped"])
    box = [count for count, refine in zip(skipped, refine_order) if not refine]
    refined = [count for count, refine in zip(skipped, refine_order) if refine]
    # The refined bounds really are tighter here, so both kinds are read.
    assert min(refined) > max(box) > 0
    _, _, box_memo, refined_memo = _memo(resident, REFINED_R).bounds
    assert (refined_memo >= 0).sum() > 0 and (box_memo >= 0).sum() > 0


def test_lower_cache_eviction_rekeys_the_bounds(bird):
    """A lower-bound entry evicted between two hits brings a new seeds
    object: the skip bounds are keyed to the new one."""
    resident, fresh = _pair(bird, "ewah", with_label=True)
    _assert_same(resident, fresh, [(R, 5)])
    first_seeds = resident.lower_cache._entries[R][2]
    assert _memo(resident, R).bounds[0] is first_seeds
    for session in (resident, fresh):
        session.lower_cache.clear()
    _assert_same(resident, fresh, [(R, 5), (R, 1)])
    seeds = resident.lower_cache._entries[R][2]
    assert seeds is not first_seeds
    assert _memo(resident, R).bounds[0] is seeds


# ----------------------------------------------------------------------
# Kernel level: phase outputs of a memo hit against fresh builds
# ----------------------------------------------------------------------


def _phases(grid, lower, labels, r, k, seeds=None, budget=None):
    """Upper bounding and verification on ``grid`` from ``lower``, as
    the pipeline runs them after a lower-cache hit: their results (or
    the phase a timeout cut), counters, clock reads and memory."""
    clock = ManualClock(step=1.0)
    deadline = None if budget is None else Deadline(budget, clock=clock)
    stats = PhaseStats()
    threshold = lower.tau_max if k == 1 else kth_largest(lower.values, k)
    try:
        upper = NUMPY_KERNEL.upper_bounds(
            grid, threshold, labels=labels, stats=stats, deadline=deadline
        )
        result = NUMPY_KERNEL.verify_candidates(
            grid,
            upper.candidates,
            r,
            k=k,
            seeds=lower.seeds if seeds is None else seeds,
            verify_masks=verify_mask_provider(labels, r, "safe"),
            stats=stats,
            deadline=deadline,
        )
        outcome = (
            upper.candidates,
            upper.values,
            result.ranking,
            result.settled,
            result.timed_out,
            result.box_skipped,
        )
    except QueryTimeout as exc:
        outcome = ("timeout", exc.phase)
    return outcome, stats.counters, clock.now, grid.memory_bytes()


def _labels(collection, r):
    store = LabelStore()
    MIOEngine(collection, kernel="numpy", label_store=store).query(r)
    return store.get(math.ceil(r))


def _build(collection, r, labels):
    return NUMPY_KERNEL.build_bigrid(collection, r, labels=labels)


def test_deadline_sweep_on_a_hit_matches_fresh_builds(bird):
    """Every budget of a ``ManualClock`` deadline, from a timeout in the
    upper-bounding pass to a complete run: a view whose memo replays the
    pass and its skip bounds reads the clock as often, and leaves the
    same anytime prefix, counters and memory, as a fresh build."""
    labels = _labels(bird, R)
    resident = _build(bird, R, labels)
    filler = resident.view()
    lower = NUMPY_KERNEL.lower_bounds(filler)
    _phases(filler, lower, labels, R, k=5)
    assert resident.large_grid.tables.memo.upper is not None
    outcomes = set()
    budget = 0
    while True:
        fresh = _build(bird, R, labels)
        fresh_lower = NUMPY_KERNEL.lower_bounds(fresh)
        want = _phases(fresh, fresh_lower, labels, R, 5, budget=budget)
        got = _phases(resident.view(), lower, labels, R, 5, budget=budget)
        assert got == want, budget
        outcomes.add(want[0][0] if want[0][0] == "timeout" else want[0][4])
        if want[0][0] != "timeout" and not want[0][4]:
            break
        budget += 1
    # Timeouts in upper bounding, anytime prefixes, and a complete run.
    assert outcomes == {"timeout", True, False}


def test_bounds_are_keyed_to_their_seeds(bird):
    """Two seeds objects with different unions on one resident grid:
    the bounds of one are never served to the other."""
    resident = _build(bird, R, None)
    lower = NUMPY_KERNEL.lower_bounds(resident)
    n = bird.n
    # Every object also claims its successor: unions the bounds count.
    claimed = IntSeeds(
        [lower.seeds.to_int(oid) | (1 << ((oid + 1) % n)) for oid in range(n)]
    )
    results = {}
    for seeds in (claimed, lower.seeds, claimed):
        fresh = _build(bird, R, None)
        want = _phases(fresh, lower, None, R, 5, seeds=seeds)
        got = _phases(resident.view(), lower, None, R, 5, seeds=seeds)
        assert got == want
        results[id(seeds)] = want
    assert results[id(claimed)][0] != results[id(lower.seeds)][0]
