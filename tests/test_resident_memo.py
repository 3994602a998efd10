"""Resident-grid memos: a memo hit gives exactly what a fresh build gives.

A resident grid's first view gives it a memo. The memo holds the
upper-bounding pass of queries that arm no labeler, each candidate's
box-only and refined skip bound, each scored candidate's score record
and the encoded row sizes that ``memory_bytes`` sums.  Later views of
the grid read these instead of computing them.  Every sequence below
runs twice: on one resident entry, where the memo is filled and then
read, and on builds that keep no grid.
Each pair of results must be equal: winner, score, top-k, every counter
and ``memory_bytes`` (``assert_results_equal``).  The kernel-level cases
compare whole phase outputs, clock reads included, against fresh builds.

A labeling query keeps its label-free grid and fills its memo, but never
replays it (its Labeling marks are effects).  A repeat of its threshold
runs label-free on that entry and must equal a fresh label-free run.
"""

import math

import pytest

import repro.core.verification as verification
from repro import load_dataset
from repro.core.engine import MIOEngine
from repro.core.labels import VERIFY_BIT, LabelStore, PointLabels
from repro.core.lower_bound import IntSeeds, LowerBoundCache
from repro.core.pipeline import kth_largest, verify_mask_provider
from repro.core.query import PhaseStats
from repro.core.verification import VerifyCounters
from repro.errors import QueryTimeout
from repro.grid.cache import ResidentGridCache
from repro.kernels import numpy_kernel_available
from repro.kernels.numpy_backend import NUMPY_KERNEL, _BatchedVerifier
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
#: Where the with-label sessions label each threshold's ceiling: another
#: ``r`` of the bucket, since a session runs a repeat of the labeling
#: threshold itself label-free.
LABEL_R = {R: 5.5, REFINED_R: 7.5}


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


def _pair(collection, backend, with_label, keep_lower=False):
    """``(resident, fresh)``: one target keeping its grids resident and
    one building every grid, otherwise alike.  With labels, both are
    sessions that have labeled every ceiling used here at ``LABEL_R``,
    under ``label_reuse="paper"`` so that the queries at ``R`` and
    ``REFINED_R`` read the labels' Labeling-3 masks too; without, engines
    that keep their lower bounds too if ``keep_lower``."""
    if with_label:
        resident, fresh = (
            QuerySession(
                collection, kernel="numpy", backend=backend, label_reuse="paper"
            )
            for _ in range(2)
        )
        fresh._engine.grid_cache = None
        for session in (resident, fresh):
            for r in (R, REFINED_R):
                session.query(LABEL_R[r])
        return resident, fresh
    def lower():
        return LowerBoundCache() if keep_lower else None

    resident = MIOEngine(
        collection,
        kernel="numpy",
        backend=backend,
        grid_cache=ResidentGridCache(),
        lower_cache=lower(),
    )
    fresh = MIOEngine(collection, kernel="numpy", backend=backend, lower_cache=lower())
    return resident, fresh


def _memo(target, r):
    """The memo of ``target``'s resident grid for ``r``."""
    grid = target.grid_cache._entries[r][0]
    return grid.large_grid.tables.memo


@pytest.fixture
def memo_scored(monkeypatch):
    """How many candidates each block on a resident grid scores afresh,
    one entry per ``_BatchedVerifier._score`` call on a grid with a memo
    (fresh builds have none and are not counted)."""
    calls = []
    score = _BatchedVerifier._score

    def counting(self, oids):
        if self.large_grid.tables.memo is not None:
            calls.append(len(oids))
        return score(self, oids)

    monkeypatch.setattr(_BatchedVerifier, "_score", counting)
    return calls


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
        assert memo.bounds is not None
        # A label-free pass memoizes every adjacency row, which are sized
        # together; a masked one memoizes some, sized row by row.
        if with_label:
            assert memo.adj_bytes is not None and memo.adj_total is None
        else:
            assert memo.adj_total is not None and memo.adj_bytes is None
        assert resident.grid_cache.hits == 2

    def test_threshold_narrows_the_memoized_pass(self, bird, backend, with_label):
        resident, fresh = _pair(bird, backend, with_label)
        _assert_same(resident, fresh, [(R, 5), (R, 1), (R, 5), (REFINED_R, 1)])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_label", [False, True], ids=["label-free", "with-label"])
@pytest.mark.parametrize("ks", [(1, 5, 1), (5, 1, 5)], ids=["k=1/5/1", "k=5/1/5"])
def test_score_records_replay_fresh_scores(bird, backend, with_label, ks, memo_scored):
    """Each query equals a fresh build's; the last repeats the first, so
    every block it forms is made of records and scores nothing.  The
    records are keyed to the query's seeds, ``r`` and masks: with labels
    at this ``r``, the labels' ``verify_mask``."""
    resident, fresh = _pair(bird, backend, with_label, keep_lower=True)
    scored = []
    for k in ks:
        del memo_scored[:]
        (result,) = _assert_same(resident, fresh, [(R, k)])
        scored.append(sum(memo_scored))
        assert result.counters["verified_objects"] > 0
    assert scored[0] > 0 and scored[2] == 0
    seeds, r, labels, method, records = _memo(resident, R).scores
    assert seeds is resident.lower_cache._entries[R][2] and r == R
    if with_label:
        assert labels is resident.label_store.get(math.ceil(R))
        assert method is PointLabels.verify_mask
    else:
        assert labels is None and method is None
    assert len(records) >= scored[0]


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
    assert _memo(resident, R).scores[0] is first_seeds
    _assert_same(resident, fresh, [(R, 5), (R, 1)])
    seeds = resident.lower_cache._entries[R][2]
    assert seeds is not first_seeds
    assert _memo(resident, R).bounds[0] is seeds
    assert _memo(resident, R).scores[0] is seeds


# ----------------------------------------------------------------------
# Kernel level: phase outputs of a memo hit against fresh builds
# ----------------------------------------------------------------------


def _phases(
    grid, lower, labels, r, k, seeds=None, budget=None, masks=None, labeler=None
):
    """Upper bounding and verification on ``grid`` from ``lower``, as
    the pipeline runs them after a lower-cache hit: their results (or
    the phase a timeout cut), counters, clock reads and memory.  The
    verify masks are ``labels``' unless ``masks`` is given."""
    clock = ManualClock(step=1.0)
    deadline = None if budget is None else Deadline(budget, clock=clock)
    stats = PhaseStats()
    threshold = lower.tau_max if k == 1 else kth_largest(lower.values, k)
    try:
        upper = NUMPY_KERNEL.upper_bounds(
            grid,
            threshold,
            labels=labels,
            labeler=labeler,
            stats=stats,
            deadline=deadline,
        )
        result = NUMPY_KERNEL.verify_candidates(
            grid,
            upper.candidates,
            r,
            k=k,
            seeds=lower.seeds if seeds is None else seeds,
            verify_masks=(
                verify_mask_provider(labels, r, "safe") if masks is None else masks
            ),
            labeler=labeler,
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
            result.speculative,
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


def _budget_sweep(collection, resident, lower, labels, k):
    """Every budget of a ``ManualClock`` deadline, from a timeout in the
    upper-bounding pass to a complete run, on a view of ``resident``
    against a fresh build: the same outcome, counters, clock reads and
    memory at each.  The sweep must reach timeouts in upper bounding,
    anytime prefixes and a complete run."""
    outcomes = set()
    budget = 0
    while True:
        fresh = _build(collection, R, labels)
        fresh_lower = NUMPY_KERNEL.lower_bounds(fresh)
        want = _phases(fresh, fresh_lower, labels, R, k, budget=budget)
        got = _phases(resident.view(), lower, labels, R, k, budget=budget)
        assert got == want, budget
        outcomes.add(want[0][0] if want[0][0] == "timeout" else want[0][4])
        if want[0][0] != "timeout" and not want[0][4]:
            break
        budget += 1
    assert outcomes == {"timeout", True, False}


def test_deadline_sweep_on_a_hit_matches_fresh_builds(bird):
    """A view whose memo replays the pass and its skip bounds reads the
    clock as often, and leaves the same anytime prefix, counters and
    memory, as a fresh build."""
    labels = _labels(bird, R)
    resident = _build(bird, R, labels)
    filler = resident.view()
    lower = NUMPY_KERNEL.lower_bounds(filler)
    _phases(filler, lower, labels, R, k=5)
    assert resident.large_grid.tables.memo.upper is not None
    _budget_sweep(bird, resident, lower, labels, 5)


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
        assert resident.large_grid.tables.memo.scores[0] is seeds
        results[id(seeds)] = want
    assert results[id(claimed)][0] != results[id(lower.seeds)][0]


@pytest.mark.parametrize(
    "k, with_label", [(1, True), (5, False)], ids=["k=1-with-label", "k=5-label-free"]
)
def test_deadline_sweep_on_score_records_matches_fresh_builds(
    bird, k, with_label, memo_scored
):
    """Every ``ManualClock`` budget on a view whose blocks are all score
    records: each replays one clock read per group before that group's
    counters, as a fresh block's settle does, so timeouts cut it at the
    same point with the same partial counters."""
    labels = _labels(bird, R) if with_label else None
    resident = _build(bird, R, labels)
    lower = NUMPY_KERNEL.lower_bounds(resident.view())
    _phases(resident.view(), lower, labels, R, k)
    del memo_scored[:]
    _budget_sweep(bird, resident, lower, labels, k)
    assert memo_scored == []


@pytest.mark.parametrize("k", [1, 5])
def test_deadline_sweep_on_a_labeling_filled_entry_matches_fresh_builds(
    bird, k, memo_scored
):
    """A labeling query fills a grid's upper pass and score records with
    what a label-free query computes; every budget on a later label-free
    view then matches a fresh label-free build, clock reads included,
    and scores nothing."""
    resident = _build(bird, R, None)
    filler = resident.view()
    lower = NUMPY_KERNEL.lower_bounds(filler)
    _phases(filler, lower, None, R, k, labeler=PointLabels.for_collection(bird, R))
    memo = resident.large_grid.tables.memo
    assert memo.upper.labels is None and memo.upper.visited is None
    assert memo.scores[:4] == (lower.seeds, R, None, None)
    del memo_scored[:]
    _budget_sweep(bird, resident, lower, None, k)
    assert memo_scored == []


@pytest.mark.parametrize("budget", [None, 10 ** 6], ids=["no-deadline", "deadline"])
def test_blocks_of_records_leave_what_fresh_blocks_leave(bird, budget, memo_scored):
    """Blocks of 1, 2, 4, ... candidates in queue order, half of them
    recorded: after each block the verifier's ``scored``, ``entries``
    and ``capacity()`` equal a fresh build's, and its settles return the
    same scores and leave the same counters, memoized rows and clock
    reads.  A mixed block scores only the candidates with no record."""
    labels = _labels(bird, R)
    resident = _build(bird, R, labels)
    lower = NUMPY_KERNEL.lower_bounds(resident.view())
    upper = NUMPY_KERNEL.upper_bounds(resident, 0, labels=labels)
    oids = [oid for _, oid in upper.candidates]
    filler = resident.view()
    NUMPY_KERNEL.upper_bounds(filler, 0, labels=labels)
    filling = _BatchedVerifier(
        filler, R, lower.seeds, labels.verify_mask, None, VerifyCounters(), None
    )
    for settle in filling.block(oids[::2]):
        settle()
    del memo_scored[:]

    def run(grid):
        clock = ManualClock(step=1.0)
        deadline = None if budget is None else Deadline(budget, clock=clock)
        NUMPY_KERNEL.upper_bounds(grid, 0, labels=labels)
        counters = VerifyCounters()
        scorer = _BatchedVerifier(
            grid, R, lower.seeds, labels.verify_mask, None, counters, deadline
        )
        trace = []
        low, size = 0, 1
        while low < len(oids):
            settles = scorer.block(oids[low : low + size])
            state = (scorer.scored, scorer.entries, scorer.capacity())
            scores = [settle() for settle in settles]
            trace.append(
                (
                    state,
                    scores,
                    counters.posting_checks,
                    counters.distance_rows,
                    counters.points_skipped,
                    grid.large_grid.adj_memo.tolist(),
                    clock.now,
                )
            )
            low, size = low + size, 2 * size
        return trace

    want = run(_build(bird, R, labels))
    got = run(resident.view())
    assert got == want
    assert sum(memo_scored) == len(oids[1::2]) > 0
    assert max(len(scores) for _, scores, *_ in want) > 2
    assert want[-1][2] > 0 and want[-1][4] > 0


def test_new_labels_object_rekeys_the_scores(bird):
    """Labels that mask other points are another key: a grid's score
    records are never served to another labels object, even one whose
    grid and upper bits are the same."""
    labels = _labels(bird, R)
    unmasked = PointLabels.from_arrays(
        [array | VERIFY_BIT for array in labels.arrays], labels.r
    )
    resident = _build(bird, R, labels)
    lower = NUMPY_KERNEL.lower_bounds(resident.view())
    results = {}
    for current in (labels, unmasked, labels):
        fresh = _build(bird, R, current)
        want = _phases(fresh, lower, current, R, 5)
        got = _phases(resident.view(), lower, current, R, 5)
        assert got == want
        assert resident.large_grid.tables.memo.scores[2] is current
        results[id(current)] = want
    assert (
        results[id(labels)][1]["verify_points_skipped"]
        > results[id(unmasked)][1]["verify_points_skipped"]
        == 0
    )


def test_labeling_query_fills_but_never_reads_the_memo(bird, memo_scored):
    """On a grid whose memo holds a label-free query's upper pass and score
    records, a labeling query still runs its own pass and scores every
    candidate it settles: its outcome and every label bit equal a fresh
    build's labeling query.  On an empty memo it fills both with what a
    label-free query computes (its marks do not change them), and a
    label-free view then replays them as a fresh build runs."""
    resident = _build(bird, R, None)
    lower = NUMPY_KERNEL.lower_bounds(resident.view())
    _phases(resident.view(), lower, None, R, 5)
    del memo_scored[:]
    marked = []
    for grid in (_build(bird, R, None), resident.view()):
        labeler = PointLabels.for_collection(bird, R)
        outcome = _phases(grid, lower, None, R, 5, labeler=labeler)
        marked.append((outcome, [array.tolist() for array in labeler.arrays]))
    assert marked[0] == marked[1]
    assert sum(memo_scored) >= marked[1][0][1]["verified_objects"] > 0
    # Every Labeling bit was cleared somewhere: none of the marks came
    # from a replay, which would leave them set.
    assert all(labeler.count_cleared().values())

    empty = _build(bird, R, None)
    labeler = PointLabels.for_collection(bird, R)
    filled = _phases(empty.view(), lower, None, R, 5, labeler=labeler)
    memo = empty.large_grid.tables.memo
    assert memo.upper.labels is None and memo.upper.visited is None
    assert memo.scores[:4] == (lower.seeds, R, None, None) and memo.scores[4]
    del memo_scored[:]
    replayed = _phases(empty.view(), lower, None, R, 5)
    assert memo_scored == []
    assert replayed == _phases(_build(bird, R, None), lower, None, R, 5)
    # The labeling run's own outcome and counters are a label-free run's.
    assert filled == replayed


def _label_free(collection, backend):
    """A session that never labels and builds every grid: each query is a
    fresh label-free run beside the session's lower-bound tier."""
    session = QuerySession(collection, kernel="numpy", backend=backend)
    session._engine.label_store = None
    session._engine.grid_cache = None
    return session


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ks", [(1, 5, 1), (5, 1, 5)], ids=["k=1/5/1", "k=5/1/5"])
def test_labeling_threshold_repeats_are_fresh_label_free_runs(
    bird, backend, ks, memo_scored
):
    """The first query labels ``R``'s ceiling and keeps its grid.  Each
    repeat of ``R`` is a grid hit that reads no labels and equals a fresh
    label-free run in answers, ties, top-k, every counter, ``extra`` and
    ``memory_bytes``; the last repeats the first's ``k`` and scores
    nothing.  The labeling query itself differs from a label-free run
    only in its ``labeled_*`` counts."""
    session = QuerySession(bird, kernel="numpy", backend=backend)
    fresh = _label_free(bird, backend)
    scored = []
    for index, k in enumerate(ks):
        del memo_scored[:]
        got, want = _call(session, R, k), _call(fresh, R, k)
        scored.append(sum(memo_scored))
        labeled = {key for key in got.counters if key.startswith("labeled_")}
        if index == 0:
            assert labeled == {"labeled_grid", "labeled_upper", "labeled_verify"}
            for key in labeled:
                del got.counters[key]
        else:
            assert labeled == set()
        assert got.algorithm == "bigrid"
        assert_results_equal(got, want)
        assert got.extra == want.extra
    stats = session.stats()
    assert (stats["grid_key_cache_hits"], stats["grid_key_cache_misses"]) == (2, 1)
    assert (stats["label_store_hits"], stats["label_store_misses"]) == (0, 1)
    assert scored[0] > 0 and scored[2] == 0
    memo = _memo(session, R)
    assert memo.upper.labels is None and memo.scores[2] is None
