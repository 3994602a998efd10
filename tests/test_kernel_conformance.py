"""Differential conformance harness for the compute-kernel layer.

The kernel contract (:mod:`repro.kernels.base`, ``docs/kernels.md``) says
backends are interchangeable *bit-for-bit*: identical cell keys, identical
index structures, identical bound values and candidate sets, identical
scores, identical work counters and memory accounting.  This suite holds
the ``numpy`` backend to the ``python`` reference oracle on every
operation and end to end through every engine, across dimensions, bitset
backends, and traced/untraced pipelines.  Kernel-name resolution policy
(``auto``, the env kill switch, quiet degradation) is covered at the end.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import MIOEngine
from repro.core.labels import GRID_BIT, UPPER_BIT, PointLabels
from repro.core.objects import ObjectCollection
from repro.core.query import PhaseStats
from repro.core.verification import (
    PerCandidateScorer,
    VerifyCounters,
    _exact_score,
    best_first_verification,
    box_bound,
)
from repro.errors import InvalidQueryError
from repro.grid.keys import key_tuples
from repro.kernels import (
    DISABLE_ENV,
    KERNEL_NAMES,
    PYTHON_KERNEL,
    KernelBackend,
    numpy_kernel_available,
    resolve_kernel,
)
from repro.obs.trace import Tracer
from repro.parallel.engine import ParallelMIOEngine
from repro.progressive import query_progressive
from repro.session import QuerySession

from conftest import random_collection
from test_properties import collections, radii

needs_numpy = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)

BITSET_BACKENDS = ("ewah", "plain", "roaring")


def numpy_kernel():
    from repro.kernels.numpy_backend import NUMPY_KERNEL

    return NUMPY_KERNEL


# ----------------------------------------------------------------------
# Structural equality helpers
# ----------------------------------------------------------------------


def assert_small_grids_equal(a, b):
    assert a.width == b.width
    assert set(a.cells) == set(b.cells)
    for key, cell_a in a.cells.items():
        cell_b = b.cells[key]
        assert cell_a.bitset.to_int() == cell_b.bitset.to_int(), key
        assert cell_a.distinct_objects == cell_b.distinct_objects
        assert cell_a.first_oid == cell_b.first_oid
        assert cell_a.last_oid == cell_b.last_oid


def assert_large_grids_equal(a, b):
    assert a.width == b.width
    assert set(a.cells) == set(b.cells)
    for key, cell_a in a.cells.items():
        cell_b = b.cells[key]
        assert cell_a.bitset.to_int() == cell_b.bitset.to_int(), key
        assert list(cell_a.postings) == list(cell_b.postings)
        for oid, posting in cell_a.postings.items():
            assert list(posting) == list(cell_b.postings[oid])
        assert cell_a.last_oid == cell_b.last_oid


def assert_bigrids_equal(a, b):
    """Bit-exact index equality: the grid-mapping half of the contract.

    Memory accounting is compared first, while no cell bitset has been
    read: the structural checks below materialize every lazy cell.
    """
    assert a.memory_bytes() == b.memory_bytes()
    assert a.r == b.r
    assert a.mapped_points == b.mapped_points
    assert a.key_lists == b.key_lists
    assert a.object_groups == b.object_groups
    assert_small_grids_equal(a.small_grid, b.small_grid)
    assert_large_grids_equal(a.large_grid, b.large_grid)
    assert a.memory_bytes() == b.memory_bytes()


def assert_results_equal(a, b):
    """End-to-end result equality, ignoring only wall-clock fields.

    ``verification_path`` and ``lower_bound_path`` are the two notes that
    legitimately name the backend that ran (they are informational, never
    answer-affecting), so they are excluded from the notes comparison.
    """
    _PATH_NOTES = ("verification_path", "lower_bound_path")
    assert a.algorithm == b.algorithm
    assert a.r == b.r
    assert (a.winner, a.score) == (b.winner, b.score)
    assert a.topk == b.topk
    assert a.counters == b.counters
    assert a.memory_bytes == b.memory_bytes
    assert a.exact == b.exact
    notes_a = {k: v for k, v in a.notes.items() if k not in _PATH_NOTES}
    notes_b = {k: v for k, v in b.notes.items() if k not in _PATH_NOTES}
    assert notes_a == notes_b


# ----------------------------------------------------------------------
# Operation-level conformance
# ----------------------------------------------------------------------


@needs_numpy
class TestOperationConformance:
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("width", [0.7, 1.0, 4.0])
    def test_cell_keys_match(self, dimension, width):
        rng = np.random.default_rng(dimension)
        points = rng.uniform(-40.0, 40.0, size=(200, dimension))
        assert numpy_kernel().cell_keys(points, width) == PYTHON_KERNEL.cell_keys(
            points, width
        )

    def test_cell_keys_negative_and_boundary_coordinates(self):
        points = np.array([[-3.0, -0.5], [0.0, 0.0], [2.0, -2.0], [1.999, 2.001]])
        assert numpy_kernel().cell_keys(points, 1.0) == PYTHON_KERNEL.cell_keys(
            points, 1.0
        )

    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("r", [0.8, 2.5, 6.0])
    def test_build_bigrid_bit_exact(self, backend, dimension, r):
        collection = random_collection(
            n=30, mean_points=6, dimension=dimension, seed=dimension * 7
        )
        ref = PYTHON_KERNEL.build_bigrid(collection, r, backend=backend)
        got = numpy_kernel().build_bigrid(collection, r, backend=backend)
        assert_bigrids_equal(ref, got)

    @pytest.mark.parametrize("r", [0.8, 3.0])
    def test_lower_bounds_bit_exact(self, r):
        collection = random_collection(n=35, mean_points=7, seed=5)
        ref_grid = PYTHON_KERNEL.build_bigrid(collection, r)
        got_grid = numpy_kernel().build_bigrid(collection, r)
        ref_stats, got_stats = PhaseStats("lower"), PhaseStats("lower")
        ref = PYTHON_KERNEL.lower_bounds(ref_grid, keep_bitsets=True, stats=ref_stats)
        got = numpy_kernel().lower_bounds(got_grid, keep_bitsets=True, stats=got_stats)
        assert ref.values == got.values
        assert ref.tau_max == got.tau_max
        assert ref_stats.counters == got_stats.counters
        assert [
            0 if bits is None else bits.to_int() for bits in ref.bitsets
        ] == [0 if bits is None else bits.to_int() for bits in got.bitsets]

    @pytest.mark.parametrize("r", [0.8, 3.0])
    def test_upper_bounds_bit_exact(self, r):
        collection = random_collection(n=35, mean_points=7, seed=9)
        ref_grid = PYTHON_KERNEL.build_bigrid(collection, r)
        got_grid = numpy_kernel().build_bigrid(collection, r)
        tau = PYTHON_KERNEL.lower_bounds(ref_grid).tau_max
        ref_stats, got_stats = PhaseStats("upper"), PhaseStats("upper")
        ref = PYTHON_KERNEL.upper_bounds(ref_grid, tau, stats=ref_stats)
        got = numpy_kernel().upper_bounds(got_grid, tau, stats=got_stats)
        assert ref.candidates == got.candidates
        assert ref_stats.counters == got_stats.counters
        # The sealed adjacency unions must agree cell by cell.
        for key, cell in ref_grid.large_grid.cells.items():
            assert cell.adj_int == got_grid.large_grid.cells[key].adj_int, key
        assert ref_grid.large_grid.adj_computed == got_grid.large_grid.adj_computed

    def test_labeled_upper_pass_needs_no_reference_or_bitset(self, monkeypatch):
        # On a packed grid the labeled pass runs on the packed matrices:
        # no hand-off to the reference, no lazy cell bitset built.
        collection = random_collection(n=90, mean_points=6, seed=19)
        grid = numpy_kernel().build_bigrid(collection, 2.5)
        tau = numpy_kernel().lower_bounds(grid).tau_max

        def no_reference(*args, **kwargs):
            raise AssertionError("handed off to the reference kernel")

        monkeypatch.setattr(PYTHON_KERNEL, "upper_bounds", no_reference)
        calls = counting_from_int(monkeypatch, grid.small_grid.bitset_cls)
        numpy_kernel().upper_bounds(
            grid, tau, labeler=PointLabels.for_collection(collection, grid.r)
        )
        numpy_kernel().upper_bounds(
            grid, tau, labels=upper_labels_for(collection, seed=1),
            labeler=PointLabels.for_collection(collection, grid.r),
        )
        assert calls == []

    def test_any_within_boundary_is_inclusive(self):
        point = np.zeros(2)
        exact = np.array([[3.0, 4.0]])  # distance exactly 5
        for kernel in (PYTHON_KERNEL, numpy_kernel()):
            assert kernel.any_within(exact, point, 25.0)
            assert not kernel.any_within(exact, point, 25.0 - 1e-9)

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513, 1000])
    def test_any_within_matches_across_chunk_sizes(self, rows):
        # 256 is the numpy backend's early-exit chunk size; straddle it.
        rng = np.random.default_rng(rows)
        candidates = rng.uniform(-10.0, 10.0, size=(rows, 3))
        point = rng.uniform(-10.0, 10.0, size=3)
        for r_squared in (0.5, 20.0, 1e6):
            assert numpy_kernel().any_within(
                candidates, point, r_squared
            ) == PYTHON_KERNEL.any_within(candidates, point, r_squared)

    def test_any_within_hit_only_in_last_chunk(self):
        candidates = np.full((600, 2), 50.0)
        candidates[-1] = (0.1, 0.1)
        point = np.zeros(2)
        assert numpy_kernel().any_within(candidates, point, 1.0)
        assert not numpy_kernel().any_within(candidates[:-1], point, 1.0)


# ----------------------------------------------------------------------
# Labeled upper bounding: Labeling-1/2 and WITH-LABEL group selection
# ----------------------------------------------------------------------


def upper_labels_for(collection, seed):
    """Deterministic WITH-LABEL input: labels whose ``upper_mask`` selects
    about half of each object's points, and none of every seventh
    object's (their ``UPPER`` bit cleared, every other bit set)."""
    labels = PointLabels.for_collection(collection, 1.0)
    for oid, array in enumerate(labels.arrays):
        if oid % 7 == 3:
            selected = np.zeros(len(array), dtype=bool)
        else:
            selected = np.random.default_rng(seed * 1000 + oid).random(len(array)) < 0.5
        array[~selected] &= ~UPPER_BIT & 0xFF
    return labels


#: ``labeler`` only is the label-producing pass, ``masks`` only the
#: with-label pass; the pipeline never passes both, the contract allows it.
LABELED_MODES = ("labeler", "masks", "both")


def run_labeled_upper(kernel, collection, r, mode, backend="ewah", prior=None):
    """One upper-bounding pass in ``mode``; returns everything it produced.

    ``prior`` first runs an unlabeled (``"bulk"``) or masked
    (``"masks"``) pass, so the pass under test starts from a grid with
    every or some unions memoized.
    """
    grid = kernel.build_bigrid(collection, r, backend=backend)
    tau = kernel.lower_bounds(grid).tau_max
    if prior is not None:
        kernel.upper_bounds(
            grid,
            tau,
            labels=upper_labels_for(collection, seed=9) if prior == "masks" else None,
        )
    labeler = (
        PointLabels.for_collection(collection, r) if mode != "masks" else None
    )
    stats = PhaseStats("upper")
    result = kernel.upper_bounds(
        grid,
        tau,
        labels=upper_labels_for(collection, seed=3) if mode != "labeler" else None,
        labeler=labeler,
        stats=stats,
    )
    return grid, result, stats, labeler


def assert_labeled_upper_equal(ref, got):
    ref_grid, ref_result, ref_stats, ref_labels = ref
    got_grid, got_result, got_stats, got_labels = got
    assert ref_result.values == got_result.values
    assert ref_result.candidates == got_result.candidates
    # upper_groups_processed, adj_unions_computed, candidates, pruned_objects
    assert ref_stats.counters == got_stats.counters
    assert ref_grid.large_grid.adj_computed == got_grid.large_grid.adj_computed
    assert ref_grid.memory_bytes() == got_grid.memory_bytes()
    if ref_labels is not None:
        assert len(ref_labels.arrays) == len(got_labels.arrays)
        for ref_array, got_array in zip(ref_labels.arrays, got_labels.arrays):
            assert ref_array.tobytes() == got_array.tobytes()


@needs_numpy
class TestLabeledUpperBoundsConformance:
    """``upper_bounds`` with ``labeler``/``labels``, op against op."""

    @pytest.mark.parametrize("mode", LABELED_MODES)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("n", [63, 64, 65, 90])
    def test_labeled_upper_bounds_bit_exact(self, mode, backend, dimension, n):
        # n straddles 64 so rows cross a word boundary.  The sparse set
        # has neighbourhoods holding a single object (Labeling-1 fires);
        # the dense one has objects of many groups whose later unions
        # often add nothing (Labeling-2 needs every scan step).
        sparse = random_collection(
            n=n, mean_points=6, dimension=dimension, extent=120.0, seed=n + dimension
        )
        dense = random_collection(
            n=n, mean_points=30, dimension=dimension, extent=30.0, seed=n
        )
        for collection in (sparse, dense):
            for r in (1.5, 4.0):
                ref = run_labeled_upper(PYTHON_KERNEL, collection, r, mode, backend)
                got = run_labeled_upper(numpy_kernel(), collection, r, mode, backend)
                assert_labeled_upper_equal(ref, got)

    @pytest.mark.parametrize("mode", LABELED_MODES)
    @pytest.mark.parametrize("prior", ["bulk", "masks"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_labeled_pass_on_memoized_grid(self, mode, prior, dimension):
        # Labeling-1 only fires on a cell's first union, and only unions
        # not memoized before the pass count as computed by it.
        collection = random_collection(
            n=65, mean_points=6, dimension=dimension, extent=120.0, seed=dimension
        )
        for r in (1.5, 4.0):
            ref = run_labeled_upper(PYTHON_KERNEL, collection, r, mode, prior=prior)
            got = run_labeled_upper(numpy_kernel(), collection, r, mode, prior=prior)
            assert_labeled_upper_equal(ref, got)

    def test_labeling2_reads_the_whole_prefix(self):
        # Object 0 leaves its home cell for six lone far cells, then comes
        # back next door: that last group adds nothing to the union of all
        # its earlier groups, but does to the last few -- only a scan over
        # the whole prefix clears its first point.
        trip = [[0.5, 0.5]] + [[20.5 * step, 0.5] for step in range(1, 7)]
        trip.append([1.5, 0.5])
        collection = ObjectCollection.from_point_arrays(
            [np.array(trip), np.array([[0.5, 0.5]]), np.array([[1.2, 0.8]])]
        )
        ref = run_labeled_upper(PYTHON_KERNEL, collection, 1.0, "labeler")
        got = run_labeled_upper(numpy_kernel(), collection, 1.0, "labeler")
        assert_labeled_upper_equal(ref, got)
        assert got[3].upper_mask(0).tolist() == [True] + [False] * 7

    def test_every_labeling_fires(self):
        # Guard the parametrization above against vacuity.
        collection = random_collection(
            n=90, mean_points=6, dimension=2, extent=120.0, seed=92
        )
        _, _, stats, labels = run_labeled_upper(
            numpy_kernel(), collection, 1.5, "labeler"
        )
        cleared = labels.count_cleared()
        assert cleared["grid"] > 0 and cleared["upper"] > 0
        _, _, masked, _ = run_labeled_upper(numpy_kernel(), collection, 1.5, "masks")
        assert 0 < masked.counters["upper_groups_processed"] < stats.counters[
            "upper_groups_processed"
        ]

    @given(
        collection=collections(),
        r=radii,
        mode=st.sampled_from(LABELED_MODES),
    )
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_labeled_upper_parity(self, collection, r, mode):
        ref = run_labeled_upper(PYTHON_KERNEL, collection, r, mode)
        got = run_labeled_upper(numpy_kernel(), collection, r, mode)
        assert_labeled_upper_equal(ref, got)


# ----------------------------------------------------------------------
# Memory accounting on cold grids
# ----------------------------------------------------------------------

#: Grid states memory accounting must size without reading a cell, as
#: ``+``-joined upper-bound passes in order: ``bulk`` is an unlabeled pass
#: (every union memoized), ``labeled`` a label-producing pass over half
#: the objects (the unions of the cells it touched only).  ``bulk+labeled``
#: labels an already memoized grid, where Labeling-1 never fires.
GRID_STATES = ("fresh", "bulk", "labeled", "labeled+bulk", "bulk+labeled")

#: ``GRID_STATES`` plus verification of every object after a masked
#: upper pass, without and with verify masks: the verifier memoizes the
#: unions it reads that the pass skipped.
VERIFIED_STATES = ("labeled+verify", "labeled+masked-verify")


def even_objects_labels(collection):
    """Labels whose ``upper_mask`` selects every point of the even oids
    and none of the odd ones."""
    labels = PointLabels.for_collection(collection, 1.0)
    for array in labels.arrays[1::2]:
        array &= ~UPPER_BIT & 0xFF
    return labels


def advance_grid(kernel, grid, state):
    """Run the upper-bound (and verification) passes ``state`` names."""
    if state == "fresh":
        return
    tau = kernel.lower_bounds(grid).tau_max
    collection = grid.collection
    for step in state.split("+"):
        if step == "labeled":
            kernel.upper_bounds(
                grid,
                tau,
                labels=even_objects_labels(collection),
                labeler=PointLabels.for_collection(collection, grid.r),
            )
        elif step in ("verify", "masked-verify"):
            # Equal upper bounds: best-first verification scores everyone.
            kernel.verify_candidates(
                grid,
                [(collection.n, oid) for oid in range(collection.n)],
                grid.r,
                verify_masks=(
                    upper_labels_for(collection, seed=9).upper_mask
                    if step == "masked-verify"
                    else None
                ),
            )
        else:
            kernel.upper_bounds(grid, tau)


def materialize(grid):
    """Read every lazy reference-layout structure of ``grid``."""
    grid.small_grid.cells
    grid.large_grid.cells
    grid.key_lists
    grid.object_groups


def filled_lazy_slots(grid):
    """The lazy slots of a packed grid that something has filled.

    Reads each slot through its member descriptor, which (unlike plain
    attribute access) never falls back to the materializing
    ``__getattr__``.
    """
    filled = []
    for owner, label, names in (
        (grid, "bigrid", ("key_lists", "object_groups")),
        (grid.small_grid, "small_grid", ("cells",)),
        (grid.large_grid, "large_grid", ("cells",)),
    ):
        for name in names:
            slot = next(
                vars(cls)[name] for cls in type(owner).__mro__ if name in vars(cls)
            )
            try:
                slot.__get__(owner)
            except AttributeError:
                continue
            filled.append(f"{label}.{name}")
    return filled


def counting_from_int(monkeypatch, bitset_cls):
    """Patch ``bitset_cls.from_int`` to record every call; returns the log."""
    calls = []
    original = bitset_cls.from_int.__func__

    def from_int(cls, value):
        calls.append(value)
        return original(cls, value)

    monkeypatch.setattr(bitset_cls, "from_int", classmethod(from_int))
    return calls


class TestColdMemoryAccounting:
    """``memory_bytes()`` before any cell bitset is read.

    The kernel under test is the one ``auto`` resolves to, so with the
    numpy kernel masked these cases pin the reference against itself on
    cold grids.
    """

    @pytest.mark.parametrize("state", GRID_STATES)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_cold_memory_matches_reference(self, state, backend, dimension):
        # n = 90: two-word rows, so word boundaries are exercised.
        collection = random_collection(
            n=90, mean_points=6, dimension=dimension, seed=11 + dimension
        )
        kernel = resolve_kernel("auto")
        ref = PYTHON_KERNEL.build_bigrid(collection, 2.5, backend=backend)
        got = kernel.build_bigrid(collection, 2.5, backend=backend)
        advance_grid(PYTHON_KERNEL, ref, state)
        advance_grid(kernel, got, state)
        assert got.memory_bytes() == ref.memory_bytes()
        assert_bigrids_equal(ref, got)

    @needs_numpy
    @pytest.mark.parametrize("state", GRID_STATES)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_numpy_memory_builds_no_bitset(
        self, monkeypatch, state, backend, dimension
    ):
        collection = random_collection(
            n=90, mean_points=6, dimension=dimension, seed=11 + dimension
        )
        grid = numpy_kernel().build_bigrid(collection, 2.5, backend=backend)
        advance_grid(numpy_kernel(), grid, state)
        calls = counting_from_int(monkeypatch, grid.small_grid.bitset_cls)
        grid.memory_bytes()
        assert calls == []

    @needs_numpy
    @pytest.mark.parametrize("masked_verify", [False, True])
    @pytest.mark.parametrize("n", [40, 90])
    def test_masked_pass_then_verification_memory(self, n, masked_verify):
        # A masked upper pass leaves some unions unmemoized; verification
        # memoizes those it reads, so the grid's accounting must track the
        # reference's after both phases, on one-word (n=40) and two-word
        # (n=90) rows.
        collection = random_collection(n=n, mean_points=6, seed=17 + n)
        verify_masks = (
            upper_labels_for(collection, seed=5).upper_mask if masked_verify else None
        )
        grids = []
        for kernel in (PYTHON_KERNEL, numpy_kernel()):
            grid = kernel.build_bigrid(collection, 2.5)
            tau = kernel.lower_bounds(grid).tau_max
            upper = kernel.upper_bounds(
                grid, tau, labels=upper_labels_for(collection, seed=4)
            )
            kernel.verify_candidates(
                grid, upper.candidates, 2.5, verify_masks=verify_masks
            )
            grids.append(grid)
        ref, got = grids
        assert got.large_grid.adj_computed == ref.large_grid.adj_computed
        assert got.large_grid.adj_computed < len(got.large_grid)
        assert got.memory_bytes() == ref.memory_bytes()

    @needs_numpy
    def test_numpy_memory_of_empty_grid(self):
        collection = random_collection(n=5, mean_points=3, seed=2)
        nothing = PointLabels.for_collection(collection, 2.0)
        nothing.clear_flat(GRID_BIT, np.arange(nothing.total_points()))

        ref = PYTHON_KERNEL.build_bigrid(collection, 2.0, labels=nothing)
        got = numpy_kernel().build_bigrid(collection, 2.0, labels=nothing)
        assert got.memory_bytes() == ref.memory_bytes()

    @needs_numpy
    def test_discarded_numpy_grid_needs_no_cyclic_gc(self):
        # With memory accounting no longer allocating a bitset per cell,
        # the cyclic collector runs rarely; a grid freed only by it would
        # pile up across queries.  Its last reference must free it, also
        # once its cells, postings and groups have materialized.
        collection = random_collection(n=90, mean_points=6, seed=13)
        for materialized in (False, True):
            grid = numpy_kernel().build_bigrid(collection, 2.5)
            lower = numpy_kernel().lower_bounds(grid)
            upper = numpy_kernel().upper_bounds(grid, lower.tau_max)
            numpy_kernel().verify_candidates(grid, upper.candidates, 2.5)
            grid.memory_bytes()
            if materialized:
                materialize(grid)
                for cell in grid.large_grid.cells.values():
                    cell.bitset, cell.adj_int, cell.adj_bitset
                for cell in grid.small_grid.cells.values():
                    cell.bitset
                assert len(filled_lazy_slots(grid)) == 4
            coords = weakref.ref(grid.large_grid.seg_coords)
            gc.disable()
            try:
                del grid, lower, upper
                assert coords() is None, f"materialized={materialized}"
            finally:
                gc.enable()


@needs_numpy
class TestLateMaterialization:
    """The reference layout of a numpy grid, read only after passes ran.

    A numpy-built grid keeps packed arrays only; its cells, postings, key
    lists and object groups materialize on first read.  Whenever that
    read happens, it must yield what the reference grid advanced through
    the same passes holds: same cells (listed in ascending key order, the
    packed row order), bitsets, postings, memoized adjacent unions, key
    lists, and object groups in first-occurrence order.
    """

    @pytest.mark.parametrize("state", GRID_STATES + VERIFIED_STATES)
    @pytest.mark.parametrize("n", [63, 64, 65, 90])
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_materialized_grid_matches_reference(
        self, state, n, backend, dimension
    ):
        collection = random_collection(
            n=n, mean_points=6, dimension=dimension, seed=n + dimension
        )
        ref = PYTHON_KERNEL.build_bigrid(collection, 2.5, backend=backend)
        got = numpy_kernel().build_bigrid(collection, 2.5, backend=backend)
        advance_grid(PYTHON_KERNEL, ref, state)
        advance_grid(numpy_kernel(), got, state)
        assert filled_lazy_slots(got) == []

        assert list(got.small_grid.cells) == sorted(ref.small_grid.cells)
        assert list(got.large_grid.cells) == sorted(ref.large_grid.cells)
        assert_bigrids_equal(ref, got)
        for key, cell in ref.large_grid.cells.items():
            assert got.large_grid.cells[key].adj_int == cell.adj_int, key
        for ref_groups, got_groups in zip(ref.object_groups, got.object_groups):
            assert list(got_groups.items()) == list(ref_groups.items())
        assert got.large_grid.adj_computed == ref.large_grid.adj_computed


@needs_numpy
class TestNumpyPathNeverMaterializes:
    """No numpy query path reads the reference layout of its grids."""

    @pytest.fixture
    def grids(self, monkeypatch):
        """Every grid the numpy kernel builds during the test."""
        built = []
        kernel_cls = type(numpy_kernel())
        build = kernel_cls.build_bigrid

        def recording_build(self, *args, **kwargs):
            grid = build(self, *args, **kwargs)
            built.append(grid)
            return grid

        monkeypatch.setattr(kernel_cls, "build_bigrid", recording_build)
        return built

    @staticmethod
    def assert_untouched(grids, count):
        from repro.kernels.numpy_backend import PackedBIGrid

        assert len(grids) == count
        for grid in grids:
            assert isinstance(grid, PackedBIGrid)
            assert filled_lazy_slots(grid) == []

    # n = 40: one-word rows; n = 90: two-word rows.
    @pytest.mark.parametrize("n", [40, 90])
    def test_engine_query_and_topk(self, grids, n):
        collection = random_collection(n=n, mean_points=6, seed=n)
        engine = MIOEngine(collection, kernel="numpy")
        engine.query(3.0)
        engine.query_topk(3.0, k=3)
        self.assert_untouched(grids, 2)

    @pytest.mark.parametrize("n", [40, 90])
    def test_session_label_producing_and_with_label(self, grids, n):
        collection = random_collection(n=n, mean_points=6, seed=n)
        session = QuerySession(collection, kernel="numpy")
        assert session.query(3.0).algorithm == "bigrid"
        assert session.query(2.6).algorithm == "bigrid-label"
        session.topk(2.8, k=2)
        self.assert_untouched(grids, 3)

    def test_memory_bytes(self, grids):
        collection = random_collection(n=90, mean_points=6, seed=5)
        grid = numpy_kernel().build_bigrid(collection, 2.5)
        for state in ("labeled", "bulk"):
            advance_grid(numpy_kernel(), grid, state)
            grid.memory_bytes()
            grid.index_entry_counts()
            grid.large_grid.posting_counts()
            len(grid.small_grid), len(grid.large_grid)
        self.assert_untouched(grids, 1)


# ----------------------------------------------------------------------
# verify_candidates: the best-first verification op
# ----------------------------------------------------------------------


class RecordingCandidates(list):
    """A candidate list that records its dequeue order.

    Best-first verification consumes candidates lazily and stops on the
    early-termination threshold (or the deadline), so the sequence of
    dequeued oids *is* the visit order — including the final peeked-but-
    unscored candidate that triggered early exit.  Recording it makes the
    early-exit order a first-class differential observable instead of an
    inference from ``verified_objects``.
    """

    def __init__(self, items):
        super().__init__(items)
        self.visited = []

    def __iter__(self):
        for item in super().__iter__():
            self.visited.append(item[1])
            yield item


def run_verify(kernel, collection, r, backend="ewah", k=1, seed_bitsets=False,
               deadline=None, candidates=None):
    """Run the full filter pipeline with ``kernel`` and verify the survivors.

    Returns ``(result, stats, visited_oids)``.  ``candidates`` overrides the
    upper-bounding output (for hand-built degenerate candidate sets);
    ``seed_bitsets`` exercises the with-label seeding path by feeding the
    lower-bounding union bitsets into verification.
    """
    grid = kernel.build_bigrid(collection, r, backend=backend)
    lower = kernel.lower_bounds(grid, keep_bitsets=seed_bitsets)
    if candidates is None:
        candidates = kernel.upper_bounds(grid, lower.tau_max).candidates
    recorder = RecordingCandidates(candidates)
    stats = PhaseStats("verification")
    initial = (lambda oid: lower.bitsets[oid]) if seed_bitsets else None
    result = kernel.verify_candidates(
        grid, recorder, r, k=k, initial_bitsets=initial, stats=stats,
        deadline=deadline,
    )
    return result, stats, recorder.visited


def assert_verifications_equal(ref, got):
    ref_result, ref_stats, ref_visited = ref
    got_result, got_stats, got_visited = got
    assert ref_result.ranking == got_result.ranking
    assert ref_result.verified == got_result.verified
    assert ref_result.early_terminated == got_result.early_terminated
    assert ref_result.timed_out == got_result.timed_out
    assert ref_stats.counters == got_stats.counters
    assert ref_visited == got_visited
    assert ref_result.path == "reference"
    assert got_result.path.startswith("numpy-")
    assert ref_result.box_skipped == got_result.box_skipped
    if not ref_result.timed_out:
        assert_dequeues_accounted(ref_result, ref_visited)


def assert_dequeues_accounted(result, visited):
    """Every candidate dequeued before the break was verified or skipped
    on its box bound (the last visited one triggered an early break)."""
    dequeued = len(visited) - int(result.early_terminated)
    assert result.verified + result.box_skipped == dequeued


class _VerifyCasesBySize:
    """Verify cases that run at the collection size fixture ``n``: one
    bitset word at ``n <= 64``, several (as on every paper-scale dataset)
    above."""

    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("r", [0.9, 2.5, 6.0])
    def test_verify_candidates_bit_exact(self, n, backend, dimension, r):
        collection = random_collection(
            n=n, mean_points=8, dimension=dimension, seed=11 * dimension
        )
        ref = run_verify(PYTHON_KERNEL, collection, r, backend=backend)
        got = run_verify(numpy_kernel(), collection, r, backend=backend)
        assert_verifications_equal(ref, got)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_topk_thresholds_match(self, n, k):
        collection = random_collection(n=n + 5, mean_points=8, seed=41)
        ref = run_verify(PYTHON_KERNEL, collection, 3.0, k=k)
        got = run_verify(numpy_kernel(), collection, 3.0, k=k)
        assert_verifications_equal(ref, got)

    @pytest.mark.parametrize("r", [1.2, 4.0])
    def test_seeded_bitsets_match(self, n, r):
        # The with-label mode seeds b(o_i) with the lower-bounding union;
        # seeded candidates skip distance work, shrinking the counters —
        # identically on both backends.
        collection = random_collection(n=n, mean_points=8, seed=43)
        ref = run_verify(PYTHON_KERNEL, collection, r, seed_bitsets=True)
        got = run_verify(numpy_kernel(), collection, r, seed_bitsets=True)
        assert_verifications_equal(ref, got)

    @pytest.mark.parametrize("budget", [0.0, 1.0, 3.0, 7.0, 15.0, 40.0])
    def test_deadline_expiry_parity(self, n, budget):
        # A step clock expires the deadline after exactly ``budget`` reads.
        # Both backends must poll the deadline at the same points (one read
        # per dequeued candidate, one per visited point group), so every
        # budget must cut verification at the same candidate and produce
        # the same settled prefix.
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(n=n, mean_points=8, seed=47)
        ref = run_verify(
            PYTHON_KERNEL, collection, 4.0,
            deadline=Deadline(budget, clock=ManualClock(step=1.0)),
        )
        got = run_verify(
            numpy_kernel(), collection, 4.0,
            deadline=Deadline(budget, clock=ManualClock(step=1.0)),
        )
        assert_verifications_equal(ref, got)

    def test_some_budget_times_out_mid_run(self, n):
        # Guard the parametrization above against vacuity: the smallest
        # budget must actually fire, and a huge one must not.
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(n=n, mean_points=8, seed=47)
        cut, _, _ = run_verify(
            numpy_kernel(), collection, 4.0,
            deadline=Deadline(0.0, clock=ManualClock(step=1.0)),
        )
        assert cut.timed_out and cut.verified == 0
        full, _, _ = run_verify(
            numpy_kernel(), collection, 4.0,
            deadline=Deadline(1e9, clock=ManualClock(step=1.0)),
        )
        assert not full.timed_out and full.verified > 0

    @pytest.mark.parametrize("budget", [None, 5.0, 20.0, 60.0])
    def test_labeled_masked_seeded_match(self, n, budget):
        # The with-label pipeline's verification inputs all at once:
        # labels to mark, points masked out, b(o_i) seeded -- after a
        # masked upper-bounding pass, so verification memoizes some
        # adjacent unions itself.  Labels, memoized cells and counters
        # must match, also when a deadline cuts the walk mid-candidate.
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(n=n, mean_points=8, seed=61)
        r = 3.0
        outcomes = []
        for kernel in (PYTHON_KERNEL, numpy_kernel()):
            grid = kernel.build_bigrid(collection, r)
            lower = kernel.lower_bounds(grid, keep_bitsets=True)
            candidates = kernel.upper_bounds(
                grid, lower.tau_max, labels=upper_labels_for(collection, seed=5)
            ).candidates
            labels = PointLabels.for_collection(collection, r)
            stats = PhaseStats("verification")
            result = kernel.verify_candidates(
                grid, candidates, r,
                initial_bitsets=lambda oid: lower.bitsets[oid],
                verify_masks=upper_labels_for(collection, seed=7).upper_mask,
                labeler=labels,
                stats=stats,
                deadline=None if budget is None
                else Deadline(budget, clock=ManualClock(step=1.0)),
            )
            outcomes.append((grid, result, stats, labels))
        (ref_grid, ref, ref_stats, ref_labels), (got_grid, got, got_stats, got_labels) = outcomes
        assert got.path == "numpy-batch"
        assert (ref.ranking, ref.settled, ref.timed_out) == (
            got.ranking, got.settled, got.timed_out
        )
        assert ref_stats.counters == got_stats.counters
        for ref_array, got_array in zip(ref_labels.arrays, got_labels.arrays):
            assert ref_array.tobytes() == got_array.tobytes()
        memoized = {
            key
            for key, cell in ref_grid.large_grid.cells.items()
            if cell.adj_int is not None
        }
        got_keys = key_tuples(got_grid.large_grid.key_rows)
        assert memoized == {
            got_keys[row] for row in np.flatnonzero(got_grid.large_grid.adj_memo)
        }


@needs_numpy
class TestVerifyCandidatesConformance(_VerifyCasesBySize):
    @pytest.fixture
    def n(self):
        return 40

    def test_empty_candidates(self):
        collection = random_collection(n=20, mean_points=5, seed=53)
        ref = run_verify(PYTHON_KERNEL, collection, 2.0, candidates=[])
        got = run_verify(numpy_kernel(), collection, 2.0, candidates=[])
        assert_verifications_equal(ref, got)
        assert ref[0].ranking == []
        assert ref[0].verified == 0

    def test_single_object_collection(self):
        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])]
        )
        ref = run_verify(PYTHON_KERNEL, collection, 2.0, candidates=[(0, 0)])
        got = run_verify(numpy_kernel(), collection, 2.0, candidates=[(0, 0)])
        assert_verifications_equal(ref, got)
        assert ref[0].ranking == [(0, 0)]

    def test_duplicate_coordinates(self):
        # Objects stacked on identical points: every pair interacts, all
        # postings collapse onto few cells, and scores tie everywhere.
        stack = np.array([[1.0, 1.0], [1.0, 1.0], [2.5, 2.5]])
        collection = ObjectCollection.from_point_arrays([stack.copy() for _ in range(6)])
        ref = run_verify(PYTHON_KERNEL, collection, 1.5)
        got = run_verify(numpy_kernel(), collection, 1.5)
        assert_verifications_equal(ref, got)

    def test_all_tied_upper_bounds(self):
        # Hand-built candidate list where every upper bound ties at n-1:
        # no early exit is possible until the very last dequeue, so the
        # whole collection is verified in oid order on both backends.
        collection = random_collection(n=25, mean_points=6, seed=59)
        tied = [(collection.n - 1, oid) for oid in range(collection.n)]
        ref = run_verify(PYTHON_KERNEL, collection, 2.0, candidates=list(tied))
        got = run_verify(numpy_kernel(), collection, 2.0, candidates=list(tied))
        assert_verifications_equal(ref, got)
        assert ref[2] == [oid for _, oid in tied]

    @given(collection=collections(), r=radii, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_verify_parity(self, collection, r, k):
        ref = run_verify(PYTHON_KERNEL, collection, r, k=k)
        got = run_verify(numpy_kernel(), collection, r, k=k)
        assert_verifications_equal(ref, got)


@needs_numpy
class TestVerifyMultiWordConformance(_VerifyCasesBySize):
    """The size-dependent verify cases over two-word bitsets."""

    @pytest.fixture
    def n(self):
        return 90


#: Collections whose numpy verification scores blocks of several
#: candidates and breaks inside one (scores computed past the break) at
#: both k=1 and k=5: label-free, and through the with-label pass of
#: :func:`run_labeled_verify` (two bitset words), where the discarded
#: candidates have points the reference would never mark.
BLOCK_CASE = dict(n=60, mean_points=6, dimension=3, seed=5)
BLOCK_R = 3.0
LABELED_BLOCK_CASE = dict(n=90, mean_points=6, dimension=3, seed=21)
LABELED_BLOCK_R = 2.0
#: A session whose with-label queries score ahead and discard.
SESSION_BLOCK_CASE = dict(n=90, mean_points=6, dimension=3, seed=5)
SESSION_BLOCK_RS = (2.5, 2.2, 1.9)


def run_labeled_verify(kernel, collection, r, k, deadline=None):
    """The with-label verification inputs all at once, after a masked
    upper pass that leaves some adjacent unions unmemoized.

    Returns ``(grid, result, stats, labels, visited_oids)``.
    """
    grid = kernel.build_bigrid(collection, r)
    lower = kernel.lower_bounds(grid, keep_bitsets=True)
    candidates = RecordingCandidates(
        kernel.upper_bounds(
            grid, lower.tau_max, labels=upper_labels_for(collection, seed=5)
        ).candidates
    )
    labels = PointLabels.for_collection(collection, r)
    stats = PhaseStats("verification")
    result = kernel.verify_candidates(
        grid, candidates, r, k=k,
        initial_bitsets=lambda oid: lower.bitsets[oid],
        verify_masks=upper_labels_for(collection, seed=7).upper_mask,
        labeler=labels,
        stats=stats,
        deadline=deadline,
    )
    return grid, result, stats, labels, candidates.visited


def assert_labeled_verifications_equal(ref, got):
    ref_grid, ref_result, ref_stats, ref_labels, ref_visited = ref
    got_grid, got_result, got_stats, got_labels, got_visited = got
    assert (ref_result.ranking, ref_result.settled, ref_result.timed_out) == (
        got_result.ranking, got_result.settled, got_result.timed_out
    )
    assert ref_stats.counters == got_stats.counters
    assert ref_visited == got_visited
    for ref_array, got_array in zip(ref_labels.arrays, got_labels.arrays):
        assert ref_array.tobytes() == got_array.tobytes()
    assert got_grid.large_grid.adj_computed == ref_grid.large_grid.adj_computed
    assert got_grid.memory_bytes() == ref_grid.memory_bytes()


@needs_numpy
class TestVerifyBlockConformance:
    """Numpy verification scores the queue in blocks and settles them one
    at a time; a candidate scored past the loop's break must leave no
    trace -- no counter, memo row or Labeling-3 mark -- and the deadline
    poll points must not move."""

    @pytest.mark.parametrize("k", [1, 5])
    def test_break_inside_a_block_matches(self, k):
        collection = random_collection(**BLOCK_CASE)
        ref = run_verify(PYTHON_KERNEL, collection, BLOCK_R, k=k)
        got = run_verify(numpy_kernel(), collection, BLOCK_R, k=k)
        assert_verifications_equal(ref, got)
        assert ref[0].settled == got[0].settled
        # Not vacuous: the numpy loop broke with scored candidates waiting.
        assert ref[0].speculative == 0
        assert got[0].speculative > 0

    @pytest.mark.parametrize("k", [1, 5])
    def test_labeled_break_inside_a_block_matches(self, k):
        collection = random_collection(**LABELED_BLOCK_CASE)
        ref = run_labeled_verify(PYTHON_KERNEL, collection, LABELED_BLOCK_R, k)
        got = run_labeled_verify(numpy_kernel(), collection, LABELED_BLOCK_R, k)
        assert_labeled_verifications_equal(ref, got)
        grid, result = got[0], got[1]
        assert result.speculative > 0
        # Verification still had unions to memoize, so a discarded
        # candidate's memo rows would show in memory_bytes().
        assert grid.large_grid.adj_computed < len(grid.large_grid)

    def test_session_label_path_with_speculation_matches(self):
        # A session's with-label queries read the Labeling-3 marks that
        # earlier queries' verification left, so a discarded candidate's
        # marks or memo rows would show in later counters and memory.
        collection = random_collection(**SESSION_BLOCK_CASE)
        ref_session = QuerySession(collection, kernel="python")
        got_session = QuerySession(collection, kernel="numpy")
        speculative = 0
        for r in SESSION_BLOCK_RS:
            for ask in (lambda s: s.query(r), lambda s: s.topk(r, 5)):
                ref, got = ask(ref_session), ask(got_session)
                assert_results_equal(ref, got)
                if got.algorithm == "bigrid-label":
                    speculative += got.extra["speculative_scores"]
        assert speculative > 0

    def test_deadline_sweep_over_blocks(self):
        # One clock read per dequeue and one per visited group: every
        # budget cuts both kernels at the same read, also when the read
        # belongs to a candidate that sits second or later in its block.
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(**BLOCK_CASE)
        cut_inside_a_block = False
        for budget in range(0, 80, 2):
            ref, got = (
                run_verify(
                    kernel, collection, BLOCK_R, k=5,
                    deadline=Deadline(float(budget), clock=ManualClock(step=1.0)),
                )
                for kernel in (PYTHON_KERNEL, numpy_kernel())
            )
            assert_verifications_equal(ref, got)
            assert ref[0].settled == got[0].settled
            cut_inside_a_block |= got[0].timed_out and got[0].speculative > 0
        assert cut_inside_a_block

    @pytest.mark.parametrize("budget", [3.0, 17.0, 55.0, 80.0, 200.0])
    def test_labeled_deadline_inside_a_block(self, budget):
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(**LABELED_BLOCK_CASE)
        ref, got = (
            run_labeled_verify(
                kernel, collection, LABELED_BLOCK_R, 5,
                deadline=Deadline(budget, clock=ManualClock(step=1.0)),
            )
            for kernel in (PYTHON_KERNEL, numpy_kernel())
        )
        assert_labeled_verifications_equal(ref, got)


def tie_case(k, skipped_oid_smaller):
    """A collection where, with the heap full, a candidate's box bound
    equals the k-th best score, and a hand-built queue reaching it.

    ``k + 1`` single-point objects sit in one tight cluster (each scores
    ``k``), and the queue opens with ``k`` of them.  Object ``B`` has two
    points at opposite corners of one large cell (r = 0.5, width 1):
    ``k`` single-point objects ``Q`` sit inside its box but beyond ``r``
    of both points.  So ``B`` scores 0 but its box bound is ``k``, and
    each ``Q`` scores ``k - 1`` with box bound ``k``.  ``B`` is given the
    smallest oid, or the largest.  Returns ``(collection, r, candidates,
    b_oid)``.
    """
    cluster = [np.array([[20.5 + 0.05 * i, 20.5]]) for i in range(k + 1)]
    inner = [np.array([[0.9 - 0.02 * i, 0.1 + 0.02 * i]]) for i in range(k)]
    box = [np.array([[0.05, 0.05], [0.95, 0.95]])]
    objects = box + cluster + inner if skipped_oid_smaller else cluster + inner + box
    collection = ObjectCollection.from_point_arrays(objects)
    n = collection.n
    b_oid = 0 if skipped_oid_smaller else n - 1
    first = 1 if skipped_oid_smaller else 0
    queue = list(range(first, first + k)) + [b_oid] + list(
        range(first + k + 1, first + 2 * k + 1)
    )
    return collection, 0.5, [(n - 1, oid) for oid in queue], b_oid


@needs_numpy
class TestBoxSkipConformance:
    """Both kernels skip a candidate at dequeue iff ``(box_bound, -oid) <
    best_heap[0]``: a bound equal to the k-th best score is verified with
    a smaller oid (it could still win the tie) and skipped with a larger
    one, and a skip moves no answer, threshold or clock read."""

    @pytest.mark.parametrize("k", [1, 5])
    def test_bound_tied_with_the_kth_best_and_a_smaller_oid_is_verified(self, k):
        collection, r, queue, b_oid = tie_case(k, skipped_oid_smaller=True)
        ref = run_verify(PYTHON_KERNEL, collection, r, k=k, candidates=list(queue))
        got = run_verify(numpy_kernel(), collection, r, k=k, candidates=list(queue))
        assert_verifications_equal(ref, got)
        assert ref[0].settled == got[0].settled
        assert box_bound(PYTHON_KERNEL.build_bigrid(collection, r), b_oid, r) == k
        # B is settled (score 0); every Q has a larger oid than the heap's.
        assert (b_oid, 0) in ref[0].settled
        assert ref[0].verified == k + 1
        assert ref[0].box_skipped == k
        assert [score for _, score in ref[0].ranking] == [k] * k

    @pytest.mark.parametrize("k", [1, 5])
    def test_bound_tied_with_the_kth_best_and_a_larger_oid_is_skipped(self, k):
        collection, r, queue, b_oid = tie_case(k, skipped_oid_smaller=False)
        ref = run_verify(PYTHON_KERNEL, collection, r, k=k, candidates=list(queue))
        got = run_verify(numpy_kernel(), collection, r, k=k, candidates=list(queue))
        assert_verifications_equal(ref, got)
        assert ref[0].settled == got[0].settled
        assert box_bound(PYTHON_KERNEL.build_bigrid(collection, r), b_oid, r) == k
        assert b_oid not in {oid for oid, _ in ref[0].settled}
        assert ref[0].verified == k
        assert ref[0].box_skipped == k + 1
        assert [score for _, score in ref[0].ranking] == [k] * k

    @pytest.mark.parametrize("k", [1, 5])
    def test_skips_move_nothing_but_the_skipped(self, k):
        # Against the same loop with a bound that never skips (n - 1):
        # ranking, break and dequeue order are identical, and ``settled``
        # loses exactly the skipped candidates.
        collection = random_collection(**BLOCK_CASE)
        skipping, _, visited = run_verify(numpy_kernel(), collection, BLOCK_R, k=k)
        assert skipping.box_skipped > 0

        grid = PYTHON_KERNEL.build_bigrid(collection, BLOCK_R)
        lower = PYTHON_KERNEL.lower_bounds(grid)
        queue = RecordingCandidates(
            PYTHON_KERNEL.upper_bounds(grid, lower.tau_max).candidates
        )
        counters = VerifyCounters()
        never = best_first_verification(
            queue,
            k,
            PerCandidateScorer(
                lambda oid: _exact_score(
                    grid, oid, BLOCK_R, None, None, None, counters
                ),
                lambda oids: [collection.n - 1] * len(oids),
            ),
            counters,
        )
        assert never.box_skipped == 0
        assert skipping.ranking == never.ranking
        assert skipping.early_terminated == never.early_terminated
        assert visited == queue.visited
        skipped = {oid for oid, _ in never.settled} - {
            oid for oid, _ in skipping.settled
        }
        assert len(skipped) == skipping.box_skipped
        assert skipping.settled == [
            pair for pair in never.settled if pair[0] not in skipped
        ]

    def test_deadline_sweep_cuts_on_skipped_candidates(self):
        # A skipped candidate still costs its dequeue's clock read, so
        # every budget cuts both kernels at the same read, including
        # reads that belong to a candidate the full run skips.
        from repro.resilience import Deadline, ManualClock

        collection = random_collection(**BLOCK_CASE)
        full, _, full_visited = run_verify(PYTHON_KERNEL, collection, BLOCK_R, k=1)
        settled = {oid for oid, _ in full.settled}
        skipped = set(full_visited[: len(full_visited) - full.early_terminated])
        skipped -= settled
        assert len(skipped) == full.box_skipped > 0
        cuts_on_skipped = 0
        for budget in range(0, 60):
            ref, got = (
                run_verify(
                    kernel, collection, BLOCK_R, k=1,
                    deadline=Deadline(float(budget), clock=ManualClock(step=1.0)),
                )
                for kernel in (PYTHON_KERNEL, numpy_kernel())
            )
            assert_verifications_equal(ref, got)
            assert ref[0].settled == got[0].settled
            if ref[0].timed_out:
                # The settled prefix is the full run's.
                assert ref[0].settled == full.settled[: len(ref[0].settled)]
                cuts_on_skipped += ref[2][-1] in skipped
        assert cuts_on_skipped > 0


# ----------------------------------------------------------------------
# End-to-end conformance through every engine
# ----------------------------------------------------------------------


@needs_numpy
class TestEngineConformance:
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_query_and_topk_match(self, backend, dimension):
        collection = random_collection(
            n=40, mean_points=8, dimension=dimension, seed=21
        )
        for r in (0.9, 2.5, 6.0):
            ref_engine = MIOEngine(collection, backend=backend, kernel="python")
            got_engine = MIOEngine(collection, backend=backend, kernel="numpy")
            assert_results_equal(ref_engine.query(r), got_engine.query(r))
            assert_results_equal(
                ref_engine.query_topk(r, 5), got_engine.query_topk(r, 5)
            )

    def test_parallel_engine_matches(self):
        collection = random_collection(n=40, mean_points=8, seed=23)
        for r in (1.2, 4.0):
            ref = ParallelMIOEngine(collection, cores=2, kernel="python").query(r)
            got = ParallelMIOEngine(collection, cores=2, kernel="numpy").query(r)
            assert_results_equal(ref, got)

    def test_progressive_state_sequences_match(self):
        collection = random_collection(n=35, mean_points=7, seed=27)
        for r in (1.0, 3.5):
            ref = list(query_progressive(collection, r, kernel="python"))
            got = list(query_progressive(collection, r, kernel="numpy"))
            assert ref == got

    def test_session_label_path_matches(self):
        # Second same-ceiling query runs bigrid-label; the label replay and
        # its filtered rebuild must agree across kernels too, on every
        # bitset backend, and so must every query served by a resident
        # grid.
        collection = random_collection(n=40, mean_points=8, seed=31)
        for backend in BITSET_BACKENDS:
            ref_session = QuerySession(collection, backend=backend, kernel="python")
            got_session = QuerySession(collection, backend=backend, kernel="numpy")
            for r in (3.0, 2.6, 3.0, 2.6, 3.0, 2.6):
                assert_results_equal(ref_session.query(r), got_session.query(r))
            # Repeated thresholds run on views of resident grids on the
            # numpy side only; the reference kernel builds every time.
            assert got_session.stats()["grid_key_cache_hits"] > 0
            assert ref_session.stats()["grid_key_cache_hits"] == 0

    def test_traced_run_matches_untraced(self):
        collection = random_collection(n=30, mean_points=6, seed=33)
        plain = MIOEngine(collection, kernel="numpy").query(2.0)
        traced = MIOEngine(collection, kernel="numpy", tracer=Tracer()).query(2.0)
        assert_results_equal(plain, traced)

    @given(collection=collections(), r=radii)
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_query_parity_2d(self, collection, r):
        ref = MIOEngine(collection, kernel="python").query(r)
        got = MIOEngine(collection, kernel="numpy").query(r)
        assert_results_equal(ref, got)

    @given(collection=collections(dimension=3, max_objects=8), r=radii)
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_query_parity_3d(self, collection, r):
        ref = MIOEngine(collection, kernel="python").query(r)
        got = MIOEngine(collection, kernel="numpy").query(r)
        assert_results_equal(ref, got)


# ----------------------------------------------------------------------
# Kernel-name resolution policy
# ----------------------------------------------------------------------


class TestKernelResolution:
    def test_names_registry(self):
        assert KERNEL_NAMES == ("python", "numpy", "auto")

    def test_python_and_none_resolve_to_reference(self):
        assert resolve_kernel("python") is PYTHON_KERNEL
        assert resolve_kernel(None) is PYTHON_KERNEL

    def test_instance_passes_through(self):
        assert resolve_kernel(PYTHON_KERNEL) is PYTHON_KERNEL
        custom = KernelBackend()
        assert resolve_kernel(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidQueryError, match="unknown kernel"):
            resolve_kernel("cuda")
        with pytest.raises(InvalidQueryError):
            MIOEngine(random_collection(n=3, mean_points=2), kernel="cuda")

    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert resolve_kernel("auto").name == "numpy"
        assert resolve_kernel("numpy").name == "numpy"

    def test_env_kill_switch_pins_python(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert not numpy_kernel_available()
        assert resolve_kernel("auto") is PYTHON_KERNEL
        assert resolve_kernel("numpy") is PYTHON_KERNEL

    def test_explicit_numpy_degradation_is_noted(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        collection = random_collection(n=10, mean_points=4, seed=1)
        result = MIOEngine(collection, kernel="numpy").query(1.5)
        assert result.notes.get("degraded_kernel") == "numpy->python"
        # "auto" falling back is policy, not degradation: no note.
        auto = MIOEngine(collection, kernel="auto").query(1.5)
        assert "degraded_kernel" not in auto.notes

    def test_python_runs_identically_under_kill_switch(self, monkeypatch):
        collection = random_collection(n=15, mean_points=5, seed=2)
        baseline = MIOEngine(collection, kernel="python").query(2.0)
        monkeypatch.setenv(DISABLE_ENV, "1")
        pinned = MIOEngine(collection, kernel="python").query(2.0)
        assert_results_equal(baseline, pinned)
