"""Unit tests for lower-bounding (Algorithm 4 / Lemma 1)."""

import numpy as np
import pytest

from repro.core.lower_bound import (
    IntSeeds,
    LowerBoundCache,
    PackedSeeds,
    compute_lower_bounds,
)
from repro.core.objects import ObjectCollection
from repro.core.query import PhaseStats
from repro.grid.bigrid import BIGrid
from repro.kernels import numpy_kernel_available

from conftest import oracle_scores, random_collection


class TestSoundness:
    def test_lower_bound_never_exceeds_score(self):
        collection = random_collection(n=30, mean_points=6, seed=21)
        for r in (1.0, 2.5, 5.0):
            bigrid = BIGrid.build(collection, r=r)
            lower = compute_lower_bounds(bigrid)
            truth = oracle_scores(collection, r)
            for oid in range(collection.n):
                assert lower.values[oid] <= truth[oid]

    def test_tau_max_is_max_of_values(self):
        collection = random_collection(n=25, mean_points=5, seed=22)
        lower = compute_lower_bounds(BIGrid.build(collection, r=2.0))
        assert lower.tau_max == max(lower.values)

    def test_overlapping_objects_get_positive_bound(self):
        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0]]), np.array([[0.01, 0.0]])]
        )
        lower = compute_lower_bounds(BIGrid.build(collection, r=1.0))
        assert lower.values == [1, 1]

    def test_isolated_objects_get_zero(self):
        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0]]), np.array([[100.0, 100.0]])]
        )
        lower = compute_lower_bounds(BIGrid.build(collection, r=1.0))
        assert lower.values == [0, 0]
        assert lower.tau_max == 0


class TestBitsets:
    def test_unions_always_kept_as_seeds(self):
        collection = random_collection(n=15, mean_points=5, seed=23)
        bigrid = BIGrid.build(collection, r=3.0)
        result = compute_lower_bounds(bigrid)
        assert isinstance(result.seeds, IntSeeds)
        assert len(result.seeds) == collection.n
        for oid in range(collection.n):
            union = result.seeds.to_int(oid)
            if not union:
                assert result.values[oid] == 0
            else:
                assert union >> oid & 1
                assert union.bit_count() - 1 == result.values[oid]

    def test_bitset_members_certainly_interact(self):
        collection = random_collection(n=20, mean_points=6, seed=24)
        r = 2.0
        bigrid = BIGrid.build(collection, r=r)
        result = compute_lower_bounds(bigrid)
        truth = oracle_scores(collection, r)
        for oid in range(collection.n):
            union = result.seeds.to_int(oid)
            members = [b for b in range(collection.n) if b != oid and union >> b & 1]
            # Every member must truly interact: check via the oracle pairs.
            for member in members:
                from scipy.spatial.distance import cdist

                distances = cdist(collection[oid].points, collection[member].points)
                assert np.min(distances) <= r


class TestStats:
    def test_counters_recorded(self):
        collection = random_collection(n=10, mean_points=5, seed=25)
        bigrid = BIGrid.build(collection, r=2.0)
        stats = PhaseStats()
        compute_lower_bounds(bigrid, stats=stats)
        assert "lower_or_operations" in stats.counters
        assert "tau_max_low" in stats.counters
        assert stats.counters["lower_or_operations"] == sum(
            len(keys) for keys in bigrid.key_lists
        )


@pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)
class TestNumpyDispatch:
    """Pin the numpy kernel's size-based dispatch for lower-bounding.

    Fixed numpy dispatch overhead (flatnonzero + cumsum + reduceat) loses
    to a sequential big-int pass on small grids, so the kernel routes
    single-word grids below ``LOWER_BOUND_DISPATCH_MIN_ROWS`` shared rows
    to the reference algorithm over the pre-gathered packed words.  These
    tests pin the dispatch boundary (observable via ``LowerBoundResult
    .path``) and prove both paths bit-identical on the same grid.
    """

    @staticmethod
    def _kernel():
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        return NUMPY_KERNEL

    @staticmethod
    def _backend_module():
        from repro.kernels import numpy_backend

        return numpy_backend

    def test_tiny_grid_takes_sequential_path(self):
        # 20 objects -> one bitset word, far fewer than 768 shared rows.
        collection = random_collection(n=20, mean_points=5, seed=61)
        grid = self._kernel().build_bigrid(collection, 2.0)
        assert grid.shared_words.shape[0] < 768
        result = self._kernel().lower_bounds(grid)
        assert result.path == "numpy-seq"

    def test_empty_grid_takes_sequential_path(self):
        # Isolated objects share no small cell: zero rows, trivially tiny.
        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0]]), np.array([[500.0, 500.0]])]
        )
        grid = self._kernel().build_bigrid(collection, 1.0)
        result = self._kernel().lower_bounds(grid)
        assert result.path == "numpy-seq"
        assert result.values == [0, 0]

    def test_multi_word_grids_always_vectorized(self):
        # >64 objects need several bitset words; the sequential path only
        # handles the single-word layout, so dispatch goes vectorized
        # regardless of row count.
        collection = random_collection(n=70, mean_points=4, seed=62)
        grid = self._kernel().build_bigrid(collection, 3.0)
        assert grid.shared_words.shape[1] > 1
        result = self._kernel().lower_bounds(grid)
        assert result.path == "numpy-reduceat"

    def test_crossover_boundary_is_exact(self, monkeypatch):
        backend = self._backend_module()
        collection = random_collection(n=30, mean_points=6, seed=63)
        grid = self._kernel().build_bigrid(collection, 2.5)
        rows = grid.shared_words.shape[0]
        assert rows > 0

        # rows < threshold -> sequential; rows >= threshold -> vectorized.
        monkeypatch.setattr(backend, "LOWER_BOUND_DISPATCH_MIN_ROWS", rows + 1)
        assert self._kernel().lower_bounds(grid).path == "numpy-seq"
        monkeypatch.setattr(backend, "LOWER_BOUND_DISPATCH_MIN_ROWS", rows)
        assert self._kernel().lower_bounds(grid).path == "numpy-reduceat"

    @pytest.mark.parametrize("r", [0.8, 2.0, 5.0])
    def test_both_paths_bit_identical(self, r, monkeypatch):
        backend = self._backend_module()
        collection = random_collection(n=35, mean_points=7, seed=64)
        grid = self._kernel().build_bigrid(collection, r)

        results = {}
        for label, threshold in (("seq", 1 << 30), ("vec", 0)):
            stats = PhaseStats()
            monkeypatch.setattr(
                backend, "LOWER_BOUND_DISPATCH_MIN_ROWS", threshold
            )
            result = self._kernel().lower_bounds(grid, stats=stats)
            results[label] = (result, stats)
        seq, seq_stats = results["seq"]
        vec, vec_stats = results["vec"]
        assert seq.path == "numpy-seq" and vec.path == "numpy-reduceat"
        assert seq.values == vec.values
        assert seq.tau_max == vec.tau_max
        assert seq_stats.counters == vec_stats.counters
        assert seed_ints(seq.seeds) == seed_ints(vec.seeds)

        # Both must also match the pure-python reference on its own grid.
        reference = compute_lower_bounds(BIGrid.build(collection, r=r))
        assert reference.path == "reference"
        assert seq.values == reference.values
        assert seq.tau_max == reference.tau_max
        assert seed_ints(seq.seeds) == seed_ints(reference.seeds)

    @pytest.mark.parametrize(
        "n, path", [(20, "numpy-seq"), (70, "numpy-reduceat")]
    )
    def test_cache_hit_reports_the_producing_path(self, n, path):
        from repro.session import QuerySession

        collection = random_collection(n=n, mean_points=4, seed=65)
        session = QuerySession(collection, kernel="numpy")
        first = session.query(3.0)
        repeat = session.query(3.0)
        assert session.stats()["lower_cache_hits"] == 1
        assert first.notes["lower_bound_path"] == path
        assert repeat.notes["lower_bound_path"] == path


def seed_ints(seeds):
    return [seeds.to_int(oid) for oid in range(len(seeds))]


def assert_seeds_equal_reference(seeds, reference, n):
    """``seeds`` reads as ``reference`` (big ints) through both accessors:
    per object, and as confirmed-matrix rows for any block of oids
    (repeats and empty unions included)."""
    assert len(seeds) == n
    assert seed_ints(seeds) == seed_ints(reference)
    blocks = [np.arange(n), np.arange(n)[::-1], np.array([0, 0, n - 1]), np.arange(0)]
    for oids in blocks:
        matrix = seeds.confirmed(oids, n)
        assert matrix.shape == (len(oids), n) and matrix.dtype == bool
        for row, oid in zip(matrix, oids.tolist()):
            assert sum(1 << bit for bit in np.flatnonzero(row).tolist()) == (
                reference.to_int(oid)
            )
        # A fresh, writable matrix: the scorer marks its candidates in it.
        matrix[...] = True


class TestSeedsCache:
    def test_hit_returns_the_stored_seeds(self):
        collection = random_collection(n=20, mean_points=5, seed=66)
        computed = compute_lower_bounds(BIGrid.build(collection, r=3.0))
        cache = LowerBoundCache()
        cache.put(3.0, computed)
        hit = cache.get(3.0)
        assert hit.seeds is computed.seeds
        assert hit.values == computed.values and hit.values is not computed.values
        assert (hit.tau_max, hit.path) == (computed.tau_max, computed.path)
        assert_seeds_equal_reference(hit.seeds, computed.seeds, collection.n)


@pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)
class TestPackedSeeds:
    """The numpy kernel keeps its unions as packed rows; they must read
    exactly as the reference's big ints on both dispatch paths and across
    a cache hit."""

    @pytest.mark.parametrize(
        "n, r, path",
        [
            (20, 2.0, "numpy-seq"),
            (35, 5.0, "numpy-seq"),
            (70, 3.0, "numpy-reduceat"),
            (150, 2.5, "numpy-reduceat"),
        ],
    )
    def test_rows_equal_reference_ints(self, n, r, path):
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        collection = random_collection(n=n, mean_points=5, seed=n)
        got = NUMPY_KERNEL.lower_bounds(NUMPY_KERNEL.build_bigrid(collection, r))
        reference = compute_lower_bounds(BIGrid.build(collection, r=r))
        assert got.path == path
        assert isinstance(got.seeds, PackedSeeds)
        assert got.seeds.rows.dtype == np.uint64
        assert_seeds_equal_reference(got.seeds, reference.seeds, n)

    @pytest.mark.parametrize("path", ["numpy-seq", "numpy-reduceat"])
    def test_forced_paths_give_equal_rows(self, path, monkeypatch):
        from repro.kernels import numpy_backend
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        monkeypatch.setattr(
            numpy_backend,
            "LOWER_BOUND_DISPATCH_MIN_ROWS",
            1 << 30 if path == "numpy-seq" else 0,
        )
        collection = random_collection(n=40, mean_points=6, seed=67)
        got = NUMPY_KERNEL.lower_bounds(NUMPY_KERNEL.build_bigrid(collection, 2.5))
        reference = compute_lower_bounds(BIGrid.build(collection, r=2.5))
        assert got.path == path
        assert_seeds_equal_reference(got.seeds, reference.seeds, collection.n)

    def test_isolated_objects_have_no_row(self):
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0]]), np.array([[500.0, 500.0]])]
        )
        seeds = NUMPY_KERNEL.lower_bounds(
            NUMPY_KERNEL.build_bigrid(collection, 1.0)
        ).seeds
        assert seeds.rows.shape[0] == 0
        assert seeds.index.tolist() == [-1, -1]
        assert seed_ints(seeds) == [0, 0]
        assert not seeds.confirmed(np.array([0, 1]), 2).any()

    @pytest.mark.parametrize("n", [20, 70])
    def test_session_hit_serves_the_missed_rows(self, n):
        from repro.session import QuerySession

        collection = random_collection(n=n, mean_points=4, seed=65)
        session = QuerySession(collection, kernel="numpy")
        session.query(3.0)
        stored = session.lower_cache.get(3.0)
        reference = compute_lower_bounds(BIGrid.build(collection, r=3.0))
        assert isinstance(stored.seeds, PackedSeeds)
        assert_seeds_equal_reference(stored.seeds, reference.seeds, n)
