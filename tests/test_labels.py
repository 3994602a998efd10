"""Tests for the labeling scheme and its reuse across queries (Sec. III-D)."""

import math

import numpy as np
import pytest

from repro.core.engine import MIOEngine
from repro.core.labels import ALL_BITS, LabelStore, PointLabels

from conftest import oracle_scores, random_collection


class TestPointLabels:
    def test_initialized_to_all_ones(self):
        labels = PointLabels([3, 2], r=4.0)
        assert all(np.all(arr == ALL_BITS) for arr in labels.arrays)
        assert labels.total_points() == 5
        assert labels.size_in_bytes() == 5

    def test_masks_follow_definition_4(self):
        labels = PointLabels([4], r=4.0)
        labels.mark_grid_useless(0, [0])      # 0**
        labels.mark_upper_skippable(0, [1])   # 10*
        labels.mark_verify_skippable(0, [2])  # 1*0
        assert labels.grid_mask(0).tolist() == [False, True, True, True]
        assert labels.upper_mask(0).tolist() == [False, False, True, True]
        assert labels.verify_mask(0).tolist() == [False, True, False, True]

    def test_count_cleared(self):
        labels = PointLabels([5], r=4.0)
        labels.mark_grid_useless(0, [0, 1])
        labels.mark_verify_skippable(0, [4])
        cleared = labels.count_cleared()
        assert cleared == {"grid": 2, "upper": 0, "verify": 1}

    def test_count_cleared_counts_each_bit_across_objects(self):
        labels = PointLabels([3, 0, 4], r=4.0)
        labels.mark_grid_useless(0, [0, 2])
        labels.mark_upper_skippable(0, [2])
        labels.mark_upper_skippable(2, [0, 1, 3])
        labels.mark_verify_skippable(2, [1])
        per_object = {
            kind: sum(int(np.count_nonzero((array & bit) == 0)) for array in labels.arrays)
            for kind, bit in (("grid", 0b100), ("upper", 0b010), ("verify", 0b001))
        }
        assert labels.count_cleared() == per_object == {
            "grid": 2, "upper": 4, "verify": 1
        }

    def test_clear_flat_matches_per_object_marks(self):
        # Flat index of point p of object oid is offsets[oid] + p.
        bulk = PointLabels([3, 2, 4], r=4.0)
        marked = PointLabels([3, 2, 4], r=4.0)
        assert bulk.offsets.tolist() == [0, 3, 5, 9]
        bulk.clear_flat(0b010, np.array([1, 3, 8]))
        bulk.clear_flat(0b100, np.array([4, 4]))
        marked.mark_upper_skippable(0, [1])
        marked.mark_upper_skippable(1, [0])
        marked.mark_upper_skippable(2, [3])
        marked.mark_grid_useless(1, [1])
        for got, want in zip(bulk.arrays, marked.arrays):
            assert got.tobytes() == want.tobytes()
        assert bulk.total_points() == 9

    def test_from_arrays_copies_into_one_buffer(self):
        source = [np.array([7, 5], dtype=np.uint8), np.array([3], dtype=np.uint8)]
        labels = PointLabels.from_arrays(source, r=2.5)
        assert labels.r == 2.5
        labels.clear_flat(0b001, np.array([0, 2]))
        assert [array.tolist() for array in labels.arrays] == [[6, 5], [2]]
        assert source[0].tolist() == [7, 5]


class TestLabelStore:
    def test_memory_store_round_trip(self):
        store = LabelStore()
        labels = PointLabels([2, 3], r=4.5)
        labels.mark_grid_useless(0, [1])
        store.put(5, labels)
        assert store.has(5)
        loaded = store.get(5)
        assert loaded.r == 4.5
        assert loaded.grid_mask(0).tolist() == [True, False]

    def test_disk_store_round_trip(self, tmp_path):
        store = LabelStore(tmp_path)
        labels = PointLabels([2, 3], r=3.7)
        labels.mark_upper_skippable(1, [0, 2])
        store.put(4, labels)
        # A brand-new store instance must read from disk.
        fresh = LabelStore(tmp_path)
        assert fresh.has(4)
        loaded = fresh.get(4)
        assert loaded.r == 3.7
        assert loaded.upper_mask(1).tolist() == [False, True, False]

    def test_get_missing_returns_none(self, tmp_path):
        assert LabelStore(tmp_path).get(9) is None
        assert LabelStore().get(9) is None

    def test_clear(self, tmp_path):
        store = LabelStore(tmp_path)
        store.put(4, PointLabels([1], r=4.0))
        store.clear()
        assert not store.has(4)
        assert not list(tmp_path.glob("*.npz"))

    def test_ceilings_lists_memory_and_disk(self, tmp_path):
        store = LabelStore(tmp_path)
        store.put(4, PointLabels([1], r=4.0))
        store.put(7, PointLabels([1], r=6.5))
        # A fresh instance sees only the on-disk archives.
        assert LabelStore(tmp_path).ceilings() == [4, 7]
        # Foreign files that merely match the glob are skipped, not parsed.
        (tmp_path / "labels_ceil_junk.npz").write_bytes(b"junk")
        assert LabelStore(tmp_path).ceilings() == [4, 7]
        assert LabelStore().ceilings() == []

    def test_corrupt_archive_raises_taxonomy_error(self, tmp_path):
        from repro.errors import CorruptDataError

        store = LabelStore(tmp_path)
        (tmp_path / "labels_ceil_3.npz").write_bytes(b"not an archive")
        with pytest.raises(CorruptDataError):
            store.get(3)


class TestEngineLabelReuse:
    def test_first_query_labels_second_reuses(self, clustered_collection):
        store = LabelStore()
        engine = MIOEngine(clustered_collection, label_store=store)
        r = 2.3
        first = engine.query(r)
        second = engine.query(r)
        assert first.algorithm == "bigrid"
        assert second.algorithm == "bigrid-label"
        assert second.score == first.score
        assert "label_output" in first.phases
        assert "label_input" in second.phases

    def test_with_label_run_is_exact_for_same_r(self):
        for seed in (51, 52, 53):
            collection = random_collection(n=30, mean_points=7, seed=seed)
            store = LabelStore()
            engine = MIOEngine(collection, label_store=store)
            r = 2.0
            truth = max(oracle_scores(collection, r))
            engine.query(r)
            assert engine.query(r).score == truth

    def test_same_ceiling_reuse_safe_mode_is_exact(self):
        for seed in (54, 55):
            collection = random_collection(n=30, mean_points=7, seed=seed)
            store = LabelStore()
            engine = MIOEngine(collection, label_store=store, label_reuse="safe")
            engine.query(2.8)  # produces labels for ceil = 3
            for r_prime in (2.2, 2.5, 3.0):
                assert math.ceil(r_prime) == 3
                truth = max(oracle_scores(collection, r_prime))
                result = engine.query(r_prime)
                assert result.algorithm == "bigrid-label"
                assert result.score == truth

    def test_with_label_skips_work(self):
        collection = random_collection(n=40, mean_points=10, seed=56)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        r = 2.0
        first = engine.query(r)
        second = engine.query(r)
        # The labeled run maps no more points and processes no more groups.
        assert second.counters["mapped_points"] <= first.counters["mapped_points"]
        assert (
            second.counters["upper_groups_processed"]
            <= first.counters["upper_groups_processed"]
        )

    def test_labels_pruning_reduces_memory(self):
        # Isolated objects' points get label 0** and vanish from the index.
        collection = random_collection(
            n=20, mean_points=6, seed=57, extent=4000.0, clustered=False
        )
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        first = engine.query(1.0)
        second = engine.query(1.0)
        assert second.counters["mapped_points"] < first.counters["mapped_points"]
        assert second.memory_bytes < first.memory_bytes

    def test_different_ceiling_triggers_fresh_labeling(self, clustered_collection):
        store = LabelStore()
        engine = MIOEngine(clustered_collection, label_store=store)
        engine.query(2.5)  # ceil 3
        result = engine.query(3.5)  # ceil 4: no labels yet
        assert result.algorithm == "bigrid"
        assert store.has(3) and store.has(4)

    def test_paper_mode_same_r_still_exact(self):
        collection = random_collection(n=25, mean_points=6, seed=58)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store, label_reuse="paper")
        r = 2.0
        truth = max(oracle_scores(collection, r))
        engine.query(r)
        assert engine.query(r).score == truth

    def test_topk_with_labels_is_exact(self):
        collection = random_collection(n=30, mean_points=6, seed=59)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        r = 2.0
        engine.query(r)
        truth = sorted(oracle_scores(collection, r), reverse=True)[:4]
        result = engine.query_topk(r, 4)
        assert result.algorithm == "bigrid-label"
        assert [score for _, score in result.topk] == truth

    def test_disk_label_store_with_engine(self, tmp_path):
        collection = random_collection(n=20, mean_points=5, seed=60)
        r = 2.0
        truth = max(oracle_scores(collection, r))
        first_engine = MIOEngine(collection, label_store=LabelStore(tmp_path))
        first_engine.query(r)
        # Fresh engine + fresh store: labels come purely from disk.
        second_engine = MIOEngine(collection, label_store=LabelStore(tmp_path))
        result = second_engine.query(r)
        assert result.algorithm == "bigrid-label"
        assert result.score == truth


class TestLabeling3PaperModeCounterexample:
    """A constructed instance where the paper's Labeling-3 reuse under-counts.

    Layout (2-D, label query r = 2.0, reuse query r' = 1.5, both ceil to 2):

    * o_0 has three points: q0 and q1 interact with o_1/o_2 at distance 1.7
      (inside r, outside r'), and q interacts with both at distance 1.4
      (inside r').
    * During the labeling run, q0/q1 confirm o_1/o_2 first, so when q's
      turn comes every nearby object is already confirmed and q is labeled
      "skippable in verification" (Labeling-3).
    * At r' the 1.7-pairs vanish, so the skipped q was o_0's only source of
      confirmations: paper-mode reuse scores o_0 as 0 although its true
      score is 2 -- and the reported MIO answer is wrong.

    The default safe mode withholds Labeling-3 for r' != r and stays exact.
    This is the deviation documented in DESIGN.md section 3.
    """

    @staticmethod
    def _collection():
        import numpy as np
        from repro.core.objects import ObjectCollection

        o0 = np.array([[0.5, 0.5], [0.5, 20.5], [40.5, 0.5]])      # q0, q1, q
        o1 = np.array([[2.2, 0.5], [41.9, 0.5]])                   # p0, p
        o2 = np.array([[2.2, 20.5], [40.5, 1.9]])                  # p1, p2
        return ObjectCollection.from_point_arrays([o0, o1, o2])

    def test_truth(self):
        collection = self._collection()
        assert oracle_scores(collection, 2.0) == [2, 2, 2]
        assert oracle_scores(collection, 1.5) == [2, 1, 1]

    def test_paper_mode_under_counts(self):
        collection = self._collection()
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store, label_reuse="paper")
        label_run = engine.query(2.0)
        assert label_run.score == 2
        reused = engine.query(1.5)
        assert reused.algorithm == "bigrid-label"
        # The paper-mode answer misses o_0's interactions: max score 1,
        # while the true answer is o_0 with score 2.
        assert reused.score == 1
        assert reused.winner != 0

    def test_safe_mode_stays_exact(self):
        collection = self._collection()
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store, label_reuse="safe")
        engine.query(2.0)
        reused = engine.query(1.5)
        assert reused.algorithm == "bigrid-label"
        assert reused.score == 2
        assert reused.winner == 0
