"""Tests for :mod:`repro.session`: batched sessions with cross-query reuse.

Covers the session lifecycle (cache warm-up, hit accounting, invalidation
on dynamic mutation), batch planning (ceiling groups, caller-order
results), the differential edge cases the labeling scheme must survive
(coincident points, single-point objects, ceil-collisions, 3-D), and the
stale-label regression the ``dynamic.py`` docstring warns about.
"""

import math

import numpy as np
import pytest

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore, labels_match_collection
from repro.core.objects import ObjectCollection
from repro.dynamic import DynamicMIO
from repro import faults
from repro.errors import InjectedFault, InvalidQueryError, QueryTimeout
from repro.faults import FaultInjector, FaultSpec
from repro.grid.cache import ResidentGridCache
from repro.kernels import numpy_kernel_available
from repro.resilience import Deadline, ManualClock
from repro.session import QueryRequest, QuerySession, normalize_request as _normalize

from conftest import oracle_scores, random_collection

#: Only the numpy kernel keeps grids resident (the reference rebuilds).
needs_numpy = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)


def expected_answer(collection, r):
    """Oracle max score and the set of admissible winners.

    The engine's winner among tied objects depends on verification order
    (best-first by upper bound), so differential tests accept any argmax;
    *determinism* (session == fresh engine, winner included) is asserted
    separately.
    """
    scores = oracle_scores(collection, r)
    best = max(scores)
    winners = {oid for oid, score in enumerate(scores) if score == best}
    return winners, best


class TestNormalization:
    def test_bare_numbers_and_dicts(self):
        assert _normalize(4).r == 4.0
        assert _normalize(4.5).k == 1
        request = _normalize({"r": 2.5, "k": 3, "timeout_ms": 100})
        assert (request.r, request.k, request.timeout_ms) == (2.5, 3, 100)

    def test_requests_pass_through(self):
        request = QueryRequest(r=1.5, k=2)
        assert _normalize(request) is request

    def test_invalid_r_rejected(self):
        with pytest.raises(InvalidQueryError):
            _normalize(0.0)
        with pytest.raises(InvalidQueryError):
            _normalize(-3)
        with pytest.raises(InvalidQueryError):
            _normalize(float("inf"))

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidQueryError):
            _normalize({"r": 2.0, "k": 0})

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(InvalidQueryError, match="deadline"):
            _normalize({"r": 2.0, "deadline": 5})

    def test_missing_r_rejected(self):
        with pytest.raises(InvalidQueryError, match='"r"'):
            _normalize({"k": 2})

    def test_non_request_rejected(self):
        with pytest.raises(InvalidQueryError):
            _normalize("4.5")
        with pytest.raises(InvalidQueryError):
            _normalize(True)


class TestSessionBasics:
    def test_query_matches_fresh_engine(self, clustered_collection):
        session = QuerySession(clustered_collection)
        for r in (2.0, 4.5, 4.2, 4.5):
            fresh = MIOEngine(clustered_collection).query(r)
            got = session.query(r)
            assert (got.winner, got.score) == (fresh.winner, fresh.score)

    def test_topk_matches_fresh_engine(self, clustered_collection):
        session = QuerySession(clustered_collection)
        session.query(4.9)  # warm the ceiling
        fresh = MIOEngine(clustered_collection).query_topk(4.2, 5)
        got = session.topk(4.2, 5)
        assert got.topk == fresh.topk
        assert got.algorithm == "bigrid-label"

    def test_bad_source_rejected(self):
        with pytest.raises(InvalidQueryError, match="source"):
            QuerySession([np.zeros((2, 2))])

    def test_bad_cores_rejected(self, small_collection):
        with pytest.raises(InvalidQueryError):
            QuerySession(small_collection, cores=0)

    def test_repr_mentions_queries(self, small_collection):
        session = QuerySession(small_collection)
        session.query(1.5)
        assert "queries=1" in repr(session)

    def test_counters_track_reuse(self, clustered_collection):
        session = QuerySession(clustered_collection)
        session.query_many([4.9, 4.1, 4.9])
        stats = session.stats()
        assert stats["queries"] == 3
        assert stats["batches"] == 1
        # The labeling run and its exact repeat, which runs label-free
        # in a session (its grid tier makes the repeat a fresh label-free
        # run), then one WITH-LABEL run.
        assert stats["label_misses"] == 2
        assert stats["label_hits"] == 1
        assert stats["lower_cache_hits"] == 1  # repeated exact r = 4.9
        assert stats["label_store_hits"] == 1  # the repeat reads no labels
        # The python kernel keeps no grid resident: every query builds.
        assert stats["grid_key_cache_hits"] == 0
        assert stats["grid_key_cache_misses"] == 3
        assert stats["label_ceilings"] == 1

    def test_results_annotated_with_session_counters(self, clustered_collection):
        session = QuerySession(clustered_collection)
        first, second = session.query_many([4.9, 4.1])
        assert first.counters["session_label_hit"] == 0
        assert second.counters["session_label_hit"] == 1
        assert second.counters["session_points_skipped"] >= 0

    def test_disk_backed_labels_survive_sessions(self, tmp_path, clustered_collection):
        first = QuerySession(clustered_collection, label_dir=tmp_path)
        first.query(4.9)
        second = QuerySession(clustered_collection, label_dir=tmp_path)
        result = second.query(4.1)
        assert result.algorithm == "bigrid-label"

    def test_points_skipped_accounted(self, small_collection):
        # o3 is isolated: after the labeling run its points are 0** and the
        # with-label query maps fewer points.
        session = QuerySession(small_collection)
        session.query(1.5)
        result = session.query(1.2)
        assert result.counters["session_points_skipped"] > 0
        assert session.stats()["points_skipped_by_labels"] > 0


@needs_numpy
class TestResidentGrids:
    """The resident-grid tier: one built grid per exact ``r``, per-query views."""

    @staticmethod
    def _reference(collection, calls):
        """Each call's result on a session whose every query builds: its
        tier keeps nothing, so repeats of a labeling threshold still run
        label-free."""
        session = QuerySession(collection, kernel="numpy")
        session._engine.grid_cache = ResidentGridCache(max_entries=0)
        return [
            session.query(r) if k == 1 else session.topk(r, k) for r, k in calls
        ]

    def test_repeated_r_reuses_and_matches_rebuilds(self, clustered_collection):
        from test_kernel_conformance import assert_results_equal

        calls = [(4.9, 1), (4.9, 1), (4.9, 3), (4.1, 1), (4.1, 1), (4.9, 1)]
        session = QuerySession(clustered_collection, kernel="numpy")
        got = [session.query(r) if k == 1 else session.topk(r, k) for r, k in calls]
        for result, reference in zip(got, self._reference(clustered_collection, calls)):
            assert_results_equal(result, reference)
        stats = session.stats()
        # The labeling run builds and keeps its grid; the 4.9 repeat and
        # its top-3 reuse it label-free, 4.1 builds, then 4.1 and 4.9
        # reuse.
        assert [result.algorithm for result in got] == [
            "bigrid", "bigrid", "bigrid", "bigrid-label", "bigrid-label", "bigrid",
        ]
        assert (stats["grid_key_cache_hits"], stats["grid_key_cache_misses"]) == (4, 2)
        assert len(session.grid_cache) == 2

    def test_entry_needs_same_labels_backend_and_collection(self, clustered_collection):
        """A late store from a query on a previous snapshot (or under other
        labels or another backend) is never served, and is dropped."""
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        grid = NUMPY_KERNEL.build_bigrid(clustered_collection, 4.5)
        labels = object()
        other = random_collection(n=40, mean_points=8, seed=11)
        tier = ResidentGridCache(max_entries=2)
        for collection, backend, query_labels in (
            (clustered_collection, "plain", labels),
            (clustered_collection, "ewah", None),
            (other, "ewah", labels),
        ):
            tier.put(4.5, "ewah", labels, grid)
            assert tier.get(collection, 4.5, backend, query_labels) is None
            assert len(tier) == 0
        tier.put(4.5, "ewah", labels, grid)
        assert tier.get(clustered_collection, 4.5, "ewah", labels) is grid
        assert tier.counters() == {"grid_key_cache_hits": 1, "grid_key_cache_misses": 3}

    def test_labeling_query_keeps_its_grid(self, clustered_collection):
        """The labeling query keeps its label-free grid; a repeat of its
        threshold runs label-free on it, reading no labels, and the
        bucket's other thresholds run with labels on grids of their own."""
        session = QuerySession(clustered_collection, kernel="numpy")
        assert session.query(4.9).algorithm == "bigrid"
        assert len(session.grid_cache) == 1
        assert session.grid_cache._entries[4.9][2] is None
        assert session.query(4.9).algorithm == "bigrid"
        assert session.topk(4.9, 3).algorithm == "bigrid"
        stats = session.stats()
        assert (stats["grid_key_cache_hits"], stats["grid_key_cache_misses"]) == (2, 1)
        assert (stats["label_store_hits"], stats["label_store_misses"]) == (0, 1)
        assert session.query(4.5).algorithm == "bigrid-label"
        assert session.grid_cache._entries[4.5][2] is session.label_store.get(5)
        assert len(session.grid_cache) == 2

    def test_deadline_cut_build_stores_nothing(self, clustered_collection):
        session = QuerySession(clustered_collection, kernel="numpy")
        session.query(4.9)  # labels the ceiling
        clock = ManualClock(step=1.0)
        with pytest.raises(QueryTimeout) as info:
            # Past the stage boundary's check, inside the kernel's passes.
            session.query(4.5, deadline=Deadline(2.5, clock=clock))
        assert info.value.phase == "grid_mapping"
        assert list(session.grid_cache._entries) == [4.9]
        result = session.query(4.5)
        assert result.exact
        fresh = self._reference(clustered_collection, [(4.9, 1), (4.5, 1)])[1]
        assert (result.winner, result.score, result.memory_bytes) == (
            fresh.winner, fresh.score, fresh.memory_bytes,
        )
        assert session.stats()["grid_key_cache_hits"] == 0

    def test_grid_mapping_fault_stores_nothing(self, clustered_collection):
        session = QuerySession(clustered_collection, kernel="numpy")
        session.query(4.9)
        with faults.injected(FaultInjector([FaultSpec("grid_mapping")])):
            with pytest.raises(InjectedFault):
                session.query(4.5)
        assert list(session.grid_cache._entries) == [4.9]
        result = session.query(4.5)
        winners, best = expected_answer(clustered_collection, 4.5)
        assert result.exact and result.winner in winners and result.score == best
        assert len(session.grid_cache) == 2

    def test_invalidate_rebuilds(self, clustered_collection):
        session = QuerySession(clustered_collection, kernel="numpy")
        for _ in range(3):
            session.query(4.9)
        assert session.stats()["grid_key_cache_hits"] == 2
        session.invalidate()
        assert len(session.grid_cache) == 0
        session.query(4.9)  # relabels: builds and keeps its grid
        session.query(4.9)  # the repeat reuses it
        stats = session.stats()
        assert (stats["grid_key_cache_hits"], stats["grid_key_cache_misses"]) == (3, 2)

    def test_lru_bound_holds_over_many_r(self, clustered_collection):
        session = QuerySession(
            clustered_collection, kernel="numpy", lower_cache_entries=3
        )
        rs = [4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7]
        session.query(4.9)
        for r in rs:
            session.query(r)
            assert len(session.grid_cache) <= 3
        # The three most recent thresholds are resident; older ones rebuild.
        misses = session.stats()["grid_key_cache_misses"]
        session.query(4.7)
        session.query(4.1)
        stats = session.stats()
        assert stats["grid_key_cache_hits"] == 1
        assert stats["grid_key_cache_misses"] == misses + 1
        assert len(session.grid_cache) == 3


class TestBatchPlanning:
    def test_empty_batch(self, small_collection):
        assert QuerySession(small_collection).query_many([]) == []

    def test_results_in_caller_order(self, clustered_collection):
        session = QuerySession(clustered_collection)
        rs = [8.5, 2.0, 4.9, 4.1, 8.1]
        results = session.query_many(rs)
        assert [result.r for result in results] == rs

    def test_one_labeling_run_per_ceiling(self, clustered_collection):
        session = QuerySession(clustered_collection)
        results = session.query_many([4.1, 4.5, 4.9, 8.1, 8.5])
        by_r = {result.r: result.algorithm for result in results}
        # The largest r of each ceiling group is the labeling run.
        assert by_r[4.9] == "bigrid" and by_r[8.5] == "bigrid"
        assert by_r[4.1] == by_r[4.5] == by_r[8.1] == "bigrid-label"
        assert session.stats()["label_ceilings"] == 2

    def test_mixed_k_batch(self, clustered_collection):
        session = QuerySession(clustered_collection)
        results = session.query_many([4.9, {"r": 4.2, "k": 3}])
        fresh = MIOEngine(clustered_collection).query_topk(4.2, 3)
        assert results[1].topk == fresh.topk

    def test_sharded_session_matches_serial(self, clustered_collection):
        # ``cores`` is validated and ignored: a multi-core session runs the
        # serial engine, labeled ceilings included.
        rs = [4.9, 4.1, 4.3]
        got_serial = QuerySession(clustered_collection).query_many(rs)
        got_cores = QuerySession(clustered_collection, cores=2).query_many(rs)
        for a, b in zip(got_serial, got_cores):
            assert (a.algorithm, a.winner, a.score) == (b.algorithm, b.winner, b.score)
            assert a.counters == b.counters
        assert got_cores[1].algorithm == "bigrid-label"


class TestEdgeCaseDifferentials:
    """Differential tests against the nested-loop oracle (Satellite 2)."""

    def test_coincident_and_duplicate_points(self):
        collection = ObjectCollection.from_point_arrays([
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),   # duplicate points
            np.array([[0.0, 0.0]]),                            # coincides with o0
            np.array([[0.0, 0.0], [5.0, 5.0]]),                # coincides too
            np.array([[9.0, 9.0]]),
        ])
        session = QuerySession(collection)
        for r in (0.5, 0.9, 0.7):
            winners, best = expected_answer(collection, r)
            result = session.query(r)
            assert result.score == best and result.winner in winners

    def test_single_point_objects(self):
        rng = np.random.default_rng(3)
        collection = ObjectCollection.from_point_arrays(
            [rng.uniform(0, 6, size=(1, 2)) for _ in range(12)]
        )
        session = QuerySession(collection)
        for r in (1.0, 2.5, 2.1, 2.5):
            winners, best = expected_answer(collection, r)
            result = session.query(r)
            assert result.score == best and result.winner in winners

    def test_ceil_collisions_stay_sound(self):
        """Distinct r sharing one ceiling must all reuse labels soundly."""
        collection = random_collection(n=25, mean_points=6, seed=42)
        session = QuerySession(collection)
        rs = [4.0, 3.01, 3.5, 3.999, 3.01]  # all ceil to 4
        results = session.query_many(rs)
        for r, result in zip(rs, results):
            winners, best = expected_answer(collection, r)
            assert result.score == best and result.winner in winners, f"r={r}"
        assert session.stats()["label_ceilings"] == 1

    def test_paper_mode_ceil_collisions(self):
        """label_reuse="paper" applies Labeling-3 across the bucket."""
        collection = random_collection(n=20, mean_points=5, seed=9)
        session = QuerySession(collection, label_reuse="paper")
        results = session.query_many([4.0, 3.2, 3.9])
        for r, result in zip([4.0, 3.2, 3.9], results):
            assert result.score == max(oracle_scores(collection, r)), f"r={r}"

    def test_3d_collections(self, clustered_collection_3d):
        session = QuerySession(clustered_collection_3d)
        for r in (3.0, 4.9, 4.2, 4.9):
            winners, best = expected_answer(clustered_collection_3d, r)
            result = session.query(r)
            assert result.score == best and result.winner in winners

    def test_integer_r_on_bucket_boundary(self):
        """ceil(4.0) = 4 but ceil(4.0 + eps) = 5: buckets must not blur."""
        collection = random_collection(n=20, mean_points=6, seed=17)
        session = QuerySession(collection)
        results = session.query_many([4.0, 4.000001])
        assert session.stats()["label_ceilings"] == 2
        for r, result in zip([4.0, 4.000001], results):
            assert result.score == max(oracle_scores(collection, r))


class TestDynamicInvalidation:
    """Satellite 3: sessions must invalidate on DynamicMIO mutation."""

    @staticmethod
    def _build():
        """Three same-shaped objects: an isolated one plus a close pair.

        Same shapes are the point: after remove+add the positional label
        arrays still *shape-match* the re-compacted collection, so only
        version tracking can catch the staleness.
        """
        dynamic = DynamicMIO()
        handles = [
            dynamic.add_object(np.array([[50.0, 50.0], [51.0, 50.0]])),  # isolated
            dynamic.add_object(np.array([[0.0, 0.0], [1.0, 0.0]])),
            dynamic.add_object(np.array([[0.5, 0.5], [1.5, 0.5]])),
        ]
        return dynamic, handles

    def test_stale_label_scenario_is_reproduced(self):
        """The raw-engine hazard documented in dynamic.py actually bites."""
        dynamic, handles = self._build()
        old_collection, _ = dynamic.snapshot()
        store = LabelStore()
        MIOEngine(old_collection, label_store=store).query(1.5)
        # Position 0 (the isolated object) was labeled grid-useless.
        labels = store.get(2)
        assert np.all((labels.arrays[0] & 0b100) == 0)

        # Same-shape churn: drop the isolated object, add one that overlaps
        # the close pair.  Shapes coincide, so the shape guard is blind.
        dynamic.remove_object(handles[0])
        dynamic.add_object(np.array([[0.2, 0.2], [1.2, 0.2]]))
        new_collection, _ = dynamic.snapshot()
        assert labels_match_collection(labels, new_collection)

        # Reusing the stale store on the new collection undercounts:
        # position 0 is now a *participating* object whose points the stale
        # 0** labels skip during grid mapping.
        stale = MIOEngine(new_collection, label_store=store).query(1.5)
        truth = max(oracle_scores(new_collection, 1.5))
        assert stale.score < truth

    def test_session_invalidates_and_stays_exact(self):
        dynamic, handles = self._build()
        session = QuerySession(dynamic)
        first = session.query(1.5)
        assert first.score == max(oracle_scores(session.collection, 1.5))
        assert session.stats()["label_ceilings"] == 1

        dynamic.remove_object(handles[0])
        dynamic.add_object(np.array([[0.2, 0.2], [1.2, 0.2]]))
        second = session.query(1.5)
        truth = max(oracle_scores(session.collection, 1.5))
        assert second.score == truth
        assert session.stats()["invalidations"] == 1
        # The winner maps back to a stable handle of the *current* contents.
        assert session.handle_of(second.winner) in dynamic

    @needs_numpy
    def test_every_cache_layer_is_dropped(self):
        dynamic, handles = self._build()
        session = QuerySession(dynamic, kernel="numpy")
        session.query(1.5)  # labels and keeps its grid resident
        session.query(1.5)
        assert len(session.grid_cache) == 1
        assert len(session.lower_cache) == 1
        old_grid = session.grid_cache._entries[1.5][0]
        dynamic.add_object(np.array([[30.0, 30.0], [31.0, 30.0]]))
        session.query(1.5)
        # Caches were cleared and repopulated for the new snapshot only
        # (the relabeling query keeps its new grid).
        assert session.stats()["invalidations"] == 1
        assert len(session.grid_cache) == 1
        new_grid = session.grid_cache._entries[1.5][0]
        assert new_grid is not old_grid
        assert new_grid.collection is session.collection
        assert len(session.lower_cache) == 1
        assert session.label_store.ceilings() == [2]

    @needs_numpy
    def test_same_shape_churn_rebuilds_the_grid(self):
        """Remove+add of a same-shaped object: the resident grid of the old
        snapshot is never viewed again, and the answer stays exact."""
        dynamic, handles = self._build()
        session = QuerySession(dynamic, kernel="numpy")
        session.query(1.5)
        session.query(1.5)
        assert session.stats()["grid_key_cache_hits"] == 1
        old_grid = session.grid_cache._entries[1.5][0]
        dynamic.remove_object(handles[0])
        dynamic.add_object(np.array([[0.2, 0.2], [1.2, 0.2]]))
        session.query(1.5)
        assert session.grid_cache._entries[1.5][0] is not old_grid
        result = session.query(1.5)
        assert result.score == max(oracle_scores(session.collection, 1.5))
        stats = session.stats()
        assert (stats["grid_key_cache_hits"], stats["grid_key_cache_misses"]) == (2, 2)
        assert session.query(1.5).score == result.score
        assert session.stats()["grid_key_cache_hits"] == 3

    def test_mutation_during_a_snapshot_is_seen_by_the_next_query(self, monkeypatch):
        """A write landing between the session's snapshot and its
        bookkeeping: the session records the version it compiled, so the
        next query re-snapshots instead of serving the older contents."""
        dynamic, _ = self._build()
        session = QuerySession(dynamic)
        snapshot = DynamicMIO.versioned_snapshot
        written = []

        def racing(source):
            taken = snapshot(source)
            if not written:
                written.append(source.add_object(np.array([[0.4, 0.4], [1.4, 0.4]])))
            return taken

        monkeypatch.setattr(DynamicMIO, "versioned_snapshot", racing)
        assert session.query(1.5).score == 1
        result = session.query(1.5)
        assert session.collection.n == 4
        assert result.score == max(oracle_scores(session.collection, 1.5)) == 2

    def test_mutation_between_batches(self):
        dynamic, handles = self._build()
        session = QuerySession(dynamic)
        cold = session.query_many([1.5, 1.2])
        dynamic.remove_object(handles[2])
        dynamic.add_object(np.array([[100.0, 100.0], [101.0, 100.0]]))
        warm = session.query_many([1.5, 1.2])
        for r, result in zip([1.5, 1.2], warm):
            assert result.score == max(oracle_scores(session.collection, r))

    def test_no_spurious_invalidation_without_mutation(self):
        dynamic, _ = self._build()
        session = QuerySession(dynamic)
        session.query(1.5)
        session.query(1.2)
        session.query_many([1.4])
        assert session.stats()["invalidations"] == 0
        assert session.stats()["label_hits"] == 2
