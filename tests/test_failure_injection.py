"""Failure-injection tests: faults, deadlines, corrupted files, bad inputs.

A production system must fail loudly on malformed inputs, recover quietly
from stale auxiliary state (labels are an *optimization*, never a
correctness dependency), degrade along declared fallback chains, and turn
an expired deadline into a certified anytime answer rather than a crash."""

import os

import numpy as np
import pytest

from repro import faults
from repro.bitset import EWAHBitset
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore, PointLabels
from repro.datasets.io import import_csv, load_collection
from repro.errors import (
    CorruptDataError,
    InjectedFault,
    QueryTimeout,
)
from repro.faults import FaultInjector, FaultSpec
from repro.kernels import numpy_kernel_available
from repro.parallel.engine import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock
from repro.session import QuerySession

from conftest import oracle_scores, random_collection

needs_numpy = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)


class TestStaleLabels:
    def test_labels_for_wrong_collection_are_ignored(self):
        """A store warmed on one collection must not poison another."""
        first = random_collection(n=20, mean_points=5, seed=131)
        second = random_collection(n=25, mean_points=6, seed=132)
        store = LabelStore()
        MIOEngine(first, label_store=store).query(2.0)
        result = MIOEngine(second, label_store=store).query(2.0)
        # The engine relabels instead of consuming mismatched labels.
        assert result.algorithm == "bigrid"
        assert result.score == max(oracle_scores(second, 2.0))

    def test_labels_with_wrong_point_counts_are_ignored(self):
        collection = random_collection(n=10, mean_points=5, seed=133)
        store = LabelStore()
        bogus = PointLabels([1] * collection.n, r=2.0)  # wrong sizes
        store.put(2, bogus)
        result = MIOEngine(collection, label_store=store).query(2.0)
        assert result.algorithm == "bigrid"
        assert result.score == max(oracle_scores(collection, 2.0))

    def test_same_shape_different_data_still_exact(self):
        """Labels from an identically-shaped but different collection: the
        engine cannot detect this, but safe-mode replay only consults the
        large grid of the *current* collection, so we at least document the
        store-per-collection contract by showing shapes are what's checked."""
        collection = random_collection(n=10, mean_points=5, seed=134)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        engine.query(2.0)
        assert engine.query(2.0).score == max(oracle_scores(collection, 2.0))


class TestCorruptedFiles:
    def test_corrupted_npz_raises(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CorruptDataError, match="broken.npz"):
            load_collection(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_collection(tmp_path / "does_not_exist.npz")

    def test_corrupted_label_file_raises_cleanly(self, tmp_path):
        store = LabelStore(tmp_path)
        (tmp_path / "labels_ceil_3.npz").write_bytes(b"garbage")
        with pytest.raises(CorruptDataError, match="labels_ceil_3.npz"):
            store.get(3)

    def test_truncated_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("oid,x,y\n")
        with pytest.raises(ValueError):
            import_csv(path)  # no objects -> empty collection is rejected

    def test_csv_missing_header_names_path(self, tmp_path):
        path = tmp_path / "headless.csv"
        path.write_text("1,2.0,3.0\n")
        with pytest.raises(CorruptDataError, match="headless.csv"):
            import_csv(path)

    def test_csv_bad_row_names_path(self, tmp_path):
        path = tmp_path / "badrow.csv"
        path.write_text("oid,x,y\n0,1.0,2.0\n0,banana,2.0\n")
        with pytest.raises(CorruptDataError, match="badrow.csv"):
            import_csv(path)

    def test_duplicate_oid_rejected(self):
        from repro.core.objects import ObjectCollection, SpatialObject

        objects = [
            SpatialObject(0, np.zeros((1, 2))),
            SpatialObject(0, np.ones((1, 2))),
        ]
        with pytest.raises(CorruptDataError, match="duplicate object id"):
            ObjectCollection(objects)

    def test_corrupted_ewah_stream(self):
        with pytest.raises(ValueError):
            EWAHBitset.deserialize(b"1234567")  # not a multiple of 8


class TestHostileInputs:
    def test_nan_coordinates_rejected_at_construction(self):
        from repro.core.objects import ObjectCollection

        with pytest.raises(ValueError, match="finite"):
            ObjectCollection.from_point_arrays(
                [np.array([[0.0, 0.0]]), np.array([[np.nan, 0.0]])]
            )

    def test_infinite_timestamps_rejected_at_construction(self):
        from repro.core.objects import SpatialObject

        with pytest.raises(ValueError, match="finite"):
            SpatialObject(0, np.zeros((2, 2)), np.array([0.0, np.inf]))

    def test_infinite_r_rejected_by_widths(self):
        collection = random_collection(n=4, mean_points=3, seed=135)
        engine = MIOEngine(collection)
        with pytest.raises((ValueError, OverflowError)):
            engine.query(float("inf"))

    def test_huge_coordinates_still_work(self):
        from repro.core.objects import ObjectCollection

        offset = 1e12
        collection = ObjectCollection.from_point_arrays(
            [
                np.array([[offset, offset]]),
                np.array([[offset + 0.5, offset]]),
                np.array([[offset + 100.0, offset]]),
            ]
        )
        result = MIOEngine(collection).query(1.0)
        assert result.score == 1


class TestStaleLabelsParallel:
    def test_parallel_engine_ignores_stale_labels(self):
        from repro.bench.schedule import simulate_query

        first = random_collection(n=15, mean_points=5, seed=136)
        second = random_collection(n=20, mean_points=6, seed=137)
        store = LabelStore()
        MIOEngine(first, label_store=store).query(2.0)
        result = simulate_query(second, 2.0, 3, label_store=store)
        assert result.algorithm == "bigrid-parallel"  # labels rejected
        assert result.score == max(oracle_scores(second, 2.0))


PHASE_POINTS = ("grid_mapping", "lower_bounding", "upper_bounding", "verification")

RAISING_PHASES = ("grid_mapping", "lower_bounding", "upper_bounding")


def _query_with_ticks(engine, r, budget):
    """Run one query under a deterministic tick-driven deadline."""
    deadline = Deadline(float(budget), clock=ManualClock(step=1.0))
    return engine.query(r, deadline=deadline)


def _verification_window_budgets(engine, r, samples=15):
    """Tick budgets bracketing the verification phase of ``engine``.

    Under ``ManualClock(step=1.0)`` every deadline reading is one tick, so a
    run with an unlimited budget measures the total tick count, and a binary
    search finds the smallest budget surviving the raising filter phases.
    Budgets sampled between the two land either in anytime verification or
    in completion -- exactly the region the anytime contract covers.
    """

    def raises_in_filter(budget):
        try:
            _query_with_ticks(engine, r, budget)
        except QueryTimeout as timeout:
            return timeout.phase in RAISING_PHASES
        return False

    total_deadline = Deadline(10.0**9, clock=ManualClock(step=1.0))
    engine.query(r, deadline=total_deadline)
    total_ticks = int(total_deadline.elapsed()) + 2
    low, high = 0, total_ticks
    while low + 1 < high:  # invariant: low raises in a filter phase, high not
        mid = (low + high) // 2
        if raises_in_filter(mid):
            low = mid
        else:
            high = mid
    span = max(1, (total_ticks - high) // max(1, samples - 1))
    budgets = set(range(high, total_ticks + 1, span))
    budgets.add(total_ticks + 10)  # comfortably past expiry: exact answer
    return sorted(budgets)


class TestInjectionPoints:
    """Every named injection point, exercised with both fault kinds."""

    @pytest.mark.parametrize("point", PHASE_POINTS)
    def test_phase_failure_raises_injected_fault(self, point):
        collection = random_collection(n=12, mean_points=5, seed=140)
        engine = MIOEngine(collection)
        with faults.injected(FaultInjector([FaultSpec(point)])):
            with pytest.raises(InjectedFault) as info:
                engine.query(2.0)
        assert info.value.point == point

    @pytest.mark.parametrize("point", PHASE_POINTS)
    def test_phase_latency_preserves_exactness(self, point):
        collection = random_collection(n=12, mean_points=5, seed=140)
        engine = MIOEngine(collection)
        spec = FaultSpec(point, kind="latency", latency=0.0)
        with faults.injected(FaultInjector([spec])) as injector:
            result = engine.query(2.0)
        assert injector.fired[point] >= 1
        assert result.exact
        assert result.score == max(oracle_scores(collection, 2.0))

    def test_io_failure_raises_injected_fault(self, tmp_path):
        from repro.datasets.io import save_collection

        path = tmp_path / "ok.npz"
        save_collection(path, random_collection(n=5, mean_points=3, seed=141))
        with faults.injected(FaultInjector([FaultSpec("io")])):
            with pytest.raises(InjectedFault):
                load_collection(path)

    def test_trip_is_noop_without_injector(self):
        assert faults.active() is None
        faults.trip("verification")  # must not raise

    def test_seeded_rate_is_deterministic(self):
        def fired_counts(seed):
            injector = FaultInjector(
                [FaultSpec("verification", kind="latency", rate=0.5)], seed=seed
            )
            with faults.injected(injector):
                for _ in range(40):
                    faults.trip("verification")
            return injector.fired.get("verification", 0)

        assert fired_counts(7) == fired_counts(7)
        assert 0 < fired_counts(7) < 40


class TestDeadlines:
    """Cooperative deadlines: raising filter phases, anytime verification."""

    def test_zero_budget_expires_in_grid_mapping(self):
        collection = random_collection(n=10, mean_points=5, seed=142)
        with pytest.raises(QueryTimeout) as info:
            MIOEngine(collection).query(2.0, timeout_ms=0.0)
        assert info.value.phase == "grid_mapping"
        assert info.value.elapsed >= 0.0

    @needs_numpy
    def test_zero_budget_numpy_query_expires_in_grid_mapping(self):
        collection = random_collection(n=10, mean_points=5, seed=142)
        with pytest.raises(QueryTimeout) as info:
            MIOEngine(collection, kernel="numpy").query(2.0, timeout_ms=0.0)
        assert info.value.phase == "grid_mapping"

    @needs_numpy
    def test_zero_budget_numpy_with_label_query_expires_in_grid_mapping(self):
        collection = random_collection(n=30, mean_points=6, seed=144)
        session = QuerySession(collection, kernel="numpy")
        assert session.query(3.0).algorithm == "bigrid"
        with pytest.raises(QueryTimeout) as info:
            session.query(2.6, timeout_ms=0.0)
        assert info.value.phase == "grid_mapping"
        # The session still answers the same query once given time.
        assert session.query(2.6).algorithm == "bigrid-label"

    @needs_numpy
    def test_numpy_build_expires_between_its_passes(self):
        """The kernel polls the deadline itself between its passes (the
        point gather, the small grid, the large grid), as the reference
        build does between objects: a budget of a few checks cuts the
        build short past its first check."""
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        collection = random_collection(n=12, mean_points=5, seed=145)
        clock = ManualClock(step=1.0)
        with pytest.raises(QueryTimeout) as info:
            NUMPY_KERNEL.build_bigrid(
                collection, 2.5, deadline=Deadline(2.5, clock=clock)
            )
        assert info.value.phase == "grid_mapping"
        # The budget's start reading plus three checks, the last expired.
        assert clock.now == 4.0

    def test_phases_expire_in_pipeline_order(self):
        """Sweeping the budget under a ManualClock walks expiry through the
        raising phases in order, then lands in anytime verification."""
        collection = random_collection(n=25, mean_points=6, seed=143)
        engine = MIOEngine(collection)
        outcomes = []
        # Fine steps: verification reads the clock only 13 times on this
        # query; every budget past ~100 already answers exactly.
        for budget in range(0, 400, 4):
            deadline = Deadline(float(budget), clock=ManualClock(step=1.0))
            try:
                result = engine.query(2.0, deadline=deadline)
            except QueryTimeout as timeout:
                outcomes.append(timeout.phase)
            else:
                outcomes.append("answered" if result.exact else "anytime")
        order = ["grid_mapping", "lower_bounding", "upper_bounding", "anytime", "answered"]
        seen = [phase for index, phase in enumerate(outcomes) if phase not in outcomes[:index]]
        assert seen == [phase for phase in order if phase in seen]
        assert "anytime" in seen and "answered" in seen

    def test_anytime_score_is_verified_lower_bound(self):
        """Property test: under any deadline the answer is never wrong --
        an exact result matches the oracle, an anytime result is a lower
        bound achieved by its reported winner (Corollary 1)."""
        for seed in range(5):
            collection = random_collection(n=20, mean_points=6, seed=200 + seed)
            oracle = oracle_scores(collection, 2.0)
            engine = MIOEngine(collection)
            anytime_seen = False
            for budget in _verification_window_budgets(engine, 2.0):
                try:
                    result = _query_with_ticks(engine, 2.0, budget)
                except QueryTimeout:
                    continue
                if result.exact:
                    assert result.score == max(oracle)
                else:
                    anytime_seen = True
                    assert result.score <= max(oracle)
                    assert oracle[result.winner] >= result.score
                    assert result.notes["anytime"]
                    assert result.counters["candidates_settled"] <= (
                        result.counters["candidates_total"]
                    )
            assert anytime_seen, f"seed {seed}: no budget hit the anytime path"

    def test_anytime_scores_improve_monotonically(self):
        collection = random_collection(n=25, mean_points=6, seed=144)
        engine = MIOEngine(collection)
        scores = []
        for budget in _verification_window_budgets(engine, 2.0, samples=30):
            try:
                result = _query_with_ticks(engine, 2.0, budget)
            except QueryTimeout:
                continue
            scores.append(result.score)
        assert scores, "no budget produced an answer"
        assert scores == sorted(scores)
        assert scores[-1] == max(oracle_scores(collection, 2.0))

    def test_timed_out_verification_does_not_persist_labels(self):
        collection = random_collection(n=25, mean_points=6, seed=145)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        import math

        # Probe the window with a store-free engine: a completing probe run
        # would otherwise persist labels and change the tick counts.
        probe = MIOEngine(collection)
        for budget in _verification_window_budgets(probe, 2.0):
            try:
                result = _query_with_ticks(engine, 2.0, budget)
            except QueryTimeout:
                continue
            if not result.exact:
                assert not store.has(math.ceil(2.0))
                return
        pytest.fail("no budget hit the anytime path")

    def test_progressive_deadline_stops_iteration_cleanly(self):
        from repro.progressive import query_progressive

        collection = random_collection(n=20, mean_points=6, seed=146)
        oracle = oracle_scores(collection, 2.0)
        deadline = Deadline(600.0, clock=ManualClock(step=1.0))
        states = list(query_progressive(collection, 2.0, deadline=deadline))
        assert states, "deadline killed the run before any progress"
        assert states[-1].best_score <= max(oracle)

    def test_parallel_engine_honors_deadline(self):
        collection = random_collection(n=15, mean_points=5, seed=147)
        engine = ParallelMIOEngine(collection, cores=3)
        with pytest.raises(QueryTimeout):
            engine.query(2.0, timeout_ms=0.0)


class TestBackendFallback:
    def test_down_backend_degrades_with_note(self):
        collection = random_collection(n=12, mean_points=5, seed=148)
        engine = MIOEngine(collection, backend="ewah")
        spec = FaultSpec("backend", match="ewah")
        with faults.injected(FaultInjector([spec])):
            result = engine.query(2.0)
        assert result.notes["degraded_backend"] == "ewah->plain"
        assert result.exact
        assert result.score == max(oracle_scores(collection, 2.0))

    def test_healthy_backend_leaves_no_note(self):
        collection = random_collection(n=12, mean_points=5, seed=148)
        result = MIOEngine(collection, backend="ewah").query(2.0)
        assert "degraded_backend" not in result.notes

    def test_unknown_backend_rejected(self):
        from repro.bitset import resolve_backend
        from repro.errors import BackendUnavailableError

        with pytest.raises(BackendUnavailableError, match="unknown"):
            resolve_backend("bitmagic")

    def test_fully_down_chain_rejected(self):
        from repro.bitset import resolve_backend
        from repro.errors import BackendUnavailableError

        specs = [FaultSpec("backend", match=name) for name in ("ewah", "plain")]
        with faults.injected(FaultInjector(specs)):
            with pytest.raises(BackendUnavailableError, match="no usable"):
                resolve_backend("ewah")


def _chaos_seeds():
    seeds = faults.env_seeds(os.environ.get("REPRO_FAULTS"))
    return seeds or [0, 1, 2]


class TestChaos:
    """Randomized faults at every point: the answer is exact, a certified
    anytime bound, or a taxonomy error -- never a foreign exception."""

    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_chaos_run_never_escapes_taxonomy(self, seed):
        from repro.errors import ReproError

        collection = random_collection(n=15, mean_points=5, seed=151)
        oracle = oracle_scores(collection, 2.0)
        specs = [
            FaultSpec(point, rate=0.15)
            for point in ("grid_mapping", "lower_bounding", "upper_bounding",
                          "verification", "backend")
        ]
        with faults.injected(FaultInjector(specs, seed=seed)):
            try:
                result = MIOEngine(collection).query(2.0)
            except ReproError:
                return
        if result.exact:
            assert result.score == max(oracle)
        else:
            assert result.score <= max(oracle)
