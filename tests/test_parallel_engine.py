"""Tests for ``ParallelMIOEngine`` and the Section IV schedule study.

``ParallelMIOEngine`` is the serial engine under its former multi-core
name: it is checked for exactness and for answering exactly as
:class:`MIOEngine`.  The partitioning strategies, label consumption, and
makespan reporting are properties of the schedule study
(:mod:`repro.bench.schedule`), checked through ``simulate_query`` and
the parallel competitors.
"""

import multiprocessing

import numpy as np
import pytest

from repro.bench.schedule import (
    parallel_nested_loop,
    parallel_simple_grid,
    simulate_query,
)
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.objects import ObjectCollection
from repro.errors import InvalidQueryError, QueryTimeout
from repro.kernels import numpy_kernel_available
from repro.parallel.engine import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock

from conftest import oracle_scores, random_collection
from test_kernel_conformance import assert_results_equal

KERNELS = ("python",) + (("numpy",) if numpy_kernel_available() else ())


@pytest.fixture(scope="module")
def collection():
    return random_collection(n=35, mean_points=7, seed=91)


@pytest.fixture(scope="module")
def truth(collection):
    return oracle_scores(collection, 2.0)


class TestExactness:
    @pytest.mark.parametrize("cores", [1, 2, 4, 7])
    def test_matches_oracle_across_core_counts(self, collection, truth, cores):
        result = ParallelMIOEngine(collection, cores=cores).query(2.0)
        assert result.score == max(truth)
        assert truth[result.winner] == result.score

    @pytest.mark.parametrize("lb", ["greedy-d", "hash-p"])
    @pytest.mark.parametrize("ub", ["greedy-p", "greedy-d"])
    def test_every_strategy_combination_is_exact(self, collection, truth, lb, ub):
        result = simulate_query(collection, 2.0, 3, lb_strategy=lb, ub_strategy=ub)
        assert result.score == max(truth)
        assert truth[result.winner] == result.score

    def test_matches_serial_engine(self, collection):
        for r in (1.0, 3.0):
            serial = MIOEngine(collection).query(r)
            parallel = ParallelMIOEngine(collection, cores=4).query(r)
            assert parallel.score == serial.score

    def test_3d(self, clustered_collection_3d):
        truth = oracle_scores(clustered_collection_3d, 2.5)
        result = ParallelMIOEngine(clustered_collection_3d, cores=4).query(2.5)
        assert result.score == max(truth)


class TestLabels:
    def test_consumes_labels_from_serial_run(self, collection, truth):
        store = LabelStore()
        MIOEngine(collection, label_store=store).query(2.0)  # labeling run
        result = simulate_query(collection, 2.0, 4, label_store=store)
        assert result.algorithm == "bigrid-label-parallel"
        assert result.score == max(truth)

    def test_label_free_when_store_empty(self, collection):
        result = simulate_query(collection, 2.0, 2, label_store=LabelStore())
        assert result.algorithm == "bigrid-parallel"

    @pytest.mark.parametrize("lb", ["greedy-d", "hash-p"])
    @pytest.mark.parametrize("ub", ["greedy-p", "greedy-d"])
    def test_label_runs_exact_for_all_strategies(self, collection, truth, lb, ub):
        store = LabelStore()
        MIOEngine(collection, label_store=store).query(2.0)
        result = simulate_query(
            collection, 2.0, 3, lb_strategy=lb, ub_strategy=ub, label_store=store
        )
        assert result.algorithm == "bigrid-label-parallel"
        assert result.score == max(truth)


class TestReporting:
    def test_phases_and_extras(self, collection):
        result = simulate_query(collection, 2.0, 4)
        for phase in ("grid_mapping", "lower_bounding", "upper_bounding", "verification"):
            assert phase in result.phases
            assert f"serial:{phase}" in result.extra
            # A makespan can never exceed the serial time of the same work.
            assert result.phases[phase] <= result.extra[f"serial:{phase}"] + 1e-9
        assert result.counters["cores"] == 4

    def test_single_core_makespan_equals_serial(self, collection):
        result = simulate_query(collection, 2.0, 1)
        for phase in ("lower_bounding", "upper_bounding"):
            assert result.phases[phase] == pytest.approx(
                result.extra[f"serial:{phase}"], rel=0.05, abs=1e-5
            )


class TestValidation:
    def test_invalid_strategies(self, collection):
        with pytest.raises(ValueError):
            simulate_query(collection, 2.0, 2, lb_strategy="magic")
        with pytest.raises(ValueError):
            simulate_query(collection, 2.0, 2, ub_strategy="magic")
        with pytest.raises(ValueError):
            ParallelMIOEngine(collection, cores=2, label_reuse="magic")

    def test_simulated_mode_points_at_the_schedule_study(self, collection):
        from repro.errors import InvalidQueryError

        with pytest.raises(InvalidQueryError, match="repro.bench.schedule"):
            ParallelMIOEngine(collection, cores=2, mode="simulated")

    def test_invalid_r(self, collection):
        with pytest.raises(ValueError):
            ParallelMIOEngine(collection, cores=2).query(-1.0)
        with pytest.raises(ValueError):
            simulate_query(collection, -1.0, 2)


class TestParallelCompetitors:
    @pytest.mark.parametrize("cores", [1, 3])
    def test_parallel_nl_exact(self, collection, truth, cores):
        result = parallel_nested_loop(collection, 2.0, cores)
        assert result.score == max(truth)
        assert result.counters["cores"] == cores

    @pytest.mark.parametrize("cores", [1, 3])
    def test_parallel_sg_exact(self, collection, truth, cores):
        result = parallel_simple_grid(collection, 2.0, cores)
        assert result.score == max(truth)

    def test_parallel_nl_rejects_bad_r(self, collection):
        with pytest.raises(ValueError):
            parallel_nested_loop(collection, 0.0, 2)

    def test_makespans_bounded_by_serial(self, collection):
        nl = parallel_nested_loop(collection, 2.0, 4)
        assert nl.phases["scan"] <= nl.extra["serial:scan"] + 1e-9
        sg = parallel_simple_grid(collection, 2.0, 4)
        assert sg.phases["build_and_scoring"] <= sg.extra["serial:build_and_scoring"] + 1e-9


class TestParallelTopK:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_oracle(self, collection, k):
        truth = sorted(oracle_scores(collection, 2.0), reverse=True)
        result = ParallelMIOEngine(collection, cores=4).query_topk(2.0, k)
        assert [score for _, score in result.topk] == truth[:k]
        simulated = simulate_query(collection, 2.0, 4, k=k)
        assert [score for _, score in simulated.topk] == truth[:k]

    def test_matches_serial_topk(self, collection):
        from repro.core.engine import MIOEngine

        serial = MIOEngine(collection).query_topk(2.0, 5)
        parallel = ParallelMIOEngine(collection, cores=3).query_topk(2.0, 5)
        assert [s for _, s in parallel.topk] == [s for _, s in serial.topk]

    def test_topk_with_labels(self, collection):
        from repro.core.engine import MIOEngine
        from repro.core.labels import LabelStore

        store = LabelStore()
        MIOEngine(collection, label_store=store).query(2.0)
        truth = sorted(oracle_scores(collection, 2.0), reverse=True)[:4]
        result = simulate_query(collection, 2.0, 4, k=4, label_store=store)
        assert result.algorithm == "bigrid-label-parallel"
        assert [score for _, score in result.topk] == truth

    def test_invalid_k(self, collection):
        with pytest.raises(ValueError):
            ParallelMIOEngine(collection, cores=2).query_topk(2.0, 0)
        with pytest.raises(ValueError):
            simulate_query(collection, 2.0, 2, k=0)

    def test_query_has_no_topk_field(self, collection):
        assert ParallelMIOEngine(collection, cores=2).query(2.0).topk is None
        assert simulate_query(collection, 2.0, 2).topk is None


def _lattice_collection():
    """Two-point objects on a 4x3 lattice of pitch 3: at r = 3.2 each
    object interacts with its lattice 4-neighbours only, so the scores
    tie in groups (corners 2, edges 3, interior 4)."""
    return ObjectCollection.from_point_arrays(
        [
            np.array([[x * 3.0, y * 3.0], [x * 3.0 + 0.5, y * 3.0]])
            for y in range(3)
            for x in range(4)
        ]
    )


class TestSerialEngineUnderTheFormerName:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_answers_exactly_as_the_serial_engine(self, collection, kernel):
        for data, r, k in ((_lattice_collection(), 3.2, 7), (collection, 2.0, 5)):
            serial = MIOEngine(data, kernel=kernel)
            engine = ParallelMIOEngine(data, cores=2, mode="sharded", kernel=kernel)
            assert_results_equal(serial.query(r), engine.query(r))
            assert_results_equal(serial.query_topk(r, k), engine.query_topk(r, k))
            assert engine.last_bigrid is None  # no grid kept between queries

            # Deadlines that expire inside verification: one clock tick per
            # read, so both engines stop at the same candidate and return
            # the same anytime prefix.
            def run(target, budget):
                deadline = Deadline(float(budget), clock=ManualClock(step=1.0))
                return target.query_topk(r, k, deadline=deadline)

            anytime = 0
            for budget in range(1, 4000, 7):
                try:
                    expected = run(serial, budget)
                except QueryTimeout:
                    with pytest.raises(QueryTimeout):
                        run(engine, budget)
                    continue
                got = run(engine, budget)
                assert_results_equal(expected, got)
                if expected.exact:
                    break
                anytime += 1
            assert anytime
            assert multiprocessing.active_children() == []

        engine.close()
        engine.close()
        assert_results_equal(serial.query(r), engine.query(r))
        with pytest.raises(InvalidQueryError, match="repro.bench.schedule"):
            ParallelMIOEngine(data, cores=2, mode="simulated", kernel=kernel)
        with pytest.raises(InvalidQueryError):
            ParallelMIOEngine(data, cores=0, kernel=kernel)

