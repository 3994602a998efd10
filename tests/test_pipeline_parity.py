"""Pipeline parity: the refactored engines answer exactly as before.

The serial engine (also under its former name ``ParallelMIOEngine``) and
the variant engines all run through the one
:class:`~repro.core.pipeline.PhasePipeline` orchestrator; this suite
pins the refactor three ways:

* **golden answers** -- winners, scores, and top-k rankings captured
  from the pre-refactor engines on a fixed collection, checked on every
  bitset backend (the answers are backend-independent);
* **oracle differential** -- both engines against the scipy nested-loop
  oracle on fresh collections;
* **cross-cutting semantics** -- tracing changes no answer, anytime
  degradation and fault injection behave identically through the
  orchestrator, and ``query_batch`` equals per-query answers (it is a
  thin wrapper over the shared ceil(r)-grouped sweep).
"""

from __future__ import annotations

import math

import pytest
from conftest import oracle_scores, random_collection

from repro import faults
from repro.bench.schedule import simulate_query
from repro.core.engine import MIOEngine
from repro.core.pipeline import batch_order, kth_largest, run_grouped_sweep
from repro.errors import InjectedFault, QueryTimeout
from repro.faults import FaultInjector, FaultSpec
from repro.obs.trace import Tracer
from repro.parallel.engine import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock

BACKENDS = ("ewah", "plain", "roaring")

#: Answers captured from the pre-refactor engines (commit 33bc27e) on
#: ``random_collection(n=40, mean_points=8, seed=4242)``.  They are
#: backend-independent, and the schedule study matches them by Section IV
#: exactness.
GOLDEN = {
    2.0: {"winner": (5, 15), "topk": [(5, 15), (18, 15), (22, 15)]},
    3.5: {"winner": (15, 15), "topk": [(15, 15), (20, 15), (36, 15)]},
    5.0: {"winner": (36, 16), "topk": [(36, 16), (15, 15), (18, 15)]},
}


@pytest.fixture(scope="module")
def golden_collection():
    return random_collection(n=40, mean_points=8, seed=4242)


# ----------------------------------------------------------------------
# Golden answers, all backends, both engines
# ----------------------------------------------------------------------


class TestGoldenAnswers:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("r", sorted(GOLDEN))
    def test_serial_matches_prerefactor(self, golden_collection, backend, r):
        result = MIOEngine(golden_collection, backend=backend).query(r)
        assert (result.winner, result.score) == GOLDEN[r]["winner"]
        assert result.exact

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("r", sorted(GOLDEN))
    def test_serial_topk_matches_prerefactor(self, golden_collection, backend, r):
        result = MIOEngine(golden_collection, backend=backend).query_topk(r, k=3)
        assert result.topk == GOLDEN[r]["topk"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("r", sorted(GOLDEN))
    def test_parallel_matches_prerefactor(self, golden_collection, backend, r):
        # The schedule study (repro.bench.schedule) runs the partitioned
        # phase functions the pre-refactor parallel engine ran.
        result = simulate_query(golden_collection, r, 4, backend=backend)
        assert (result.winner, result.score) == GOLDEN[r]["winner"]
        assert result.algorithm == "bigrid-parallel"
        topk = simulate_query(golden_collection, r, 4, k=3, backend=backend)
        assert topk.topk == GOLDEN[r]["topk"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("r", sorted(GOLDEN))
    def test_sharded_matches_prerefactor(self, golden_collection, backend, r):
        # The former multi-core name hits the same golden answers --
        # including the top-k order and its tie-breaks.
        engine = ParallelMIOEngine(golden_collection, cores=2, backend=backend)
        result = engine.query(r)
        assert (result.winner, result.score) == GOLDEN[r]["winner"]
        assert result.algorithm == "bigrid"
        assert engine.query_topk(r, k=3).topk == GOLDEN[r]["topk"]


# ----------------------------------------------------------------------
# Oracle differential
# ----------------------------------------------------------------------


class TestOracleDifferential:
    @pytest.mark.parametrize("seed", (901, 902, 903))
    @pytest.mark.parametrize("r", (1.5, 4.0))
    def test_serial_vs_oracle(self, seed, r):
        collection = random_collection(n=25, mean_points=6, seed=seed)
        tau = oracle_scores(collection, r)
        result = MIOEngine(collection).query(r)
        assert result.score == max(tau)
        assert tau[result.winner] == max(tau)

    @pytest.mark.parametrize("seed", (901, 902))
    def test_parallel_vs_oracle(self, seed):
        collection = random_collection(n=25, mean_points=6, seed=seed)
        tau = oracle_scores(collection, 3.0)
        result = ParallelMIOEngine(collection, cores=3).query(3.0)
        assert result.score == max(tau)
        assert tau[result.winner] == max(tau)


# ----------------------------------------------------------------------
# Tracing is answer-neutral through the orchestrator
# ----------------------------------------------------------------------


class TestTracedEqualsUntraced:
    def test_serial(self, golden_collection):
        for r in GOLDEN:
            tracer = Tracer()
            plain = MIOEngine(golden_collection).query(r)
            traced = MIOEngine(golden_collection, tracer=tracer).query(r)
            assert (traced.winner, traced.score) == (plain.winner, plain.score)
            span = tracer.root
            assert span.name == "query"
            names = [child.name for child in span.children]
            assert names == [
                "grid_mapping",
                "lower_bounding",
                "upper_bounding",
                "verification",
            ]
            assert traced.phases is not None  # derived from the trace tree

    def test_parallel(self, golden_collection):
        tracer = Tracer()
        plain = ParallelMIOEngine(golden_collection, cores=4).query(2.0)
        traced = ParallelMIOEngine(
            golden_collection, cores=4, tracer=tracer
        ).query(2.0)
        assert (traced.winner, traced.score) == (plain.winner, plain.score)
        root = tracer.root
        assert root.name == "query"
        assert [child.name for child in root.children] == [
            "grid_mapping",
            "lower_bounding",
            "upper_bounding",
            "verification",
        ]


# ----------------------------------------------------------------------
# Anytime + fault semantics through the orchestrator
# ----------------------------------------------------------------------


class TestAnytimeThroughPipeline:
    def test_filter_phase_expiry_raises_with_phase(self, golden_collection):
        deadline = Deadline(1.0, clock=ManualClock(step=1.0))
        with pytest.raises(QueryTimeout) as info:
            MIOEngine(golden_collection).query(2.0, deadline=deadline)
        assert info.value.phase in ("grid_mapping", "lower_bounding", "upper_bounding")

    def test_verification_expiry_degrades_to_anytime(self, golden_collection):
        # Measure the total tick count, then expire partway through
        # verification: the answer must be anytime, not an exception.
        total = Deadline(10.0**9, clock=ManualClock(step=1.0))
        MIOEngine(golden_collection).query(2.0, deadline=total)
        budget = int(total.elapsed()) - 2
        deadline = Deadline(float(budget), clock=ManualClock(step=1.0))
        result = MIOEngine(golden_collection).query(2.0, deadline=deadline)
        if not result.exact:  # expiry may land just before the last candidate
            assert "anytime" in result.notes
        assert result.score <= max(oracle_scores(golden_collection, 2.0))


class TestFaultsThroughPipeline:
    @pytest.mark.parametrize(
        "point", ("grid_mapping", "lower_bounding", "upper_bounding", "verification")
    )
    def test_serial_phase_faults_still_raise(self, golden_collection, point):
        with faults.injected(FaultInjector([FaultSpec(point)])):
            with pytest.raises(InjectedFault) as info:
                MIOEngine(golden_collection).query(2.0)
        assert info.value.point == point


# ----------------------------------------------------------------------
# Batch == per-query (one shared grouped sweep)
# ----------------------------------------------------------------------


class TestBatchParity:
    def test_query_batch_equals_individual_queries(self, golden_collection):
        r_values = [5.0, 2.0, 3.5, 2.5, 4.8]
        engine = MIOEngine(golden_collection)
        batched = engine.query_batch(r_values)
        singles = [MIOEngine(golden_collection).query(r) for r in r_values]
        assert [(b.winner, b.score) for b in batched] == [
            (s.winner, s.score) for s in singles
        ]

    def test_batch_order_groups_by_ceiling_descending_r(self):
        r_values = [5.0, 2.0, 3.5, 2.5, 4.8]
        order = batch_order(r_values)
        keys = [(math.ceil(r_values[i]), -r_values[i]) for i in order]
        assert keys == sorted(keys)
        assert sorted(order) == list(range(len(r_values)))

    def test_run_grouped_sweep_restores_input_order(self):
        r_values = [4.2, 1.1, 4.9]
        results = run_grouped_sweep(r_values, lambda index: index * 10)
        assert results == [0, 10, 20]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


class TestKthLargest:
    def test_matches_sorted(self):
        values = [3, 9, 1, 7, 7, 2]
        for k in range(1, len(values) + 1):
            assert kth_largest(values, k) == sorted(values, reverse=True)[k - 1]

    def test_k_beyond_length_is_zero(self):
        assert kth_largest([5, 1], 5) == 0
