"""Unit tests for the deadline and fault-injection primitives."""

import pytest

from repro import faults
from repro.errors import InjectedFault, InvalidQueryError, QueryTimeout
from repro.faults import FaultInjector, FaultSpec, env_seeds, from_env
from repro.resilience import Deadline, ManualClock, checkpoint


class TestManualClock:
    def test_advances_by_step_per_reading(self):
        clock = ManualClock(step=2.0)
        assert clock() == 0.0
        assert clock() == 2.0
        assert clock() == 4.0

    def test_explicit_advance(self):
        clock = ManualClock(start=5.0)
        clock.advance(3.0)
        assert clock() == 8.0


class TestDeadline:
    def test_not_expired_within_budget(self):
        deadline = Deadline(10.0, clock=ManualClock(step=1.0))
        assert not deadline.expired()
        assert deadline.remaining() > 0
        deadline.check("grid_mapping")  # must not raise

    def test_check_raises_with_phase_and_elapsed(self):
        deadline = Deadline(2.0, clock=ManualClock(step=1.0))
        deadline.check("grid_mapping")
        with pytest.raises(QueryTimeout) as info:
            deadline.check("lower_bounding")
        assert info.value.phase == "lower_bounding"
        assert info.value.elapsed >= 2.0
        assert "lower_bounding" in str(info.value)

    def test_expiry_after_exactly_budget_ticks(self):
        deadline = Deadline(3.0, clock=ManualClock(step=1.0))
        assert [deadline.expired() for _ in range(4)] == [
            False, False, True, True,
        ]

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidQueryError):
            Deadline(-1.0)

    def test_from_timeout_ms(self):
        assert Deadline.from_timeout_ms(None) is None
        deadline = Deadline.from_timeout_ms(1500.0, clock=ManualClock())
        assert deadline.budget == pytest.approx(1.5)

    def test_checkpoint_none_is_noop(self):
        checkpoint(None, "verification")  # must not raise

    def test_timeout_is_a_builtin_timeout_error(self):
        deadline = Deadline(0.0, clock=ManualClock(step=1.0))
        with pytest.raises(TimeoutError):
            deadline.check("verification")

    def test_remaining_ms_counts_down_and_clamps_at_zero(self):
        clock = ManualClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(500.0)
        clock.advance(0.2)
        assert deadline.remaining_ms() == pytest.approx(300.0)
        clock.advance(10.0)
        assert deadline.remaining_ms() == 0.0  # clamped, never negative


class TestQueueWaitChargesTheBudget:
    """Satellite: time spent queued burns the request's own deadline."""

    def test_admission_wait_consumes_the_deadline(self):
        from repro.service.admission import ADMITTED, EXPIRED, AdmissionController

        clock = ManualClock()
        controller = AdmissionController(max_inflight=1, max_queue=4, clock=clock)
        assert controller.admit().outcome == ADMITTED  # occupies the only slot

        # The second request arrives with 50ms of budget already half
        # spent elsewhere; the admission queue may not wait past it.
        deadline = Deadline.from_timeout_ms(50.0, clock=clock)
        clock.advance(0.051)
        decision = controller.admit(deadline)
        assert decision.outcome == EXPIRED
        assert deadline.remaining_ms() == 0.0

    def test_expired_budget_never_reaches_execution(self):
        from repro.service.app import ServiceApp

        deadline = Deadline(0.0, clock=ManualClock(step=1.0))
        with pytest.raises(QueryTimeout) as info:
            ServiceApp._run(None, None, deadline)
        assert info.value.phase == "admission_queue"


class TestFaultSpec:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("io", kind="explode")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("io", rate=1.5)


class TestFaultInjector:
    def test_fail_spec_raises_with_point(self):
        injector = FaultInjector([FaultSpec("io")])
        with pytest.raises(InjectedFault) as info:
            injector.trip("io")
        assert info.value.point == "io"

    def test_match_gates_on_detail(self):
        injector = FaultInjector([FaultSpec("verification", match=3)])
        injector.trip("verification", detail=1)  # no match: silent
        with pytest.raises(InjectedFault):
            injector.trip("verification", detail=3)

    def test_max_triggers_limits_firing(self):
        injector = FaultInjector([FaultSpec("io", max_triggers=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.trip("io")
        injector.trip("io")  # budget exhausted: silent
        assert injector.fired["io"] == 2

    def test_rate_zero_never_fires(self):
        injector = FaultInjector([FaultSpec("io", rate=0.0)])
        for _ in range(20):
            injector.trip("io")
        assert injector.fired == {}

    def test_injected_scope_restores_previous(self):
        outer = FaultInjector([])
        inner = FaultInjector([])
        with faults.injected(outer):
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None


class TestEnvParsing:
    def test_full_grammar(self):
        injector = from_env("seed=42;verification:fail;io:latency:0.5:250:x.npz")
        assert injector.seed == 42
        assert len(injector.specs) == 2
        first, second = injector.specs
        assert (first.point, first.kind) == ("verification", "fail")
        assert second.kind == "latency"
        assert second.rate == pytest.approx(0.5)
        assert second.latency == pytest.approx(0.25)
        assert second.match == "x.npz"

    def test_integer_match_parses_as_int(self):
        injector = from_env("verification:fail:1:0:2")
        assert injector.specs[0].match == 2

    def test_empty_and_seeds_only_yield_none(self):
        assert from_env(None) is None
        assert from_env("") is None
        assert from_env("seeds=0:8") is None

    def test_env_seeds_range_and_list(self):
        assert env_seeds("seeds=2:5") == [2, 3, 4]
        assert env_seeds("seeds=1,7,9") == [1, 7, 9]
        assert env_seeds("verification:fail") == []
        assert env_seeds(None) == []


class TestBatchTimeoutIsolation:
    """Satellite: one expired request degrades alone, never its batch."""

    @staticmethod
    def _collection():
        from conftest import random_collection

        return random_collection(n=20, mean_points=5, seed=5)

    def test_single_query_still_raises(self):
        from repro.session import QuerySession

        session = QuerySession(self._collection())
        with pytest.raises(QueryTimeout):
            session.query(4.5, deadline=Deadline(0.0, clock=ManualClock(step=1.0)))

    def test_one_timeout_does_not_poison_the_batch(self):
        from repro.core.engine import MIOEngine
        from repro.session import QueryRequest, QuerySession

        collection = self._collection()
        doomed = QueryRequest(
            r=4.5, deadline=Deadline(0.0, clock=ManualClock(step=1.0))
        )
        session = QuerySession(collection)
        results = session.query_many([4.9, doomed, 4.2])

        assert not results[1].exact
        assert results[1].winner == -1 and results[1].score == 0
        assert "anytime" in results[1].notes

        for index in (0, 2):
            fresh = MIOEngine(collection).query(results[index].r)
            assert results[index].exact
            assert (results[index].winner, results[index].score) == (
                fresh.winner, fresh.score,
            )
        stats = session.stats()
        assert stats["timeouts"] == 1
        assert stats["anytime_results"] == 1

    def test_timed_out_labeling_run_does_not_poison_its_group(self):
        from repro.session import QueryRequest, QuerySession

        # The doomed request is the group's would-be labeling run (largest
        # r of the ceiling); the next request must simply inherit that role.
        doomed = QueryRequest(
            r=4.9, deadline=Deadline(0.0, clock=ManualClock(step=1.0))
        )
        session = QuerySession(self._collection())
        results = session.query_many([doomed, 4.5, 4.2])
        assert not results[0].exact
        assert results[1].algorithm == "bigrid"          # promoted labeling run
        assert results[2].algorithm == "bigrid-label"    # still reuses labels
        assert results[1].exact and results[2].exact

    def test_deadline_expiring_in_verification_keeps_anytime_answer(self):
        from repro.session import QuerySession

        # Injected latency burns the first request's budget inside
        # verification, where the engine degrades to its verified prefix
        # instead of raising (PR 1 anytime semantics); the session keeps
        # that partial answer and the rest of the batch stays exact.
        injector = from_env("verification:latency:1:400")
        faults.install(injector)
        try:
            session = QuerySession(self._collection())
            results = session.query_many([{"r": 4.5, "timeout_ms": 200}, 4.2])
        finally:
            faults.install(None)
        assert not results[0].exact
        assert results[0].winner >= 0
        assert "anytime" in results[0].notes
        assert results[1].exact
        assert session.stats()["anytime_results"] == 1
        assert session.stats()["timeouts"] == 0


class TestAnytimeKernelParity:
    """Mid-verification expiry must degrade identically across kernels.

    The numpy backend's batched verifier polls the deadline at exactly the
    reference checkpoints (one per dequeued candidate, one per visited
    point group), so a budget that dies mid-batch must cut verification at
    the same candidate and surface the *same* ``exact=False`` anytime
    answer — the verified-prefix/lower-bound fallback — that the pure
    python path produces.
    """

    def _degraded_result(self, kernel):
        from conftest import random_collection
        from repro.session import QuerySession

        # Verification-heavy workload (large r leaves most objects as
        # candidates); injected latency at the first verification
        # checkpoint burns the real budget inside the phase, after the
        # filtering phases completed well within it.
        collection = random_collection(n=40, mean_points=8, seed=77)
        injector = from_env("verification:latency:1:400")
        faults.install(injector)
        try:
            session = QuerySession(collection, kernel=kernel)
            result = session.query_many([{"r": 8.0, "timeout_ms": 200}])[0]
        finally:
            faults.install(None)
        assert not result.exact
        assert "anytime" in result.notes
        assert session.stats()["anytime_results"] == 1
        return result

    def test_vectorized_verification_degrades_like_reference(self):
        from repro.kernels import numpy_kernel_available

        if not numpy_kernel_available():
            pytest.skip("numpy kernel unavailable here")
        ref = self._degraded_result("python")
        got = self._degraded_result("numpy")
        assert (ref.winner, ref.score) == (got.winner, got.score)
        assert ref.algorithm == got.algorithm
        assert ref.counters == got.counters
        # The in-flight candidate died at the first in-phase checkpoint,
        # so both paths fall back to the same unverified prefix.
        assert ref.counters["verified_objects"] == 0
        notes_ref = {k: v for k, v in ref.notes.items()
                     if k not in ("verification_path", "lower_bound_path")}
        notes_got = {k: v for k, v in got.notes.items()
                     if k not in ("verification_path", "lower_bound_path")}
        assert notes_ref == notes_got
