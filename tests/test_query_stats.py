"""Unit tests for the result/stat containers and executor reports."""

import gc

from repro.core.query import MIOResult, PhaseStats
from repro.bench.schedule import CoreReport, gc_paused


class TestPhaseStats:
    def test_add_time_accumulates(self):
        stats = PhaseStats()
        stats.add_time("phase", 0.5)
        stats.add_time("phase", 0.25)
        assert stats.phases["phase"] == 0.75

    def test_add_count_accumulates(self):
        stats = PhaseStats()
        stats.add_count("hits")
        stats.add_count("hits", 4)
        assert stats.counters["hits"] == 5

    def test_set_count_overwrites(self):
        stats = PhaseStats()
        stats.add_count("items", 3)
        stats.set_count("items", 10)
        assert stats.counters["items"] == 10


class TestMIOResult:
    def test_total_time_sums_phases(self):
        result = MIOResult("x", 1.0, 0, 5, phases={"a": 0.5, "b": 0.25})
        assert result.total_time == 0.75

    def test_phase_time_default(self):
        result = MIOResult("x", 1.0, 0, 5)
        assert result.phase_time("missing") == 0.0

    def test_repr_contains_key_facts(self):
        text = repr(MIOResult("bigrid", 2.0, winner=7, score=3))
        assert "bigrid" in text and "winner=7" in text and "score=3" in text

    def test_extra_defaults_empty(self):
        assert MIOResult("x", 1.0, 0, 0).extra == {}


class TestCoreReport:
    def test_makespan_composition(self):
        report = CoreReport(2)
        report.per_core_seconds = [1.0, 4.0]
        report.merge_seconds = 0.5
        report.barrier_seconds = 2.0
        assert report.makespan == 6.5


class TestGcPaused:
    def test_restores_enabled_state(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_respects_already_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_on_exception(self):
        try:
            with gc_paused():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert gc.isenabled()
