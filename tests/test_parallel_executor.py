"""Tests for the schedule study's simulated-makespan executor."""

import time

import pytest

from repro.bench.schedule import CoreReport, SimulatedExecutor


class TestSimulatedExecutor:
    def test_results_in_task_order(self):
        executor = SimulatedExecutor(2)
        tasks = [lambda value=v: value for v in range(5)]
        results, _report = executor.run(tasks, [0, 1, 0, 1, 0])
        assert results == [0, 1, 2, 3, 4]

    def test_costs_charged_to_assigned_core(self):
        executor = SimulatedExecutor(2)

        def busy():
            deadline = time.perf_counter() + 0.003
            while time.perf_counter() < deadline:
                pass

        _, report = executor.run([busy, busy], [0, 0])
        assert report.per_core_seconds[0] >= 0.005
        assert report.per_core_seconds[1] == 0.0
        assert report.serial_seconds >= report.per_core_seconds[0]

    def test_makespan_is_max_core_plus_merge(self):
        report = CoreReport(3)
        report.per_core_seconds = [1.0, 3.0, 2.0]
        report.merge_seconds = 0.5
        assert report.makespan == 3.5

    def test_barrier_seconds_add(self):
        report = CoreReport(2)
        report.barrier_seconds = 2.0
        report.per_core_seconds = [1.0, 0.0]
        assert report.makespan == 3.0

    def test_merge_is_timed(self):
        executor = SimulatedExecutor(2)

        def merge():
            deadline = time.perf_counter() + 0.002
            while time.perf_counter() < deadline:
                pass

        _, report = executor.run([lambda: None], [0], merge=merge)
        assert report.merge_seconds >= 0.002

    def test_mismatched_assignment_rejected(self):
        with pytest.raises(ValueError):
            SimulatedExecutor(2).run([lambda: 1], [0, 1])

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            SimulatedExecutor(0)

    def test_speedup_of_balanced_schedule(self):
        executor = SimulatedExecutor(4)

        def busy():
            deadline = time.perf_counter() + 0.002
            while time.perf_counter() < deadline:
                pass

        _, report = executor.run([busy] * 8, [0, 1, 2, 3, 0, 1, 2, 3])
        # Serial cost over makespan: ideally ~4.
        assert report.serial_seconds / report.makespan > 2.0
