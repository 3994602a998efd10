"""Cross-module integration tests: whole-workflow behaviours."""

import numpy as np
import pytest

from repro import (
    LabelStore,
    MIOEngine,
    NestedLoopAlgorithm,
    ParallelMIOEngine,
    SimpleGridAlgorithm,
)
from repro.bench import format_series, format_table, run_algorithm
from repro.datasets import load_dataset, sample_collection

from conftest import oracle_scores, random_collection


class TestRSweepBehaviour:
    def test_scores_monotone_in_r(self):
        """A larger threshold can only add interactions (Definition 1)."""
        collection = random_collection(n=30, mean_points=6, seed=101)
        engine = MIOEngine(collection)
        scores = [engine.query(r).score for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert scores == sorted(scores)

    def test_all_algorithms_agree_across_r_sweep(self):
        collection = random_collection(n=25, mean_points=5, seed=102)
        engine = MIOEngine(collection)
        nl = NestedLoopAlgorithm(collection)
        sg = SimpleGridAlgorithm(collection)
        for r in (1.0, 2.0, 3.0, 5.0):
            expected = nl.query(r).score
            assert engine.query(r).score == expected
            assert sg.query(r).score == expected

    def test_grid_cells_shrink_with_r(self):
        collection = random_collection(n=30, mean_points=6, seed=103)
        engine = MIOEngine(collection)
        small_r = engine.query(0.5).counters["small_cells"]
        large_r = engine.query(5.0).counters["small_cells"]
        assert large_r < small_r


class TestLabelWorkflow:
    def test_fine_grained_sweep_with_shared_ceiling(self):
        """The Section III-D scenario: analysts sweep fine-grained r values."""
        collection = random_collection(n=30, mean_points=7, seed=104)
        store = LabelStore()
        engine = MIOEngine(collection, label_store=store)
        sweep = [3.9, 3.2, 3.5, 3.8]  # all ceil to 4
        results = [engine.query(r) for r in sweep]
        assert results[0].algorithm == "bigrid"
        assert all(result.algorithm == "bigrid-label" for result in results[1:])
        for r, result in zip(sweep, results):
            assert result.score == max(oracle_scores(collection, r))


class TestDatasetPipeline:
    def test_registry_dataset_end_to_end(self):
        collection = load_dataset("bird-2", scale=0.08, seed=3)
        truth = oracle_scores(collection, 6.0)
        result = MIOEngine(collection).query(6.0)
        assert result.score == max(truth)

    def test_sampled_dataset_end_to_end(self):
        collection = sample_collection(load_dataset("syn", scale=0.05, seed=3), 0.5, seed=1)
        truth = oracle_scores(collection, 6.0)
        assert MIOEngine(collection).query(6.0).score == max(truth)


class TestBenchHarness:
    @pytest.mark.parametrize("name", ["nl", "nl-kdtree", "sg", "bigrid", "theoretical"])
    def test_run_algorithm(self, name):
        collection = random_collection(n=15, mean_points=5, seed=105)
        record = run_algorithm(name, collection, 2.0, dataset="test")
        assert record.algorithm == name
        assert record.seconds > 0
        assert record.score == max(oracle_scores(collection, 2.0))

    def test_bigrid_label_needs_prior_labels(self):
        collection = random_collection(n=10, mean_points=4, seed=106)
        with pytest.raises(ValueError):
            run_algorithm("bigrid-label", collection, 2.0)
        store = LabelStore()
        with pytest.raises(RuntimeError):
            run_algorithm("bigrid-label", collection, 2.0, label_store=store)
        run_algorithm("bigrid", collection, 2.0, label_store=store)
        record = run_algorithm("bigrid-label", collection, 2.0, label_store=store)
        assert record.algorithm == "bigrid-label"

    def test_unknown_algorithm(self):
        collection = random_collection(n=5, mean_points=3, seed=107)
        with pytest.raises(ValueError):
            run_algorithm("quantum", collection, 1.0)

    def test_memory_kib(self):
        collection = random_collection(n=10, mean_points=4, seed=108)
        record = run_algorithm("bigrid", collection, 2.0)
        assert record.memory_kib == pytest.approx(record.memory_bytes / 1024.0)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]], title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "0.0010" in text

    def test_format_series(self):
        text = format_series("r", [1, 2], {"nl": [0.5, 0.25], "bigrid": [0.1, 0.05]})
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "r"
        assert len(lines) == 4  # header, separator, two rows

    def test_format_series_handles_short_columns(self):
        text = format_series("x", [1, 2, 3], {"s": [9]})
        assert "-" in text.splitlines()[-1]


class TestSerialParallelConsistency:
    def test_serial_and_parallel_and_labels_all_agree(self):
        collection = random_collection(n=30, mean_points=6, seed=109)
        r = 2.0
        store = LabelStore()
        serial = MIOEngine(collection, label_store=store).query(r)
        labeled = MIOEngine(collection, label_store=store).query(r)
        parallel = ParallelMIOEngine(collection, cores=4).query(r)
        assert serial.score == labeled.score == parallel.score

    def test_backends_agree_everywhere(self):
        collection = random_collection(n=20, mean_points=5, seed=110)
        for r in (1.0, 3.0):
            assert (
                MIOEngine(collection, backend="ewah").query(r).score
                == MIOEngine(collection, backend="plain").query(r).score
            )


class TestDegenerateInputs:
    def test_single_pair_collection(self):
        from repro.core.objects import ObjectCollection

        collection = ObjectCollection.from_point_arrays(
            [np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]])]
        )
        assert MIOEngine(collection).query(1.0).score == 1
        assert MIOEngine(collection).query(0.1).score == 0

    def test_all_objects_identical(self):
        from repro.core.objects import ObjectCollection

        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        collection = ObjectCollection.from_point_arrays([points.copy() for _ in range(6)])
        result = MIOEngine(collection).query(0.5)
        assert result.score == 5

    def test_collinear_objects_on_cell_boundaries(self):
        from repro.core.objects import ObjectCollection

        # Points placed exactly on multiples of the large cell width.
        collection = ObjectCollection.from_point_arrays(
            [np.array([[float(4 * i), 0.0]]) for i in range(6)]
        )
        truth = oracle_scores(collection, 4.0)
        assert MIOEngine(collection).query(4.0).score == max(truth)
