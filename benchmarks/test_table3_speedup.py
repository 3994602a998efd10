"""Table III: speedup ratio against the single-core run.

BIGrid and BIGrid-label on the Neuron and Bird analogues (the paper's
Table III datasets), t in {1, 2, 4, 6, 8, 10, 12}.  Paper shapes asserted:

* speedup grows monotonically (within noise) with the core count;
* speedup is sublinear (merging and barriers bound it, as in the paper's
  5-6x at t=12);
* every configuration returns the exact answer.
"""

import pytest

from repro.bench.reporting import format_series
from repro.bench.schedule import simulate_query
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore

from conftest import DEFAULT_R, best_of

CORE_COUNTS = [1, 2, 4, 6, 8, 10, 12]
TABLE3_DATASETS = ("neuron", "bird")


@pytest.mark.parametrize("dataset_name", TABLE3_DATASETS)
def test_table3_speedup(dataset_name, datasets, report, benchmark):
    collection = datasets[dataset_name]
    store = LabelStore()
    expected = MIOEngine(collection, label_store=store).query(DEFAULT_R).score

    def sweep():
        # Warm-up: the very first query pays cache/allocator warm-up that
        # would otherwise inflate the t=1 baseline (and fake superlinear
        # speedups).
        simulate_query(collection, DEFAULT_R, 1)
        speedups = {"bigrid": [], "bigrid-label": []}
        base = {}
        for cores in CORE_COUNTS:
            for name, kwargs in (
                ("bigrid", {}),
                ("bigrid-label", {"label_store": store}),
            ):
                def run_once(name=name, kwargs=kwargs, cores=cores):
                    result = simulate_query(
                        collection, DEFAULT_R, cores, **kwargs
                    )
                    assert result.score == expected
                    return result.total_time

                elapsed = best_of(run_once)
                if cores == 1:
                    base[name] = elapsed
                speedups[name].append(base[name] / elapsed)
        return speedups

    speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        f"table3_speedup_{dataset_name}",
        format_series(
            "t",
            CORE_COUNTS,
            {name: [round(v, 3) for v in values] for name, values in speedups.items()},
            title=f"Table III analogue ({dataset_name}): speedup vs single core",
        ),
    )

    for name, values in speedups.items():
        # More cores help: t=12 clearly beats t=2, t=2 beats t=1.
        assert values[1] > 1.2, name
        assert values[-1] > values[1], name
        # But sublinearly (barriers, merges, serial residue); the margin
        # absorbs residual noise between the baseline and t=12 runs.
        assert values[-1] < CORE_COUNTS[-1] * 1.1, name
