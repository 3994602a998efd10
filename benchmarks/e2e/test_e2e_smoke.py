"""Self-test of the end-to-end benchmark (outside the tier-1 test paths).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

One ``--smoke --trace 1`` run of every workload (about 25 s on 2 CPUs)
backs the catalog tests; the oracle tests need no run at all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from oracle import ScoreOracle, check_answer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(out.read_text())["runs"], json.loads(done.stdout.strip().splitlines()[-1])


def _run(runs, workload, trace):
    [run] = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
    return run


def test_every_catalog_metric_is_emitted_with_its_unit(smoke):
    runs, summary = smoke
    assert summary["correct"] and summary["failed"] == 0
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, catalog in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            run = _run(runs, workload, trace)
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            emitted = {name: metric["unit"] for name, metric in run["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in catalog}


def test_end_to_end_metrics_are_never_zero(smoke):
    runs, _ = smoke
    for run in runs:
        if run["trace"] == 0:
            assert all(metric["value"] > 0 for metric in run["metrics"].values()), run["workload"]


def test_provenance_is_complete(smoke):
    runs, _ = smoke
    for run in runs:
        provenance = run["provenance"]
        for key in ("commit", "dirty", "python", "numpy", "scipy", "cpu_count", "kernel",
                    "seed", "serve_rate_per_s"):
            assert key in provenance, key
        assert provenance["seed"] == 3 and run["params"]


def test_layers_sum_to_the_measured_wall(smoke):
    runs, _ = smoke
    for workload in (w["name"] for w in BENCH["workloads"]):
        metrics = {k: m["value"] for k, m in _run(runs, workload, 1)["metrics"].items()}
        wall = metrics["loadgen.traced_wall_ms"]
        shard = ("shard.route_ms", "shard.execute_ms", "shard.merge_ms")
        layers = [k for k in metrics if k.startswith("pipeline.") and k.endswith("_ms")]
        assert sum(metrics[k] for k in layers + list(shard)) == pytest.approx(wall, rel=0.01)
        if workload == "sharded-sweep":
            total = sum(metrics[k] for k in shard) + metrics["shard.dispatch_unaccounted_ms"]
            assert total == pytest.approx(wall, rel=0.01)


def test_oracle_matches_the_reference_and_flags_corrupted_answers():
    from repro import MIOEngine, make_trajectories
    from repro.baselines.nested_loop import brute_force_scores

    collection = make_trajectories(n=40, points_per_trajectory=10, seed=5)
    tau = ScoreOracle([obj.points for obj in collection], r_max=10.0).scores(3.0)
    assert tau.tolist() == brute_force_scores(collection, 3.0)

    result = MIOEngine(collection).query_topk(3.0, 3)
    assert check_answer(tau, result.winner, result.score, result.topk, 3) is None
    loser = int(np.argmin(tau))
    assert check_answer(tau, result.winner, result.score + 1) is not None
    assert check_answer(tau, loser, result.score) is not None
    swapped = [result.topk[0], (loser, result.topk[1][1]), result.topk[2]]
    assert check_answer(tau, result.winner, result.score, swapped, 3) is not None
    understated = result.topk[:2] + [(result.topk[2][0], result.topk[2][1] - 1)]
    assert check_answer(tau, result.winner, result.score, understated, 3) is not None


def test_host_speed_scales_each_moment_by_its_nearest_probes():
    from hostspeed import REFERENCE_MS, SPAN, HostSpeed

    slow = [(float(t), 2.0 * REFERENCE_MS) for t in range(SPAN)]
    fast = [(100.0 + t, REFERENCE_MS) for t in range(SPAN)]
    speed = HostSpeed(fast + slow)
    assert speed.scale(SPAN / 2.0) == 0.5
    assert speed.scale(100.0 + SPAN / 2.0) == 1.0
    assert speed.scale(1e9) == 1.0
    with pytest.raises(ValueError):
        HostSpeed([])


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark files: nonzero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCH["command"], "--workload", "cold-sweep", "--seed", "1",
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _session_members(sid):
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # state, ppid, pgrp, session
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_behind():
    """The sharded pool and its resource tracker end with the run."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "sharded-sweep", "--seed", "3",
         "--smoke", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT,
        start_new_session=True,
    )
    assert process.wait(timeout=180) == 0
    assert _session_members(process.pid) == []


def _result_file(path, seconds=30.0, failed=0, scale=1.0):
    runs = [
        {"workload": "cold-sweep", "seed": seed, "trace": 0, "seconds": seconds,
         "smoke": False, "attempted": 200, "failed": failed, "provenance": {},
         "metrics": {m["name"]: {"value": (100.0 + seed) * scale, "unit": m["unit"]}
                     for m in BENCH["end_to_end"]}}
        for seed in range(1, 11)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_applies_the_bounds_and_refuses_mismatched_runs(tmp_path):
    def compare(a, b):
        return subprocess.run([sys.executable, str(HERE / "run.py"), "compare", a, b],
                              capture_output=True, text=True, timeout=60)

    parent = _result_file(tmp_path / "a.json")
    assert compare(parent, _result_file(tmp_path / "same.json")).returncode == 0
    # Every run 5% worse: inside every bound, but a steady loss.
    near = compare(parent, _result_file(tmp_path / "near.json", scale=1.05))
    assert near.returncode == 0 and "worse-in-bound" in near.stdout
    # Every run 30% worse: outside every bound.
    assert compare(parent, _result_file(tmp_path / "far.json", scale=1.3)).returncode == 1
    assert compare(parent, _result_file(tmp_path / "failed.json", failed=1)).returncode == 1
    assert compare(parent, _result_file(tmp_path / "short.json", seconds=5.0)).returncode == 2
