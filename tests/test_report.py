"""`repro report`: profile aggregation and bench-floor regression checks.

The committed ``benchmarks/results/BENCH_*.json`` artifacts must pass
their own floors (otherwise CI's smoke gate would be red on a clean
tree), and tampered copies must trip them -- the regression detector is
only trustworthy if both directions are exercised.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import CorruptDataError, InvalidQueryError
from repro.obs.telemetry.report import (
    check_bench_artifact,
    check_bench_artifacts,
    compare_to_kernel_artifact,
    load_profiles,
    percentile,
    render_summary,
    summarize,
)

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
ARTIFACTS = sorted(str(p) for p in RESULTS.glob("BENCH_*.json"))

#: A minimal valid provenance stamp for synthetic artifacts.
PROVENANCE = {"cpu_count": 4, "cores": 1, "parallel_mode": "serial", "shards": 0}


def profile_line(
    engine="serial", seconds=0.002, exact=True, sampled=False,
    phases=None, counters=None, notes=None, trace_id="trace-1",
):
    return {
        "trace_id": trace_id, "ts": 100.0, "engine": engine,
        "algorithm": "bigrid", "r": 4.0, "k": 1, "ceil_r": 0, "n": 30,
        "seconds": seconds, "exact": exact, "sampled": sampled,
        "phases": phases if phases is not None else {
            "grid_mapping": seconds / 2, "verification": seconds / 2,
        },
        "counters": counters if counters is not None else {
            "candidates_total": 10, "candidates_settled": 6,
        },
        "notes": notes if notes is not None else {},
        "memory_bytes": 4096,
    }


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return str(path)


class TestPercentile:
    def test_nearest_rank_is_exact(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.90) == 90.0
        assert percentile(values, 0.99) == 100.0
        assert percentile(values, 1.00) == 100.0

    def test_order_insensitive_and_single_element(self):
        assert percentile([30.0, 10.0, 20.0], 0.5) == 20.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_sequence_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestLoadProfiles:
    def test_reads_a_clean_log(self, tmp_path):
        path = write_jsonl(tmp_path / "p.jsonl", [profile_line(), profile_line()])
        profiles, skipped = load_profiles(path)
        assert len(profiles) == 2 and skipped == 0

    def test_malformed_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps(profile_line()) + "\n"
            + "{truncated by a crash\n"
            + "\n"                       # blank lines are ignored entirely
            + '"not a dict"\n'
            + json.dumps({"no": "seconds key"}) + "\n"
            + json.dumps(profile_line(trace_id="trace-2")) + "\n"
        )
        profiles, skipped = load_profiles(str(path))
        assert [p["trace_id"] for p in profiles] == ["trace-1", "trace-2"]
        assert skipped == 3


class TestSummarize:
    def test_per_engine_percentiles_funnel_cache_and_paths(self):
        profiles = [
            profile_line(
                seconds=0.001 * (index + 1),
                counters={
                    "candidates_total": 10, "candidates_settled": 5,
                    "lower_cache_hit": 1 if index else 0,
                },
                notes={"verification_path": "numpy-fused",
                       "lower_bound_path": "numpy-seq"},
                sampled=(index == 0),
            )
            for index in range(4)
        ] + [profile_line(engine="session", seconds=0.5, exact=False)]
        summary = summarize(profiles)
        assert summary["profiles"] == 5
        serial = summary["engines"]["serial"]
        assert serial["queries"] == 4
        assert serial["sampled"] == 1 and serial["degraded"] == 0
        assert serial["seconds"]["p50"] == 0.002
        assert serial["seconds"]["p99"] == 0.004
        assert serial["seconds"]["max"] == 0.004
        assert serial["funnel"] == {
            "candidates_total": 40, "candidates_settled": 20, "settle_ratio": 0.5,
        }
        assert serial["cache"]["lower_cache_hit_ratio"] == 0.75
        assert serial["kernel_paths"] == {
            "verification_path": {"numpy-fused": 4},
            "lower_bound_path": {"numpy-seq": 4},
        }
        session = summary["engines"]["session"]
        assert session["degraded"] == 1
        assert session["funnel"]["settle_ratio"] == 0.6

    def test_phase_percentiles_come_from_the_phase_dicts(self):
        profiles = [
            profile_line(phases={"verification": 0.010}),
            profile_line(phases={"verification": 0.030}),
        ]
        phases = summarize(profiles)["engines"]["serial"]["phases"]
        assert phases["verification"]["p50"] == 0.010
        assert phases["verification"]["p99"] == 0.030
        assert phases["verification"]["count"] == 2

    def test_render_mentions_everything_load_bearing(self):
        summary = summarize([profile_line(notes={"verification_path": "numpy-fused"})])
        text = render_summary(summary, skipped=2)
        assert "profiles: 1 (skipped 2 malformed lines)" in text
        assert "engine serial" in text
        assert "end-to-end" in text and "p99=" in text
        assert "verification_path: numpy-fused=1" in text
        assert "funnel: 6/10" in text


class TestBenchFloors:
    def test_committed_artifacts_pass_their_floors(self):
        assert len(ARTIFACTS) == 3, "expected the three committed BENCH artifacts"
        assert check_bench_artifacts(ARTIFACTS) == []

    def test_committed_artifacts_all_carry_provenance(self):
        for path in ARTIFACTS:
            data = json.loads(Path(path).read_text())
            prov = data["provenance"]
            assert set(prov) >= {"cpu_count", "cores", "parallel_mode", "shards"}
            assert prov["cpu_count"] >= 1

    def test_tampered_kernel_phase_speedup_is_flagged(self, tmp_path):
        data = json.loads((RESULTS / "BENCH_kernel_speedup.json").read_text())
        data["workloads"][0]["phase_speedups"]["verification"] = 0.5
        tampered = tmp_path / "BENCH_kernel_speedup.json"
        tampered.write_text(json.dumps(data))
        failures = check_bench_artifact(str(tampered))
        assert any("verification speedup 0.5x" in f for f in failures)

    def test_tampered_headline_speedup_is_flagged(self, tmp_path):
        data = json.loads((RESULTS / "BENCH_kernel_speedup.json").read_text())
        for point in data["workloads"]:
            point["speedup"] = 1.0
        tampered = tmp_path / "k.json"
        tampered.write_text(json.dumps(data))
        failures = check_bench_artifact(str(tampered))
        assert any("headline target" in f for f in failures)
        assert any("s=0.5" in f for f in failures)

    def test_tampered_batch_reuse_is_flagged(self, tmp_path):
        tampered = tmp_path / "b.json"
        tampered.write_text(json.dumps(
            {"bench": "batch_reuse", "speedup": 0.9, "provenance": PROVENANCE}
        ))
        failures = check_bench_artifact(str(tampered))
        assert failures and "batch_reuse" in failures[0]

    def test_missing_provenance_is_flagged(self, tmp_path):
        bare = tmp_path / "b.json"
        bare.write_text(json.dumps({"bench": "batch_reuse", "speedup": 9.0}))
        failures = check_bench_artifact(str(bare))
        assert any("provenance" in f for f in failures)
        partial = tmp_path / "p.json"
        partial.write_text(json.dumps({
            "bench": "batch_reuse", "speedup": 9.0,
            "provenance": {"cpu_count": 4},
        }))
        failures = check_bench_artifact(str(partial))
        assert any("provenance missing cores" in f for f in failures)

    def test_service_p99_and_errors_floors(self, tmp_path):
        base = {
            "deadline_ms": 2000.0,
            "steady": {"p99_ms": 2100.0, "errors": 0},
            "overload": {"p99_ms": 2900.0, "errors": 0},
            "provenance": PROVENANCE,
        }
        clean = tmp_path / "s.json"
        clean.write_text(json.dumps(base))
        assert check_bench_artifact(str(clean)) == []
        base["overload"] = {"p99_ms": 60_000.0, "errors": 3}
        bad = tmp_path / "s_bad.json"
        bad.write_text(json.dumps(base))
        failures = check_bench_artifact(str(bad))
        assert any("hard errors" in f for f in failures)
        assert any("p99" in f for f in failures)

    def test_margin_is_applied_to_every_floor(self, tmp_path):
        # speedup 1.0 fails the 1.2x batch floor at margin 1.0 but passes
        # at the default 0.8 (1.2 * 0.8 = 0.96 <= 1.0).
        artifact = tmp_path / "b.json"
        artifact.write_text(json.dumps(
            {"bench": "batch_reuse", "speedup": 1.0, "provenance": PROVENANCE}
        ))
        assert check_bench_artifact(str(artifact), margin=0.8) == []
        assert check_bench_artifact(str(artifact), margin=1.0) != []

    def test_unrecognized_schema_and_unreadable_file_are_failures(self, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"bench": "mystery"}))
        assert "unrecognized artifact schema" in check_bench_artifact(str(odd))[0]
        assert "unreadable artifact" in check_bench_artifact(
            str(tmp_path / "missing.json")
        )[0]


class TestCompareToArtifact:
    def test_live_p50_within_tolerance_passes(self):
        summary = summarize([profile_line(phases={"verification": 0.001})])
        assert compare_to_kernel_artifact(
            summary, str(RESULTS / "BENCH_kernel_speedup.json")
        ) == []

    def test_pathological_live_slowdown_is_flagged(self):
        summary = summarize([profile_line(phases={"verification": 3600.0})])
        failures = compare_to_kernel_artifact(
            summary, str(RESULTS / "BENCH_kernel_speedup.json"), max_slowdown=25.0
        )
        assert failures and "verification" in failures[0]


class TestReportCli:
    def test_no_inputs_is_an_invalid_query(self, capsys):
        assert main(["report"]) == InvalidQueryError.exit_code
        assert "InvalidQueryError" in capsys.readouterr().err

    def test_empty_profile_log_is_corrupt_data(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == CorruptDataError.exit_code
        assert "no valid profile lines" in capsys.readouterr().err

    def test_text_and_json_summaries(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "p.jsonl", [profile_line(), profile_line()])
        assert main(["report", path]) == 0
        assert "engine serial" in capsys.readouterr().out
        assert main(["report", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["profiles"] == 2

    def test_check_bench_passes_on_the_committed_artifacts(self, capsys):
        assert main(["report", "--check-bench", *ARTIFACTS]) == 0
        out = capsys.readouterr().out
        assert "all floors hold" in out

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        data = json.loads((RESULTS / "BENCH_kernel_speedup.json").read_text())
        data["workloads"][0]["phase_speedups"]["verification"] = 0.5
        tampered = tmp_path / "BENCH_kernel_speedup.json"
        tampered.write_text(json.dumps(data))
        assert main(["report", "--check-bench", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION: 1 floor(s) violated" in err
        assert "verification" in err

    def test_against_flags_only_pathological_drift(self, tmp_path, capsys):
        artifact = str(RESULTS / "BENCH_kernel_speedup.json")
        fast = write_jsonl(
            tmp_path / "fast.jsonl", [profile_line(phases={"verification": 0.001})]
        )
        assert main(["report", fast, "--against", artifact]) == 0
        capsys.readouterr()
        slow = write_jsonl(
            tmp_path / "slow.jsonl", [profile_line(phases={"verification": 3600.0})]
        )
        assert main(["report", slow, "--against", artifact]) == 1
        assert "REGRESSION" in capsys.readouterr().err
