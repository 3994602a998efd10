"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import save_collection
from repro.datasets.trajectories import make_trajectories

from conftest import random_collection


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.npz"
    save_collection(path, random_collection(n=25, mean_points=5, seed=121))
    return str(path)


@pytest.fixture
def temporal_file(tmp_path):
    path = tmp_path / "temporal.npz"
    save_collection(path, make_trajectories(n=20, points_per_trajectory=8, seed=3))
    return str(path)


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "gen.npz"
        code = main(["generate", "bird-2", "--scale", "0.05", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "mars", "-o", str(tmp_path / "x.npz")])


class TestStats:
    def test_stats_prints_table(self, dataset_file, capsys):
        assert main(["stats", dataset_file]) == 0
        out = capsys.readouterr().out
        assert "statistic" in out
        assert "nm" in out


class TestQuery:
    def test_basic_query(self, dataset_file, capsys):
        assert main(["query", dataset_file, "-r", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out and "bigrid" in out

    def test_topk_query(self, dataset_file, capsys):
        assert main(["query", dataset_file, "-r", "2.0", "--topk", "3"]) == 0
        out = capsys.readouterr().out
        assert "#1:" in out and "#3:" in out

    def test_temporal_query(self, temporal_file, capsys):
        assert main(["query", temporal_file, "-r", "3.0", "--delta", "2.0"]) == 0
        assert "bigrid-temporal" in capsys.readouterr().out

    def test_temporal_topk_conflict(self, temporal_file, capsys):
        code = main(["query", temporal_file, "-r", "3.0", "--delta", "2.0", "--topk", "3"])
        assert code == 2
        assert "not supported" in capsys.readouterr().err

    def test_sampled_query(self, dataset_file, capsys):
        assert main(["query", dataset_file, "-r", "2.0", "--sample", "0.5"]) == 0

    def test_plain_backend(self, dataset_file):
        assert main(["query", dataset_file, "-r", "2.0", "--backend", "plain"]) == 0


class TestCompare:
    def test_compare_agreement(self, dataset_file, capsys):
        assert main(["compare", dataset_file, "-r", "2.0"]) == 0
        out = capsys.readouterr().out
        for name in ("nl", "sg", "bigrid"):
            assert name in out

    def test_compare_subset(self, dataset_file, capsys):
        code = main(
            ["compare", dataset_file, "-r", "2.0", "--algorithms", "bigrid", "nl-kdtree"]
        )
        assert code == 0
        assert "nl-kdtree" in capsys.readouterr().out


class TestModuleEntry:
    def test_python_dash_m(self, dataset_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", dataset_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "statistic" in proc.stdout


class TestFailureModes:
    """The error taxonomy maps to distinct exit codes; anytime answers are
    flagged; REPRO_FAULTS arms the injector for one process."""

    def test_timeout_exit_code(self, dataset_file, capsys):
        code = main(["query", dataset_file, "-r", "2.0", "--timeout-ms", "0.0001"])
        assert code == 13
        err = capsys.readouterr().err
        assert "QueryTimeout" in err and "grid_mapping" in err

    def test_corrupt_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "mangled.npz"
        path.write_bytes(b"not an archive at all")
        code = main(["query", str(path), "-r", "2.0"])
        assert code == 12
        assert "CorruptDataError" in capsys.readouterr().err

    def test_invalid_query_exit_code(self, dataset_file, capsys):
        code = main(["query", dataset_file, "-r", "-3.0"])
        assert code == 11
        assert "InvalidQueryError" in capsys.readouterr().err

    def test_env_injected_fault_exit_code(self, dataset_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "grid_mapping:fail")
        code = main(["query", dataset_file, "-r", "2.0"])
        assert code == 16
        assert "InjectedFault" in capsys.readouterr().err

    def test_anytime_answer_is_marked_inexact(self, dataset_file, capsys, monkeypatch):
        # Injected latency burns the whole budget before verification, so
        # the deadline expires there and the CLI reports an anytime answer.
        monkeypatch.setenv("REPRO_FAULTS", "verification:latency:1:400")
        code = main(["query", dataset_file, "-r", "2.0", "--timeout-ms", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "inexact (deadline)" in out
        assert "anytime" in out

    def test_faults_env_uninstalled_after_main(self, dataset_file, monkeypatch):
        from repro import faults

        monkeypatch.setenv("REPRO_FAULTS", "io:latency:1:0")
        assert main(["query", dataset_file, "-r", "2.0"]) == 0
        assert faults.active() is None


class TestBatch:
    @pytest.fixture
    def workload_file(self, tmp_path, dataset_file):
        # The dataset path is relative: it must resolve against the
        # workload file's own directory, keeping the pair relocatable.
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({
            "dataset": "data.npz",
            "queries": [4.9, 4.1, {"r": 4.5, "k": 3}],
        }))
        return str(path)

    def test_batch_table_output(self, workload_file, capsys):
        code = main(["batch", workload_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "bigrid-label" in out
        assert "session   :" in out and "3 queries" in out

    def test_batch_stats_json(self, workload_file, capsys):
        code = main(["batch", workload_file, "--stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["r"] for entry in payload["results"]] == [4.9, 4.1, 4.5]
        algorithms = [entry["algorithm"] for entry in payload["results"]]
        assert algorithms == ["bigrid", "bigrid-label", "bigrid-label"]
        assert len(payload["results"][2]["topk"]) == 3
        assert payload["session"]["label_hits"] == 2
        assert all(entry["exact"] for entry in payload["results"])

    def test_batch_timeout_marks_single_request(self, tmp_path, dataset_file, capsys):
        path = tmp_path / "timeout.json"
        path.write_text(json.dumps({
            "dataset": "data.npz",
            "queries": [4.9, {"r": 4.5, "timeout_ms": 0.0001}],
        }))
        code = main(["batch", str(path), "--stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        doomed = payload["results"][1]
        assert not doomed["exact"] and doomed["winner"] == -1
        assert payload["results"][0]["exact"]
        assert payload["session"]["timeouts"] == 1

    def test_batch_backend_override(self, workload_file, capsys):
        code = main(["batch", workload_file, "--backend", "roaring"])
        assert code == 0
        assert "roaring" in capsys.readouterr().out

    @pytest.mark.parametrize("body", [
        "not json at all",
        '["just", "a", "list"]',
        '{"queries": [1.0]}',
        '{"dataset": "data.npz", "queries": []}',
    ])
    def test_malformed_workload_exit_code(self, tmp_path, capsys, body):
        # Malformed workload *content* is the caller's bug: exit 11
        # (InvalidQueryError), never a raw traceback.  Only an unreadable
        # file (below) is corrupt-data territory.
        path = tmp_path / "bad.json"
        path.write_text(body)
        code = main(["batch", str(path)])
        assert code == 11
        assert "InvalidQueryError" in capsys.readouterr().err

    def test_missing_workload_exit_code(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "absent.json")])
        assert code == 12

    def test_invalid_request_exit_code(self, tmp_path, dataset_file, capsys):
        path = tmp_path / "bad_request.json"
        path.write_text(json.dumps({
            "dataset": "data.npz", "queries": [{"r": -1.0}],
        }))
        code = main(["batch", str(path)])
        assert code == 11
        assert "InvalidQueryError" in capsys.readouterr().err

    def test_non_numeric_request_field_exit_code(self, tmp_path, dataset_file, capsys):
        # A junk value inside an otherwise well-formed workload must come
        # out as InvalidQueryError too, not as a float() traceback.
        path = tmp_path / "junk_field.json"
        path.write_text(json.dumps({
            "dataset": "data.npz", "queries": [{"r": "abc"}],
        }))
        code = main(["batch", str(path)])
        assert code == 11
        err = capsys.readouterr().err
        assert "InvalidQueryError" in err and "Traceback" not in err
