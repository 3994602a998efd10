"""Observability wired through the engines, session, harness, and CLI.

The load-bearing guarantees:

* tracing is non-intrusive — a traced query returns the *same*
  ``MIOResult`` (answer, phases structure, counters) as an untraced one,
  on every backend and engine;
* the span tree is the phase breakdown — per-phase durations read off the
  trace sum to ``MIOResult.total_time`` exactly (the engines derive
  ``phases`` from the trace when one is attached);
* the registry sees every subsystem: engines, the three cache tiers,
  deadlines, mutations.
"""

import json

import pytest

from repro.bench.harness import run_algorithm
from repro.bench.schedule import simulate_query
from repro.cli import main
from repro.core.engine import MIOEngine
from repro.kernels import numpy_kernel_available
from repro.obs import metrics as obs_metrics
from repro.obs.export import validate_prometheus_text
from repro.obs.trace import PHASE_SPAN_NAMES, Tracer, phase_durations
from repro.parallel.engine import ParallelMIOEngine
from repro.session import QuerySession

from conftest import random_collection

BACKENDS = ("ewah", "plain", "roaring")
R = 4.0


def answer(result):
    """The caller-visible content of a result, excluding timings."""
    return (
        result.algorithm,
        result.winner,
        result.score,
        result.topk,
        result.exact,
        sorted(result.phases),
        result.counters,
        result.memory_bytes,
    )


@pytest.fixture
def collection():
    return random_collection(n=30, mean_points=8, seed=21)


class TestTracingIsNonIntrusive:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serial_traced_equals_untraced(self, collection, backend, fresh_registry):
        untraced = MIOEngine(collection, backend=backend).query(R)
        tracer = Tracer()
        traced = MIOEngine(collection, backend=backend, tracer=tracer).query(R)
        assert answer(traced) == answer(untraced)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_traced_equals_untraced(self, collection, backend, fresh_registry):
        untraced = ParallelMIOEngine(collection, cores=3, backend=backend).query(R)
        tracer = Tracer()
        traced = ParallelMIOEngine(
            collection, cores=3, backend=backend, tracer=tracer
        ).query(R)
        assert answer(traced) == answer(untraced)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_traced_equals_untraced(self, collection, backend, fresh_registry):
        workload = [4.9, 4.1, {"r": 4.5, "k": 3}]
        untraced = QuerySession(collection, backend=backend).query_many(workload)
        traced = QuerySession(
            collection, backend=backend, tracer=Tracer()
        ).query_many(workload)
        assert [answer(t) for t in traced] == [answer(u) for u in untraced]

    def test_topk_traced_equals_untraced(self, collection, fresh_registry):
        untraced = MIOEngine(collection).query_topk(R, 4)
        traced = MIOEngine(collection, tracer=Tracer()).query_topk(R, 4)
        assert answer(traced) == answer(untraced)


class TestTraceIsThePhaseBreakdown:
    def test_serial_phases_are_derived_from_the_trace(self, collection, fresh_registry):
        tracer = Tracer()
        result = MIOEngine(collection, tracer=tracer).query(R)
        root = tracer.root
        assert root.name == "query"
        assert result.phases == phase_durations(root)
        assert sum(result.phases.values()) == pytest.approx(
            result.total_time, rel=0.01
        )
        assert all(name in PHASE_SPAN_NAMES for name in result.phases)

    def test_sharded_phases_match_the_trace(self, collection, fresh_registry):
        tracer = Tracer()
        result = ParallelMIOEngine(collection, cores=4, tracer=tracer).query(R)
        assert result.phases == phase_durations(tracer.root)
        assert set(result.phases) == {
            "grid_mapping", "lower_bounding", "upper_bounding", "verification",
        }
        # Wall-clock phases: the root span covers at least their sum.
        assert tracer.root.duration >= result.total_time

    def test_label_reuse_appears_as_label_io_spans(self, collection, fresh_registry):
        from repro.core.labels import LabelStore

        store = LabelStore()
        tracer = Tracer()
        engine = MIOEngine(collection, label_store=store, tracer=tracer)
        engine.query(4.9)  # labeling run: writes labels
        engine.query(4.1)  # with-label run: reads them
        labeling_root, with_label_root = tracer.roots
        assert "label_output" in phase_durations(labeling_root)
        assert "label_input" in phase_durations(with_label_root)

    def test_batch_span_tree_shape(self, collection, fresh_registry):
        tracer = Tracer()
        session = QuerySession(collection, cores=2, tracer=tracer)
        session.query_many([4.9, 4.1, 4.3])
        (batch,) = [root for root in tracer.roots if root.name == "batch"]
        assert batch.attributes["size"] == 3
        assert [child.name for child in batch.children] == ["request"] * 3
        batch_id = batch.attributes["batch_id"]
        for request in batch.children:
            assert request.attributes["batch_id"] == batch_id
            (query,) = request.children
            assert query.name == "query"

    def test_harness_traces_baselines_from_reported_phases(
        self, collection, fresh_registry
    ):
        tracer = Tracer()
        record = run_algorithm("sg", collection, R, tracer=tracer)
        root = tracer.root
        assert root.name == "algorithm"
        assert root.attributes["algorithm"] == "sg"
        assert root.duration == pytest.approx(record.seconds)
        assert {child.name for child in root.children} == set(record.phases)

    def test_bench_record_to_record_carries_phases(self, collection, fresh_registry):
        record = run_algorithm("bigrid", collection, R, dataset="test")
        payload = record.to_record()
        assert payload["algorithm"] == "bigrid"
        assert payload["winner"] == record.winner
        assert set(payload["phases"]) == set(record.phases)
        assert payload["memory_bytes"] > 0
        json.dumps(payload)  # must be JSON-serializable as-is


class TestMemoryReporting:
    def test_serial_reports_index_memory_like_its_peers(self, collection):
        serial = MIOEngine(collection).query(R)
        simulated = simulate_query(collection, R, 2)
        baseline = run_algorithm("sg", collection, R)
        assert serial.memory_bytes > 0
        assert simulated.memory_bytes > 0
        assert baseline.memory_bytes > 0
        # The serial engine and the schedule study build the same BIGrid
        # for the same query.
        assert serial.memory_bytes == simulated.memory_bytes


class TestRegistryFeeds:
    def test_engines_feed_queries_and_phase_histograms(self, collection, fresh_registry):
        MIOEngine(collection).query(R)
        # The former multi-core name is the serial engine.
        ParallelMIOEngine(collection, cores=2).query(R)
        queries = fresh_registry.get("repro_queries_total")
        assert queries.value(engine="serial", algorithm="bigrid") == 2
        latency = fresh_registry.get("repro_query_seconds")
        assert latency.snapshot(engine="serial")["count"] == 2
        assert fresh_registry.get("repro_phase_seconds") is not None

    @pytest.mark.skipif(
        not numpy_kernel_available(), reason="numpy kernel unavailable here"
    )
    def test_all_three_cache_tiers_report(self, collection, fresh_registry):
        # The numpy kernel keeps grids resident (the reference never does).
        session = QuerySession(collection, kernel="numpy")
        session.query_many([4.9, 4.1, 4.1])
        requests = fresh_registry.get("repro_cache_requests_total")
        assert requests.value(tier="labels", outcome="miss") >= 1
        assert requests.value(tier="labels", outcome="hit") >= 1
        assert requests.value(tier="grids", outcome="miss") >= 1
        assert requests.value(tier="grids", outcome="hit") >= 1
        # Same exact r repeated: the lower-bound tier hits too.
        assert requests.value(tier="lower_bounds", outcome="hit") >= 1
        assert requests.value(tier="lower_bounds", outcome="miss") >= 1

    def test_invalidations_report_per_tier(self, collection, fresh_registry):
        session = QuerySession(collection)
        session.query(R)
        session.invalidate()
        invalidations = fresh_registry.get("repro_cache_invalidations_total")
        for tier in ("labels", "grids", "lower_bounds"):
            assert invalidations.value(tier=tier) == 1

    def test_deadline_expiry_and_mutations_report(self, fresh_registry):
        import numpy as np

        from repro.dynamic import DynamicMIO
        from repro.errors import QueryTimeout
        from repro.resilience import Deadline, ManualClock

        deadline = Deadline(1.0, clock=ManualClock(step=2.0))
        with pytest.raises(QueryTimeout):
            deadline.check("verification")
        expirations = fresh_registry.get("repro_deadline_expirations_total")
        assert expirations.value(phase="verification") == 1

        dynamic = DynamicMIO()
        handle = dynamic.add_object(np.array([[0.0, 0.0]]))
        dynamic.remove_object(handle)
        mutations = fresh_registry.get("repro_mutations_total")
        assert mutations.value(op="add") == 1
        assert mutations.value(op="remove") == 1

    def test_injected_faults_report(self, collection, fresh_registry):
        from repro.errors import InjectedFault
        from repro.faults import FaultInjector, FaultSpec, injected

        with injected(FaultInjector([FaultSpec("verification")])):
            with pytest.raises(InjectedFault):
                MIOEngine(collection).query(R)
        assert fresh_registry.get("repro_faults_injected_total").value(
            point="verification", kind="fail"
        ) == 1


class TestCliSurfaces:
    @pytest.fixture
    def dataset(self, tmp_path, collection):
        from repro.datasets import save_collection

        path = tmp_path / "data.npz"
        save_collection(str(path), collection)
        return str(path)

    def test_query_trace_prints_span_tree(self, dataset, capsys, fresh_registry):
        assert main(["query", dataset, "-r", str(R), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "query" in out and "grid_mapping" in out and "verification" in out

    def test_query_metrics_out_prometheus(self, dataset, tmp_path, fresh_registry):
        metrics_path = tmp_path / "metrics.prom"
        assert main(["query", dataset, "-r", str(R),
                     "--metrics-out", str(metrics_path)]) == 0
        text = metrics_path.read_text()
        validate_prometheus_text(text)
        assert "repro_queries_total" in text

    def test_query_metrics_out_json(self, dataset, tmp_path, fresh_registry):
        metrics_path = tmp_path / "metrics.json"
        assert main(["query", dataset, "-r", str(R),
                     "--metrics-out", str(metrics_path)]) == 0
        document = json.loads(metrics_path.read_text())
        assert "repro_queries_total" in document

    def test_explain_renders_tree_and_funnel(self, dataset, capsys, fresh_registry):
        assert main(["explain", dataset, "-r", str(R)]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "pruning funnel:" in out
        assert "objects" in out and "candidates" in out and "settled" in out

    @pytest.fixture
    def workload(self, tmp_path, dataset):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(
            {"dataset": dataset, "queries": [4.9, 4.1, {"r": 4.5, "k": 2}]}
        ))
        return str(path)

    def test_batch_stats_reports_all_cache_tiers(self, workload, capsys, fresh_registry):
        assert main(["batch", workload, "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        series = payload["metrics"]["repro_cache_requests_total"]["series"]
        for tier in ("labels", "grids", "lower_bounds"):
            assert f'outcome="hit",tier="{tier}"' in series
            assert f'outcome="miss",tier="{tier}"' in series

    def test_batch_trace_out_and_log_json(self, workload, tmp_path, capsys,
                                          fresh_registry):
        trace_path = tmp_path / "trace.json"
        log_path = tmp_path / "log.jsonl"
        assert main(["batch", workload, "--trace-out", str(trace_path),
                     "--log-json", str(log_path)]) == 0
        capsys.readouterr()
        trees = json.loads(trace_path.read_text())
        (batch,) = [tree for tree in trees if tree["name"] == "batch"]
        assert len(batch["children"]) == 3

        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        query_records = [rec for rec in records if rec["event"] == "query"]
        batch_records = [rec for rec in records if rec["event"] == "batch"]
        assert len(query_records) == 3
        assert len(batch_records) == 1
        batch_id = batch_records[0]["batch_id"]
        assert all(rec["batch_id"] == batch_id for rec in query_records)
        assert len({rec["query_id"] for rec in query_records}) == 3
        # Correlation ids also appear in the trace for cross-referencing.
        assert batch["attributes"]["batch_id"] == batch_id
