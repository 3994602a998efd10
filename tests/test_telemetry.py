"""The telemetry hub: sampler, profile store/sink, slow log, wiring.

Unit coverage uses duck-typed fake results (the same contract the
recorders use), so the subpackage stays freestanding; the integration
classes at the bottom drive real engine and session queries through the
pipeline choke point with an isolated hub installed.
"""

import json
import os
import types

import pytest

from repro.obs.telemetry import (
    ProfileSink,
    ProfileStore,
    RateSampler,
    SlowQueryLog,
    Telemetry,
    bind_trace_id,
    build_profile,
    current_trace_id,
    new_trace_id,
    synthesize_span_tree,
)

from conftest import random_collection

R = 4.0


def fake_result(
    seconds=0.001,
    exact=True,
    notes=None,
    phases=None,
    algorithm="bigrid",
):
    """A duck-typed result (same contract observe_query relies on)."""
    return types.SimpleNamespace(
        algorithm=algorithm,
        phases=dict(phases or {"grid_mapping": seconds / 2, "verification": seconds / 2}),
        counters={"candidates_total": 10, "candidates_settled": 7},
        notes=dict(notes or {}),
        exact=exact,
        total_time=seconds,
        memory_bytes=4096,
    )


def profile_for(result, **overrides):
    kwargs = dict(
        engine="serial", trace_id="trace-x", ts=100.0, r=R, k=1,
        ceil_r=0, n=30, sampled=False,
    )
    kwargs.update(overrides)
    return build_profile(result, **kwargs)


class TestRateSampler:
    def test_rate_must_lie_in_unit_interval(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                RateSampler(bad)
        sampler = RateSampler(0.5)
        with pytest.raises(ValueError):
            sampler.set_rate(2.0)
        assert sampler.rate == 0.5  # a rejected set_rate leaves the rate alone

    def test_rate_zero_never_samples(self):
        sampler = RateSampler(0.0)
        assert not any(sampler.should_sample() for _ in range(100))
        assert sampler.snapshot()["sampled"] == 0
        assert sampler.snapshot()["decisions"] == 100

    def test_rate_one_always_samples(self):
        sampler = RateSampler(1.0)
        assert all(sampler.should_sample() for _ in range(50))
        assert sampler.snapshot() == {"rate": 1.0, "decisions": 50, "sampled": 50}

    def test_systematic_sampling_is_deterministic(self):
        # Primed accumulator: the first decision fires, then exactly
        # every 1/rate decisions after it -- no RNG, no burst variance.
        sampler = RateSampler(0.25)
        decisions = [sampler.should_sample() for _ in range(17)]
        fired = [index for index, hit in enumerate(decisions) if hit]
        assert fired == [0, 3, 7, 11, 15]

    def test_long_run_fraction_equals_the_rate(self):
        sampler = RateSampler(0.01)
        hits = sum(sampler.should_sample() for _ in range(10_000))
        assert hits == pytest.approx(100, abs=1)

    def test_set_rate_reprimes_the_accumulator(self):
        sampler = RateSampler(0.5)
        sampler.should_sample()
        sampler.set_rate(0.1)
        assert sampler.should_sample()  # first decision after reconfig fires


class TestProfileStore:
    def test_ring_keeps_only_the_newest(self):
        store = ProfileStore(capacity=3)
        for index in range(5):
            store.record({"trace_id": f"t-{index}", "sampled": False, "exact": True})
        retained = store.snapshot()
        assert [p["trace_id"] for p in retained] == ["t-2", "t-3", "t-4"]
        assert len(store) == 3

    def test_totals_outlive_the_ring(self):
        store = ProfileStore(capacity=2)
        store.record({"sampled": True, "exact": True})
        store.record({"sampled": False, "exact": False})
        store.record({"sampled": False, "exact": True})
        assert store.totals() == {
            "recorded": 3, "sampled": 1, "degraded": 1, "retained": 2,
        }
        store.clear()
        assert len(store) == 0
        assert store.totals()["recorded"] == 3  # tallies persist

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfileStore(capacity=0)


class TestProfileSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        with ProfileSink(str(path)) as sink:
            sink.write(profile_for(fake_result()))
            sink.write(profile_for(fake_result(), trace_id="trace-y"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        assert [p["trace_id"] for p in decoded] == ["trace-x", "trace-y"]
        assert sink.written == 2 and sink.errors == 0

    def test_rotation_shifts_generations(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        sink = ProfileSink(str(path), max_bytes=600, backups=2)
        for index in range(12):
            sink.write(profile_for(fake_result(), trace_id=f"trace-{index:04d}"))
        sink.close()
        assert sink.rotations >= 2
        assert os.path.exists(f"{path}.1") and os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")  # oldest generation dropped
        # Every retained line is still valid JSON, and generation order
        # is newest-first: path holds the most recent trace ids.
        survivors = []
        for candidate in (f"{path}.2", f"{path}.1", str(path)):
            for line in open(candidate, encoding="utf-8"):
                survivors.append(json.loads(line)["trace_id"])
        assert survivors == sorted(survivors)
        assert survivors[-1] == "trace-0011"

    def test_backups_zero_truncates_instead_of_keeping_generations(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        sink = ProfileSink(str(path), max_bytes=600, backups=0)
        for index in range(12):
            sink.write(profile_for(fake_result(), trace_id=f"trace-{index:04d}"))
        sink.close()
        assert sink.rotations >= 1
        assert not os.path.exists(f"{path}.1")
        assert path.exists()

    def test_write_failures_disable_the_sink_not_the_query(self, tmp_path):
        # A directory at the sink path makes open() raise OSError.
        path = tmp_path / "is_a_directory"
        path.mkdir()
        sink = ProfileSink(str(path))
        sink.write(profile_for(fake_result()))  # must not raise
        sink.write(profile_for(fake_result()))
        assert sink.errors == 2
        assert sink.written == 0

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ProfileSink(str(tmp_path / "p.jsonl"), max_bytes=0)
        with pytest.raises(ValueError):
            ProfileSink(str(tmp_path / "p.jsonl"), backups=-1)


class TestBuildProfile:
    def test_schema_is_complete_and_json_serializable(self):
        profile = profile_for(fake_result(notes={"verification_path": "numpy-fused"}))
        assert set(profile) == {
            "trace_id", "ts", "engine", "algorithm", "r", "k", "ceil_r", "n",
            "seconds", "exact", "sampled", "phases", "counters", "notes",
            "memory_bytes",
        }
        assert profile["notes"]["verification_path"] == "numpy-fused"
        json.dumps(profile)

    def test_copies_do_not_alias_the_result(self):
        result = fake_result()
        profile = profile_for(result)
        profile["phases"]["verification"] = 999.0
        profile["notes"]["x"] = "y"
        assert result.phases["verification"] != 999.0
        assert "x" not in result.notes


class TestSlowQueryLog:
    def test_classification_covers_the_cause_matrix(self):
        log = SlowQueryLog(threshold_ms=100.0)
        fast_exact = profile_for(fake_result(seconds=0.001))
        slow_exact = profile_for(fake_result(seconds=0.5))
        fast_degraded = profile_for(fake_result(seconds=0.001, exact=False))
        slow_degraded = profile_for(
            fake_result(seconds=0.5, notes={"degraded_deadline": "verification"})
        )
        assert log.classify(fast_exact) is None
        assert log.classify(slow_exact) == "slow"
        assert log.classify(fast_degraded) == "degraded"
        assert log.classify(slow_degraded) == "slow+degraded"

    def test_degraded_note_alone_is_enough(self):
        log = SlowQueryLog(threshold_ms=100.0)
        profile = profile_for(
            fake_result(seconds=0.001, notes={"degraded_backend": "plain"})
        )
        assert log.classify(profile) == "degraded"

    def test_consider_captures_with_a_synthesized_tree(self):
        log = SlowQueryLog(threshold_ms=0.0)
        profile = profile_for(fake_result(seconds=0.4))
        assert log.consider(profile)
        (entry,) = log.snapshot()
        assert entry["cause"] == "slow"
        tree = entry["span_tree"]
        assert tree["attributes"]["synthesized"] is True
        assert {child["name"] for child in tree["children"]} == set(profile["phases"])

    def test_consider_prefers_a_real_tree_when_given(self):
        log = SlowQueryLog(threshold_ms=0.0)
        real_tree = {"name": "query", "children": [], "attributes": {}}
        assert log.consider(profile_for(fake_result()), span_tree=real_tree)
        (entry,) = log.snapshot()
        assert entry["span_tree"] is real_tree

    def test_unremarkable_queries_are_not_captured(self):
        log = SlowQueryLog(threshold_ms=100.0)
        assert not log.consider(profile_for(fake_result(seconds=0.001)))
        assert log.captured == 0 and len(log) == 0

    def test_ring_and_lifetime_counter(self):
        log = SlowQueryLog(capacity=2, threshold_ms=0.0)
        for index in range(4):
            log.consider(profile_for(fake_result(), trace_id=f"t-{index}"))
        assert log.captured == 4
        assert [e["trace_id"] for e in log.snapshot()] == ["t-2", "t-3"]
        log.clear()
        assert len(log) == 0 and log.captured == 4

    def test_synthesized_tree_carries_correlation_fields(self):
        profile = profile_for(fake_result(seconds=0.2), engine="session")
        tree = synthesize_span_tree(profile)
        assert tree["name"] == "query"
        assert tree["duration_seconds"] == 0.2
        assert tree["attributes"]["engine"] == "session"
        assert tree["attributes"]["trace_id"] == "trace-x"


class TestTraceIdPropagation:
    def test_bind_and_read_back(self):
        assert current_trace_id() is None
        with bind_trace_id("trace-abc") as bound:
            assert bound == "trace-abc"
            assert current_trace_id() == "trace-abc"
            with bind_trace_id("trace-inner"):
                assert current_trace_id() == "trace-inner"
            assert current_trace_id() == "trace-abc"
        assert current_trace_id() is None

    def test_new_trace_ids_are_unique_and_prefixed(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        assert first.startswith("trace-") and second.startswith("trace-")


class TestTelemetryHub:
    def test_observe_result_records_profile_and_metrics(self, fresh_registry):
        hub = Telemetry(clock=lambda: 123.0)
        profile = hub.observe_result(fake_result(), engine="serial", r=R)
        assert profile is not None
        assert profile["ts"] == 123.0
        assert hub.profiles.totals()["recorded"] == 1
        counter = fresh_registry.get("repro_query_profiles_total")
        assert counter.value(engine="serial", sampled="false") == 1

    def test_disabled_hub_records_nothing(self, fresh_registry):
        hub = Telemetry(enabled=False)
        assert hub.observe_result(fake_result(), engine="serial", r=R) is None
        assert hub.profiles.totals()["recorded"] == 0
        assert not hub.should_sample()

    def test_trace_id_comes_from_the_bound_context(self):
        hub = Telemetry()
        with bind_trace_id("trace-bound"):
            profile = hub.observe_result(fake_result(), engine="serial", r=R)
        assert profile["trace_id"] == "trace-bound"
        # An explicit id wins over the context.
        with bind_trace_id("trace-bound"):
            profile = hub.observe_result(
                fake_result(), engine="serial", r=R, trace_id="trace-explicit"
            )
        assert profile["trace_id"] == "trace-explicit"
        # With neither, the hub mints one.
        profile = hub.observe_result(fake_result(), engine="serial", r=R)
        assert profile["trace_id"].startswith("trace-")

    def test_slow_queries_feed_the_log_and_the_cause_counter(self, fresh_registry):
        hub = Telemetry(slow_ms=0.0)
        hub.observe_result(fake_result(), engine="serial", r=R)
        hub.observe_result(fake_result(exact=False), engine="serial", r=R)
        assert hub.slowlog.captured == 2
        counter = fresh_registry.get("repro_slow_queries_total")
        assert counter.value(cause="slow") == 1
        assert counter.value(cause="slow+degraded") == 1

    def test_span_root_lands_in_the_trace_ring_with_the_id(self, fresh_registry):
        from repro.obs.trace import Tracer

        hub = Telemetry()
        tracer = Tracer()
        with tracer.span("query", engine="serial") as root:
            pass
        profile = hub.observe_result(
            fake_result(), engine="serial", r=R, sampled=True, span_root=root
        )
        (trace,) = hub.traces_snapshot()
        assert trace["trace_id"] == profile["trace_id"]
        assert trace["root"]["attributes"]["trace_id"] == profile["trace_id"]
        assert root.attributes["trace_id"] == profile["trace_id"]

    def test_sink_receives_every_profile(self, tmp_path, fresh_registry):
        path = tmp_path / "profiles.jsonl"
        hub = Telemetry(sink=ProfileSink(str(path)))
        hub.observe_result(fake_result(), engine="serial", r=R)
        hub.observe_result(fake_result(), engine="parallel", r=R)
        hub.reconfigure(sink=None)  # detach closes the handle
        assert len(path.read_text().splitlines()) == 2

    def test_reconfigure_sentinel_semantics(self, tmp_path):
        sink = ProfileSink(str(tmp_path / "p.jsonl"))
        hub = Telemetry(sink=sink)
        hub.reconfigure(sample_rate=0.5)  # sink omitted: untouched
        assert hub.sink is sink
        assert hub.sampler.rate == 0.5
        hub.reconfigure(sink=None)  # explicit None: detached
        assert hub.sink is None
        with pytest.raises(ValueError):
            hub.reconfigure(slow_ms=-1.0)
        hub.reconfigure(slow_ms=50.0)
        assert hub.slowlog.threshold_ms == 50.0

    def test_snapshot_shape(self, tmp_path, fresh_registry):
        hub = Telemetry(sample_rate=1.0, sink=ProfileSink(str(tmp_path / "p.jsonl")))
        hub.should_sample()
        hub.observe_result(fake_result(), engine="serial", r=R, sampled=True)
        snapshot = hub.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["sampler"] == {"rate": 1.0, "decisions": 1, "sampled": 1}
        assert snapshot["profiles"]["recorded"] == 1
        assert snapshot["slowlog"]["threshold_ms"] == 250.0
        assert snapshot["sink"]["attached"] is True
        assert snapshot["sink"]["written"] == 1
        hub.reconfigure(sink=None)
        assert hub.snapshot()["sink"] == {"attached": False}


@pytest.fixture
def collection():
    return random_collection(n=30, mean_points=8, seed=21)


class TestPipelineIntegration:
    """The choke point: engine queries flow into the installed hub."""

    def test_engine_query_emits_an_unsampled_profile(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.core.engine import MIOEngine

        result = MIOEngine(collection).query(R)
        (profile,) = fresh_telemetry.profiles.snapshot()
        assert profile["engine"] == "serial"
        assert profile["algorithm"] == result.algorithm
        assert profile["sampled"] is False
        assert profile["seconds"] == result.total_time
        assert profile["n"] == collection.n
        assert profile["phases"] == result.phases
        assert fresh_telemetry.traces_snapshot() == []

    def test_sample_rate_one_attaches_a_span_tree(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.core.engine import MIOEngine

        fresh_telemetry.reconfigure(sample_rate=1.0)
        untraced = MIOEngine(collection).query(R)
        (profile,) = fresh_telemetry.profiles.snapshot()
        assert profile["sampled"] is True
        (trace,) = fresh_telemetry.traces_snapshot()
        assert trace["trace_id"] == profile["trace_id"]
        children = {child["name"] for child in trace["root"]["children"]}
        assert "verification" in children and "grid_mapping" in children
        counter = fresh_registry.get("repro_query_profiles_total")
        assert counter.value(engine="serial", sampled="true") == 1
        # Sampling is non-intrusive: the answer matches an unsampled run.
        fresh_telemetry.reconfigure(sample_rate=0.0)
        resampled = MIOEngine(collection).query(R)
        assert (untraced.winner, untraced.score) == (resampled.winner, resampled.score)

    def test_caller_supplied_tracer_counts_as_sampled(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.core.engine import MIOEngine
        from repro.obs.trace import Tracer

        MIOEngine(collection, tracer=Tracer()).query(R)
        (profile,) = fresh_telemetry.profiles.snapshot()
        assert profile["sampled"] is True
        assert len(fresh_telemetry.traces_snapshot()) == 1
        # The head sampler was never consulted (the caller brought the
        # tracer), so its decision tally stays untouched.
        assert fresh_telemetry.sampler.snapshot()["decisions"] == 0

    def test_disabled_hub_leaves_queries_untouched(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.core.engine import MIOEngine

        fresh_telemetry.reconfigure(enabled=False, sample_rate=1.0)
        result = MIOEngine(collection).query(R)
        assert result.exact
        assert fresh_telemetry.profiles.totals()["recorded"] == 0
        assert fresh_telemetry.traces_snapshot() == []

    def test_parallel_engine_reports_through_the_same_choke_point(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.parallel.engine import ParallelMIOEngine

        # The former multi-core name is the serial engine.
        ParallelMIOEngine(collection, cores=2).query(R)
        (profile,) = fresh_telemetry.profiles.snapshot()
        assert profile["engine"] == "serial"


class TestSessionIntegration:
    def test_query_ids_become_profile_trace_ids(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.session import QuerySession

        QuerySession(collection).query_many([4.9, 4.1, {"r": 4.5, "k": 2}])
        profiles = fresh_telemetry.profiles.snapshot()
        assert len(profiles) == 3
        ids = [profile["trace_id"] for profile in profiles]
        assert all(trace_id.startswith("query-") for trace_id in ids)
        assert len(set(ids)) == 3

    def test_timeout_results_are_captured_as_degraded(
        self, collection, fresh_registry, fresh_telemetry
    ):
        from repro.session import QuerySession

        session = QuerySession(collection)
        (result,) = session.query_many([{"r": 4.5, "timeout_ms": 0.0001}])
        assert not result.exact
        profiles = fresh_telemetry.profiles.snapshot()
        degraded = [p for p in profiles if not p["exact"]]
        assert degraded, "the expired query must still produce a profile"
        entry = degraded[-1]
        assert any(key.startswith("degraded_") for key in entry["notes"])
        # Always-sample-slow: the degraded query is in the slow log with
        # a synthesized tree (it was never head-sampled).
        captured = fresh_telemetry.slowlog.snapshot()
        assert any("degraded" in e["cause"] for e in captured)
