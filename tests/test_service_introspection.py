"""Service introspection: /statusz, /tracez, /slowlogz, trace-id plumbing.

In-process classes drive :class:`~repro.service.app.ServiceApp` directly
(the ``test_service_app.py`` convention); the HTTP class at the bottom
checks that the ids and endpoints survive a real socket round trip.

Every app is built *after* ``fresh_telemetry`` installs an isolated hub
-- the ServiceApp constructor turns the process hub's dials, so ordering
is what keeps these tests from reconfiguring the real one.
"""

import json
import time

import pytest

from repro.errors import InvalidQueryError, ServiceOverloadedError
from repro.service import MIOServer, ServiceApp, ServiceClient, ServiceConfig, serve
from repro.service.app import sanitize_trace_id

from conftest import random_collection


@pytest.fixture()
def collection():
    return random_collection(25, 5, seed=11)


def make_app(collection, fresh_telemetry, **overrides):
    defaults = dict(port=0, max_inflight=2, max_queue=2)
    defaults.update(overrides)
    return ServiceApp(collection, ServiceConfig(**defaults))


def post(app, path, payload, trace_id=None):
    return app.handle(
        "POST", path, None, json.dumps(payload).encode(), trace_id=trace_id
    )


class TestConfigKnobs:
    @pytest.mark.parametrize("overrides", [
        {"sample_rate": -0.1},
        {"sample_rate": 1.5},
        {"slow_query_ms": -1.0},
    ])
    def test_bad_telemetry_knobs_fail_at_startup(self, overrides):
        with pytest.raises(InvalidQueryError):
            ServiceConfig(**overrides)

    def test_app_turns_the_hub_dials(self, collection, fresh_telemetry):
        make_app(collection, fresh_telemetry, sample_rate=0.5, slow_query_ms=10.0)
        assert fresh_telemetry.sampler.rate == 0.5
        assert fresh_telemetry.slowlog.threshold_ms == 10.0
        assert fresh_telemetry.enabled


class TestTraceIdSanitizer:
    def test_strips_header_unsafe_characters(self):
        assert sanitize_trace_id("my-id-123!@#") == "my-id-123"
        assert sanitize_trace_id("a\r\nX-Evil: 1") == "aX-Evil1"
        assert sanitize_trace_id("ok._-OK") == "ok._-OK"

    def test_truncates_to_64_characters(self):
        assert sanitize_trace_id("x" * 200) == "x" * 64

    def test_nothing_survives_means_none(self):
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("!!!###") is None


class TestTraceIdPropagation:
    def test_every_success_carries_an_id_in_body_and_header(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        response = post(app, "/query", {"r": 4.0})
        assert response.status == 200
        assert response.payload["trace_id"].startswith("trace-")
        assert response.headers["X-Trace-Id"] == response.payload["trace_id"]

    def test_inbound_id_is_honored_and_sanitized(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        response = post(app, "/query", {"r": 4.0}, trace_id="caller-7")
        assert response.payload["trace_id"] == "caller-7"
        response = post(app, "/query", {"r": 4.0}, trace_id="evil\nid!")
        assert response.payload["trace_id"] == "evilid"

    def test_error_envelopes_carry_the_id(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        response = post(app, "/query", {"r": -1.0}, trace_id="bad-input-1")
        assert response.status == 400
        assert response.payload["error"] == "InvalidQueryError"
        assert response.payload["trace_id"] == "bad-input-1"
        assert response.headers["X-Trace-Id"] == "bad-input-1"

    def test_shed_responses_carry_the_id_next_to_retry_after(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, max_inflight=1, max_queue=0)
        app.admission.admit()  # occupy the only slot; queue is zero
        try:
            response = post(app, "/query", {"r": 4.0}, trace_id="shed-me")
        finally:
            app.admission.release()
        assert response.status == 429
        assert response.payload["error"] == "ServiceOverloadedError"
        assert response.payload["trace_id"] == "shed-me"
        assert "Retry-After" in response.headers
        assert response.headers["X-Trace-Id"] == "shed-me"

    def test_not_found_still_correlates(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        response = app.handle("GET", "/nope", None, None, trace_id="lost-1")
        assert response.status == 404
        assert response.payload["trace_id"] == "lost-1"


class TestIntrospectionEndpoints:
    def test_statusz_is_one_page_of_state(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        post(app, "/query", {"r": 4.0})
        response = app.handle("GET", "/statusz")
        assert response.status == 200
        page = response.payload
        assert page["ready"] is True
        assert page["uptime_s"] >= 0
        assert page["service"]["served"] == 1
        assert page["telemetry"]["profiles"]["recorded"] >= 1
        assert page["retry_after_hint_s"] > 0

    def test_tracez_serves_sampled_span_trees(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, sample_rate=1.0)
        post(app, "/query", {"r": 4.0})
        post(app, "/query", {"r": 4.5})
        page = app.handle("GET", "/tracez").payload
        assert page["count"] == 2 and len(page["traces"]) == 2
        assert page["sampler"]["sampled"] == 2
        for trace in page["traces"]:
            assert trace["root"]["name"] == "query"
            assert trace["root"]["attributes"]["trace_id"] == trace["trace_id"]

    def test_tracez_is_empty_when_sampling_is_off(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, sample_rate=0.0)
        post(app, "/query", {"r": 4.0})
        assert app.handle("GET", "/tracez").payload["count"] == 0

    def test_slowlogz_captures_at_a_zero_threshold(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, slow_query_ms=0.0)
        post(app, "/query", {"r": 4.0})
        page = app.handle("GET", "/slowlogz").payload
        assert page["threshold_ms"] == 0.0
        assert page["captured"] >= 1 and page["count"] >= 1
        entry = page["entries"][0]
        assert entry["cause"] == "slow"
        assert entry["span_tree"]["name"] == "query"

    def test_slowlogz_captures_degraded_queries_with_synthesized_trees(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, slow_query_ms=10_000.0)
        response = post(app, "/query", {"r": 4.0, "timeout_ms": 0})
        assert response.payload["exact"] is False
        page = app.handle("GET", "/slowlogz").payload
        assert page["count"] >= 1
        entry = page["entries"][-1]
        assert "degraded" in entry["cause"]
        assert entry["span_tree"]["attributes"].get("synthesized") is True

    def test_introspection_responses_are_json_serializable(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry, sample_rate=1.0, slow_query_ms=0.0)
        post(app, "/query", {"r": 4.0})
        for path in ("/statusz", "/tracez", "/slowlogz"):
            response = app.handle("GET", path)
            assert response.status == 200
            json.loads(response.body_bytes())


class TestLatencyEwmaGauge:
    def test_gauge_tracks_the_retry_after_basis(
        self, collection, fresh_registry, fresh_telemetry
    ):
        app = make_app(collection, fresh_telemetry)
        gauge = fresh_registry.get("repro_service_latency_ewma_seconds")
        assert gauge.value() == pytest.approx(0.05)  # the seed value
        post(app, "/query", {"r": 4.0})
        assert gauge.value() == pytest.approx(app._ewma_seconds)
        assert gauge.value() != pytest.approx(0.05)


class TestElapsedIsWallClock:
    """``elapsed_ms`` times the whole execution, not just the phases.

    Work outside the phase timers -- finalize, the degradation chain --
    stands in here as a sleep after the chain returns.
    """

    OUTSIDE_S = 0.02

    def test_query_elapsed_covers_phases_and_the_rest(
        self, collection, fresh_telemetry, monkeypatch
    ):
        app = make_app(collection, fresh_telemetry)
        results = []
        execute_chain = app._execute_chain

        def slow_chain(request, deadline):
            result = execute_chain(request, deadline)
            results.append(result)
            time.sleep(self.OUTSIDE_S)
            return result

        monkeypatch.setattr(app, "_execute_chain", slow_chain)
        payload = json.loads(post(app, "/query", {"r": 4.0}).body_bytes())
        (result,) = results
        phase_ms = 1000.0 * sum(result.phases.values())
        assert payload["elapsed_ms"] >= phase_ms + 1000.0 * self.OUTSIDE_S
        # The Retry-After EWMA takes the same sample (seeded at 0.05 s).
        assert app._ewma_seconds == pytest.approx(
            0.05 + 0.2 * (payload["elapsed_ms"] / 1000.0 - 0.05), abs=1e-6
        )

    def test_batch_elapsed_covers_every_entry(self, collection, fresh_telemetry):
        app = make_app(collection, fresh_telemetry)
        payload = json.loads(
            post(app, "/batch", {"queries": [4.0, 3.0, 4.5]}).body_bytes()
        )
        assert payload["elapsed_ms"] >= sum(
            entry["elapsed_ms"] for entry in payload["results"]
        )


class TestOverHttp:
    @pytest.fixture()
    def server(self, collection, fresh_registry, fresh_telemetry):
        config = ServiceConfig(
            port=0, max_inflight=2, max_queue=4, sample_rate=1.0, slow_query_ms=0.0
        )
        instance = serve(collection, config)
        yield instance
        instance.shutdown_gracefully()

    @pytest.fixture()
    def client(self, server):
        host, port = server.address
        return ServiceClient(host, port, timeout_s=10.0)

    def test_client_records_the_response_trace_id(self, server, client):
        payload = client.query(4.0)
        assert payload["trace_id"].startswith("trace-")
        assert client.last_trace_id == payload["trace_id"]

    def test_inbound_header_round_trips_through_the_wire(self, server, client):
        status, headers, payload = client._round_trip(
            "POST", "/query", {"r": 4.0}, trace_id="wire-id-1"
        )
        assert status == 200
        assert headers["X-Trace-Id"] == "wire-id-1"
        assert payload["trace_id"] == "wire-id-1"

    def test_errors_carry_the_trace_id_attribute(self, server, client):
        with pytest.raises(InvalidQueryError) as excinfo:
            client.query("junk")
        assert getattr(excinfo.value, "trace_id", "").startswith("trace-")

    def test_introspection_endpoints_over_sockets(self, server, client):
        client.query(4.0)
        status = client.statusz()
        assert status["ready"] is True
        assert status["telemetry"]["sampler"]["rate"] == 1.0
        traces = client.tracez()
        assert traces["count"] >= 1
        slowlog = client.slowlogz()
        assert slowlog["threshold_ms"] == 0.0
        assert slowlog["captured"] >= 1
