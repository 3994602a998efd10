"""The error taxonomy's two public mappings, pinned end to end.

Satellite: every error class maps to its intended HTTP status (service)
and process exit code (CLI), and every degraded answer is explicitly
marked -- ``exact: false`` plus a ``degraded_*`` note -- so a client can
always tell a full answer from a partial one without guessing.
"""

import json

import pytest

from repro.errors import (
    BackendUnavailableError,
    CorruptDataError,
    InjectedFault,
    InvalidQueryError,
    QueryTimeout,
    ReproError,
    ServiceOverloadedError,
)
from repro.service.app import ServiceApp, error_response
from repro.service.config import ServiceConfig

from conftest import random_collection

#: The full taxonomy contract: (class, exit code, HTTP status).
TAXONOMY = [
    (InvalidQueryError, 11, 400),
    (CorruptDataError, 12, 422),
    (QueryTimeout, 13, 504),
    (BackendUnavailableError, 14, 503),
    (InjectedFault, 16, 500),
    (ServiceOverloadedError, 17, 429),
]


class TestTaxonomyMappings:
    @pytest.mark.parametrize("cls,exit_code,http_status", TAXONOMY)
    def test_exit_code_and_http_status(self, cls, exit_code, http_status):
        assert cls.exit_code == exit_code
        assert cls.http_status == http_status

    def test_codes_are_distinct(self):
        exit_codes = [cls.exit_code for cls, _, _ in TAXONOMY]
        assert len(set(exit_codes)) == len(exit_codes)
        assert all(code != 0 for code in exit_codes)

    @pytest.mark.parametrize("cls,exit_code,http_status", TAXONOMY)
    def test_error_envelope_carries_the_mapping(self, cls, exit_code, http_status):
        response = error_response(cls("boom"))
        assert response.status == http_status
        assert response.payload["error"] == cls.__name__
        assert response.payload["status"] == http_status
        assert "boom" in response.payload["message"]

    def test_retry_after_header_rounds_up(self):
        response = error_response(
            ServiceOverloadedError("shed", retry_after=0.2), retry_after=0.2
        )
        assert response.headers["Retry-After"] == "1"
        assert response.payload["retry_after_s"] == 0.2

    def test_root_is_never_a_success(self):
        assert ReproError.http_status >= 400
        assert ReproError.exit_code != 0


@pytest.fixture(scope="module")
def app():
    return ServiceApp(
        random_collection(25, 5, seed=9),
        ServiceConfig(port=0, max_inflight=2, max_queue=2),
    )


class TestServiceErrorMapping:
    """The HTTP layer surfaces taxonomy statuses, never tracebacks."""

    @pytest.mark.parametrize("body", [
        b"{nope",
        b'["a", "list"]',
        b'{"k": 2}',
        b'{"r": "abc"}',
        b'{"r": true}',
        b'{"r": -1.0}',
        b'{"r": 2.0, "k": 0}',
        b'{"r": 2.0, "unknown_field": 1}',
        b'{"r": 2.0, "timeout_ms": -5}',
    ])
    def test_bad_input_is_http_400(self, app, body):
        response = app.handle("POST", "/query", None, body)
        assert response.status == 400
        assert response.payload["error"] == "InvalidQueryError"
        assert "Traceback" not in json.dumps(response.payload)

    @pytest.mark.parametrize("body", [
        b'{"queries": []}',
        b'{"queries": "nope"}',
        b'{"not_queries": [1]}',
        b'{"queries": [{"r": "junk"}]}',
    ])
    def test_bad_batch_is_http_400(self, app, body):
        response = app.handle("POST", "/batch", None, body)
        assert response.status == 400
        assert response.payload["error"] == "InvalidQueryError"

    def test_oversized_batch_is_http_400(self, app):
        queries = [{"r": 2.0}] * (app.config.max_batch + 1)
        response = app.handle(
            "POST", "/batch", None, json.dumps({"queries": queries}).encode()
        )
        assert response.status == 400

    def test_unknown_route_is_http_404(self, app):
        assert app.handle("GET", "/shrug").status == 404

    def test_batch_requires_post(self, app):
        response = app.handle("GET", "/batch", {"r": "2.0"})
        assert response.status == 400

    def test_unexpected_exception_becomes_structured_500(self, app, monkeypatch):
        def explode(payload):
            raise ZeroDivisionError("surprise")

        monkeypatch.setattr(app, "handle_query", explode)
        response = app.handle("POST", "/query", None, b'{"r": 2.0}')
        assert response.status == 500
        assert response.payload["error"] == "InternalError"
        assert "ZeroDivisionError" in response.payload["message"]


class TestDegradedAnswersAreMarked:
    """Anytime answers always say so: exact=False plus a degraded_* note."""

    def test_queue_expired_request_degrades_with_note(self, app):
        # A zero budget expires before execution; the request still gets
        # HTTP 200 with an explicitly-marked vacuous lower bound.
        response = app.handle("POST", "/query", None, b'{"r": 4.0, "timeout_ms": 0}')
        assert response.status == 200
        assert response.payload["exact"] is False
        assert any(k.startswith("degraded_") for k in response.payload["notes"])
        assert response.payload["winner"] == -1
        assert response.payload["score"] == 0

    def test_session_anytime_results_carry_degraded_note(self):
        from repro.resilience import Deadline, ManualClock
        from repro.session import QueryRequest, QuerySession

        session = QuerySession(random_collection(20, 5, seed=4))
        doomed = QueryRequest(
            r=4.5, deadline=Deadline(0.0, clock=ManualClock(step=1.0))
        )
        results = session.query_many([doomed, 4.2])
        assert not results[0].exact
        assert any(k.startswith("degraded_") for k in results[0].notes)
        assert results[1].exact
        assert not any(k.startswith("degraded_") for k in results[1].notes)

    def test_verification_expiry_keeps_partial_answer_marked(self):
        from repro import faults
        from repro.faults import from_env
        from repro.session import QuerySession

        injector = from_env("verification:latency:1:400")
        faults.install(injector)
        try:
            session = QuerySession(random_collection(20, 5, seed=4))
            results = session.query_many([{"r": 4.5, "timeout_ms": 200}])
        finally:
            faults.install(None)
        assert not results[0].exact
        assert "degraded_deadline" in results[0].notes
        assert results[0].winner >= 0  # verified prefix, not vacuous

    def test_exact_service_answer_has_no_degraded_note(self, app):
        response = app.handle("POST", "/query", None, b'{"r": 4.0}')
        assert response.status == 200
        assert response.payload["exact"] is True
        assert not any(k.startswith("degraded_") for k in response.payload["notes"])
