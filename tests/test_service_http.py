"""End-to-end tests over real sockets: server, client, retries, drain.

These spin up :class:`~repro.service.server.MIOServer` on an ephemeral
port and talk to it with the bundled retry client; a couple of scenarios
drive genuine concurrent load to exercise shedding and graceful
shutdown under traffic.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro.core.engine import MIOEngine
from repro.errors import BackendUnavailableError, ServiceOverloadedError
from repro.service import (
    MIOServer,
    ServiceApp,
    ServiceClient,
    ServiceConfig,
    serve,
)

from conftest import random_collection


@pytest.fixture(scope="module")
def collection():
    return random_collection(25, 5, seed=13)


@pytest.fixture()
def server(collection):
    instance = serve(collection, ServiceConfig(port=0, max_inflight=2, max_queue=4))
    yield instance
    instance.shutdown_gracefully()


@pytest.fixture()
def client(server):
    host, port = server.address
    return ServiceClient(host, port, timeout_s=10.0)


class TestRoundTrips:
    def test_query_matches_the_engine(self, collection, server, client):
        expected = MIOEngine(collection).query(4.0)
        payload = client.query(4.0)
        assert payload["winner"] == expected.winner
        assert payload["score"] == expected.score
        assert payload["exact"] is True

    def test_topk_and_batch(self, server, client):
        assert len(client.topk(4.0, 3)["topk"]) == 3
        batch = client.batch([{"r": 4.0}, {"r": 4.5, "k": 2}])
        assert batch["count"] == 2

    def test_health_ready_metrics(self, server, client):
        assert client.healthz()["status"] == "ok"
        assert client.readyz()["ready"] is True
        text = client.metrics_text()
        assert "repro_service_responses_total" in text

    def test_bad_input_maps_back_to_taxonomy(self, server, client):
        from repro.errors import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            client.query("junk")

    def test_unreachable_server_is_backend_unavailable(self):
        client = ServiceClient("127.0.0.1", 1, timeout_s=0.5)
        with pytest.raises(BackendUnavailableError):
            client.healthz()


class TestKeepAlive:
    def test_reused_connection_answers_without_a_stall(self, server):
        # One connection, ten requests: a response split into small
        # writes stalls every reused round trip on Nagle's algorithm plus
        # the client's delayed ACK (~40 ms each).
        import http.client
        import statistics

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        sockets, times = [], []
        try:
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                times.append(time.perf_counter() - started)
                assert response.status == 200
                sockets.append(connection.sock)
        finally:
            connection.close()
        assert all(sock is sockets[0] for sock in sockets)
        assert statistics.median(times) * 1e3 < 20.0


    def test_client_keeps_one_connection_per_thread(self, server):
        host, port = server.address
        client = ServiceClient(host, port, timeout_s=10.0)
        sockets = []
        for _ in range(5):
            assert client.healthz()["status"] == "ok"
            sockets.append(client._local.connection.sock)
        assert all(sock is sockets[0] for sock in sockets)

        errors = []

        def worker():
            try:
                for _ in range(5):
                    client.healthz()
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        # More threads than cores, switching often: a lost update to the
        # shared set of open connections would show in its size.
        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(client._open) == 7  # this thread's and one per worker
        with client:
            pass
        assert client._open == set()
        assert sockets[0].fileno() == -1  # closed
        assert client.healthz()["status"] == "ok"  # reconnects after close
        client.close()

    def test_oversized_body_gets_413_and_a_closed_connection(self, server):
        import socket

        from repro.service.server import MAX_BODY_BYTES

        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):  # the server closes: EOF
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0].decode().lower()
        assert head.startswith("http/1.1 413")
        assert "connection: close" in head.split("\r\n")


class _Scripted:
    """A bare HTTP/1.1 server whose connections misbehave on purpose.

    ``mode`` per connection: ``"silent-close"`` answers one request and
    then closes without saying so; ``"hang-up"`` does that on the first
    connection and closes every later one before answering anything;
    ``"announced-close"`` answers with ``Connection: close``.
    """

    def __init__(self, mode):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        scripted = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with scripted.lock:
                    scripted.connections += 1
                    self.number = scripted.connections

            def do_GET(self):  # noqa: N802 -- http.server API
                if scripted.mode == "hang-up" and self.number > 1:
                    self.close_connection = True
                    return
                body = b'{"status": "ok"}'
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if scripted.mode == "announced-close":
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = True

            def log_message(self, *args):
                pass

        self.mode = mode
        self.lock = threading.Lock()
        self.connections = 0
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def client(self):
        host, port = self.httpd.server_address[:2]
        return ServiceClient(host, port, timeout_s=10.0, max_retries=0)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5.0)


@pytest.fixture()
def scripted(request):
    server = _Scripted(request.param)
    yield server
    server.close()


class TestStaleConnections:
    @pytest.mark.parametrize("scripted", ["silent-close"], indirect=True)
    def test_stale_connection_reconnects(self, scripted):
        with scripted.client() as client:
            for _ in range(3):
                assert client.healthz() == {"status": "ok"}
        # Requests 2 and 3 each found their reused connection closed.
        assert scripted.connections == 3

    @pytest.mark.parametrize("scripted", ["hang-up"], indirect=True)
    def test_reconnects_only_once(self, scripted):
        with scripted.client() as client:
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(BackendUnavailableError):
                client.healthz()
            assert client._open == set()
        # The stale connection, then one fresh one that failed too.
        assert scripted.connections == 2

    @pytest.mark.parametrize("scripted", ["announced-close"], indirect=True)
    def test_announced_close_drops_the_connection(self, scripted):
        with scripted.client() as client:
            for _ in range(3):
                assert client.healthz() == {"status": "ok"}
                assert client._open == set()
        assert scripted.connections == 3


class TestClientRetries:
    def _overloaded_client(self, server, sleeps, retries=2):
        host, port = server.address
        return ServiceClient(
            host, port,
            max_retries=retries, backoff_s=0.01,
            rng=random.Random(5), sleep=sleeps.append,
        )

    def test_retry_honors_retry_after(self, collection):
        app = ServiceApp(collection, ServiceConfig(port=0, max_inflight=1, max_queue=0))
        server = MIOServer(app).start()
        sleeps = []
        try:
            decision = app.admission.admit()  # wedge the only slot
            assert decision.admitted
            client = self._overloaded_client(server, sleeps)
            with pytest.raises(ServiceOverloadedError) as info:
                client.query(4.0)
            assert info.value.retry_after is not None
        finally:
            app.admission.release()
            server.shutdown_gracefully()
        # Every backoff slept at least the server's hint (header is
        # integer-seconds, so >= 1s here), and the client gave up after
        # its retry budget.
        assert len(sleeps) == 2
        assert all(delay >= 1.0 for delay in sleeps)

    def test_retry_succeeds_once_capacity_frees(self, collection):
        app = ServiceApp(collection, ServiceConfig(port=0, max_inflight=1, max_queue=0))
        server = MIOServer(app).start()
        try:
            decision = app.admission.admit()
            assert decision.admitted

            def free_on_first_sleep(delay):
                app.admission.release()

            host, port = server.address
            client = ServiceClient(
                host, port, max_retries=3, backoff_s=0.01,
                rng=random.Random(5), sleep=free_on_first_sleep,
            )
            payload = client.query(4.0)
            assert payload["exact"] is True
            assert client.retries == 1
        finally:
            server.shutdown_gracefully()


class TestOverloadScenario:
    """Offered load >= 2x capacity: shed cleanly, never collapse."""

    def test_overload_sheds_with_429_and_serves_the_rest(self, collection):
        app = ServiceApp(
            collection,
            ServiceConfig(port=0, max_inflight=2, max_queue=2,
                          default_timeout_ms=2000.0),
        )
        server = MIOServer(app).start()
        host, port = server.address
        statuses = []
        lock = threading.Lock()

        def fire():
            client = ServiceClient(host, port, max_retries=0, timeout_s=30.0)
            try:
                payload = client.query(4.5)
                code = 200 if payload else 0
            except ServiceOverloadedError:
                code = 429
            with lock:
                statuses.append(code)

        threads = [threading.Thread(target=fire) for _ in range(16)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            server.shutdown_gracefully()

        assert len(statuses) == 16
        served = statuses.count(200)
        shed = statuses.count(429)
        assert served + shed == 16          # nothing vanished or 500ed
        assert served >= app.config.max_inflight + app.config.max_queue
        snapshot = app.snapshot()
        assert snapshot["shed"] == shed
        assert snapshot["admission"]["outcome_shed"] == shed


class TestGracefulShutdown:
    def test_drain_finishes_inflight_work(self, collection):
        app = ServiceApp(
            collection,
            ServiceConfig(port=0, max_inflight=2, max_queue=4, drain_s=10.0),
        )
        server = MIOServer(app).start()
        host, port = server.address
        payloads = []

        def slow_query():
            client = ServiceClient(host, port, max_retries=0, timeout_s=30.0)
            payloads.append(client.batch([{"r": 4.0}, {"r": 4.5}, {"r": 4.9}]))

        worker = threading.Thread(target=slow_query)
        worker.start()
        # Let the batch reach execution, then shut down underneath it.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if app.admission.snapshot()["inflight"] > 0:
                break
            time.sleep(0.002)
        drained = server.shutdown_gracefully()
        worker.join(timeout=30.0)
        assert drained is True
        assert len(payloads) == 1 and payloads[0]["count"] == 3
        assert app.ready is False

    def test_shutdown_is_idempotent(self, collection):
        server = serve(collection, ServiceConfig(port=0))
        assert server.shutdown_gracefully() is True
        # A second drain finds nothing in flight and succeeds again.
        assert server.app.drain(timeout_s=0.5) is True

    def test_requests_during_drain_get_503(self, collection):
        app = ServiceApp(collection, ServiceConfig(port=0))
        server = MIOServer(app).start()
        host, port = server.address
        app.begin_drain()
        try:
            client = ServiceClient(host, port, max_retries=0)
            with pytest.raises(ServiceOverloadedError):
                client.query(4.0)
            assert client.readyz()["ready"] is False
        finally:
            server.shutdown_gracefully()
