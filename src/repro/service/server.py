"""The stdlib HTTP front end over :class:`~repro.service.app.ServiceApp`.

A deliberately thin adapter: ``http.server.ThreadingHTTPServer`` gives us
one handler thread per connection, and every robustness decision --
admission, deadlines, the breaker, error mapping -- already lives in the
transport-agnostic app core, so this module only moves bytes and runs
the graceful-shutdown choreography:

1. :meth:`MIOServer.shutdown_gracefully` flips ``/readyz`` to 503 and
   puts the admission controller in drain mode (new arrivals get 503,
   queued waiters are released as draining);
2. in-flight requests finish within the configured drain budget;
3. the listener socket closes.

Load balancers that poll ``/readyz`` stop routing at step 1, which is
what makes rollouts lossless.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.obs.logging import get_logger
from repro.service.app import Response, ServiceApp

#: Cap on accepted request bodies; larger payloads get HTTP 413 before
#: any parsing happens (a batch of max_batch requests is ~10 KiB).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler; all logic delegates to the app."""

    server_version = "repro-mio/1.0"
    protocol_version = "HTTP/1.1"
    # Keep-alive connections must not wait on Nagle's algorithm: with the
    # unbuffered default the headers and the body leave as separate small
    # writes, and a client reusing the connection then waits out its
    # delayed ACK (~40 ms) on every response.  Buffering the writer sends
    # a response in one write (``handle_one_request`` flushes once per
    # request); TCP_NODELAY covers bodies larger than the buffer.
    wbufsize = -1
    disable_nagle_algorithm = True

    # Set by MIOServer before the server starts.
    app: ServiceApp

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        params = dict(parse_qsl(split.query))
        body: Optional[bytes] = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                # The body stays unread, so the connection cannot carry
                # another request: say so, and close it after the reply.
                self._send(
                    Response(
                        status=413,
                        payload={
                            "error": "InvalidQueryError",
                            "message": f"request body exceeds {MAX_BODY_BYTES} bytes",
                            "status": 413,
                        },
                        headers={"Connection": "close"},
                    )
                )
                return
            body = self.rfile.read(length) if length else b""
        response = self.app.handle(
            method, split.path, params, body,
            trace_id=self.headers.get("X-Trace-Id"),
        )
        self._send(response)

    def _send(self, response: Response) -> None:
        body = response.body_bytes()
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-response; nothing sensible to do

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Route access logs through the structured logger instead of
        # stderr spam; a no-op unless logging is configured.
        get_logger().log("http_access", line=format % args)


class _Server(ThreadingHTTPServer):
    # A deep listen backlog: overload is *admission control's* call (shed
    # with 429 + Retry-After), not the kernel's (connection resets once
    # the SYN queue overflows under a connection burst).
    request_queue_size = 128


class MIOServer:
    """A running query service: ThreadingHTTPServer + the app core."""

    def __init__(self, app: ServiceApp) -> None:
        self.app = app
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self._httpd = _Server((app.config.host, app.config.port), handler)
        # daemon_threads: a hung client connection cannot block process
        # exit after the drain budget has been honored.
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolves port 0 to the real port."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown_gracefully`."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "MIOServer":
        """Serve on a background thread (tests and the bundled client)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="mio-server", daemon=True
        )
        self._thread.start()
        return self

    def shutdown_gracefully(self, drain_s: Optional[float] = None) -> bool:
        """Drain in-flight work, then stop the listener.

        Returns True when every in-flight request finished inside the
        drain budget; False means the budget expired with work still
        running (the daemonized handler threads are abandoned).
        """
        drained = self.app.drain(drain_s)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        return drained

    def __enter__(self) -> "MIOServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown_gracefully()
