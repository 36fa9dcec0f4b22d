"""``python -m repro.service serve`` — the stdlib WSGI server front door.

Serving uses :class:`wsgiref.simple_server.WSGIServer` with a threading
mix-in: one handler thread per persistent connection (job execution
stays on the service's own worker thread), so the whole service runs on
the standard library alone.  Connections speak HTTP/1.1 keep-alive: a
client may send request after request on one socket.  The server closes
the connection after a request that asks for it (``Connection: close``,
any HTTP/1.0 request, any HEAD request) or whose body framing it cannot
trust, when the client hangs up, and once the connection has waited
:data:`KEEPALIVE_IDLE_S` seconds for its next request.  ``--data-dir``
locates the durable state: the result-cache stream and the job ledgers,
both of which a restarted server replays.
"""

from __future__ import annotations

import argparse
import socketserver
from http.server import BaseHTTPRequestHandler
from typing import List, Optional
from wsgiref.simple_server import (
    ServerHandler,
    WSGIRequestHandler,
    WSGIServer,
    make_server,
)

from .app import CLOSE_CONNECTION, ServiceApp, create_app
from .state import ServiceConfig

__all__ = ["main", "build_server", "KEEPALIVE_IDLE_S"]

#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it and frees its handler thread.
KEEPALIVE_IDLE_S = 15.0


class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    """One handler thread per connection; daemonic so shutdown is prompt."""

    daemon_threads = True


class _KeepAliveServerHandler(ServerHandler):
    """wsgiref's response writer, speaking HTTP/1.1.

    Announces ``Connection: close`` on the response that ends the
    connection, whether the client asked for it or the app flagged a
    request whose body framing cannot be trusted.
    """

    http_version = "1.1"
    request_handler: "_QuietHandler"

    def cleanup_headers(self) -> None:
        super().cleanup_headers()
        if self.environ.get(CLOSE_CONNECTION):
            self.request_handler.close_connection = True
        if self.request_handler.close_connection:
            self.headers["Connection"] = "close"

    def handle_error(self) -> None:
        # A response that failed midway leaves the stream unusable.
        self.request_handler.close_connection = True
        super().handle_error()


class _QuietHandler(WSGIRequestHandler):
    """Persistent HTTP/1.1 connections; per-request logging off.

    The request loop is :class:`http.server.BaseHTTPRequestHandler`'s
    (``handle_one_request`` until ``close_connection``); each request
    runs the app through :class:`_KeepAliveServerHandler`.  Responses are
    buffered and flushed once, and Nagle is off, so a reply leaves in one
    segment instead of waiting on the client's delayed ACK.  The job
    ledger, not an access log, is the service's record.
    """

    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = KEEPALIVE_IDLE_S  # the socket timeout bounds idle waits
        super().setup()

    def handle(self) -> None:
        BaseHTTPRequestHandler.handle(self)  # wsgiref's answers one request

    def handle_one_request(self) -> None:
        try:
            self.raw_requestline = self.rfile.readline(65537)
        except OSError:  # idle past the timeout, or reset by the client
            self.close_connection = True
            return
        if not self.raw_requestline:  # the client hung up
            self.close_connection = True
            return
        if len(self.raw_requestline) > 65536:
            self.requestline = self.request_version = self.command = ""
            self.send_error(414)
            return
        if not self.parse_request():  # an error response has been sent
            return
        if self.request_version != "HTTP/1.1" or self.command == "HEAD":
            # HEAD: the app answers with a body the client will not read.
            self.close_connection = True
        handler = _KeepAliveServerHandler(
            self.rfile,
            self.wfile,
            self.get_stderr(),
            self.get_environ(),
            multithread=True,
        )
        handler.request_handler = self
        handler.run(self.server.get_app())  # type: ignore[attr-defined]

    def handle_expect_100(self) -> bool:
        sent = super().handle_expect_100()
        self.wfile.flush()  # the client holds the body back until it sees this
        return sent

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


def build_server(
    app: ServiceApp, host: str, port: int
) -> "WSGIServer":
    """A ready-to-serve threading WSGI server bound to ``host:port``.

    Split from :func:`main` so the quickstart example and the benchmark
    can run a real loopback server in-process (port 0 picks a free one).
    """
    return make_server(
        host,
        port,
        app,
        server_class=ThreadingWSGIServer,
        handler_class=_QuietHandler,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service over the scenario registry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    serve = subparsers.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument(
        "--data-dir",
        default="service-data",
        help="directory for the cache stream and job ledgers",
    )
    serve.add_argument(
        "--inline-threshold",
        type=int,
        default=100_000,
        help="receiver-round budget above which runs become async jobs",
    )
    args = parser.parse_args(argv)

    config = ServiceConfig(
        data_dir=args.data_dir, inline_threshold=args.inline_threshold
    )
    app = create_app(config)
    server = build_server(app, args.host, args.port)
    print(
        f"repro.service listening on http://{args.host}:{server.server_port} "
        f"(data: {args.data_dir})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.state.close()
    return 0
