"""The HTTP transport over a real loopback socket.

Everything else in ``tests/service/`` drives the app without a socket;
these tests run :func:`repro.service.cli.build_server` on a thread and
pin what only a socket shows: persistent HTTP/1.1 connections, which
requests close them, and that a request whose body framing cannot be
trusted closes the connection instead of leaving stray bytes to be
parsed as the next request.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.service import cli
from repro.service.app import MAX_BODY_BYTES
from repro.service.cli import build_server

SIMULATE = {"scenario": "passwords", "n_receivers": 60, "seed": 4}
ANALYZE = {"scenario": "passwords", "params": {"single_sign_on": True}}


class CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts the TCP connections it opens."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opened = 0

    def connect(self) -> None:
        super().connect()
        self.opened += 1


@pytest.fixture
def server(app):
    server = build_server(app, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def socketless(app, method, path, body=None) -> bytes:
    """The bytes the app serves for a request, computed without a socket."""
    _, payload = app.handle(method, path, body=body)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def exchange(port: int, raw: bytes, timeout: float = 10.0) -> bytes:
    """Send raw request bytes; everything the server sends until it closes.

    A connection the server keeps open times out here, failing the test.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def assert_closed(sock: socket.socket, within: float = 10.0) -> float:
    """Seconds until the server closes ``sock`` (EOF, not a timeout)."""
    sock.settimeout(within)
    started = time.monotonic()
    assert sock.recv(1) == b""
    return time.monotonic() - started


class TestKeepAlive:
    def test_three_requests_share_one_connection_byte_for_byte(self, app, server):
        requests = [
            ("GET", "/scenarios/passwords", None),
            ("POST", "/analyze", ANALYZE),
            ("POST", "/simulate", SIMULATE),
        ]
        for method, path, body in requests:  # prime: later answers are hits
            app.handle(method, path, body=body)
        conn = CountingConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            for method, path, body in requests:
                data = None if body is None else json.dumps(body).encode("utf-8")
                conn.request(method, path, body=data)
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200
                assert response.version == 11
                assert not response.will_close
                assert payload == socketless(app, method, path, body)
            assert conn.opened == 1
        finally:
            conn.close()

    def test_connection_close_request_is_answered_then_closed(self, server):
        raw = exchange(
            server.server_port,
            b"GET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("connection", [b"", b"Connection: keep-alive\r\n"])
    def test_http10_request_is_answered_then_closed(self, server, connection):
        raw = exchange(
            server.server_port, b"GET /health HTTP/1.0\r\n" + connection + b"\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in raw
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_head_request_is_answered_then_closed(self, server):
        raw = exchange(
            server.server_port, b"HEAD /health HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 405 ")
        assert b"\r\nConnection: close" in raw

    def test_urllib_client_still_works(self, app, server):
        app.handle("POST", "/analyze", body=ANALYZE)
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.server_port}/analyze",
            data=json.dumps(ANALYZE).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            payload = response.read()
        assert payload == socketless(app, "POST", "/analyze", ANALYZE)

    def test_idle_connection_is_dropped_after_the_timeout(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(cli, "KEEPALIVE_IDLE_S", 0.2)
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            assert not response.will_close
            assert assert_closed(conn.sock) < 5.0
        finally:
            conn.close()


class TestBodyFraming:
    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1_0", b"0x10"])
    def test_malformed_content_length_is_400_and_closes(self, server, length):
        follow_up = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
        raw = exchange(
            server.server_port,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + length
            + b"\r\n\r\n"
            + follow_up,
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"] == "bad_request"
        # The stray follow-up bytes were never parsed as a request.
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_oversized_body_is_413_and_closes(self, server):
        raw = exchange(
            server.server_port,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode("ascii")
            + b"\r\n\r\n",
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
        assert b"\r\nConnection: close" in head
        payload = json.loads(body)
        assert payload["error"] == "payload_too_large"
        assert payload["limit"] == MAX_BODY_BYTES

    def test_chunked_body_is_400_and_closes(self, server):
        raw = exchange(
            server.server_port,
            b"POST /analyze HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in raw.partition(b"\r\n\r\n")[2]
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_body_cut_short_is_400_and_closes(self, server):
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=10) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: test\r\nContent-Length: 50\r\n\r\n{}"
            )
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"ended after 2 of 50 bytes" in raw

    def test_expect_continue_is_sent_before_the_body(self, server):
        body = json.dumps(ANALYZE).encode("utf-8")
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=10) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
                b"Expect: 100-continue\r\nContent-Length: "
                + str(len(body)).encode("ascii")
                + b"\r\n\r\n"
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 200 ")

    def test_bad_json_keeps_the_connection(self, server):
        conn = CountingConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            conn.request("POST", "/analyze", body=b"{not json")
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert not response.will_close
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert conn.opened == 1
        finally:
            conn.close()
