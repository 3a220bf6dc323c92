"""The HTTP/1.1 transport of both front ends and of ``LanternClient``.

Every test of the server side runs against the single-process service and
against the fleet router, over raw sockets, so it sees exactly the bytes on
the wire.  The client tests run ``LanternClient`` against scripted raw
socket servers that misbehave on purpose.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ServiceError
from repro.service import LanternClient, LanternServiceError, build_service
from repro.service.fleet import FleetConfig, LanternFleet
from repro.service.frontend import MAX_HEADER_LINES

PLAN_A = {"Plan": {"Node Type": "Seq Scan", "Relation Name": "author"}}
PLAN_B = {"Plan": {"Node Type": "Seq Scan", "Relation Name": "publication"}}


@pytest.fixture(scope="module", params=["service", "router"])
def front_end(request):
    """``(address, handler class)`` of a running service or fleet router."""
    if request.param == "service":
        server = build_service(port=0)
        address = server.start()
    else:
        server = LanternFleet(
            FleetConfig(num_workers=1, port=0, heartbeat_interval_s=0.5, snapshot_every=0)
        )
        address = server.start()
    yield address, server._httpd.RequestHandlerClass
    server.stop()


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Replies:
    """Reads the replies on one raw connection, one at a time."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def next(self) -> tuple[int, dict[str, str], bytes]:
        """``(status, headers, body)`` of the next reply (1xx included)."""
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), f"connection closed inside a reply head: {self.buffer!r}"
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("iso-8859-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            assert self._fill(), "connection closed inside a reply body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, body

    def closed(self) -> bool:
        """True once the server has closed the connection (nothing pending)."""
        return not self.buffer and not self._fill()


def _request(method: str, path: str, body: Optional[dict] = None, extra: str = "") -> bytes:
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    return f"{head}\r\n".encode("ascii") + data


def _exchange(address, message: bytes) -> tuple[int, dict[str, str], bytes, bool]:
    """Send ``message``, read one reply; also whether the server then closed."""
    with _connect(address) as sock:
        sock.sendall(message)
        replies = _Replies(sock)
        status, headers, body = replies.next()
        return status, headers, body, replies.closed()


# ---------------------------------------------------------------------------
# server side, both front ends
# ---------------------------------------------------------------------------


class TestRequestHead:
    def test_malformed_request_line_is_400_and_closes(self, front_end):
        address, _ = front_end
        status, headers, body, closed = _exchange(address, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == "bad_request"
        assert closed

    def test_too_many_header_lines_is_431(self, front_end):
        address, _ = front_end
        lines = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(MAX_HEADER_LINES + 1))
        status, headers, _, closed = _exchange(address, _request("GET", "/healthz", extra=lines))
        assert status == 431
        assert headers["connection"] == "close"
        assert closed
        lines = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(MAX_HEADER_LINES - 2))
        status, _, _, _ = _exchange(
            address, _request("GET", "/healthz", extra=lines + "Connection: close\r\n")
        )
        assert status == 200  # Host, Connection and 98 more is exactly the bound

    def test_conflicting_content_lengths_are_400(self, front_end):
        address, _ = front_end
        message = (
            b"POST /narrate HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}"
        )
        status, headers, body, _ = _exchange(address, message)
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["message"]

    def test_chunked_request_is_refused(self, front_end):
        address, _ = front_end
        message = (
            b"POST /narrate HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        status, headers, _, _ = _exchange(address, message)
        assert status == 411
        assert headers["connection"] == "close"

    def test_expect_100_continue(self, front_end):
        address, _ = front_end
        data = json.dumps({"plan": PLAN_A}).encode("utf-8")
        head = (
            "POST /narrate HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode("ascii")
        with _connect(address) as sock:
            sock.sendall(head)
            replies = _Replies(sock)
            assert replies.next()[0] == 100  # sent before the body is
            sock.sendall(data)
            status, headers, body = replies.next()
        assert status == 200
        assert "author" in json.loads(body)["narration"]["text"]
        assert "connection" not in headers

    def test_http_1_0_is_answered_then_closed(self, front_end):
        address, _ = front_end
        status, headers, body, closed = _exchange(
            address, b"GET /healthz HTTP/1.0\r\nHost: test\r\n\r\n"
        )
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close"
        assert closed

    @pytest.mark.parametrize("version, expected", [("HTTP/2.0", 505), ("HTTP/x.y", 400)])
    def test_unsupported_or_malformed_version(self, front_end, version, expected):
        address, _ = front_end
        status, _, _, closed = _exchange(address, f"GET /healthz {version}\r\n\r\n".encode())
        assert status == expected
        assert closed

    def test_pipelined_requests_are_answered_in_order(self, front_end):
        address, _ = front_end
        with _connect(address) as sock:
            sock.sendall(
                _request("POST", "/narrate", {"plan": PLAN_A})
                + _request("POST", "/narrate", {"plan": PLAN_B})
                + _request("GET", "/healthz")
            )
            replies = _Replies(sock)
            first, second, third = replies.next(), replies.next(), replies.next()
        assert [reply[0] for reply in (first, second, third)] == [200, 200, 200]
        assert "author" in json.loads(first[2])["narration"]["text"]
        assert "publication" in json.loads(second[2])["narration"]["text"]
        assert json.loads(third[2])["status"] == "ok"

    def test_each_response_is_one_write(self, front_end, monkeypatch):
        address, handler_class = front_end
        writes: list[int] = []
        original_setup = handler_class.setup

        class CountingWriter:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                writes.append(len(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        def setup(handler):
            original_setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(handler_class, "setup", setup)
        with _connect(address) as sock:
            replies = _Replies(sock)
            for message in (
                _request("GET", "/healthz"),
                _request("POST", "/narrate", {"plan": PLAN_A}),
                _request("GET", "/nowhere"),
            ):
                sock.sendall(message)
                status, headers, body = replies.next()
                assert len(writes) == 1
                assert writes.pop() > len(body)  # head and body in the one write
                assert headers["server"] and headers["date"]
                assert status in (200, 404)

    @pytest.mark.parametrize(
        "message, expected",
        [
            (b"GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 4\r\n\r\nabcd", 200),
            (b"POST /nowhere HTTP/1.1\r\nHost: test\r\nContent-Length: 4\r\n\r\nabcd", 404),
        ],
    )
    def test_unread_body_closes_the_connection(self, front_end, message, expected):
        """A body no route reads is never parsed (so an unknown path is a
        404 whatever its body); the connection then closes."""
        address, _ = front_end
        status, headers, _, closed = _exchange(address, message)
        assert status == expected
        assert headers["connection"] == "close"
        assert closed


#: request-head pieces, printable ISO-8859-1 text without CR or LF
_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"),
    max_size=40,
)
_METHOD = st.sampled_from(["GET", "POST", "HEAD", "PUT", "get", ""]) | _TEXT
_PATH = st.sampled_from(["/healthz", "/narrate", "/metrics", "/", "*"]) | _TEXT
_VERSION = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9", "HTTP/1", ""]) | _TEXT
_HEADER = (
    st.tuples(
        st.sampled_from(
            ["Content-Length", "Connection", "Expect", "Transfer-Encoding", "Host", "X-Other"]
        )
        | _TEXT,
        st.sampled_from(["0", "5", "close", "keep-alive", "100-continue", "chunked", "-1"])
        | _TEXT,
        st.sampled_from([": ", ":", " : ", ""]),
    ).map(lambda parts: f"{parts[0]}{parts[2]}{parts[1]}")
    | _TEXT
)


@st.composite
def _garbage_heads(draw) -> bytes:
    parts = [draw(_METHOD), draw(_PATH), draw(_VERSION)]
    request_line = draw(st.sampled_from([" ", "  ", "\t"])).join(parts)
    headers = draw(st.lists(_HEADER, max_size=6))
    return "\r\n".join([request_line, *headers, "", ""]).encode("iso-8859-1")


@given(head=_garbage_heads())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_garbage_request_heads_never_get_a_500(front_end, head):
    """Whatever the head, the answer is a 4xx (or 505), never a 500; the
    server then still answers a good ``/healthz``."""
    address, _ = front_end
    if b"admin" in head:
        return  # a head that happens to be a real admin call is not garbage
    with _connect(address) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)  # no body follows: the server reads EOF
        replies = _Replies(sock)
        status = 100
        while 100 <= status < 200:
            status = replies.next()[0]
    assert status != 500 and (status < 500 or status == 505), (head, status)
    with LanternClient(f"http://{address[0]}:{address[1]}", timeout_s=30) as client:
        assert client.healthz()["status"] == "ok"


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class ScriptedServer:
    """A raw socket server: each accepted connection runs ``script(sock,
    index)``; ``requests`` counts the request heads the scripts read."""

    def __init__(self, script: Callable[["ScriptedServer", socket.socket, int], None]) -> None:
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.requests = 0
        self.connections = 0
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            index = self.connections
            self.connections += 1
            threading.Thread(target=self._run, args=(sock, index), daemon=True).start()

    def _run(self, sock: socket.socket, index: int) -> None:
        with sock:
            self.script(self, sock, index)

    def read_request(self, sock: socket.socket) -> bytes:
        """Read one request head (the client's requests here carry no body)."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return b""
            data += chunk
        self.requests += 1
        return data

    def close(self) -> None:
        self.release.set()
        self.listener.close()


def _ok(body: bytes = b'{"status": "ok"}') -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


class TestClientTransport:
    def test_idle_connection_closed_by_the_server_is_retried_once(self):
        """The server answers one request per connection and then closes it
        without saying so; the client's second request finds the stale
        connection, reconnects once, and the caller never notices."""

        def script(server, sock, index):
            if server.read_request(sock):
                sock.sendall(_ok())

        server = ScriptedServer(script)
        try:
            with LanternClient(server.url, timeout_s=10) as client:
                assert client.healthz() == {"status": "ok"}
                time.sleep(0.1)  # the server's close reaches the client
                assert client.healthz() == {"status": "ok"}
            assert server.connections == 2
            assert server.requests == 2
        finally:
            server.close()

    def test_timeout_raises_and_is_not_replayed(self):
        def script(server, sock, index):
            if server.read_request(sock):
                sock.sendall(_ok())
            if server.read_request(sock):
                server.release.wait(timeout=10)  # never answer the second

        server = ScriptedServer(script)
        try:
            with LanternClient(server.url, timeout_s=0.5) as client:
                client.healthz()
                started = time.monotonic()
                with pytest.raises(ServiceError, match="timed out"):
                    client.healthz()  # on the reused connection
                assert time.monotonic() - started < 5
            time.sleep(0.2)
            assert server.requests == 2
            assert server.connections == 1
        finally:
            server.close()

    @pytest.mark.parametrize(
        "reply, detail",
        [
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                "Transfer-Encoding",
            ),
            (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", "Content-Length"),
            (b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}", "Content-Length"),
            (b"SPDY/9 what\r\n\r\n", "status line"),
        ],
    )
    def test_unframed_reply_raises_instead_of_hanging(self, reply, detail):
        def script(server, sock, index):
            if server.read_request(sock):
                sock.sendall(reply)
                server.release.wait(timeout=10)  # keep the connection open

        server = ScriptedServer(script)
        try:
            with LanternClient(server.url, timeout_s=10) as client:
                started = time.monotonic()
                with pytest.raises(ServiceError, match=detail) as excinfo:
                    client.healthz()
                assert not isinstance(excinfo.value, LanternServiceError)
                assert time.monotonic() - started < 5
                assert client._connection is None  # the stream is not reused
            assert server.requests == 1
        finally:
            server.close()

    def test_each_request_is_one_send(self, front_end, monkeypatch):
        address, _ = front_end
        sends: list[tuple[socket.socket, int]] = []
        original = socket.socket.sendall

        def sendall(sock, data, *args):
            sends.append((sock, len(data)))
            return original(sock, data, *args)

        with LanternClient(f"http://{address[0]}:{address[1]}") as client:
            client.healthz()
            client_sock = client._connection.sock
            monkeypatch.setattr(socket.socket, "sendall", sendall)
            result = client.narrate(PLAN_A)
            monkeypatch.undo()
        assert "author" in result["narration"]["text"]
        assert [size for sock, size in sends if sock is client_sock] == [
            len(_request("POST", "/narrate", {"plan": PLAN_A})) - len("Host: test\r\n")
            + len(f"Host: {address[0]}:{address[1]}\r\n")
        ]
