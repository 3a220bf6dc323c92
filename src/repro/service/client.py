"""A small stdlib client for LANTERN-SERVE.

Speaks HTTP/1.1 over a raw socket so callers (examples, benchmarks, course
tooling, the fleet router) can talk to the service without handling HTTP
details::

    client = LanternClient("http://127.0.0.1:8517")
    result = client.narrate(explain_json)            # format auto-detected
    print(result["narration"]["text"])

The client keeps its TCP connection **alive across requests** by default
(the server speaks HTTP/1.1 with persistent connections), which removes a
connect/teardown round-trip from every narration — the difference is
visible in ``BENCH_serve.json``.  A connection the server closed while idle
is detected and transparently re-established; pass ``keep_alive=False`` to
get the classic one-connection-per-request behaviour.  The client is also a
context manager: ``with LanternClient(...) as client: ...`` closes the
socket on exit.

Each request goes out in one ``sendall`` on a ``TCP_NODELAY`` socket, and
each reply is read by its ``Content-Length``: a chunked reply, or one
without a length, raises :class:`~repro.errors.ServiceError` instead of
hanging.

Non-2xx responses raise :class:`LanternServiceError` carrying the status
code and the decoded error body (including ``attempted_formats`` on 400s
from the plan registry).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Optional
from urllib.parse import urlsplit

from repro.errors import ServiceError


#: bounds on a reply head (status line and headers) and one ``recv``
MAX_REPLY_HEAD_BYTES = 64 * 1024
RECV_BYTES = 64 * 1024


class LanternServiceError(ServiceError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, body: dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {body.get('message', body)}")
        self.status = status
        self.body = body


class _ConnectionLost(ServiceError):
    """The server closed the connection before any byte of the reply."""


def _trace_headers(trace_id: Optional[str]) -> Optional[dict[str, str]]:
    return {"X-Lantern-Trace-Id": trace_id} if trace_id else None


class LanternClient:
    """Blocking JSON-over-HTTP client for one LANTERN-SERVE endpoint."""

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8517",
        timeout_s: float = 60.0,
        keep_alive: bool = True,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.keep_alive = keep_alive
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", ""):
            raise ServiceError(f"unsupported URL scheme {parts.scheme!r} (http only)")
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._path_prefix = parts.path.rstrip("/")
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._host_header = f"{host}:{self._port}"
        # one persistent connection PER THREAD: a connection carries one
        # request/reply exchange at a time, and callers do share one client
        # across hammering threads (the concurrency tests do, deliberately)
        self._local = threading.local()
        self._open_connections: list[_Connection] = []
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def narrate(
        self,
        plan: Any,
        plan_format: Optional[str] = None,
        mode: Optional[str] = None,
        presentation: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict[str, Any]:
        """POST ``/narrate``; ``plan`` may be serialized text or JSON objects.

        ``trace_id`` is sent as ``X-Lantern-Trace-Id`` so the server adopts
        the caller's trace instead of minting its own (the fleet router uses
        this to stitch router→worker span trees).
        """
        body: dict[str, Any] = {"plan": plan}
        if plan_format is not None:
            body["format"] = plan_format
        if mode is not None:
            body["mode"] = mode
        if presentation is not None:
            body["presentation"] = presentation
        return self._request("POST", "/narrate", body, headers=_trace_headers(trace_id))

    def narrate_batch(
        self,
        plans: list[Any],
        plan_format: Optional[str] = None,
        mode: Optional[str] = None,
        presentation: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict[str, Any]:
        """POST ``/narrate`` with a ``plans`` list (batch wire format).

        Returns the batch envelope ``{"results": [...], "count": N}``; each
        result is either a narration object or a per-item error object with
        its own ``status`` field — the envelope itself is always 200.
        """
        body: dict[str, Any] = {"plans": plans}
        if plan_format is not None:
            body["format"] = plan_format
        if mode is not None:
            body["mode"] = mode
        if presentation is not None:
            body["presentation"] = presentation
        return self._request("POST", "/narrate", body, headers=_trace_headers(trace_id))

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def prometheus_metrics(self) -> str:
        """GET ``/metrics?format=prometheus``: the raw text exposition."""
        return self._request("GET", "/metrics?format=prometheus", raw=True)

    def trace(self, limit: Optional[int] = None) -> dict[str, Any]:
        """GET ``/trace``: the N slowest recent request span trees."""
        path = "/trace" if limit is None else f"/trace?limit={int(limit)}"
        return self._request("GET", path)

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def request_json(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, Any]]:
        """One request returning ``(status, decoded_body)`` without raising
        on non-2xx — the fleet router relays worker error responses verbatim
        and must not translate a worker's 429/503 into a client exception.
        Transport failures (connection refused, reset) still raise
        :class:`~repro.errors.ServiceError` so callers can tell a dead
        worker from an unhappy one.
        """
        try:
            decoded = self._request(method, path, body, headers=headers)
        except LanternServiceError as error:
            return error.status, error.body
        return 200, decoded

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def _connection(self) -> Optional[_Connection]:
        """The calling thread's persistent connection (None when closed)."""
        return getattr(self._local, "connection", None)

    def _bind_connection(self, connection: Optional[_Connection]) -> None:
        self._local.connection = connection
        if connection is not None:
            with self._registry_lock:
                self._open_connections.append(connection)

    def _drop_connection(self) -> None:
        """Close and forget the calling thread's connection only."""
        connection = self._connection
        self._local.connection = None
        if connection is not None:
            with self._registry_lock:
                if connection in self._open_connections:
                    self._open_connections.remove(connection)
            connection.close()

    def close(self) -> None:
        """Close every thread's persistent connection; safe to call twice.

        Threads still holding a closed connection transparently reconnect
        on their next request.
        """
        self._local.connection = None
        with self._registry_lock:
            connections, self._open_connections = self._open_connections, []
        for connection in connections:
            connection.close()

    def __enter__(self) -> "LanternClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        raw: bool = False,
        headers: Optional[dict[str, str]] = None,
    ) -> Any:
        """One request; decodes JSON unless ``raw`` (returns the text)."""
        head = f"{method} {self._path_prefix}{path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        data = b""
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        if not self.keep_alive:
            head += "Connection: close\r\n"
        message = f"{head}\r\n".encode("iso-8859-1") + data
        # a kept-alive connection may have been closed by the server while
        # idle; that surfaces on the next use, as a reset or as a close
        # before any reply byte, so one retry on a REUSED connection is
        # expected (a close part-way through a reply raises instead)
        existing = self._connection
        reused = existing is not None and existing.sock is not None
        try:
            status, will_close, payload = self._round_trip(message)
        except TimeoutError as error:
            # never replayed: a timed-out request may have reached the
            # server, and narration requests have state side effects
            self._drop_connection()
            raise ServiceError(f"cannot reach {self.base_url}{path}: {error}") from error
        except (OSError, _ConnectionLost) as error:
            self._drop_connection()
            if not reused:
                raise ServiceError(
                    f"cannot reach {self.base_url}{path}: {error}"
                ) from error
            try:
                status, will_close, payload = self._round_trip(message)
            except (OSError, ServiceError) as retry_error:
                self._drop_connection()
                raise ServiceError(
                    f"cannot reach {self.base_url}{path}: {retry_error}"
                ) from retry_error
        except ServiceError:
            self._drop_connection()  # a malformed reply leaves the stream unusable
            raise

        if will_close or not self.keep_alive:
            self._drop_connection()
        if raw and 200 <= status < 300:
            return payload.decode("utf-8", errors="replace")
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"message": payload.decode("utf-8", errors="replace")}
        if not 200 <= status < 300:
            raise LanternServiceError(status, decoded)
        return decoded

    def _round_trip(self, message: bytes) -> tuple[int, bool, bytes]:
        """Send one request in one write and read its reply over the
        (possibly fresh) connection: ``(status, will_close, body)``.

        The body is read fully before returning so a kept-alive stream is
        positioned at the next reply boundary.
        """
        connection = self._connection
        if connection is None or connection.sock is None:
            # nothing bound, or a remnant some other thread's close() shut
            # down (sock=None only ever means closed here: a fresh
            # connection is bound and used within this call)
            self._drop_connection()
            connection = _Connection(self._host, self._port, self.timeout_s)
            self._bind_connection(connection)
        connection.sock.sendall(message)
        return connection.read_reply()


class _Connection:
    """One TCP stream to the server and the bytes read past the last reply."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.sock: Optional[socket.socket] = socket.create_connection((host, port), timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()

    def read_reply(self) -> tuple[int, bool, bytes]:
        """``(status, will_close, body)`` of the next reply on the stream."""
        sock = self.sock
        buffer = self._pending
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            if len(buffer) > MAX_REPLY_HEAD_BYTES:
                raise ServiceError(f"reply head exceeds {MAX_REPLY_HEAD_BYTES} bytes")
            chunk = sock.recv(RECV_BYTES)
            if not chunk:
                if buffer:
                    raise ServiceError("connection closed inside a reply head")
                raise _ConnectionLost("connection closed before a reply")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        lines = buffer[:end].decode("iso-8859-1").split("\r\n")
        buffer = buffer[end + 4 :]
        version, _, rest = lines[0].partition(" ")
        code = rest[:3]
        if not (version.startswith("HTTP/") and code.isascii() and code.isdigit()):
            raise ServiceError(f"malformed reply status line {lines[0][:64]!r}")
        status = int(code)
        fields: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        connection = fields.get("connection", "").lower()
        will_close = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )
        if "transfer-encoding" in fields:
            raise ServiceError(
                f"reply uses Transfer-Encoding {fields['transfer-encoding']!r}; "
                "only Content-Length framing is supported"
            )
        length = fields.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise ServiceError(f"reply has no valid Content-Length ({length[:32]!r})")
        return status, will_close, self._read_body(buffer, int(length))

    def _read_body(self, buffer: bytes, length: int) -> bytes:
        if len(buffer) >= length:
            self._pending = buffer[length:]
            return buffer[:length]
        self._pending = b""
        body = bytearray(length)
        body[: len(buffer)] = buffer
        view = memoryview(body)
        have = len(buffer)
        while have < length:
            received = self.sock.recv_into(view[have:])
            if not received:
                raise ServiceError(f"connection closed after {have} of {length} body bytes")
            have += received
        return bytes(body)
