"""The one HTTP front end of LANTERN-SERVE and the LANTERN-FLEET router.

Each process declares a **route table** — ``{(method, path): Route}`` — and
:func:`make_front_end` turns it into a ``BaseHTTPRequestHandler`` class.
That class owns everything both processes need from HTTP: bounded body
reading, JSON and text responses, 404s, the narration route's root span and
``respond`` stage, per-endpoint telemetry, and turning *any* exception into
a response through :func:`error_response`, the one error-to-status table.

The ``/narrate`` wire has one shape at every layer: a body with ``plan`` is
a batch of one.  :func:`envelope_plans` reads the plans out of a body and
:func:`narrate_response` turns the pipeline's per-plan items back into the
HTTP answer — item 0 itself for a single plan (an error item's ``status``
becomes the HTTP status), the ``{"results": [...]}`` envelope otherwise.

The transport is HTTP/1.1 with keep-alive.  :class:`FrontEnd` reads the
request head itself (:meth:`FrontEnd.parse_request`: no ``email`` header
parser) and writes each response — status line, headers and body — in one
write.  Bodies are framed by ``Content-Length`` only; a ``Transfer-Encoding``
request is refused.

Both processes also stop the same way: :func:`run_until_signalled` turns
SIGTERM and SIGINT into their orderly ``stop``.
"""

from __future__ import annotations

import functools
import json
import re
import signal
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable, NamedTuple, Optional
from urllib.parse import parse_qs

from repro.errors import (
    CacheFormatError,
    PlanDetectionError,
    PlanFormatError,
    ReproError,
    RequestError,
    RequestTooLargeError,
    RouteNotFoundError,
    ServiceDrainingError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.tracing import NOOP_SPAN, Tracer
from repro.service.telemetry import ServiceTelemetry

#: request body size bound — a QEP serialization has no business being larger
MAX_BODY_BYTES = 8 * 1024 * 1024
#: the header a caller (the fleet router) supplies its trace id in
TRACE_HEADER = "X-Lantern-Trace-Id"
#: what a 429 tells the client to wait, in the body and in ``Retry-After``
RETRY_AFTER_S = 1
#: request-head bounds: header lines per request, bytes per line (the
#: request line included)
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 64 * 1024

#: the methods a route table can serve; anything else is a 405
_METHODS = frozenset({"GET", "POST"})
_VERSION_RE = re.compile(r"HTTP/(\d{1,3})\.(\d{1,3})", re.ASCII)
#: transport-level refusals (answered before any route runs) → wire code
_TRANSPORT_ERRORS = {
    400: "bad_request",
    405: "method_not_allowed",
    411: "length_required",
    414: "too_large",
    431: "too_large",
    505: "version_not_supported",
}
_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: ``errors.py`` class → (HTTP status, wire ``error`` code); the first match
#: wins, so subclasses come before their bases
_ERROR_TABLE: tuple[tuple[type[ReproError], int, str], ...] = (
    (PlanFormatError, 400, "plan_format"),
    (PlanDetectionError, 400, "plan_format"),
    (RequestTooLargeError, 413, "too_large"),
    (RequestError, 400, "bad_request"),
    (CacheFormatError, 400, "bad_request"),
    (RouteNotFoundError, 404, "not_found"),
    (ServiceOverloadError, 429, "overloaded"),
    (ServiceDrainingError, 503, "draining"),
    (ServiceTimeoutError, 503, "timeout"),
    (ReproError, 400, "narration"),
)


def error_response(error: BaseException) -> tuple[int, dict[str, Any]]:
    """``(status, body)`` for any exception, whole response or batch item.

    Anything outside the :class:`~repro.errors.ReproError` hierarchy is a
    bug and answers 500 ``internal``.
    """
    for error_class, status, code in _ERROR_TABLE:
        if isinstance(error, error_class):
            body: dict[str, Any] = {"error": code, "message": str(error)}
            if isinstance(error, PlanDetectionError):
                body["attempted_formats"] = error.attempted_formats
            elif status == 429:
                body["retry_after_s"] = RETRY_AFTER_S
            return status, body
    return 500, {"error": "internal", "message": f"{type(error).__name__}: {error}"}


def error_item(error: BaseException) -> dict[str, Any]:
    """A failed plan's batch item: its error body plus its own ``status``."""
    status, body = error_response(error)
    body["status"] = status
    return body


def envelope_plans(body: Any) -> list[Any]:
    """The plans a ``/narrate`` body carries; ``{"plan": p}`` is ``[p]``."""
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    if "plan" in body:
        return [body["plan"]]
    if "plans" not in body:
        raise RequestError("request body needs a 'plan' key (or a 'plans' list)")
    plans = body["plans"]
    if not isinstance(plans, list) or not plans:
        raise RequestError("'plans' must be a non-empty list")
    return plans


class Route(NamedTuple):
    """One route-table entry."""

    #: ``handle(request) -> (status, body)``; the body is a JSON object or a
    #: ``(text, content_type)`` pair
    handle: Callable[["FrontEnd"], tuple[int, Any]]
    #: root span name of a narration route: its requests are traced, carry
    #: a ``trace_id``, and time their response write as the ``respond`` stage
    trace: Optional[str] = None


class FrontEnd(BaseHTTPRequestHandler):
    """Dispatches one connection's requests through the route table.

    Routes receive the handler itself as their request: ``query``, ``span``
    (the root span on narration routes, else the no-op span), ``headers``,
    :meth:`_read_body`, and ``labels`` — the ``plan_format``/``mode``
    telemetry labels a route may fill in.
    """

    protocol_version = "HTTP/1.1"
    # a response goes out in one write, but a reply larger than one segment
    # would still hold its short tail back until the client ACKs (Nagle)
    disable_nagle_algorithm = True
    routes: dict[tuple[str, str], Route] = {}
    telemetry: ServiceTelemetry
    tracer: Tracer
    #: request body bytes no route has read yet; a response sent while any
    #: are left closes the connection (they would desync the next request)
    _unread = 0

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # telemetry replaces access logs; stderr stays quiet

    def parse_request(self) -> bool:
        """Read the request head after the request line: version, at most
        :data:`MAX_HEADER_LINES` header lines of at most
        :data:`MAX_LINE_BYTES`, then ``Content-Length``, ``Connection`` and
        ``Expect: 100-continue``.  Returns ``False`` once a refusal is sent.
        """
        self.command = None
        self.close_connection = True
        self._unread = 0
        words = self.raw_requestline.decode("iso-8859-1").split()
        if len(words) != 3:
            self.send_error(400, "malformed request line")
            return False
        method, self.path, version = words
        if version == "HTTP/1.1":
            keep_alive = True
        elif version == "HTTP/1.0":
            keep_alive = False
        else:
            match = _VERSION_RE.fullmatch(version)
            if match is None:
                self.send_error(400, f"malformed HTTP version {version[:32]!r}")
                return False
            if match.group(1).lstrip("0") != "1":
                self.send_error(505, f"HTTP version {version} is not supported")
                return False
            keep_alive = int(match.group(2)) >= 1
        self.request_version = version
        http11 = keep_alive
        if method not in _METHODS:
            self.send_error(405, f"method {method[:32]!r} is not allowed")
            return False

        readline = self.rfile.readline
        fields: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = readline(MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, f"a header line exceeds {MAX_LINE_BYTES} bytes")
                return False
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                self.send_error(400, "malformed header line")
                return False
            name, value = name.lower(), value.strip()
            if name not in fields:
                fields[name] = value
            elif name == "content-length":
                if value != fields[name]:
                    self.send_error(400, "conflicting Content-Length headers")
                    return False
            else:
                fields[name] += ", " + value
        else:
            self.send_error(431, f"more than {MAX_HEADER_LINES} header lines")
            return False
        self.headers = Headers(fields)

        if "transfer-encoding" in fields:
            self.send_error(411, "Transfer-Encoding bodies are not accepted; send Content-Length")
            return False
        length = fields.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, f"invalid Content-Length {length[:32]!r}")
            return False
        self._unread = int(length)
        connection = fields.get("connection", "").lower()
        if connection == "close":
            keep_alive = False
        elif connection == "keep-alive":
            keep_alive = True
        self.command = method
        self.close_connection = not keep_alive
        if (
            0 < self._unread <= MAX_BODY_BYTES
            and http11
            and fields.get("expect", "").lower() == "100-continue"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Refuse a request before any route runs, as a JSON error in one
        write, and close the connection."""
        self.close_connection = True
        error = _TRANSPORT_ERRORS.get(code, "bad_request")
        self._send(code, {"error": error, "message": message or _REASONS.get(code, "")})

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        path, _, query_text = self.path.partition("?")
        path = path.rstrip("/") or "/"
        route = self.routes.get((method, path))
        traced = route is not None and route.trace is not None
        self.query = parse_qs(query_text)
        self.labels: dict[str, Optional[str]] = {}
        self.span = (
            self.tracer.trace(route.trace, trace_id=self.headers.get(TRACE_HEADER))
            if traced
            else NOOP_SPAN
        )
        with self.span:
            try:
                if route is None:
                    raise RouteNotFoundError(self.path)
                status, payload = route.handle(self)
            except Exception as error:  # noqa: BLE001 - the table's last row is 500
                status, payload = error_response(error)
                self.span.tag(error=payload["error"])
            self.span.tag(status=status)
            if traced:
                if self.span:
                    payload["trace_id"] = self.span.trace_id
                respond_started = time.perf_counter()
                self._send(status, payload)
                responded = time.perf_counter()
                self.span.add_child_at("respond", respond_started, responded, status=status)
                self.telemetry.record_stage("respond", responded - respond_started)
            else:
                self._send(status, payload)
        self.telemetry.record_request(
            status,
            time.perf_counter() - started,
            endpoint=path if route is not None else "other",
            **self.labels,
        )

    def _read_body(self, required: bool = True) -> Any:
        """The decoded JSON body (``None`` when absent and not ``required``)."""
        started = time.perf_counter()
        try:
            length = self._unread
            if length <= 0:
                if not required:
                    return None
                raise RequestError("missing request body")
            if length > MAX_BODY_BYTES:
                raise RequestTooLargeError(f"request body exceeds {MAX_BODY_BYTES} bytes")
            raw = self.rfile.read(length)
            self._unread = 0
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
                # RecursionError: a body nested deeper than the decoder recurses
                raise RequestError(f"invalid JSON body: {error}") from error
        finally:
            self.span.add_child_at("read_body", started, time.perf_counter())

    def _send(self, status: int, payload: Any) -> None:
        """Write the status line, headers and body as one buffer."""
        if isinstance(payload, dict):
            data, content_type = json.dumps(payload).encode("utf-8"), "application/json"
        else:
            text, content_type = payload
            data = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if status == 429:
            head += f"Retry-After: {RETRY_AFTER_S}\r\n"
        if self._unread:
            # the unread request body would desync a kept-alive stream
            self.close_connection = True
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(f"{head}\r\n".encode("iso-8859-1") + data)


class Headers(dict):
    """A request's header fields keyed by lower-cased name; :meth:`get`
    takes a name in any case.  Repeated fields are joined with ``", "``."""

    def get(self, name: str, default: Any = None) -> Any:  # type: ignore[override]
        return dict.get(self, name.lower(), default)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value, formatted once per second."""
    return formatdate(second, usegmt=True)


def narrate_response(
    request: FrontEnd, body: dict[str, Any], items: list[dict[str, Any]], **envelope: Any
) -> tuple[int, dict[str, Any]]:
    """The HTTP answer for one ``/narrate`` body from its per-plan items.

    A request carrying one plan is labelled with that plan's format and mode
    in the telemetry.
    """
    if len(items) == 1:
        request.labels = {"plan_format": items[0].get("format"), "mode": items[0].get("mode")}
    if "plan" in body:
        item = items[0]
        return item.pop("status", 200), item
    return 200, {"results": items, "count": len(items), **envelope}


def observability_routes(target: Any) -> dict[tuple[str, str], Route]:
    """``GET /metrics``, ``/trace`` and ``/healthz`` for a service or the
    fleet router (anything with ``metrics``, ``prometheus_metrics``,
    ``traces`` and ``healthz``)."""

    def metrics(request: FrontEnd) -> tuple[int, Any]:
        if request.query.get("format", [""])[0] == "prometheus":
            return 200, (target.prometheus_metrics(), PROMETHEUS_CONTENT_TYPE)
        return 200, target.metrics()

    def trace(request: FrontEnd) -> tuple[int, Any]:
        try:
            limit: Optional[int] = int(request.query["limit"][0])
        except (KeyError, ValueError):
            limit = None
        return 200, target.traces(limit)

    def healthz(request: FrontEnd) -> tuple[int, Any]:
        health = target.healthz()
        # non-ok states answer 503 so load balancers and the fleet router
        # can act on the status code alone
        return (200 if health["status"] == "ok" else 503), health

    return {
        ("GET", "/metrics"): Route(metrics),
        ("GET", "/trace"): Route(trace),
        ("GET", "/healthz"): Route(healthz),
    }


def make_front_end(
    server_version: str,
    routes: dict[tuple[str, str], Route],
    telemetry: ServiceTelemetry,
    tracer: Tracer,
) -> type[FrontEnd]:
    """A fresh handler class serving ``routes`` — one class per server, so
    patching one server's handler never touches another's."""
    attributes = {
        "server_version": server_version,
        "routes": routes,
        "telemetry": telemetry,
        "tracer": tracer,
    }
    return type("FrontEnd", (FrontEnd,), attributes)


def run_until_signalled(stop: Callable[[], None], announce: Callable[[], None]) -> None:
    """Install the SIGTERM and SIGINT handlers, run ``announce``, block
    until either signal, then run ``stop``: the one way every serving
    process (a service, a fleet worker, a fleet router) stops.

    ``announce`` prints the ``listening on`` line.  It runs only once the
    handlers are in place, so a signal sent as soon as that line is read
    (a router stopping a worker it just spawned) is not met by Python's
    default handlers.  The handlers only record the signal, so one arriving
    while ``stop`` runs (a Ctrl-C reaches the router and its workers, then
    the router's own SIGTERM follows) cannot cut the orderly stop short,
    and the process exits 0.  Call from the main thread.
    """
    received: list[int] = []
    previous = {
        number: signal.signal(number, lambda signum, frame: received.append(signum))
        for number in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        announce()
        while not received:
            time.sleep(0.1)
    finally:
        stop()
        for number, handler in previous.items():
            signal.signal(number, handler)
