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
"""

from __future__ import annotations

import json
import time
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
    # headers and body go out as separate small writes; with Nagle on, the
    # body segment stalls behind the client's delayed ACK (~40 ms) on every
    # kept-alive request
    disable_nagle_algorithm = True
    routes: dict[tuple[str, str], Route] = {}
    telemetry: ServiceTelemetry
    tracer: Tracer

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # telemetry replaces access logs; stderr stays quiet

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
                    self._read_body(required=False)  # keep a kept-alive stream in step
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
                with self.span.child("respond", status=status):
                    self._send(status, payload)
                    self.telemetry.record_stage("respond", time.perf_counter() - respond_started)
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
        with self.span.child("read_body"):
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length <= 0:
                if not required:
                    return None
                self.close_connection = True
                raise RequestError("missing request body")
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise RequestTooLargeError(f"request body exceeds {MAX_BODY_BYTES} bytes")
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
                # RecursionError: a body nested deeper than the decoder recurses
                raise RequestError(f"invalid JSON body: {error}") from error

    def _send(self, status: int, payload: Any) -> None:
        if isinstance(payload, dict):
            data, content_type = json.dumps(payload).encode("utf-8"), "application/json"
        else:
            text, content_type = payload
            data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if status == 429:
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if self.close_connection:
            # set when the request body was not (fully) read: the unread
            # bytes would desync a kept-alive HTTP/1.1 stream, so tell the
            # client this connection is done
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


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
