"""The LANTERN-SERVE HTTP API: ``POST /narrate``, ``GET /metrics``, ``GET /healthz``.

Pure stdlib (:class:`http.server.ThreadingHTTPServer`), so the serving layer
deploys anywhere the library does.  The HTTP plumbing is the shared route
table front end of :mod:`repro.service.frontend`.  Handler threads parse and
validate payloads, then hand the operator trees to the shared
:class:`~repro.service.batcher.MicroBatcher`; narration itself always runs
on the batcher's single worker thread, which is what lets concurrent
requests share one fused neural decode per batch window.

``POST /narrate`` request body (JSON)::

    {
      "plan": <EXPLAIN JSON | showplan XML string | MySQL EXPLAIN JSON |
               OperatorTree.to_dict() object>,
      "format": "postgres-json" | "sqlserver-xml" | "mysql-json" | ...,   # optional
      "mode": "rule" | "neural" | "auto",                                  # optional
      "presentation": "document" | "annotated-tree"                        # optional
    }

A ``"plans": [...]`` list in place of ``"plan"`` narrates many plans; a
single plan is that batch of one, unwrapped.  Responses: 200 with the
narration document, 400 for malformed payloads (including the registry's
attempted-format list), 429 when the admission queue is full, 503 when a
narration times out — the one table in
:func:`repro.service.frontend.error_response`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Any, Optional

from repro.core.lantern import MODE_AUTO, MODE_NEURAL, MODE_RULE, Lantern
from repro.core.narration import Narration
from repro.core.presentation import PRESENTATION_MODES
from repro.errors import RequestError, ServiceDrainingError
from repro.obs.events import JsonEventLog
from repro.obs.tracing import NOOP_SPAN, Span, TraceStore, Tracer
from repro.plans.operator_tree import OperatorTree
from repro.service.batcher import BatcherConfig, MicroBatcher
from repro.service.frontend import (  # noqa: F401 - MAX_BODY_BYTES is re-exported
    MAX_BODY_BYTES,
    FrontEnd,
    Route,
    envelope_plans,
    error_item,
    make_front_end,
    narrate_response,
    observability_routes,
)
from repro.service.telemetry import ServiceTelemetry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8517


def _process_rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` when unmeasurable.

    ``/proc/self/statm`` (Linux) gives current residency in pages; the
    ``resource`` fallback reports the lifetime *peak* (``ru_maxrss``, in
    KiB on Linux) — close enough for the dashboard on other platforms.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        import os

        return resident_pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, AttributeError, OSError, ValueError):
        # no resource module (or no usable rusage) on this platform
        return None

_MODES = (MODE_RULE, MODE_NEURAL, MODE_AUTO)

@dataclass
class ServiceConfig:
    """Everything the serving layer can be tuned with."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: default narration mode when a request does not name one
    default_mode: str = MODE_RULE
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    #: LANTERN-SCOPE tracing knobs
    tracing_enabled: bool = True
    #: how many recent traces the ``GET /trace`` store remembers
    trace_window: int = 256
    #: how many slowest-of-window traces ``GET /trace`` returns by default
    trace_keep: int = 16
    #: JSONL file receiving sampled trace events (``--trace-log``); None = off
    trace_log: Optional[str] = None
    #: emit every Nth finished trace to the trace log (1 = all)
    trace_log_every: int = 1
    #: stable identity of this serving process inside a fleet (surfaced in
    #: ``/healthz`` and ``/metrics`` so the router can attribute responses);
    #: None outside LANTERN-FLEET
    instance_id: Optional[str] = None


class LanternService:
    """The servable unit: one Lantern + batcher + telemetry, HTTP-fronted.

    Separate from the HTTP plumbing so tests (and embedders) can call
    :meth:`narrate_items` / :meth:`metrics` directly, and so a future
    transport (async, gRPC, ...) can reuse the whole serving core.
    """

    def __init__(
        self,
        lantern: Optional[Lantern] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        # the serving default narrator is deterministic (seed=None): response
        # wording then never depends on request arrival order, and the
        # rule-phase memo kicks in for repeated plan shapes
        from repro.core.lantern import LanternConfig

        self.lantern = (
            lantern if lantern is not None else Lantern(config=LanternConfig(seed=None))
        )
        self.config = config or ServiceConfig()
        self.telemetry = ServiceTelemetry()
        self.trace_log: Optional[JsonEventLog] = (
            JsonEventLog(self.config.trace_log) if self.config.trace_log else None
        )
        self.tracer = Tracer(
            enabled=self.config.tracing_enabled,
            store=TraceStore(window=self.config.trace_window, keep=self.config.trace_keep),
            log=self.trace_log,
            log_every=self.config.trace_log_every,
        )
        self.batcher = MicroBatcher(
            self.lantern, config=self.config.batcher, telemetry=self.telemetry
        )
        #: set by :meth:`begin_drain` — ``/healthz`` answers ``"draining"``
        #: (503) and new narrations are refused, while in-flight ones finish
        self.draining = False
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------

    def narrate_items(self, body: Any, span: Span = NOOP_SPAN) -> list[dict[str, Any]]:
        """The one ``/narrate`` pipeline: one response item per plan of ``body``.

        Envelope problems (draining, not an object, no plans, an unknown
        ``mode`` or ``presentation``) raise and fail the whole request.
        Every plan is then ingested, all of them enter the micro-batch queue
        in one :meth:`MicroBatcher.submit_many` pass (an idle worker fuses
        them into one decode), and each gets its own item: the narration, or
        its error body with its ``status``.  ``span`` is the request's root
        span: validation and ingest run under an ``admission`` child, and
        the batch worker attaches the queue and decode stages.
        """
        admission_started = time.perf_counter()
        with span.child("admission"):
            if self.draining:
                raise ServiceDrainingError("this worker is draining for restart; retry elsewhere")
            plans = envelope_plans(body)
            mode = body.get("mode", self.config.default_mode)
            if mode not in _MODES:
                raise RequestError(f"unknown mode {mode!r}; expected one of {list(_MODES)}")
            presentation = body.get("presentation")
            if presentation is not None and presentation not in PRESENTATION_MODES:
                raise RequestError(
                    f"unknown presentation {presentation!r}; "
                    f"expected one of {list(PRESENTATION_MODES)}"
                )
            items: list[dict[str, Any]] = [{} for _ in plans]
            ingested: list[tuple[int, OperatorTree, str]] = []
            for index, plan in enumerate(plans):
                try:
                    tree, plan_format = self.lantern.registry.ingest(plan, body.get("format"))
                except Exception as error:  # noqa: BLE001 - answered in this plan's item
                    items[index] = error_item(error)
                else:
                    ingested.append((index, tree, plan_format))
            span.tag(format=",".join(sorted({f for _, _, f in ingested})), mode=mode)
            self.telemetry.record_stage("admission", time.perf_counter() - admission_started)

        started = time.perf_counter()
        outcomes = self.batcher.submit_many(
            [tree for _, tree, _ in ingested], [mode] * len(ingested), span=span
        )
        latency_ms = round((time.perf_counter() - started) * 1000.0, 3)
        with span.child("finalize"):
            for (index, tree, plan_format), outcome in zip(ingested, outcomes):
                if isinstance(outcome, Exception):
                    items[index] = error_item(outcome)
                    continue
                item = {
                    "narration": _narration_to_dict(outcome),
                    "format": plan_format,
                    "mode": mode,
                    "latency_ms": latency_ms,
                }
                if presentation is not None:
                    item["rendered"] = self.lantern.render(outcome, tree=tree, mode=presentation)
                items[index] = item
        return items

    def routes(self) -> dict[tuple[str, str], Route]:
        """The route table this process serves (the fleet worker adds its
        ``/admin/*`` routes)."""
        return {
            ("POST", "/narrate"): Route(self._narrate, trace="POST /narrate"),
            **observability_routes(self),
        }

    def _narrate(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        body = request._read_body()
        return narrate_response(request, body, self.narrate_items(body, request.span))

    def begin_drain(self) -> None:
        """Take this process out of rotation without dropping in-flight work.

        ``/healthz`` flips to ``"draining"`` (503) so a router health check
        removes the worker from its hash ring; new ``/narrate`` submissions
        are refused with 503 while already-queued narrations finish.
        """
        self.draining = True

    def _neural_stats(self) -> tuple[Optional[dict], Optional[dict]]:
        """The attached generator's decode-cache stats and its model's
        decode counters (``None`` each when absent, e.g. rule-only)."""
        neural = self.lantern.neural
        cache = getattr(neural, "decode_cache", None)
        model = getattr(neural, "model", None)
        return (
            cache.stats() if cache is not None else None,
            model.decode_stats() if hasattr(model, "decode_stats") else None,
        )

    def metrics(self) -> dict[str, Any]:
        cache_stats, decode_stats = self._neural_stats()
        document = self.telemetry.snapshot(
            decode_cache_stats=cache_stats, queue_depth=self.batcher.queue_depth
        )
        if decode_stats is not None:
            document["decode"] = decode_stats
        memo_stats = self.lantern.rule_memo_stats()
        if memo_stats is not None:
            document["rule_memo"] = memo_stats
        document["memory"] = self.memory_info()
        document["tracing"] = {
            "enabled": self.tracer.enabled,
            "traces_completed": self.tracer.store.completed,
        }
        if self.config.instance_id is not None:
            document["worker_id"] = self.config.instance_id
        return document

    def prometheus_metrics(self) -> str:
        """The ``GET /metrics?format=prometheus`` text document."""
        cache_stats, decode_stats = self._neural_stats()
        return self.telemetry.prometheus(
            decode_cache_stats=cache_stats,
            decode_stats=decode_stats,
            rule_memo_stats=self.lantern.rule_memo_stats(),
            queue_depth=self.batcher.queue_depth,
            rss_bytes=_process_rss_bytes(),
        )

    def traces(self, limit: Optional[int] = None) -> dict[str, Any]:
        """The ``GET /trace`` document: the N slowest recent span trees."""
        store = self.tracer.store
        return {
            "enabled": self.tracer.enabled,
            "completed": store.completed,
            "window": store.window,
            "slowest": store.slowest(limit),
        }

    def memory_info(self) -> dict[str, Any]:
        """Process residency plus model weight footprint (LANTERN-ZERO).

        ``weights_mmap_shared`` is ``True`` when every model parameter is a
        read-only view of a memory-mapped checkpoint — those pages are
        shared with the page cache (and any sibling process mapping the
        same file) rather than being private copies counted once per
        replica.
        """
        info: dict[str, Any] = {"rss_bytes": _process_rss_bytes()}
        neural = self.lantern.neural
        model = getattr(neural, "model", None)
        if model is not None and hasattr(model, "weights_memory_info"):
            weights = model.weights_memory_info()
            info["weights_bytes"] = weights["bytes"]
            info["weights_parameter_count"] = weights["parameter_count"]
            info["weights_mmap_shared"] = weights["mmap_backed"]
        return info

    def healthz(self) -> dict[str, Any]:
        """The ``GET /healthz`` document.  Status semantics:

        * ``"ok"`` (HTTP 200) — accepting and answering narrations;
        * ``"draining"`` (HTTP 503) — :meth:`begin_drain` was called or the
          batcher is finishing its queue after a stop request; a fleet router
          takes the worker out of rotation *before* it goes silent;
        * ``"degraded"`` (HTTP 503) — the narration worker thread is gone.
        """
        worker = self.batcher._worker
        if self.draining or self.batcher.draining:
            status = "draining"
        elif worker is not None and worker.is_alive():
            status = "ok"
        else:
            status = "degraded"
        document = {
            "status": status,
            "formats": self.lantern.registry.formats(),
            "neural_attached": self.lantern.neural is not None,
        }
        if self.config.instance_id is not None:
            document["worker_id"] = self.config.instance_id
        return document

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the batcher and the HTTP listener; returns (host, port).

        Pass ``port=0`` in the config to bind an ephemeral port (tests do).
        """
        self.batcher.start()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="lantern-serve-http", daemon=True
        )
        self._http_thread.start()
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.batcher.stop()
        if self.trace_log is not None:
            self.trace_log.close()

    def serve_forever(self) -> None:
        """Blocking convenience used by ``python -m repro.service``."""
        host, port = self.start()
        print(f"LANTERN-SERVE listening on http://{host}:{port}")
        print(f"  POST http://{host}:{port}/narrate")
        print(f"  GET  http://{host}:{port}/metrics   (?format=prometheus)")
        print(f"  GET  http://{host}:{port}/trace")
        print(f"  GET  http://{host}:{port}/healthz")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            self.stop()


def _narration_to_dict(narration: Narration) -> dict[str, Any]:
    return {
        "text": narration.text,
        "generator": narration.generator,
        "source": narration.source,
        "query_text": narration.query_text,
        "steps": [
            {
                "index": step.index,
                "text": step.text,
                "generator": step.generator,
                "operator_names": list(step.operator_names),
                "relations": list(step.relations),
                "intermediate": step.intermediate,
                "is_final": step.is_final,
            }
            for step in narration.steps
        ],
    }


def _make_handler(service: LanternService) -> type[FrontEnd]:
    return make_front_end(
        "LanternServe/1.0", service.routes(), service.telemetry, service.tracer
    )


def build_service(
    lantern: Optional[Lantern] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **knobs: Any,
) -> LanternService:
    """Convenience constructor used by ``__main__`` and the tests.

    Keyword knobs matching a :class:`ServiceConfig` field (the tracing
    controls) configure the service; everything else goes to
    :class:`BatcherConfig` as before.
    """
    service_knobs = {
        key: knobs.pop(key)
        for key in ("tracing_enabled", "trace_window", "trace_keep", "trace_log", "trace_log_every")
        if key in knobs
    }
    config = ServiceConfig(
        host=host, port=port, batcher=BatcherConfig(**knobs), **service_knobs
    )
    return LanternService(lantern=lantern, config=config)
