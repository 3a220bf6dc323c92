"""Live metrics for LANTERN-SERVE (the ``/metrics`` endpoint's backing store).

One :class:`ServiceTelemetry` instance is shared by the HTTP handler threads
and the micro-batch worker, so every recorder takes an internal lock.

Since LANTERN-SCOPE the backing store is **fixed-bucket histograms**
(:class:`repro.obs.histogram.Histogram`) instead of ring buffers: per-endpoint
request latencies, per-stage latencies (admission / queue wait / batch
assembly / decode / respond, recorded by the tracing-instrumented serving
path), and batch sizes all keep bounded memory forever and render both as
the JSON ``/metrics`` document and as a Prometheus text exposition
(``GET /metrics?format=prometheus``) from the *same* counters — scrapers
and the JSON dashboard can never disagree.

Endpoint hygiene: every request — including ``GET /healthz`` and
``GET /metrics`` — is counted under its endpoint label, but the headline
``latency_ms`` percentiles are computed from the ``POST /narrate`` histogram
alone, so cheap GETs can no longer flatter the narration latency numbers.

The snapshot also folds in :meth:`repro.nlg.cache.DecodeCache.stats` when a
neural generator is attached, so one ``GET /metrics`` shows request rates,
latency percentiles, batching effectiveness, and cache hit rates side by
side.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Optional

from repro.obs.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    percentile,
)
from repro.obs.prometheus import PrometheusWriter

__all__ = ["ServiceTelemetry", "percentile", "NARRATE_ENDPOINT"]

#: the endpoint whose histogram feeds the headline latency percentiles
NARRATE_ENDPOINT = "/narrate"

#: the model's decode counters (``QEP2Seq.decode_stats``) and their help text
_DECODE_COUNTERS = (
    ("steps", "Fused beam-search steps taken by the decoder."),
    ("rows", "Beam rows carried by those steps (rows per step = rows / steps)."),
    ("joins", "Acts that joined a beam search already under way."),
)


class ServiceTelemetry:
    """Thread-safe aggregation of serving metrics."""

    def __init__(self, window: int = 0) -> None:
        # ``window`` is vestigial (pre-SCOPE ring-buffer size); accepted so
        # existing constructors keep working, ignored by the histograms
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._latency: dict[str, Histogram] = {}
        self._stages: dict[str, Histogram] = {}
        self._batch_sizes = Histogram(DEFAULT_SIZE_BUCKETS)
        self._requests_total = 0
        self._batches_total = 0
        self._requests_batched = 0
        self._by_status: Counter[int] = Counter()
        self._by_endpoint: Counter[str] = Counter()
        self._by_format: Counter[str] = Counter()
        self._by_mode: Counter[str] = Counter()
        self._rejected_overload = 0
        self._timed_out = 0
        self._batches_failed = 0
        self._batch_errors: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # recorders
    # ------------------------------------------------------------------

    def record_request(
        self,
        status: int,
        latency_s: float,
        plan_format: Optional[str] = None,
        mode: Optional[str] = None,
        endpoint: str = NARRATE_ENDPOINT,
    ) -> None:
        """One finished HTTP request (any endpoint, any outcome)."""
        with self._lock:
            self._requests_total += 1
            self._by_status[status] += 1
            self._by_endpoint[endpoint] += 1
            if plan_format:
                self._by_format[plan_format] += 1
            if mode:
                self._by_mode[mode] += 1
            if status == 200:
                histogram = self._latency.get(endpoint)
                if histogram is None:
                    histogram = self._latency[endpoint] = Histogram(DEFAULT_LATENCY_BUCKETS)
                histogram.observe(latency_s)
            elif status == 429 and endpoint == NARRATE_ENDPOINT:
                self._rejected_overload += 1
            elif status == 503 and endpoint == NARRATE_ENDPOINT:
                # only narration rejections count as timeouts — a draining
                # worker's /healthz 503s are lifecycle, not shed load
                self._timed_out += 1

    def record_stage(self, stage: str, seconds: float) -> None:
        """One request's dwell time in one pipeline stage."""
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = Histogram(DEFAULT_LATENCY_BUCKETS)
            histogram.observe(seconds)

    def record_batch(self, size: int, in_flight: Optional[int] = None) -> None:
        """``size`` queued requests joined the worker's decode together.

        The batch-size histogram observes ``in_flight`` (default ``size``):
        how many requests share the decode once they have joined it.
        """
        with self._lock:
            self._batches_total += 1
            self._requests_batched += size
            self._batch_sizes.observe(size if in_flight is None else in_flight)

    def record_batch_failure(self, error: BaseException) -> None:
        """A whole-batch decode failure (the ``MicroBatcher._run`` except
        path) — previously invisible to telemetry, now counted per error
        class so an operator can tell a poisoned batch from a dying model."""
        with self._lock:
            self._batches_failed += 1
            self._batch_errors[type(error).__name__] += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(
        self,
        decode_cache_stats: Optional[dict] = None,
        queue_depth: int = 0,
    ) -> dict:
        """The ``/metrics`` JSON document."""
        with self._lock:
            uptime = time.monotonic() - self._started
            narrate = self._latency.get(NARRATE_ENDPOINT)
            document = {
                "uptime_s": round(uptime, 3),
                "requests": {
                    "total": self._requests_total,
                    "by_status": {str(k): v for k, v in sorted(self._by_status.items())},
                    "by_endpoint": dict(sorted(self._by_endpoint.items())),
                    "by_format": dict(sorted(self._by_format.items())),
                    "by_mode": dict(sorted(self._by_mode.items())),
                    "rejected_overload": self._rejected_overload,
                    "timed_out": self._timed_out,
                    "per_second": (
                        round(self._requests_total / uptime, 3) if uptime > 0 else 0.0
                    ),
                },
                # headline latency: POST /narrate only (GETs tracked per
                # endpoint below, so they cannot pollute these percentiles)
                "latency_ms": (
                    narrate.snapshot(scale=1000.0, digits=3)
                    if narrate is not None
                    else Histogram(DEFAULT_LATENCY_BUCKETS).snapshot(scale=1000.0, digits=3)
                ),
                "latency_ms_by_endpoint": {
                    endpoint: histogram.snapshot(scale=1000.0, digits=3)
                    for endpoint, histogram in sorted(self._latency.items())
                },
                "stages": {
                    stage: histogram.snapshot(scale=1000.0, digits=3)
                    for stage, histogram in sorted(self._stages.items())
                },
                "batching": {
                    "batches": self._batches_total,
                    "requests_batched": self._requests_batched,
                    "avg_batch_size": round(self._batch_sizes.mean, 3),
                    "max_batch_size": int(self._batch_sizes.max or 0),
                    "queue_depth": queue_depth,
                    "batches_failed": self._batches_failed,
                    "batch_errors": dict(sorted(self._batch_errors.items())),
                },
            }
        if decode_cache_stats is not None:
            document["decode_cache"] = decode_cache_stats
        return document

    def prometheus(
        self,
        decode_cache_stats: Optional[dict] = None,
        rule_memo_stats: Optional[dict] = None,
        queue_depth: int = 0,
        rss_bytes: Optional[int] = None,
        decode_stats: Optional[dict] = None,
    ) -> str:
        """The ``GET /metrics?format=prometheus`` text exposition."""
        writer = PrometheusWriter()
        with self._lock:
            uptime = time.monotonic() - self._started
            writer.counter(
                "requests_total",
                "Finished HTTP requests by endpoint.",
                [({"endpoint": endpoint}, count) for endpoint, count in sorted(self._by_endpoint.items())],
            )
            writer.counter(
                "responses_total",
                "Finished HTTP requests by status code.",
                [({"status": status}, count) for status, count in sorted(self._by_status.items())],
            )
            writer.counter(
                "requests_rejected_total",
                "Requests shed by admission control (429) or timed out (503).",
                [({"reason": "overload"}, self._rejected_overload), ({"reason": "timeout"}, self._timed_out)],
            )
            writer.histogram(
                "request_latency_seconds",
                "End-to-end request latency by endpoint (2xx only).",
                [({"endpoint": endpoint}, histogram) for endpoint, histogram in sorted(self._latency.items())],
            )
            writer.histogram(
                "stage_latency_seconds",
                "Per-stage dwell time of narration requests.",
                [({"stage": stage}, histogram) for stage, histogram in sorted(self._stages.items())],
            )
            writer.counter(
                "batches_total",
                "Batches of queued requests that joined the decode.",
                [(None, self._batches_total)],
            )
            writer.counter(
                "batches_failed_total",
                "Whole-batch decode failures by error class.",
                [(None, self._batches_failed)]
                + [({"error": name}, count) for name, count in sorted(self._batch_errors.items())],
            )
            writer.histogram(
                "batch_size",
                "Requests sharing the decode when a batch joins it.",
                [(None, self._batch_sizes)],
            )
            writer.gauge("queue_depth", "Narration requests waiting in the queue.", [(None, queue_depth)])
            writer.gauge("uptime_seconds", "Service uptime.", [(None, round(uptime, 3))])
        if rss_bytes is not None:
            writer.gauge("process_resident_bytes", "Resident set size.", [(None, rss_bytes)])
        if decode_stats is not None:
            for name, help_text in _DECODE_COUNTERS:
                writer.counter(f"decode_{name}_total", help_text, [(None, decode_stats[name])])
        for prefix, stats in (("decode_cache", decode_cache_stats), ("rule_memo", rule_memo_stats)):
            if not stats:
                continue
            writer.counter(
                f"{prefix}_lookups_total",
                f"{prefix} lookups by outcome.",
                [
                    ({"outcome": "hit"}, stats.get("hits", 0)),
                    ({"outcome": "miss"}, stats.get("misses", 0)),
                ],
            )
            writer.gauge(
                f"{prefix}_entries",
                f"Entries resident in the {prefix}.",
                [(None, stats.get("size", 0))],
            )
        return writer.render()
