"""The micro-batching narration queue at the heart of LANTERN-SERVE.

HTTP handler threads never touch the :class:`~repro.core.lantern.Lantern`
directly: they :meth:`MicroBatcher.submit_many` parsed operator trees and
block on per-request events.  A single worker thread drains the queue and
drives :meth:`Lantern.describe_plans`, so

* concurrent requests are **coalesced into one fused neural decode** per
  batch (one padded encoder forward and one beam tensor for every
  neural-bound act of every plan in the window — the cross-plan
  generalization of PR 1's per-plan batching, including cross-plan act
  deduplication through the decode cache), and
* the facade's mutable state (habituation counters, wording-cycle
  exposures, the POEM narrator cache) is only ever touched from one thread,
  which is what makes batched narrations **token-identical** to sequential
  ``describe_plan`` calls in arrival order.

Batches form naturally: the worker takes the first waiting request, then
drains whatever else queued while the previous batch was decoding (up to
``max_batch_size``).  An optional ``batch_window_s`` adds a bounded wait to
coalesce more aggressively under bursty-but-sparse traffic; the default of 0
adds no latency to an idle service.

Admission control is a bounded queue: when ``max_queue_depth`` requests are
already waiting, a submission gets
:class:`~repro.errors.ServiceOverloadError` immediately and the HTTP layer
answers 429 — shedding load beats collapsing under it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.lantern import MODE_RULE, Lantern
from repro.core.narration import Narration
from repro.errors import ServiceOverloadError, ServiceTimeoutError
from repro.obs.tracing import NOOP_SPAN, Span
from repro.plans.operator_tree import OperatorTree
from repro.service.telemetry import ServiceTelemetry


@dataclass
class BatcherConfig:
    """Queueing and coalescing knobs."""

    #: largest number of requests fused into one describe_plans call
    max_batch_size: int = 32
    #: extra time the worker waits to grow a non-empty batch (0 = drain-only)
    batch_window_s: float = 0.0
    #: queued-request bound beyond which submissions are refused (HTTP 429)
    max_queue_depth: int = 256
    #: how long a submitter waits for its narration before giving up (503)
    request_timeout_s: float = 30.0


class _PendingRequest:
    """One submitted narration, owned by the submitting thread.

    Carries its request's span context across the thread boundary: the
    submitting handler owns the root span, the worker attaches completed
    ``queue_wait`` / ``batch_assembly`` / ``decode`` children to it from the
    perf-counter timestamps stamped at enqueue and dequeue.
    """

    __slots__ = (
        "tree", "mode", "event", "narration", "error",
        "span", "enqueued_at", "dequeued_at", "answered_at",
    )

    def __init__(self, tree: OperatorTree, mode: str, span: Span = NOOP_SPAN) -> None:
        self.tree = tree
        self.mode = mode
        self.event = threading.Event()
        self.narration: Optional[Narration] = None
        self.error: Optional[Exception] = None
        self.span = span
        self.enqueued_at = time.perf_counter()
        self.dequeued_at = self.enqueued_at
        self.answered_at: Optional[float] = None


class MicroBatcher:
    """Bounded request queue + single narration worker."""

    def __init__(
        self,
        lantern: Lantern,
        config: Optional[BatcherConfig] = None,
        telemetry: Optional[ServiceTelemetry] = None,
    ) -> None:
        self.lantern = lantern
        self.config = config or BatcherConfig()
        self.telemetry = telemetry
        self._queue: queue.Queue[_PendingRequest] = queue.Queue(
            maxsize=self.config.max_queue_depth
        )
        self._worker: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            return
        self._stopping.clear()
        self._worker = threading.Thread(
            target=self._run, name="lantern-serve-batcher", daemon=True
        )
        self._worker.start()

    def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Stop the worker after letting queued requests finish.

        Requests that miss the drain window are failed **promptly** with
        :class:`~repro.errors.ServiceTimeoutError` — leaving them queued
        would park their submitter threads for the full
        ``request_timeout_s`` with no worker left to answer them.
        """
        self._stopping.set()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=drain_timeout_s)
        if worker is None or not worker.is_alive():
            self._worker = None
        # else: the worker is stuck mid-narration past the drain window.  The
        # reference is kept so start() cannot run a second worker alongside
        # it — two workers would race the facade's single-threaded state.
        # It exits on its own once it unblocks (_stopping stays set).
        self._fail_pending("the service shut down before this narration was started")

    def _fail_pending(self, reason: str) -> None:
        """Answer every still-queued request with a timeout error.

        Safe to run concurrently with a straggling worker: each request is
        popped by exactly one side, so it is either narrated or failed,
        never both and never neither.
        """
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            request.error = ServiceTimeoutError(reason)
            request.event.set()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def draining(self) -> bool:
        """True while :meth:`stop` has been requested but the worker is still
        finishing queued narrations.  The serving layer reports this window as
        ``"draining"`` (HTTP 503) from ``GET /healthz`` so a fleet router can
        take the process out of rotation *before* it stops answering."""
        worker = self._worker
        return self._stopping.is_set() and worker is not None and worker.is_alive()

    # ------------------------------------------------------------------
    # submission (handler-thread side)
    # ------------------------------------------------------------------

    def submit(
        self,
        tree: OperatorTree,
        mode: str = MODE_RULE,
        timeout_s: Optional[float] = None,
        span: Optional[Span] = None,
    ) -> Narration:
        """Enqueue one narration and block until the worker answers it: a
        batch of one through :meth:`submit_many`, its failure raised."""
        (outcome,) = self.submit_many([tree], [mode], timeout_s=timeout_s, span=span)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def submit_many(
        self,
        trees: Sequence[OperatorTree],
        modes: Sequence[str],
        timeout_s: Optional[float] = None,
        span: Optional[Span] = None,
    ) -> list[Union[Narration, Exception]]:
        """Enqueue narrations back to back and wait for all of them.

        An idle worker drains them into **one fused decode** (up to
        ``max_batch_size``).  Per-request failures — admission refusals once
        the queue fills, narration errors, timeouts — are returned *in
        place* as exceptions, mirroring ``describe_plans(collect_errors=
        True)``, so the serving layer answers each plan individually.  One
        shared deadline covers the whole batch.  ``span`` (when tracing) is
        the request's root span; the worker attaches the queue/batch/decode
        stage children to it.
        """
        # queue wait is measured from submit entry: the admission-control
        # checks below are part of getting into the queue, not of admission
        # parsing, and counting them here keeps the trace's stages contiguous
        submitted_at = time.perf_counter()
        request_span = span if span is not None else NOOP_SPAN
        worker = self._worker  # snapshot: a concurrent stop() may None it
        if self._stopping.is_set():
            # a stuck worker can survive stop() (reference kept, see above);
            # it must not accept new work — without this gate a submission
            # arriving after the drain would block for its full timeout
            return [ServiceTimeoutError("the narration service is shutting down")] * len(trees)
        if worker is None or not worker.is_alive():
            return [ServiceTimeoutError("the narration worker is not running")] * len(trees)
        results: list[Union[Narration, Exception, None]] = []
        pending: list[tuple[int, _PendingRequest]] = []
        for tree, mode in zip(trees, modes):
            request = _PendingRequest(tree, mode, request_span)
            request.enqueued_at = submitted_at
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                results.append(
                    ServiceOverloadError(
                        f"narration queue is full ({self.config.max_queue_depth} waiting); retry later"
                    )
                )
                continue
            pending.append((len(results), request))
            results.append(None)
        # re-check after the enqueue: the worker can die (or stop() can
        # begin) between the checks above and the puts, in which case the
        # requests would sit unanswered until their full timeout.  An unset
        # event with no live, accepting worker means nobody will ever
        # answer — fail fast instead.  Requests are failed in place (not
        # just reported): they stay queued, and a worker started later must
        # see them as already answered rather than decode narrations nobody
        # is waiting for.
        worker = self._worker
        if self._stopping.is_set() or worker is None or not worker.is_alive():
            for _, request in pending:
                if not request.event.is_set():
                    request.error = ServiceTimeoutError(
                        "the narration worker exited before the request could be handled"
                    )
                    request.event.set()
        timeout = timeout_s if timeout_s is not None else self.config.request_timeout_s
        deadline = time.monotonic() + timeout
        for position, request in pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not request.event.wait(remaining):
                # the worker may still answer later; the submitter moves on
                results[position] = ServiceTimeoutError(
                    f"narration not produced within {timeout:.1f}s"
                )
                continue
            results[position] = (
                request.error if request.error is not None else request.narration
            )
        if request_span and pending and pending[-1][1].answered_at is not None:
            # result hand-off: from the batch decode finishing to this
            # submitter resuming (the worker's result-distribution loop plus
            # the thread wake) — without it the trace's stages would show an
            # unexplained hole after decode
            request_span.add_child_at("wake", pending[-1][1].answered_at, time.perf_counter())
        return results  # type: ignore[return-value] - every slot is filled

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _collect_batch(self) -> list[_PendingRequest]:
        """Block for the first request, then drain the natural batch."""
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return []
        first.dequeued_at = time.perf_counter()
        batch = [first]
        deadline = time.monotonic() + self.config.batch_window_s
        while len(batch) < self.config.max_batch_size:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    request = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            request.dequeued_at = time.perf_counter()
            batch.append(request)
        return batch

    def _cache_counters(self) -> tuple[int, int]:
        """Current (hits, misses) of the neural decode cache, or zeros."""
        neural = getattr(self.lantern, "neural", None)
        cache = getattr(neural, "decode_cache", None)
        if cache is None:
            return 0, 0
        return int(cache.hits), int(cache.misses)

    def _decode_precision(self) -> str:
        """The precision tag for decode spans (``"rule"`` when no model)."""
        neural = getattr(self.lantern, "neural", None)
        model = getattr(neural, "model", None)
        precision = getattr(model, "precision", None)
        return str(precision) if precision else "rule"

    def _run(self) -> None:
        while not (self._stopping.is_set() and self._queue.empty()):
            batch = self._collect_batch()
            # requests already answered (failed fast by submit's liveness
            # re-check before this worker started) must not be narrated again
            batch = [request for request in batch if not request.event.is_set()]
            if not batch:
                continue
            if self.telemetry is not None:
                self.telemetry.record_batch(len(batch))
                for request in batch:
                    self.telemetry.record_stage(
                        "queue_wait", max(request.dequeued_at - request.enqueued_at, 0.0)
                    )
            decode_start = time.perf_counter()
            hits_before, misses_before = self._cache_counters()
            try:
                results = self.lantern.describe_plans(
                    [request.tree for request in batch],
                    mode=[request.mode for request in batch],
                    collect_errors=True,
                )
            except Exception as error:  # noqa: BLE001 - fail the whole batch
                decode_end = time.perf_counter()
                if self.telemetry is not None:
                    self.telemetry.record_batch_failure(error)
                for request in batch:
                    request.error = error
                    self._attach_stage_spans(
                        request, decode_start, decode_end, len(batch),
                        0, 0, error=type(error).__name__,
                    )
                    request.answered_at = decode_end
                    request.event.set()
                continue
            decode_end = time.perf_counter()
            hits_after, misses_after = self._cache_counters()
            if self.telemetry is not None:
                for request in batch:
                    self.telemetry.record_stage(
                        "batch_assembly", max(decode_start - request.dequeued_at, 0.0)
                    )
                self.telemetry.record_stage("decode", decode_end - decode_start)
            for request, result in zip(batch, results):
                if isinstance(result, Exception):
                    request.error = result
                else:
                    request.narration = result
                self._attach_stage_spans(
                    request, decode_start, decode_end, len(batch),
                    hits_after - hits_before, misses_after - misses_before,
                )
                request.answered_at = decode_end
                request.event.set()

    def _attach_stage_spans(
        self,
        request: _PendingRequest,
        decode_start: float,
        decode_end: float,
        batch_size: int,
        cache_hits: int,
        cache_misses: int,
        error: Optional[str] = None,
    ) -> None:
        """Attach the worker-side stage children to the request's root span.

        The root span lives on the submitting handler thread; these children
        are complete (explicit start/end timestamps), so attaching them here
        never races the root's own lifecycle.
        """
        span = request.span
        if not span:
            return
        span.add_child_at("queue_wait", request.enqueued_at, request.dequeued_at)
        span.add_child_at("batch_assembly", request.dequeued_at, decode_start)
        decode_tags = {
            "batch_size": batch_size,
            "mode": request.mode,
            "precision": self._decode_precision(),
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
        }
        if error is not None:
            decode_tags["error"] = error
        span.add_child_at("decode", decode_start, decode_end, **decode_tags)
