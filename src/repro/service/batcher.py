"""The decode queue at the heart of LANTERN-SERVE.

Requests that can decode (``auto`` and ``neural``) reach the
:class:`~repro.core.lantern.Lantern` through this queue: HTTP handler
threads :meth:`MicroBatcher.submit_many` parsed operator trees and block on
per-request events.  A single worker thread drains the queue and drives one
streaming :meth:`Lantern.describe_plans` run at a time, so

* concurrent requests **share one fused neural decode**: a request that
  queues while a beam search runs joins it at the next decode step (one
  padded encoder forward for the joiners, then every live beam of every
  request advances as one row of the same step), up to ``max_batch_size``
  requests in flight, and each request is answered as soon as it retires;
* the generator's mutable state (wording-cycle exposures, the decode run)
  is only ever touched from one thread, and requests are admitted and
  retired in arrival order, which is what makes streamed narrations
  **token-identical** to sequential ``describe_plan`` calls in arrival
  order.

A lone request adds no wait: the worker starts a run as soon as one is
queued, and nothing it runs waits for companions.  A ``rule`` request has
no decode to fuse, so the serving layer narrates it on its own handler
thread instead; the facade's lock serializes its rule phase with the
worker's (see :meth:`MicroBatcher.reserve`).

Admission control is one bound shared by both venues: when
``max_queue_depth`` narrations are already queued here or
:meth:`~MicroBatcher.reserve`-d by handler threads, a submission gets
:class:`~repro.errors.ServiceOverloadError` immediately and the HTTP layer
answers 429 — shedding load beats collapsing under it.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
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
    """Queueing knobs."""

    #: most requests in flight in the running decode at once
    max_batch_size: int = 32
    #: queued-request bound beyond which submissions are refused (HTTP 429)
    max_queue_depth: int = 256
    #: how long a submitter waits for its narration before giving up (503)
    request_timeout_s: float = 30.0


class _PendingRequest:
    """One submitted narration, owned by the submitting thread.

    Carries its request's span context across the thread boundary: the
    submitting handler owns the root span, the worker attaches completed
    ``queue_wait`` / ``batch_assembly`` / ``decode`` children to it from the
    perf-counter timestamps stamped at enqueue, admission (dequeue), join
    and retirement.
    """

    __slots__ = (
        "tree", "mode", "event", "narration", "error", "span", "enqueued_at",
        "dequeued_at", "joined_at", "answered_at", "in_flight", "cache_at_join",
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
        self.joined_at = self.enqueued_at
        self.answered_at: Optional[float] = None
        #: requests in flight in the decode right after this one joined it
        self.in_flight = 0
        self.cache_at_join = (0, 0)


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
        #: narrations handler threads run themselves (:meth:`reserve`)
        self._reserved = 0
        self._reserve_lock = threading.Lock()

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
    def reserved(self) -> int:
        """Narrations admitted by :meth:`reserve` and not yet released."""
        return self._reserved

    def overloaded(self) -> ServiceOverloadError:
        """The error a narration refused by the shared bound gets."""
        return ServiceOverloadError(
            f"narration queue is full ({self.config.max_queue_depth} waiting); retry later"
        )

    def reserve(self, count: int) -> int:
        """Admit up to ``count`` narrations that the calling thread runs
        itself (the serving layer's rule requests).  They share
        ``max_queue_depth`` with the queue; returns how many fit, which the
        caller hands back with :meth:`release` once they are answered."""
        with self._reserve_lock:
            granted = min(count, self.config.max_queue_depth - self._queue.qsize() - self._reserved)
            granted = max(granted, 0)
            self._reserved += granted
        return granted

    def release(self, count: int) -> None:
        with self._reserve_lock:
            self._reserved -= count

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

        They join the worker's running decode together at its next step
        (or start one), up to ``max_batch_size`` requests in flight.
        Per-request failures — admission refusals once
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
                if self._reserved and (
                    self._queue.qsize() + self._reserved >= self.config.max_queue_depth
                ):
                    raise queue.Full
                self._queue.put_nowait(request)
            except queue.Full:
                results.append(self.overloaded())
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

    def _collect_batch(
        self, room: Optional[int] = None, wait_s: float = 0.1
    ) -> list[_PendingRequest]:
        """Pull up to ``room`` queued requests (default ``max_batch_size``),
        waiting at most ``wait_s`` for the first (0: only what is queued).

        Requests already answered (failed fast by submit's liveness
        re-check before a worker started) are dropped, not narrated again.
        """
        if wait_s <= 0 and self._queue.empty():
            return []  # the common case between decode steps: skip raising queue.Empty
        room = self.config.max_batch_size if room is None else room
        batch: list[_PendingRequest] = []
        while len(batch) < room:
            try:
                if batch or wait_s <= 0:
                    request = self._queue.get_nowait()
                else:
                    request = self._queue.get(timeout=wait_s)
            except queue.Empty:
                break
            request.dequeued_at = time.perf_counter()
            if not request.event.is_set():
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
            if batch:
                self._narrate(batch)

    def _narrate(self, batch: list[_PendingRequest]) -> None:
        """One streaming ``describe_plans`` run, started by ``batch``.

        At every decode step boundary the run answers the requests that
        retired and pulls whatever queued meanwhile, without waiting and up
        to ``max_batch_size`` requests in flight, into the running decode.
        The run ends when nothing is in flight and the queue is empty.  A
        decode exception fails every request in flight and counts as one
        batch failure.
        """
        in_flight: deque[_PendingRequest] = deque()

        def join(requests: list[_PendingRequest]) -> list[tuple[OperatorTree, str]]:
            if not requests:
                return []
            joined_at = time.perf_counter()
            cache_at_join = self._cache_counters()
            in_flight.extend(requests)
            if self.telemetry is not None:
                self.telemetry.record_batch(len(requests), len(in_flight))
            for request in requests:
                request.joined_at = joined_at
                request.in_flight = len(in_flight)
                request.cache_at_join = cache_at_join
                if self.telemetry is not None:
                    self.telemetry.record_stage(
                        "queue_wait", max(request.dequeued_at - request.enqueued_at, 0.0)
                    )
                    self.telemetry.record_stage("batch_assembly", joined_at - request.dequeued_at)
            return [(request.tree, request.mode) for request in requests]

        def answer(results: list[Union[Narration, Exception]], error: Optional[str] = None) -> None:
            if not results:
                return
            answered_at = time.perf_counter()
            cache_now = self._cache_counters()
            for result in results:
                request = in_flight.popleft()
                if isinstance(result, Exception):
                    request.error = result
                else:
                    request.narration = result
                self._finish(request, answered_at, cache_now, error)

        def feed(retired: list[Union[Narration, Exception]]) -> list[tuple[OperatorTree, str]]:
            answer(retired)
            room = self.config.max_batch_size - len(in_flight)
            return join(self._collect_batch(room, wait_s=0)) if room > 0 else []

        arrivals = join(batch)
        try:
            leftovers = self.lantern.describe_plans(
                [tree for tree, _ in arrivals],
                mode=[mode for _, mode in arrivals],
                collect_errors=True,
                feed=feed,
            )
        except Exception as error:  # noqa: BLE001 - fail every request in flight
            if self.telemetry is not None:
                self.telemetry.record_batch_failure(error)
            answer([error] * len(in_flight), type(error).__name__)
            return
        answer(leftovers)

    def _finish(
        self,
        request: _PendingRequest,
        answered_at: float,
        cache_now: tuple[int, int],
        error: Optional[str] = None,
    ) -> None:
        """Record a retired request's decode stage and wake its submitter."""
        if self.telemetry is not None:
            self.telemetry.record_stage("decode", answered_at - request.joined_at)
        request.answered_at = answered_at
        self._attach_stage_spans(request, cache_now, error)
        request.event.set()

    def _attach_stage_spans(
        self,
        request: _PendingRequest,
        cache_now: tuple[int, int],
        error: Optional[str] = None,
    ) -> None:
        """Attach the worker-side stage children to the request's root span.

        The root span lives on the submitting handler thread; these children
        are complete (explicit start/end timestamps), so attaching them here
        never races the root's own lifecycle.  The decode span's cache tags
        count every lookup made while the request was in the decode.
        """
        span = request.span
        if not span:
            return
        span.add_child_at("queue_wait", request.enqueued_at, request.dequeued_at)
        span.add_child_at("batch_assembly", request.dequeued_at, request.joined_at)
        decode_tags = {
            "batch_size": request.in_flight,
            "mode": request.mode,
            "precision": self._decode_precision(),
            "cache_hits": cache_now[0] - request.cache_at_join[0],
            "cache_misses": cache_now[1] - request.cache_at_join[1],
        }
        if error is not None:
            decode_tags["error"] = error
        span.add_child_at("decode", request.joined_at, request.answered_at, **decode_tags)
