"""Spans and tracing for LANTERN-SCOPE.

A :class:`Span` is one timed stage of work (admission, queue wait, decode,
...); spans nest into a tree under a root span that carries a trace id.  A
:class:`Tracer` hands out spans, tracks the current span per thread so
nested instrumentation composes without plumbing, collects finished root
spans into a :class:`TraceStore` (the ``GET /trace`` backing store), and can
mirror every Nth finished trace into a structured JSON event log
(``--trace-log``).

Two usage shapes:

* **Thread-local nesting** — ``with tracer.span("checkpoint.load"): ...``
  attaches to whatever span is active on the calling thread (or starts a
  fresh root).  The checkpoint save/load paths and the train/compile CLIs
  use this, so phase timings appear wherever the caller's trace is rooted.
* **Explicit hand-off** — a span object can be carried across threads and
  grown with :meth:`Span.child` / :meth:`Span.add_child_at`.  The serving
  path does this: the HTTP handler opens the request's root span and the
  micro-batch worker attaches queue-wait / batch-assembly / decode children
  to it, so one trace shows where a request spent its time across both
  threads.

Everything is stdlib-only and lock-light: a finished root span is converted
to a plain dict once and only that snapshot is shared, so ``GET /trace``
never races live mutation.  A disabled tracer hands out the shared
:data:`NOOP_SPAN` (falsy, accepts every operation, records nothing) so
instrumented code needs no conditionals.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Optional


class _NoopSpan:
    """The do-nothing span a disabled tracer hands out (falsy, shared)."""

    __slots__ = ()

    trace_id = ""
    name = "noop"
    duration_s = 0.0

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def child(self, name: str, **tags: Any) -> "_NoopSpan":
        return self

    def add_child_at(self, name: str, start: float, end: float, **tags: Any) -> "_NoopSpan":
        return self

    def tag(self, **tags: Any) -> "_NoopSpan":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {}


#: the shared falsy span — ``span = span or NOOP_SPAN`` makes optional
#: tracing unconditional downstream
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, taggable stage; a context manager that closes itself."""

    __slots__ = ("name", "trace_id", "start", "end", "tags", "children", "_tracer", "_root_start", "started_at")

    def __init__(
        self,
        name: str,
        tracer: Optional["Tracer"] = None,
        parent: Optional["Span"] = None,
        trace_id: str = "",
        tags: Optional[dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        # tags/children stay None until first use: most spans carry neither,
        # and untracked None beats two GC-tracked containers per span
        self.tags: Optional[dict[str, Any]] = tags or None
        self.children: Optional[list[Span]] = None
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self._tracer = tracer
        #: the root's start (None on a root).  A child holds this number
        #: rather than its parent, so a finished trace is a tree without
        #: reference cycles: dropping it frees it at once instead of leaving
        #: garbage for the cyclic collector on every request
        self._root_start = None if parent is None else parent._root_start_or_own()
        #: wall-clock birth time (for log correlation; durations use
        #: perf_counter) — only roots report it, so only roots pay for it
        self.started_at = time.time() if parent is None else 0.0

    def __bool__(self) -> bool:
        return True

    # -- building the tree -------------------------------------------------

    def child(self, name: str, **tags: Any) -> "Span":
        """Open a child span starting now (close it via ``with`` or manually).

        Explicitly-parented children stay off the tracer's thread-local
        stack — the caller already holds the parent, and skipping the
        push/pop keeps the serving hot path cheap.  Code that wants
        stack-based nesting (the CLIs, checkpoint IO) goes through
        :meth:`Tracer.span` instead.
        """
        span = Span(name, tracer=None, parent=self, trace_id=self.trace_id, tags=tags or None)
        self._append_child(span)
        return span

    def add_child_at(self, name: str, start: float, end: float, **tags: Any) -> "Span":
        """Attach an already-finished child with explicit perf_counter times.

        This is how stages measured on another thread (queue wait between
        enqueue and dequeue, say) land in the submitting request's trace.
        Built without ``__init__`` — the caller supplies both clock readings,
        so the constructor's two clock calls would be thrown away.
        """
        span = Span.__new__(Span)
        span.name = name
        span.trace_id = self.trace_id
        span.tags = tags or None
        span.children = None
        span.start = start
        span.end = end
        span._tracer = self._tracer
        span._root_start = self._root_start_or_own()
        span.started_at = 0.0
        self._append_child(span)
        return span

    def _append_child(self, span: "Span") -> None:
        if self.children is None:
            self.children = []
        self.children.append(span)

    def tag(self, **tags: Any) -> "Span":
        if self.tags is None:
            self.tags = tags
        else:
            self.tags.update(tags)
        return self

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if exc_type is not None and not (self.tags and "error" in self.tags):
            self.tag(error=exc_type.__name__)
        self.finish()

    def finish(self) -> None:
        """Close the span (idempotent); a closing root is handed to the tracer."""
        if self.end is not None:
            return
        self.end = time.perf_counter()
        if self._tracer is not None:
            self._tracer._pop(self)
            if self._root_start is None:
                self._tracer._finish_root(self)

    @property
    def duration_s(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return max(end - self.start, 0.0)

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON span tree (root spans carry trace id + wall-clock start)."""
        document: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1000.0, 4),
        }
        if self._root_start is None:
            document["trace_id"] = self.trace_id
            document["started_at"] = round(self.started_at, 6)
        else:
            # child offsets let a renderer reconstruct the timeline
            document["offset_ms"] = round((self.start - self._root_start) * 1000.0, 4)
        if self.tags:
            document["tags"] = dict(self.tags)
        if self.children:
            document["children"] = [child.to_dict() for child in self.children]
        return document

    def _root_start_or_own(self) -> float:
        return self.start if self._root_start is None else self._root_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1000.0:.3f} ms, children={len(self.children or ())})"


class TraceStore:
    """The last ``window`` finished traces, queryable for the N slowest.

    Holds the finished root spans themselves and renders the dict snapshot
    only when a reader asks (``GET /trace`` is rare, requests are not) — a
    finished root is never mutated again, so read-time rendering races
    nothing, and the serving hot path pays one deque append instead of a
    recursive ``to_dict``.
    """

    def __init__(self, window: int = 256, keep: int = 16) -> None:
        self.window = max(int(window), 1)
        self.keep = max(int(keep), 1)
        self.completed = 0
        self._recent: deque[tuple[float, Span]] = deque(maxlen=self.window)
        self._lock = threading.Lock()

    def add(self, root: Span) -> None:
        with self._lock:
            self.completed += 1
            self._recent.append((root.duration_s, root))

    def slowest(self, n: Optional[int] = None) -> list[dict[str, Any]]:
        """The N slowest traces among the recent window, slowest first."""
        n = self.keep if n is None else max(int(n), 0)
        with self._lock:
            ranked = sorted(self._recent, key=lambda pair: pair[0], reverse=True)
        return [root.to_dict() for _, root in ranked[:n]]

    def latest(self) -> Optional[dict[str, Any]]:
        with self._lock:
            root = self._recent[-1][1] if self._recent else None
        return root.to_dict() if root is not None else None

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self.completed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)


class Tracer:
    """Hands out spans, tracks per-thread nesting, collects finished traces.

    ``log`` is an optional event sink (anything with an ``emit(dict)``
    method, e.g. :class:`repro.obs.events.JsonEventLog`); every
    ``log_every``-th finished trace is emitted as a ``{"event": "trace",
    ...}`` record — deterministic counter sampling, no RNG on the hot path.
    """

    def __init__(
        self,
        enabled: bool = True,
        store: Optional[TraceStore] = None,
        log: Optional[Any] = None,
        log_every: int = 1,
    ) -> None:
        self.enabled = enabled
        self.store = store if store is not None else TraceStore()
        self.log = log
        self.log_every = max(int(log_every), 1)
        self._local = threading.local()
        self._listeners: list[Callable[[Span], None]] = []
        self._ids = itertools.count(1)
        self._id_prefix = f"{os.getpid():x}-"

    # -- span creation -----------------------------------------------------

    def trace(self, name: str, trace_id: Optional[str] = None, **tags: Any):
        """Start a new root span (ignores any active span on this thread).

        ``trace_id`` adopts an id minted elsewhere instead of allocating one —
        the LANTERN-FLEET workers do this with the router-supplied
        ``X-Lantern-Trace-Id`` header, so a request keeps one id across the
        process boundary and the router can graft worker span trees onto its
        own when serving ``GET /trace``.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(
            name, tracer=self, trace_id=trace_id or self._next_id(), tags=tags or None
        )

    def span(self, name: str, **tags: Any):
        """A child of this thread's active span, or a fresh root when idle."""
        if not self.enabled:
            return NOOP_SPAN
        parent = self.current()
        if parent is None:
            return self.trace(name, **tags)
        span = Span(name, tracer=self, parent=parent, trace_id=parent.trace_id, tags=tags or None)
        parent._append_child(span)
        return span

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _next_id(self) -> str:
        return self._id_prefix + format(next(self._ids), "06x")

    # -- bookkeeping (called by Span) --------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # out-of-order close: drop through it
            stack.remove(span)

    def _finish_root(self, root: Span) -> None:
        self.store.add(root)
        if self.log is not None and (self.store.completed % self.log_every) == 0:
            self.log.emit({"event": "trace", **root.to_dict()})
        for listener in self._listeners:
            listener(root)

    # -- observation -------------------------------------------------------

    def add_finish_listener(self, listener: Callable[[Span], None]) -> None:
        """Call ``listener(root_span)`` whenever a root span finishes."""
        self._listeners.append(listener)

    def last_trace(self) -> Optional[dict[str, Any]]:
        """The most recently finished trace as a dict (None when quiet)."""
        return self.store.latest()


def format_span_tree(trace: dict[str, Any], indent: int = 0) -> str:
    """Render a :meth:`Span.to_dict` tree as indented one-line-per-span text.

    The CLIs print this so phase timings are readable without a UI::

        nlg.compile                      4123.1 ms
          checkpoint.load                   3.9 ms
          compile                        4100.2 ms
    """
    if not trace:
        return ""
    pad = "  " * indent
    tags = trace.get("tags") or {}
    suffix = (
        " [" + ", ".join(f"{key}={value}" for key, value in tags.items()) + "]" if tags else ""
    )
    lines = [f"{pad}{trace.get('name', '?'):<32} {trace.get('duration_ms', 0.0):>10.2f} ms{suffix}"]
    for child in trace.get("children", ()):  # pragma: no branch
        lines.append(format_span_tree(child, indent + 1))
    return "\n".join(lines)


#: process-wide default tracer: checkpoint save/load and the train/compile
#: CLIs report phase timings through it without any wiring
_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    return _DEFAULT_TRACER
