"""Span recording for the benchmark's traced runs, installed from outside the program.

``sitecustomize.py`` in this directory imports this module in every serving
process started with this directory on ``PYTHONPATH`` (the fleet router
hands its ``PYTHONPATH`` to the workers it spawns, so workers get it too).
Nothing happens unless one of two environment variables is set:

* ``PERFBENCH_PROBE_DIR`` — wrap the layer-boundary functions in ``TARGETS``
  and, at interpreter exit, write every recorded span of this process to
  ``<dir>/spans-<pid>.json``;
* ``PERFBENCH_INJECT=<span name>:<factor>`` — after each call of that
  target, busy-wait for ``factor`` times the CPU time the call took (the
  benchmark's sensitivity self-test; see ``perfbench/selftest.py``).

Targets are patched by an import hook right after their module executes,
so ``from module import function`` bindings made later by other program
modules pick up the wrapper, and no program module is imported earlier
than the program itself imports it.

A span is ``(id, name, start, end, parent_id, request_id, note, cpu)``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so comparable across the
processes of one machine), the parent is the innermost enclosing wrapped
call on the same thread (0 at a thread's outermost call), and the request
id is the id of that outermost call, so every span of one HTTP request (or
of one batcher decode) shares it.  ``cpu`` is the thread CPU time the call
took, measured only for the spans in ``CPU_TIMED`` (0 otherwise, since the
clock costs a system call).  Spans stay in memory until exit.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable, Optional

Note = Optional[Callable[[tuple, Any], Any]]


def _ingest_format(args: tuple, result: Any) -> Any:
    return result[1] if isinstance(result, tuple) and len(result) == 2 else None


def _source_count(args: tuple, result: Any) -> Any:
    return len(args[1]) if len(args) > 1 else None


def _request_path(args: tuple, result: Any) -> Any:
    return args[2] if len(args) > 2 else None


def _queue_waits(args: tuple, result: Any) -> Any:
    return tuple(request.dequeued_at - request.enqueued_at for request in result) if result else None


#: (module, attribute path, span name, note) — the layer boundaries named in
#: perfbench/README.md; a note records one detail of the call with its span
TARGETS: list[tuple[str, str, str, Note]] = [
    ("repro.plans.registry", "PlanRegistry.ingest", "registry.ingest", _ingest_format),
    ("repro.core.rule_lantern", "RuleLantern.narrate", "rule.narrate", None),
    ("repro.core.acts", "decompose_lot_into_acts", "acts.decompose", None),
    ("repro.core.acts", "align_acts_with_narration", "acts.align", None),
    ("repro.core.lantern", "Lantern.describe_plans", "lantern.describe_plans", None),
    ("repro.nlg.neural_lantern", "NeuralLantern.translate_steps", "neural.translate_steps", None),
    ("repro.nlg.seq2seq", "QEP2Seq.beam_decode_batch", "seq2seq.beam_decode_batch", _source_count),
    ("repro.nlg.seq2seq", "QEP2Seq._encode_batch", "seq2seq.encode_batch", None),
    ("repro.nlg.nn.lstm", "LSTM.step_infer", "seq2seq.step_infer", None),
    ("repro.nlg.nn.attention", "AdditiveAttention.step_context", "seq2seq.step_context", None),
    ("repro.service.batcher", "MicroBatcher._collect_batch", "batcher.collect", _queue_waits),
    ("repro.service.client", "LanternClient.request_json", "client.request_json", _request_path),
    ("repro.service.fleet.router", "LanternFleet.signature_of", "router.signature", None),
]

#: spans that also record their thread CPU time
CPU_TIMED = {"seq2seq.beam_decode_batch"}

#: handler-class factories: (module, factory, span prefix)
HANDLER_FACTORIES: list[tuple[str, str, str]] = [
    ("repro.service.server", "_make_handler", "server"),
    ("repro.service.fleet.router", "_make_router_handler", "router"),
]


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, function: Callable, note: Note = None) -> Callable:
        ids = self._ids
        local = self._local
        spans = self.spans
        cpu_timed = name in CPU_TIMED

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, request = stack[-1] if stack else (0, span_id)
            stack.append((span_id, request))
            result = None
            cpu_start = thread_time() if cpu_timed else 0.0
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu_start if cpu_timed else 0.0
                stack.pop()
                # a tuple of atomic values is untracked by the cyclic garbage
                # collector, so a long run's spans do not slow its collections
                spans.append(
                    (span_id, name, start, end, parent, request,
                     note(args, result) if note is not None else None, cpu)
                )

        return traced

    def per_span_cost_s(self, calls: int = 20000) -> float:
        """What one wrapper adds to a call, timed here on a no-op function."""
        def bare() -> None:
            return None

        scratch = SpanRecorder()
        traced = scratch.wrap("calibration", bare)
        started = perf_counter()
        for _ in range(calls):
            bare()
        bare_s = perf_counter() - started
        started = perf_counter()
        for _ in range(calls):
            traced()
        return max((perf_counter() - started - bare_s) / calls, 0.0)

    def dump(self, directory: str) -> None:
        document = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "per_span_cost_s": self.per_span_cost_s(),
            "spans": list(self.spans),
        }
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(document), encoding="utf-8")


def busy_wait_after(function: Callable, factor: float) -> Callable:
    """After each call, spin for ``factor`` times the CPU time the call's
    thread spent in it, so the added cost is a fixed share of that work."""

    @functools.wraps(function)
    def slowed(*args: Any, **kwargs: Any) -> Any:
        started = thread_time()
        result = function(*args, **kwargs)
        until = thread_time() + factor * (thread_time() - started)
        while thread_time() < until:
            pass
        return result

    return slowed


def _resolve(module: Any, path: str) -> tuple[Any, str]:
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _PatchAfterExec(importlib.abc.MetaPathFinder):
    """Finds target modules through the remaining finders and patches each
    one as soon as its body has executed."""

    def __init__(self, patchers: dict[str, list[Callable[[Any], None]]]) -> None:
        self.patchers = patchers

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        patchers = self.patchers.get(fullname)
        if not patchers:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        execute = loader.exec_module

        def exec_module(module: Any) -> None:
            execute(module)
            for patch in patchers:
                patch(module)

        loader.exec_module = exec_module
        return spec


def install(recorder: Optional[SpanRecorder], inject: Optional[tuple[str, float]]) -> None:
    """Register the import hook that wraps (and optionally slows) targets."""
    patchers: dict[str, list[Callable[[Any], None]]] = {}
    for module_name, path, name, note in TARGETS:
        def patch(module: Any, path: str = path, name: str = name, note: Note = note) -> None:
            owner, attribute = _resolve(module, path)
            function = getattr(owner, attribute)
            if inject is not None and inject[0] == name:
                function = busy_wait_after(function, inject[1])
            if recorder is not None:
                function = recorder.wrap(name, function, note)
            setattr(owner, attribute, function)

        patchers.setdefault(module_name, []).append(patch)
    if recorder is not None:
        for module_name, factory_name, prefix in HANDLER_FACTORIES:
            def patch_factory(module: Any, factory_name: str = factory_name, prefix: str = prefix) -> None:
                setattr(module, factory_name, _wrap_handler_factory(
                    recorder, getattr(module, factory_name), prefix))

            patchers.setdefault(module_name, []).append(patch_factory)
    sys.meta_path.insert(0, _PatchAfterExec(patchers))


def _wrap_handler_factory(recorder: SpanRecorder, factory: Callable, prefix: str) -> Callable:
    """Wrap ``do_POST`` (the request's outermost span) and ``_read_body`` of
    every HTTP handler class the factory builds."""

    @functools.wraps(factory)
    def build(*args: Any, **kwargs: Any) -> Any:
        handler = factory(*args, **kwargs)
        handler.do_POST = recorder.wrap(f"{prefix}.do_post", handler.do_POST)
        handler._read_body = recorder.wrap(f"{prefix}.read_body", handler._read_body)
        return handler

    return build


def install_from_environment() -> None:
    directory = os.environ.get("PERFBENCH_PROBE_DIR")
    inject_spec = os.environ.get("PERFBENCH_INJECT")
    inject = None
    if inject_spec:
        name, _, factor = inject_spec.rpartition(":")
        inject = (name, float(factor))
    recorder = SpanRecorder() if directory else None
    install(recorder, inject)
    if recorder is not None:
        atexit.register(recorder.dump, directory)
