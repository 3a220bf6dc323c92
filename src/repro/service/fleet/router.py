"""The LANTERN-FLEET router: one front door, N warm worker processes.

The router owns the fleet topology: it spawns every worker as a
``python -m repro.service --worker-id W`` subprocess (all warm-booting the
*same* mmap checkpoint, so model pages are shared through the page cache),
learns each worker's ephemeral port from the ``listening on`` line it prints
on stdout, and routes every ``POST /narrate`` by consistent-hashing the
request's tag-abstracted plan signature
(:func:`repro.service.fleet.ring.plan_routing_signature`) onto the ring.
A plan shape therefore always lands on the worker whose decode cache
and rule memo already hold it.

A single plan is a batch of one.  The plans of a request are grouped per
shard, each group is forwarded as one ``{"plans": [...]}`` sub-batch (the
groups concurrently), and the per-item results are rejoined in the original
order — the client sees one envelope, or for a single plan its one item,
regardless of how many workers answered.

Lifecycle machinery:

* a **heartbeat** thread polls worker liveness and health, takes draining
  or dead workers out of the ring, respawns dead ones (same worker id →
  same shard) and warms them from the last pulled cache snapshot;
* ``POST /admin/restart`` performs **draining rolling restarts**: ring
  removal → ``/admin/drain`` → cache export → successor spawn → cache
  import → ring re-add → old process termination, one worker at a time, so
  a fleet upgrade never drops a request or a warm cache;
* requests caught on a dying worker are failed fast through the existing
  ``ServiceTimeoutError`` 503 path, with one safe re-route when the worker
  process is *confirmed dead* (the request cannot have been half-served by
  a process that no longer exists... it may have been, but narration is
  idempotent, so the replay is harmless).

Observability crosses the process boundary: the router stamps its trace id
into ``X-Lantern-Trace-Id`` on every forward, workers adopt it, and
``GET /trace`` on the router grafts each worker's span tree under the
matching router trace — one id, one tree, two processes.  ``GET /metrics``
aggregates every worker's document plus per-shard routing counts and cache
hit rates next to the router's own telemetry.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Any, Optional

from repro.errors import FleetError, RequestError, ServiceError, ServiceTimeoutError
from repro.obs.prometheus import PrometheusWriter
from repro.obs.tracing import NOOP_SPAN, Span, TraceStore, Tracer
from repro.plans.registry import default_registry
from repro.service.client import LanternClient
from repro.service.fleet.ring import (
    DEFAULT_REPLICAS,
    ConsistentHashRing,
    plan_routing_signature,
)
from repro.service.frontend import (
    TRACE_HEADER,
    FrontEnd,
    Route,
    envelope_plans,
    error_item,
    error_response,
    make_front_end,
    narrate_response,
    observability_routes,
    run_until_signalled,
)
from repro.service.server import DEFAULT_HOST, LISTENING_LINE
from repro.service.telemetry import ServiceTelemetry

__all__ = ["FleetConfig", "WorkerHandle", "LanternFleet", "DEFAULT_ROUTER_PORT"]

DEFAULT_ROUTER_PORT = 8600


@dataclass
class FleetConfig:
    """Everything a fleet can be tuned with."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_ROUTER_PORT
    #: worker processes to spawn (shard count); worker ids are ``w0..wN-1``
    num_workers: int = 2
    #: LANTERN-PERSIST checkpoint every worker warm-boots from (mmap-shared)
    checkpoint: Optional[str] = None
    #: compiled narration cache every worker mounts (the fleet-wide tier)
    compiled_cache: Optional[str] = None
    #: virtual nodes per worker on the hash ring
    replicas: int = DEFAULT_REPLICAS
    #: per-worker batcher knobs (forwarded to the worker CLI)
    max_batch_size: int = 32
    max_queue_depth: int = 256
    #: seconds to wait for a spawned worker's listening line before killing it
    spawn_timeout_s: float = 120.0
    #: per-forward HTTP timeout toward a worker
    request_timeout_s: float = 60.0
    #: heartbeat period (liveness + health + periodic cache snapshots)
    heartbeat_interval_s: float = 0.5
    #: pull each worker's decode-cache snapshot every Nth heartbeat (the
    #: crash-respawn warmup source); 0 disables snapshot pulls
    snapshot_every: int = 10
    #: LANTERN-SCOPE knobs; ``tracing_enabled`` holds for the workers too
    tracing_enabled: bool = True
    trace_window: int = 256
    trace_keep: int = 16


class WorkerHandle:
    """One spawned worker: process, address, client, and fleet bookkeeping."""

    def __init__(
        self,
        worker_id: str,
        process: subprocess.Popen,
        host: str,
        port: int,
        client: LanternClient,
        generation: int = 1,
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.host = host
        self.port = port
        self.client = client
        self.generation = generation
        #: the last decode-cache snapshot the heartbeat pulled — what a
        #: crash-respawned successor is warmed from (a draining restart
        #: exports a fresh one instead)
        self.last_snapshot: Optional[dict[str, Any]] = None
        #: set when a restart has taken this handle out of service for good;
        #: the heartbeat must neither re-add nor respawn it
        self.retired = False

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def describe(self) -> dict[str, Any]:
        return {
            "alive": self.alive,
            "pid": self.process.pid,
            "port": self.port,
            "generation": self.generation,
        }

    def terminate(self, timeout_s: float = 10.0) -> None:
        self.retired = True
        self.client.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)


def _drain_stream(stream: Any) -> None:
    """Consume a worker's remaining stdout so the pipe never backpressures."""
    try:
        for _ in stream:
            pass
    except (ValueError, OSError):
        pass


def _process_dead(process: subprocess.Popen) -> bool:
    """Whether a worker process is confirmed dead — the only state in which
    replaying its request is safe.

    A forward that failed because the worker was *killed* can race the
    kernel actually reaping it: the connection resets the instant the
    socket closes, a beat before ``poll()`` turns non-None.  A short grace
    wait (error path only) makes the confirmed-dead re-route deterministic
    instead of timing-dependent.
    """
    if process.poll() is not None:
        return True
    try:
        process.wait(timeout=0.25)
    except subprocess.TimeoutExpired:
        return False
    return True


class LanternFleet:
    """Router + worker lifecycle + aggregation: the whole fleet, one object."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        if self.config.num_workers < 1:
            raise FleetError("a fleet needs at least one worker")
        self.registry = default_registry()
        self.telemetry = ServiceTelemetry()
        self.tracer = Tracer(
            enabled=self.config.tracing_enabled,
            store=TraceStore(window=self.config.trace_window, keep=self.config.trace_keep),
        )
        self.ring = ConsistentHashRing(replicas=self.config.replicas)
        self.workers: dict[str, WorkerHandle] = {}
        self._started = False
        #: guards topology (ring + workers dict) reads/writes
        self._lock = threading.RLock()
        #: serializes spawn/restart/respawn sequences (slow; never held with
        #: the topology lock for the whole sequence)
        self._lifecycle_lock = threading.Lock()
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * self.config.num_workers),
            thread_name_prefix="fleet-fanout",
        )
        self._routed: Counter[str] = Counter()
        self._respawns = 0
        self._restarts = 0

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _worker_command(self, worker_id: str) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.service",
            "--worker-id",
            worker_id,
            "--host",
            DEFAULT_HOST,
            "--port",
            "0",
            "--max-batch-size",
            str(self.config.max_batch_size),
            "--max-queue-depth",
            str(self.config.max_queue_depth),
        ]
        if self.config.checkpoint:
            command += ["--checkpoint", str(self.config.checkpoint)]
        if self.config.compiled_cache:
            command += ["--compiled-cache", str(self.config.compiled_cache)]
        if not self.config.tracing_enabled:
            command.append("--no-tracing")
        return command

    def _spawn_process(self, worker_id: str, generation: int) -> WorkerHandle:
        """Spawn one worker and wait for its ``listening on`` line."""
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src_root
        )
        process = subprocess.Popen(
            self._worker_command(worker_id),
            stdout=subprocess.PIPE,
            stderr=None,  # worker stderr lands on the router's, for operators
            text=True,
            env=env,
        )
        # a worker that hangs before its listening line is killed by the
        # watchdog, which turns the blocking readline below into EOF
        watchdog = threading.Timer(self.config.spawn_timeout_s, process.kill)
        watchdog.daemon = True
        watchdog.start()
        listening: Optional[re.Match[str]] = None
        try:
            assert process.stdout is not None
            for line in process.stdout:
                listening = LISTENING_LINE.search(line)
                if listening is not None:
                    break
        finally:
            watchdog.cancel()
        if listening is None:
            returncode = process.poll()
            process.kill()
            raise FleetError(
                f"worker {worker_id} exited before its listening line "
                f"(returncode={returncode})"
            )
        host, port = listening.group(1), int(listening.group(2))
        drain = threading.Thread(
            target=_drain_stream, args=(process.stdout,), daemon=True,
            name=f"fleet-stdout-{worker_id}",
        )
        drain.start()
        client = LanternClient(f"http://{host}:{port}", timeout_s=self.config.request_timeout_s)
        return WorkerHandle(worker_id, process, host, port, client, generation=generation)

    def _spawn_worker(
        self,
        worker_id: str,
        snapshot: Optional[dict[str, Any]] = None,
        generation: int = 1,
    ) -> WorkerHandle:
        """Spawn, optionally warm from ``snapshot``, and enter the ring."""
        handle = self._spawn_process(worker_id, generation)
        if snapshot and snapshot.get("entries"):
            try:
                handle.client.request_json("POST", "/admin/cache", snapshot)
                handle.last_snapshot = snapshot
            except ServiceError:
                pass  # a cold successor is degraded, not broken
        with self._lock:
            self.workers[worker_id] = handle
            self.ring.add(worker_id)
        return handle

    def _retire_from_ring(self, worker_id: str) -> None:
        with self._lock:
            self.ring.remove(worker_id)

    def restart_workers(self, worker_ids: Optional[list[str]] = None) -> dict[str, Any]:
        """Draining rolling restart (the ``POST /admin/restart`` handler).

        One worker at a time: out of the ring → drain → cache export →
        successor spawn (same worker id, so the shard is unchanged) → cache
        import → back in the ring → old process terminated.  In-flight
        narrations finish on the old process; new ones never see it.
        """
        with self._lock:
            known = sorted(self.workers)
        targets = list(worker_ids) if worker_ids else known
        unknown = [wid for wid in targets if wid not in known]
        if unknown:
            raise RequestError(f"unknown workers: {unknown}")
        restarted: list[str] = []
        with self._lifecycle_lock:
            for worker_id in targets:
                self._restart_one(worker_id)
                restarted.append(worker_id)
                self._restarts += 1
        return {"restarted": restarted}

    def _restart_one(self, worker_id: str) -> None:
        with self._lock:
            old = self.workers.get(worker_id)
            self.ring.remove(worker_id)
        snapshot: Optional[dict[str, Any]] = None
        generation = 1
        if old is not None:
            generation = old.generation + 1
            old.retired = True  # heartbeat: hands off, a restart owns this one
            if old.alive:
                try:
                    old.client.request_json("POST", "/admin/drain", {})
                    status, payload = old.client.request_json("GET", "/admin/cache")
                    if status == 200:
                        snapshot = payload
                except ServiceError:
                    snapshot = old.last_snapshot
            else:
                snapshot = old.last_snapshot
        self._spawn_worker(worker_id, snapshot=snapshot, generation=generation)
        if old is not None:
            old.terminate()

    def _respawn_dead(self, worker_id: str, dead: WorkerHandle) -> None:
        """Heartbeat path: replace a crashed worker, warmed from the last
        pulled snapshot (the crash took the live cache with it)."""
        with self._lifecycle_lock:
            with self._lock:
                current = self.workers.get(worker_id)
            if current is not dead or dead.retired:
                return  # someone else already replaced it
            dead.retired = True
            dead.client.close()
            try:
                self._spawn_worker(
                    worker_id,
                    snapshot=dead.last_snapshot,
                    generation=dead.generation + 1,
                )
            except FleetError:
                return  # next heartbeat tick tries again
            self._respawns += 1

    # ------------------------------------------------------------------
    # heartbeat
    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        tick = 0
        while not self._stop.wait(self.config.heartbeat_interval_s):
            tick += 1
            pull_snapshots = (
                self.config.snapshot_every > 0 and tick % self.config.snapshot_every == 0
            )
            with self._lock:
                handles = list(self.workers.items())
            for worker_id, handle in handles:
                if handle.retired:
                    continue
                if not handle.alive:
                    self._retire_from_ring(worker_id)
                    self._respawn_dead(worker_id, handle)
                    continue
                try:
                    status, health = handle.client.request_json("GET", "/healthz")
                except ServiceError:
                    # unreachable but process alive: transient — leave the
                    # ring as-is, forwards fail fast and re-check liveness
                    continue
                healthy = status == 200 and health.get("status") == "ok"
                with self._lock:
                    if self.workers.get(worker_id) is not handle or handle.retired:
                        continue
                    if healthy:
                        self.ring.add(worker_id)
                    else:
                        self.ring.remove(worker_id)
                if healthy and pull_snapshots:
                    try:
                        status, payload = handle.client.request_json("GET", "/admin/cache")
                        if status == 200 and payload.get("entries"):
                            handle.last_snapshot = payload
                    except ServiceError:
                        pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def signature_of(self, plan: Any, plan_format: Optional[str] = None) -> str:
        """Ingest a wire plan and return its routing signature."""
        return plan_routing_signature(self.registry.parse(plan, plan_format))

    def narrate_items(
        self, body: Any, span: Span = NOOP_SPAN
    ) -> tuple[list[dict[str, Any]], Counter[str]]:
        """Route every plan of a ``/narrate`` body; items in request order.

        Plans are grouped by the shard their signature hashes to, and each
        group is forwarded as one ``{"plans": [...]}`` sub-batch — other
        groups on the fan-out pool, the last one on this thread.  A group
        whose worker is *confirmed dead* is re-routed once (the ring
        without it); any other forward failure fails fast as a 503.  A
        single plan is a batch of one here too.  Returns the items and how
        many each shard answered.
        """
        plans = envelope_plans(body)
        shared = {key: body[key] for key in ("mode", "format", "presentation") if key in body}
        items: list[dict[str, Any]] = [{} for _ in plans]
        pending: list[tuple[int, str]] = []
        with span.child("route", batch=len(plans)):
            for index, plan in enumerate(plans):
                try:
                    pending.append((index, self.signature_of(plan, body.get("format"))))
                except Exception as error:  # noqa: BLE001 - answered in this plan's item
                    items[index] = error_item(error)
        workers_used: Counter[str] = Counter()
        for attempt in range(2):
            groups: dict[Optional[str], list[tuple[int, str]]] = {}
            with self._lock:
                for member in pending:
                    groups.setdefault(self.ring.route(member[1]), []).append(member)
            for index, _ in groups.pop(None, []):
                items[index] = error_item(ServiceTimeoutError("no live workers in the fleet"))

            def forward(worker_id: str, members: list[tuple[int, str]]) -> Any:
                sub_body = {**shared, "plans": [plans[index] for index, _ in members]}
                return self._forward(worker_id, sub_body, span, attempt)

            shards = list(groups.items())
            futures = [self._executor.submit(forward, *shard) for shard in shards[:-1]]
            last = [forward(*shards[-1])] if shards else []
            outcomes = [future.result() for future in futures] + last
            pending = []
            for (worker_id, members), outcome in zip(shards, outcomes):
                if outcome is None and attempt == 0:  # confirmed dead: re-route once
                    pending.extend(members)
                    span.tag(rerouted_from=worker_id)
                    continue
                if outcome is None:
                    outcome = error_response(
                        ServiceTimeoutError(f"worker {worker_id} did not answer")
                    )
                status, payload = outcome
                if status == 200 and isinstance(payload.get("results"), list):
                    workers_used[worker_id] += len(members)
                    answered = payload["results"]
                else:  # the worker refused the whole sub-batch (draining, ...):
                    # each plan gets the refusal, minus the envelope's trace id
                    payload.pop("trace_id", None)
                    answered = [{**payload, "status": status} for _ in members]
                for (index, _), item in zip(members, answered):
                    item["worker_id"] = worker_id
                    items[index] = item
            if not pending:
                break
        return items, workers_used

    def _forward(
        self, worker_id: str, sub_body: dict[str, Any], span: Span, attempt: int
    ) -> Optional[tuple[int, dict[str, Any]]]:
        """POST one shard's sub-batch; ``None`` when the worker is gone or
        its process confirmed dead (the caller re-routes those plans)."""
        with self._lock:
            handle = self.workers.get(worker_id)
        if handle is None:
            return None
        headers = {TRACE_HEADER: span.trace_id} if span else None
        try:
            with span.child(
                "forward", worker=worker_id, batch=len(sub_body["plans"]), attempt=attempt
            ):
                outcome = handle.client.request_json("POST", "/narrate", sub_body, headers=headers)
        except ServiceError as error:
            if _process_dead(handle.process):
                # take it out; the heartbeat respawns it into the same shard
                self._retire_from_ring(worker_id)
                return None
            return error_response(
                ServiceTimeoutError(f"worker {worker_id} did not answer: {error}")
            )
        with self._lock:
            self._routed[worker_id] += len(sub_body["plans"])
        return outcome

    def routes(self) -> dict[tuple[str, str], Route]:
        """The router's route table."""
        return {
            ("POST", "/narrate"): Route(self._narrate, trace="POST /narrate (router)"),
            ("POST", "/admin/restart"): Route(self._restart),
            **observability_routes(self),
        }

    def _narrate(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        body = request._read_body()
        items, workers_used = self.narrate_items(body, request.span)
        return narrate_response(
            request, body, items, workers=dict(sorted(workers_used.items()))
        )

    def _restart(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        body = request._read_body(required=False)
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise RequestError("a restart order must be a JSON object")
        targets = body.get("workers")
        if targets is None and "worker" in body:
            targets = [body["worker"]]
        if targets is not None and not (
            isinstance(targets, list) and all(isinstance(target, str) for target in targets)
        ):
            raise RequestError(
                '"workers" must be a list of worker ids and "worker" a single worker id'
            )
        return 200, self.restart_workers(targets)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        with self._lock:
            in_ring = self.ring.nodes
            workers = {
                worker_id: {**handle.describe(), "in_ring": worker_id in in_ring}
                for worker_id, handle in sorted(self.workers.items())
            }
        routable = sum(1 for doc in workers.values() if doc["in_ring"] and doc["alive"])
        return {
            "status": "ok" if routable > 0 else "degraded",
            "role": "router",
            "workers": workers,
            "routable_workers": routable,
        }

    def metrics(self) -> dict[str, Any]:
        """The aggregated ``GET /metrics`` document: router + every worker."""
        document: dict[str, Any] = {"router": self.telemetry.snapshot()}
        with self._lock:
            handles = sorted(self.workers.items())
            in_ring = self.ring.nodes
        worker_docs: dict[str, Any] = {}
        per_shard: dict[str, Any] = {}
        alive = 0
        for worker_id, handle in handles:
            if not handle.alive:
                per_shard[worker_id] = {"alive": False, "routed": self._routed[worker_id]}
                continue
            alive += 1
            try:
                status, payload = handle.client.request_json("GET", "/metrics")
            except ServiceError:
                per_shard[worker_id] = {"alive": True, "routed": self._routed[worker_id]}
                continue
            if status == 200:
                worker_docs[worker_id] = payload
            shard: dict[str, Any] = {
                "alive": True,
                "in_ring": worker_id in in_ring,
                "generation": handle.generation,
                "routed": self._routed[worker_id],
                "requests_total": payload.get("requests", {}).get("total", 0),
            }
            cache = payload.get("decode_cache")
            if cache:
                shard["decode_cache_hit_rate"] = cache.get("hit_rate")
                shard["decode_cache_size"] = cache.get("size")
            memo = payload.get("rule_memo")
            if memo:
                shard["rule_memo_hit_rate"] = memo.get("hit_rate")
            per_shard[worker_id] = shard
        document["workers"] = worker_docs
        document["fleet"] = {
            "workers": len(handles),
            "alive": alive,
            "respawns": self._respawns,
            "restarts": self._restarts,
            "per_shard": per_shard,
        }
        return document

    def prometheus_metrics(self) -> str:
        """Router telemetry plus fleet-level gauges, one text exposition."""
        text = self.telemetry.prometheus()
        writer = PrometheusWriter()
        with self._lock:
            handles = sorted(self.workers.items())
            in_ring = self.ring.nodes
        writer.gauge(
            "fleet_workers",
            "Workers by state.",
            [
                ({"state": "alive"}, sum(1 for _, h in handles if h.alive)),
                ({"state": "in_ring"}, len(in_ring)),
                ({"state": "total"}, len(handles)),
            ],
        )
        writer.counter(
            "fleet_respawns_total", "Dead workers automatically replaced.",
            [(None, self._respawns)],
        )
        writer.counter(
            "fleet_restarts_total", "Draining rolling restarts completed.",
            [(None, self._restarts)],
        )
        writer.counter(
            "fleet_routed_total",
            "Narrations routed per shard.",
            [({"worker": wid}, count) for wid, count in sorted(self._routed.items())]
            or [(None, 0)],
        )
        return text + writer.render()

    def traces(self, limit: Optional[int] = None) -> dict[str, Any]:
        """``GET /trace``: the router's slowest traces with each worker's
        span tree **grafted** under the matching trace id.

        Workers adopted the router's trace id from ``X-Lantern-Trace-Id``,
        so matching is exact: a router trace's ``worker_spans`` list holds
        the worker-side root spans of the same request.
        """
        store = self.tracer.store
        own = store.slowest(limit)
        worker_roots: dict[str, list[dict[str, Any]]] = {}
        with self._lock:
            handles = sorted(self.workers.items())
        for worker_id, handle in handles:
            if not handle.alive:
                continue
            try:
                status, payload = handle.client.request_json(
                    "GET", f"/trace?limit={self.config.trace_window}"
                )
            except ServiceError:
                continue
            if status != 200:
                continue
            for root in payload.get("slowest", []):
                trace_id = root.get("trace_id")
                if trace_id:
                    root["worker_id"] = worker_id
                    worker_roots.setdefault(trace_id, []).append(root)
        for trace in own:
            grafted = worker_roots.get(trace.get("trace_id"))
            if grafted:
                trace["worker_spans"] = grafted
        return {
            "enabled": self.tracer.enabled,
            "completed": store.completed,
            "window": store.window,
            "slowest": own,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Spawn the fleet, then the front door; returns (host, port)."""
        if self._started:
            raise FleetError("fleet already started")
        self._started = True
        try:
            for i in range(self.config.num_workers):
                self._spawn_worker(f"w{i}")
        except FleetError:
            self.stop()
            raise
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        handler = _make_router_handler(self)
        self._httpd = ThreadingHTTPServer((self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-router-http", daemon=True
        )
        self._http_thread.start()
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def stop(self) -> None:
        self._stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self._executor.shutdown(wait=False)
        with self._lock:
            handles = list(self.workers.values())
            self.workers.clear()
            for worker_id in list(self.ring.nodes):
                self.ring.remove(worker_id)
        for handle in handles:
            handle.terminate()

    def __enter__(self) -> "LanternFleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Blocking convenience used by ``python -m repro.service.fleet``.

        SIGTERM and SIGINT both run :meth:`stop`, which SIGTERMs every
        worker (each drains, then exits) and waits for it.
        """
        host, port = self.start()
        url = f"http://{host}:{port}"
        lines = [f"LANTERN-FLEET router listening on {url} ({self.config.num_workers} workers)"]
        for worker_id, handle in sorted(self.workers.items()):
            lines.append(
                f"  worker {worker_id}: http://{handle.host}:{handle.port} "
                f"(pid {handle.process.pid})"
            )
        lines += [
            f"  POST {url}/narrate            (single or batch wire)",
            f"  POST {url}/admin/restart      (draining rolling restart)",
            f"  GET  {url}/metrics            (aggregated; ?format=prometheus)",
            f"  GET  {url}/trace              (router→worker span trees)",
            f"  GET  {url}/healthz",
        ]
        print("\n".join(lines), flush=True)
        run_until_signalled(self.stop)


def _make_router_handler(fleet: LanternFleet) -> type[FrontEnd]:
    return make_front_end("LanternFleet/1.0", fleet.routes(), fleet.telemetry, fleet.tracer)
