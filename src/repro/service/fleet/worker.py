"""The LANTERN-FLEET worker: one LANTERN-SERVE process plus an admin surface.

A :class:`WorkerService` is a plain :class:`~repro.service.server.LanternService`
whose route table adds the three endpoints the fleet router drives its
lifecycle with:

* ``POST /admin/drain`` — flip to draining (``/healthz`` 503, narrations
  refused) while queued work finishes; the rolling-restart first step.
* ``GET /admin/cache`` — export the decode cache as ``{"entries": rows}``,
  the rows of the one cache codec
  (:meth:`repro.nlg.cache.DecodeCache.export_rows`), oldest→newest so a
  re-import reproduces the LRU order.
* ``POST /admin/cache`` — import such a snapshot
  (:meth:`~repro.nlg.cache.DecodeCache.import_rows`, all-or-nothing: a
  malformed row or a body that is not an object is a 400); how a cold
  successor inherits its predecessor's warm entries during the
  cache-handoff.

``python -m repro.service.fleet.worker`` runs one worker standalone.  The
router spawns exactly this CLI: the worker binds an ephemeral port, then
prints a single machine-readable **ready line** on stdout::

    LANTERN-WORKER-READY {"worker_id": "w0", "host": "127.0.0.1", "port": 43117, "pid": 1234}

which is the spawn handshake — the router learns the port without any port
pre-allocation races.  SIGTERM stops the worker gracefully (drain, close).

Every worker of a fleet boots from the *same* ``--checkpoint`` directory:
LANTERN-ZERO checkpoints are mmap-backed, so N workers share one copy of
the model pages through the page cache instead of paying N private copies.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from typing import Any, Optional

from repro.core.lantern import Lantern
from repro.errors import FleetError, RequestError
from repro.service.frontend import FrontEnd, Route
from repro.service.server import DEFAULT_HOST, LanternService, ServiceConfig

__all__ = [
    "WorkerService",
    "READY_PREFIX",
    "main",
]

#: the stdout handshake line prefix the router waits for after spawning
READY_PREFIX = "LANTERN-WORKER-READY "


class WorkerService(LanternService):
    """A LANTERN-SERVE process that takes lifecycle orders from the router."""

    def routes(self) -> dict[tuple[str, str], Route]:
        return {
            **super().routes(),
            ("POST", "/admin/drain"): Route(self._drain),
            ("GET", "/admin/cache"): Route(self._export_cache),
            ("POST", "/admin/cache"): Route(self._import_cache),
        }

    def _stamped(self, **response: Any) -> dict[str, Any]:
        """An admin response, stamped with this worker's fleet identity."""
        if self.config.instance_id is not None:
            response["worker_id"] = self.config.instance_id
        return response

    def _drain(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        request._read_body(required=False)
        self.begin_drain()
        return 200, self._stamped(status="draining")

    def _export_cache(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        cache = getattr(self.lantern.neural, "decode_cache", None)
        entries = cache.export_rows() if cache is not None else []
        return 200, self._stamped(
            entries=entries, count=len(entries), neural_attached=self.lantern.neural is not None
        )

    def _import_cache(self, request: FrontEnd) -> tuple[int, dict[str, Any]]:
        body = request._read_body(required=False)
        if body is not None and not isinstance(body, dict):
            raise RequestError("a cache snapshot must be a JSON object")
        neural = self.lantern.neural
        cache = getattr(neural, "decode_cache", None)
        imported = 0
        if cache is not None:  # a rule-only worker has no cache to fill
            imported = cache.import_rows((body or {}).get("entries", []), neural.model.precision)
        return 200, self._stamped(imported=imported, neural_attached=neural is not None)


def build_worker(
    worker_id: str,
    checkpoint: Optional[str] = None,
    compiled_cache: Optional[str] = None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    **knobs: Any,
) -> WorkerService:
    """Construct a :class:`WorkerService` (warm-booted when ``checkpoint``).

    Mirrors :func:`repro.service.server.build_service` but always stamps the
    worker's fleet identity into the config and defaults to an ephemeral
    port (the ready-line handshake reports the bound one).
    """
    lantern = None
    if checkpoint:
        lantern = Lantern.load(checkpoint)
        if compiled_cache:
            from repro.nlg.cache import CompiledCache

            if lantern.neural is None:
                raise FleetError("--compiled-cache needs a checkpoint with a neural generator")
            lantern.neural.decode_cache.mount_compiled(CompiledCache.load(compiled_cache))
    from repro.service.batcher import BatcherConfig

    service_knobs = {
        key: knobs.pop(key)
        for key in ("tracing_enabled", "trace_window", "trace_keep", "trace_log", "trace_log_every")
        if key in knobs
    }
    config = ServiceConfig(
        host=host,
        port=port,
        instance_id=worker_id,
        batcher=BatcherConfig(**knobs),
        **service_knobs,
    )
    return WorkerService(lantern=lantern, config=config)


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.fleet.worker",
        description="Run one LANTERN-FLEET worker (spawned by the router).",
    )
    parser.add_argument("--worker-id", required=True, help="stable fleet identity (shard name)")
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (reported on stdout)"
    )
    parser.add_argument("--checkpoint", metavar="PATH", help="warm-boot from this mmap checkpoint")
    parser.add_argument(
        "--compiled-cache", metavar="FILE", help="mount this compiled narration cache"
    )
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-queue-depth", type=int, default=256)
    parser.add_argument("--no-tracing", action="store_true")
    args = parser.parse_args(argv)
    if args.compiled_cache and not args.checkpoint:
        parser.error("--compiled-cache requires --checkpoint")

    service = build_worker(
        args.worker_id,
        checkpoint=args.checkpoint,
        compiled_cache=args.compiled_cache,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
        tracing_enabled=not args.no_tracing,
    )
    host, port = service.start()

    stop = threading.Event()

    def _terminate(signum: int, frame: Any) -> None:  # noqa: ARG001
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    ready = {
        "worker_id": args.worker_id,
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "neural_attached": service.lantern.neural is not None,
    }
    print(READY_PREFIX + json.dumps(ready), flush=True)

    try:
        while not stop.is_set():
            stop.wait(timeout=1.0)
    finally:
        service.begin_drain()
        # give queued narrations a moment to finish before tearing down
        deadline = time.monotonic() + 5.0
        while service.batcher.queue_depth > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        service.stop()


if __name__ == "__main__":
    main()
