"""``python -m repro.service.fleet`` — run a LANTERN-FLEET from the CLI.

Spawns ``--workers`` worker processes (each warm-booting ``--checkpoint``
when given — the mmap pages are shared across the whole fleet) and serves
the front door on ``--port``.  See ``docs/operations.md`` for the full
operational walkthrough (draining restarts, tuning, reading ``/trace``).
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.service.fleet.ring import DEFAULT_REPLICAS
from repro.service.fleet.router import DEFAULT_ROUTER_PORT, FleetConfig, LanternFleet
from repro.service.server import DEFAULT_HOST


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.fleet",
        description="Serve LANTERN narrations from a sharded multi-process fleet.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_ROUTER_PORT)
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes to spawn (shard count)"
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="LANTERN-PERSIST checkpoint every worker warm-boots from "
        "(mmap-backed: the fleet shares one copy of the model pages)",
    )
    parser.add_argument(
        "--compiled-cache",
        metavar="FILE",
        help="compiled narration cache every worker mounts; requires --checkpoint",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=DEFAULT_REPLICAS,
        help="virtual nodes per worker on the consistent-hash ring",
    )
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-queue-depth", type=int, default=256)
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="worker liveness/health poll period",
    )
    parser.add_argument(
        "--no-tracing", action="store_true", help="disable tracing on router and workers"
    )
    args = parser.parse_args(argv)
    if args.compiled_cache and not args.checkpoint:
        parser.error("--compiled-cache requires --checkpoint")

    config = FleetConfig(
        host=args.host,
        port=args.port,
        num_workers=args.workers,
        checkpoint=args.checkpoint,
        compiled_cache=args.compiled_cache,
        replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
        heartbeat_interval_s=args.heartbeat_interval,
        tracing_enabled=not args.no_tracing,
        worker_tracing=not args.no_tracing,
    )
    LanternFleet(config).serve_forever()


if __name__ == "__main__":
    main()
