"""``python -m repro.service`` — run LANTERN-SERVE from the command line.

By default the service narrates with RULE-LANTERN only (instant startup).
``--neural`` trains the tiny DBLP-workload NEURAL-LANTERN first (a minute or
two of CPU) and attaches it, enabling ``"mode": "neural"``/``"auto"``
requests and the shared act-signature decode cache.

``--checkpoint PATH`` boots **warm** instead: the whole facade — model
weights, vocabularies, wording-cycle exposures, habituation counters, and
(optionally) a hot decode cache — is loaded from a LANTERN-PERSIST
checkpoint written by ``python -m repro.nlg.train``, so a restart costs
milliseconds rather than a retraining run (see ``BENCH_checkpoint.json``).

``--compiled-cache FILE`` additionally mounts a pre-decoded narration cache
written by ``python -m repro.nlg.compile`` under the LRU decode cache, so
every act signature of the compiled workload is served with zero matmuls
(the LANTERN-ZERO serving tier).
"""

from __future__ import annotations

import argparse
import time

from repro.service.server import DEFAULT_HOST, DEFAULT_PORT, build_service


def _train_demo_lantern():
    """The quickstart-sized facade (kept out of import time).

    Delegates to the canonical recipe in :mod:`repro.nlg.train`, whose
    defaults *are* this demo — one place defines the serving conventions
    (deterministic ``seed=None`` rule wording, rule-phase memo active).
    """
    from repro.nlg.train import train_workload_lantern

    print("training the demo NEURAL-LANTERN (DBLP workload) ...")
    lantern, _, _, _, _ = train_workload_lantern()
    return lantern


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve LANTERN narrations over HTTP with micro-batching.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    generator = parser.add_mutually_exclusive_group()
    generator.add_argument(
        "--neural",
        action="store_true",
        help="train and attach the demo neural generator (enables mode=neural/auto)",
    )
    generator.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="boot warm from a LANTERN-PERSIST checkpoint directory "
        "(written by python -m repro.nlg.train)",
    )
    parser.add_argument(
        "--compiled-cache",
        metavar="FILE",
        help="mount a pre-decoded narration cache (python -m repro.nlg.compile) "
        "under the decode cache; requires --checkpoint",
    )
    parser.add_argument(
        "--max-batch-size", type=int, default=32, help="requests in flight in the decode"
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=256, help="admission-control bound (429 beyond)"
    )
    parser.add_argument(
        "--trace-log",
        metavar="FILE",
        help="append sampled request traces as JSONL events to FILE (LANTERN-SCOPE)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="log every Nth finished trace to --trace-log (default: every trace)",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable span collection entirely (GET /trace will be empty)",
    )
    args = parser.parse_args(argv)
    if args.compiled_cache and not args.checkpoint:
        parser.error("--compiled-cache requires --checkpoint")

    lantern = None
    if args.checkpoint:
        from repro.core import Lantern

        started = time.perf_counter()
        lantern = Lantern.load(args.checkpoint)
        print(
            f"loaded checkpoint {args.checkpoint} in "
            f"{(time.perf_counter() - started) * 1000.0:.0f} ms "
            f"(neural {'attached' if lantern.neural is not None else 'absent'})"
        )
        if args.compiled_cache:
            from repro.nlg.cache import CompiledCache

            if lantern.neural is None:
                parser.error("--compiled-cache needs a checkpoint with a neural generator")
            compiled = CompiledCache.load(args.compiled_cache)
            lantern.neural.decode_cache.mount_compiled(compiled)
            print(
                f"mounted compiled cache {args.compiled_cache} "
                f"({len(compiled)} act signatures, beam={compiled.beam_size}, "
                f"precision={compiled.precision})"
            )
    elif args.neural:
        lantern = _train_demo_lantern()
    service = build_service(
        lantern=lantern,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
        tracing_enabled=not args.no_tracing,
        trace_log=args.trace_log,
        trace_log_every=args.trace_sample,
    )
    service.serve_forever()


if __name__ == "__main__":
    main()
