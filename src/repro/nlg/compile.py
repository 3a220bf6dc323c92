"""``python -m repro.nlg.compile`` — pre-decode a workload into a compiled cache.

The LANTERN-ZERO observation: act signatures are *structural*, so a serving
workload's neural decodes are enumerable offline.  This command loads a
LANTERN-PERSIST checkpoint, narrates every plan of the named workload once in
neural mode (batched beam search, the exact serving decode path), and freezes
the ranked candidate lists into a sorted-key JSON file::

    python -m repro.nlg.train   --workload dblp --queries 25 --out ckpt/dblp
    python -m repro.nlg.compile --checkpoint ckpt/dblp --workload dblp --out dblp.cache.json
    python -m repro.service     --checkpoint ckpt/dblp --compiled-cache dblp.cache.json

The service mounts the file read-only *under* its LRU decode cache
(:meth:`repro.nlg.cache.DecodeCache.mount_compiled`): known signatures are
served by binary search with **zero matmuls**, unknown ones fall through to
live beam search as before.  Because the compiled entries are produced by the
same decoder that would serve them live, a compiled hit is token-for-token
identical to a cold decode — the file is a pure latency optimization.

The file records the beam size and numeric precision
(``"<dtype>:<quantize>"``) it was compiled under; a service running the model
at any other beam/precision simply misses the compiled tier.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.errors import NLGError
from repro.nlg.cache import CompiledCache
from repro.obs.tracing import default_tracer, format_span_tree

#: cache headroom while compiling — large enough that no workload signature
#: is evicted before export (a plan rarely has more than a handful of
#: distinct neural-bound signatures, so thousands of *distinct* ones would
#: take a workload far bigger than any compile run)
_COMPILE_CACHE_SIZE = 65536


def compile_plans(lantern, trees) -> CompiledCache:
    """Pre-decode every neural-bound act signature of ``trees``.

    Narrates the plans through ``lantern``'s own neural path (so batching,
    cache keying, and beam ranking are exactly the serving code path), then
    snapshots the decode-cache entries that match the model's current beam
    size and precision into an immutable :class:`CompiledCache`.

    The lantern's decode cache is temporarily enlarged so no signature is
    evicted mid-compile; its original geometry, entries, and counters — and
    the generator's wording-cycle exposures — are restored before returning,
    so compiling does not disturb the lantern's future narrations.
    """
    neural = getattr(lantern, "neural", None)
    if neural is None:
        raise NLGError("the checkpoint has no neural generator; nothing to compile")
    cache = neural.decode_cache
    beam_size = neural._effective_beam_size()
    precision = neural.model.precision

    saved_entries = cache.export_entries()
    saved_geometry = (cache.max_size, cache.enabled)
    saved_counters = (cache.hits, cache.misses, cache.compiled_hits)
    saved_exposure = dict(neural._act_exposure)
    cache.configure(max_size=max(cache.max_size, _COMPILE_CACHE_SIZE), enabled=True)
    try:
        lantern.describe_plans(trees, mode="neural")
        entries = [
            (key_tokens, candidates)
            for (key_tokens, beam, key_precision), candidates in cache.export_entries()
            if beam == beam_size and key_precision == precision
        ]
    finally:
        cache.clear()
        cache.configure(max_size=saved_geometry[0], enabled=saved_geometry[1])
        for key, candidates in saved_entries:
            cache.put(key, candidates)
        cache.hits, cache.misses, cache.compiled_hits = saved_counters
        neural._act_exposure = saved_exposure
    return CompiledCache(entries, beam_size=beam_size, precision=precision)


def compile_workload(
    lantern, workload: str, queries: int, seed: int
) -> tuple[CompiledCache, int]:
    """Build the named workload and compile its plans.

    Returns ``(compiled cache, plan count)``.
    """
    from repro.nlg.train import _build_workload

    database, query_texts, engine = _build_workload(workload, seed, queries)
    trees = [lantern.plan_for_sql(database, sql, engine) for sql in query_texts]
    return compile_plans(lantern, trees), len(trees)


def _parser() -> argparse.ArgumentParser:
    from repro.nlg.train import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro.nlg.compile",
        description="Pre-decode a workload's act signatures into a compiled narration cache.",
    )
    parser.add_argument(
        "--checkpoint", required=True, help="LANTERN-PERSIST checkpoint directory to load"
    )
    parser.add_argument("--workload", choices=WORKLOADS, default="dblp")
    parser.add_argument(
        "--queries", type=int, default=25, help="workload queries to pre-decode"
    )
    parser.add_argument(
        "--seed", type=int, default=9, help="workload generator seed (match training)"
    )
    parser.add_argument("--out", required=True, help="compiled cache file to write")
    return parser


def main(argv: list[str] | None = None) -> Path:
    from repro.core import Lantern

    args = _parser().parse_args(argv)
    root = default_tracer().trace("nlg.compile", workload=args.workload)
    with root:
        started = time.perf_counter()
        with default_tracer().span("load_checkpoint"):
            lantern = Lantern.load(args.checkpoint)
        print(f"checkpoint loaded in {(time.perf_counter() - started) * 1000:.1f} ms")

        started = time.perf_counter()
        with default_tracer().span("compile", queries=args.queries):
            compiled, plan_count = compile_workload(
                lantern, workload=args.workload, queries=args.queries, seed=args.seed
            )
        elapsed = time.perf_counter() - started
        out = Path(args.out)
        with default_tracer().span("save"):
            compiled.save(out)
    if root:
        print("phase timings:")
        print(format_span_tree(root.to_dict(), indent=1))
    print(
        f"compiled {len(compiled)} act signatures from {plan_count} plans "
        f"in {elapsed:.1f}s (beam={compiled.beam_size}, precision={compiled.precision})"
    )
    print(f"compiled cache written to {out} ({out.stat().st_size / 1024:.0f} KiB)")
    print(
        "serve it with: python -m repro.service "
        f"--checkpoint {args.checkpoint} --compiled-cache {out}"
    )
    return out


if __name__ == "__main__":
    main()
