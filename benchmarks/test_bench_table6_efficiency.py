"""Table 6 — efficiency: training time, per-epoch time, SQL generation, response times.

Paper shape: training dominates (hundreds of seconds on their GPU box), one
epoch takes seconds, generating a thousand random queries takes under a
second, and the average per-description response time of NEURAL-LANTERN is an
order of magnitude larger than RULE-LANTERN's (0.216 s vs 0.015 s) while both
stay interactive (< 1 s).

Beyond the paper's numbers, this bench tracks the repo's own optimization
trajectory for the neural path.  NOTE: the paper-comparable figure (the
Table 6 "order of magnitude slower than RULE-LANTERN" shape) is
``neural_lantern_sequential_avg_response_s``; the historical key
``neural_lantern_avg_response_s`` now records the repo's *default serving
path* (batched + warm cache), which has become faster than rule narration:

* ``neural_lantern_sequential_avg_response_s`` — the original per-act,
  per-beam, batch-1 decode (the seed bottleneck);
* ``neural_lantern_cold_avg_response_s`` — fused plan-level batched beam
  search with the act-signature cache disabled (this path still deduplicates
  repeated signatures *within* one plan — that dedup is part of the batched
  serving path, so the cold speedup is batching + in-plan dedup, not
  batching alone);
* ``neural_lantern_avg_response_s`` — the default serving path: batched
  decoding plus a warm :class:`repro.nlg.cache.DecodeCache` (the US-5 policy
  sends only *frequently repeated* operators to the neural generator, so a
  warm cache is the representative steady state).

The measured numbers plus the cache hit rate are written to
``BENCH_table6.json`` at the repo root so future PRs have a perf trajectory.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
from conftest import print_table
from oracles.seq2seq import beam_decode_candidates_sequential

from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts
from repro.nlg.cache import CompiledCache
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.tokenizer import detokenize
from repro.nlg.vocab import Vocabulary
from repro.workloads.generator import RandomQueryGenerator
from repro.workloads.imdb import IMDB_JOIN_GRAPH

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_table6.json"

#: LANTERN-ZERO int8 rung: the quantized-vs-float64 ratio is measured at the
#: paper's decoder scale (256 hidden units), where decoding is matmul-bound;
#: at the reduced bench scale fixed per-step overhead hides the BLAS win
PAPER_HIDDEN = 256
PAPER_ATTENTION = 128
MIN_INT8_COLD_SPEEDUP = 1.5
#: back-to-back warm/compiled pass pairs timed for the cache-bound rungs
CACHE_TIER_PAIRS = 40


def _timed_pass(neural, plans) -> float:
    """One full serving pass over the plan set; per-plan average seconds."""
    times = []
    for acts, steps in plans:
        started = time.perf_counter()
        neural.translate_steps(acts, steps)
        times.append(time.perf_counter() - started)
    return sum(times) / len(times)


def _sequential_translate(neural, act, step) -> str:
    """The seed decoding path: one batch-1 decoder step per beam per timestep."""
    candidates = beam_decode_candidates_sequential(
        neural.model, act.input_tokens(), beam_size=neural.beam_size
    )
    candidates = [tokens for tokens in candidates if tokens]
    return neural._finalize(detokenize(candidates[0]), step)


def test_table6_efficiency(benchmark, suite):
    variant = suite.variant("base")
    lantern = suite.lantern()
    imdb = suite.imdb()
    neural = variant.neural

    def measure():
        # snapshot the shared session fixture's mutable state (wording-cycle
        # exposure counters, cache enablement) and restore it in one
        # exception-safe finally covering every pass below, so later
        # benchmark files never see state this bench left behind
        exposure_before = dict(neural._act_exposure)
        previously_enabled = neural.decode_cache.enabled
        timings = {}
        try:
            timings["training_total_s"] = variant.history.total_seconds
            timings["training_per_epoch_s"] = variant.history.average_epoch_seconds

            started = time.perf_counter()
            generator = RandomQueryGenerator(imdb, IMDB_JOIN_GRAPH, seed=42)
            queries = generator.generate(200)
            timings["sql_generation_200_queries_s"] = time.perf_counter() - started

            rule_times = []
            plans = []
            for generated in queries[:25]:
                started = time.perf_counter()
                tree = lantern.plan_for_sql(imdb, generated.sql)
                narration = lantern.describe_plan(tree)
                rule_times.append(time.perf_counter() - started)
                acts = align_acts_with_narration(decompose_lot_into_acts(narration.lot), narration)
                plans.append((acts, list(narration.steps)))
            timings["rule_lantern_avg_response_s"] = sum(rule_times) / len(rule_times)

            # seed path: per-act sequential beam search, no batching, no cache
            sequential_times = []
            for acts, steps in plans:
                started = time.perf_counter()
                for act, step in zip(acts, steps):
                    _sequential_translate(neural, act, step)
                sequential_times.append(time.perf_counter() - started)
            timings["neural_lantern_sequential_avg_response_s"] = sum(sequential_times) / len(
                sequential_times
            )

            # cold path: fused plan-level batched beams, cache off
            neural.configure_cache(enabled=False)
            cold_times = []
            for acts, steps in plans:
                started = time.perf_counter()
                neural.translate_steps(acts, steps)
                cold_times.append(time.perf_counter() - started)
            timings["neural_lantern_cold_avg_response_s"] = sum(cold_times) / len(cold_times)

            # default serving path: batched beams + act-signature cache,
            # measured warm (one priming pass — the repeated-operator steady
            # state of US-5)
            neural.configure_cache(enabled=True)
            neural.decode_cache.clear()
            for acts, steps in plans:
                neural.translate_steps(acts, steps)
            exported = neural.decode_cache.export_entries()
            neural.decode_cache.reset_counters()  # keep entries, measure warm lookups only
            _timed_pass(neural, plans)
            timings["decode_cache_hit_rate"] = neural.decode_cache.hit_rate

            # LANTERN-ZERO rung: the same signatures served from an
            # immutable compiled tier (sorted keys + bisect, zero matmuls)
            # with the LRU entries dropped — pre-decoding a workload
            # offline must not cost steady-state latency versus the warm
            # LRU it stands in for
            groups = {}
            for (tokens, beam_size, precision), candidates in exported:
                groups.setdefault((beam_size, precision), []).append(
                    (list(tokens), candidates)
                )
            (beam_size, precision), entries = max(
                groups.items(), key=lambda group: len(group[1])
            )
            neural.decode_cache.mount_compiled(
                CompiledCache(entries, beam_size=beam_size, precision=precision)
            )
            # the two cache-bound rungs differ by about 2%, while one pass
            # varies by tens of percent with host load, so they are measured
            # in PAIRS back-to-back pairs (order alternating) and compared
            # pair by pair: the compiled time is the warm median scaled by
            # the median per-pair ratio.  A warm pass refills the LRU, which
            # answers before the compiled tier; a compiled pass empties it
            warm_passes, compiled_passes = [], []
            compiled_hits = 0

            def warm_pass() -> None:
                for key, candidates in exported:
                    neural.decode_cache.put(key, candidates)
                warm_passes.append(_timed_pass(neural, plans))

            def compiled_pass() -> None:
                nonlocal compiled_hits
                neural.decode_cache.clear()
                compiled_passes.append(_timed_pass(neural, plans))
                compiled_hits += neural.decode_cache.stats()["compiled_hits"]

            for pair in range(CACHE_TIER_PAIRS):
                for run_pass in (warm_pass, compiled_pass)[:: 1 if pair % 2 else -1]:
                    run_pass()
            warm_median = statistics.median(warm_passes)
            timings["neural_lantern_avg_response_s"] = warm_median
            timings["neural_lantern_compiled_avg_response_s"] = warm_median * statistics.median(
                compiled / warm for warm, compiled in zip(warm_passes, compiled_passes)
            )
            timings["compiled_cache_hits"] = compiled_hits
        finally:
            neural.decode_cache.unmount_compiled()
            neural.configure_cache(enabled=previously_enabled)
            neural.decode_cache.clear()
            neural._act_exposure.clear()
            neural._act_exposure.update(exposure_before)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Table 6 — efficiency (seconds)",
        ["step", "time (s)"],
        [
            [key, f"{value:.4f}"]
            for key, value in timings.items()
            if key not in ("decode_cache_hit_rate", "compiled_cache_hits")
        ],
    )
    print(f"decode cache hit rate (warm pass): {timings['decode_cache_hit_rate']:.3f}")

    sequential = timings["neural_lantern_sequential_avg_response_s"]
    cold = timings["neural_lantern_cold_avg_response_s"]
    warm = timings["neural_lantern_avg_response_s"]
    compiled = timings["neural_lantern_compiled_avg_response_s"]
    BENCH_JSON.write_text(
        json.dumps(
            {
                "table": "table6_efficiency",
                "rule_lantern_avg_response_s": timings["rule_lantern_avg_response_s"],
                "neural_lantern_avg_response_s": warm,
                "neural_lantern_compiled_avg_response_s": compiled,
                "neural_lantern_cold_avg_response_s": cold,
                "neural_lantern_sequential_avg_response_s": sequential,
                "decode_cache_hit_rate": timings["decode_cache_hit_rate"],
                "compiled_cache_hits": timings["compiled_cache_hits"],
                "batched_speedup_cold": sequential / cold if cold else None,
                "batched_cached_speedup_warm": sequential / warm if warm else None,
                "sql_generation_200_queries_s": timings["sql_generation_200_queries_s"],
                "training_per_epoch_s": timings["training_per_epoch_s"],
            },
            indent=2,
        )
        + "\n"
    )

    # shape: rule-based narration is much faster than (uncached) neural
    # decoding, both are interactive, and SQL generation is cheap
    assert timings["rule_lantern_avg_response_s"] < sequential
    assert timings["rule_lantern_avg_response_s"] < 0.5
    assert timings["sql_generation_200_queries_s"] < 5.0
    assert timings["training_per_epoch_s"] > timings["rule_lantern_avg_response_s"]
    # the optimization trajectory must not regress: batching alone beats the
    # sequential path cold, and the warm cache beats both
    assert cold < sequential
    assert warm < sequential
    assert timings["decode_cache_hit_rate"] > 0.5
    # the compiled tier serves the whole pass without decoding, no slower
    # than the warm LRU it replaces
    assert timings["compiled_cache_hits"] > 0
    assert compiled <= warm


def test_int8_cold_decode_paper_scale():
    """LANTERN-ZERO quantization rung: int8 replicas (per-row absmax,
    float32 accumulation) must make a *cold* decode at the paper's decoder
    scale at least 1.5× faster than the float64 path, on identical
    sources.  Results merge into ``BENCH_table6.json``."""
    rng = np.random.default_rng(0)
    operator_tokens = [f"op{i}" for i in range(40)]
    model = QEP2Seq(
        Vocabulary.from_sequences([operator_tokens]),
        Vocabulary.from_sequences([[f"w{i}" for i in range(300)]]),
        Seq2SeqConfig(
            hidden_dim=PAPER_HIDDEN,
            attention_dim=PAPER_ATTENTION,
            seed=3,
            max_decode_length=30,
        ),
    )
    sources = [
        [operator_tokens[int(rng.integers(0, 40))] for _ in range(int(rng.integers(4, 12)))]
        for _ in range(32)
    ]

    def decode_seconds() -> float:
        started = time.perf_counter()
        model.beam_decode_batch(sources, beam_size=4)
        return time.perf_counter() - started

    # best of six trials per precision, alternating, so a stretch of host
    # load slows both sides alike
    float64_seconds = int8_seconds = float("inf")
    for _ in range(6):
        float64_seconds = min(float64_seconds, decode_seconds())
        model.quantize("int8")
        try:
            int8_seconds = min(int8_seconds, decode_seconds())
        finally:
            model.dequantize()
    speedup = float64_seconds / int8_seconds
    assert speedup >= MIN_INT8_COLD_SPEEDUP

    try:
        document = json.loads(BENCH_JSON.read_text())
    except FileNotFoundError:
        document = {}
    document["int8_cold"] = {
        "hidden_dim": PAPER_HIDDEN,
        "sources": len(sources),
        "beam_size": 4,
        "float64_cold_decode_s": round(float64_seconds, 4),
        "int8_cold_decode_s": round(int8_seconds, 4),
        "int8_cold_speedup": round(speedup, 2),
    }
    BENCH_JSON.write_text(json.dumps(document, indent=2) + "\n")

    print_table(
        f"Cold batched decode by precision (hidden={PAPER_HIDDEN}, 32 sources)",
        ["precision", "decode (ms)", "speedup"],
        [
            ["float64", f"{float64_seconds * 1000:.1f}", "1.0x"],
            ["int8 (absmax rows)", f"{int8_seconds * 1000:.1f}", f"{speedup:.2f}x"],
        ],
    )
