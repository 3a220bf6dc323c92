"""LANTERN-SCOPE overhead: tracing must be ~free on the warm serving path.

The acceptance bar for the observability layer: with the rule memo warm (the
service's steady state for repeated plan shapes), running every request under
a full span tree — root span, read-body/admission/decode/finalize/respond
children (a rule request is narrated on its handler thread, so it has no
queue stages), tags, and the finished-trace hand-off into the ``GET /trace``
store — costs at most 5% of the end-to-end request.

Methodology: an A/B latency comparison over loopback HTTP cannot resolve a
few microseconds under scheduler noise (closed-loop round-trip times swing
by 20%+ between rounds on a shared box), so the two sides are measured
separately where each is stable:

* **span machinery** — the exact per-request span shape the serving path
  builds (6 spans, same tags, store hand-off) is timed directly over many
  iterations; this is deterministic CPU work with microsecond stability.
* **request latency** — warm closed-loop ``POST /narrate`` over real HTTP,
  scored by the median round (min-of-rounds latches onto lucky scheduler
  windows and makes the ratio jitter; the median is the typical request).

Both numbers are pure-Python work, so their ratio is also stable across
machine speeds.  Results land in ``BENCH_obs.json`` at the repo root.
"""

import json
import statistics
import time
from pathlib import Path

from conftest import print_table

from repro.obs import TraceStore, Tracer
from repro.service import LanternClient, build_service

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

PLAN = {
    "Plan": {
        "Node Type": "Aggregate",
        "Strategy": "Hashed",
        "Plans": [
            {
                "Node Type": "Hash Join",
                "Hash Cond": "(a.id = b.id)",
                "Plans": [
                    {"Node Type": "Seq Scan", "Relation Name": "author"},
                    {
                        "Node Type": "Hash",
                        "Plans": [{"Node Type": "Seq Scan", "Relation Name": "publication"}],
                    },
                ],
            }
        ],
    }
}

SPAN_ITERATIONS = 10000
SPAN_ROUNDS = 7
HTTP_WARMUP = 100
HTTP_ROUNDS = 7
HTTP_REQUESTS_PER_ROUND = 200
MAX_OVERHEAD_FRACTION = 0.05


def _request_span_shape(tracer: Tracer) -> None:
    """Replays the exact span work one traced rule-mode POST /narrate performs."""
    root = tracer.trace("POST /narrate")
    with root:
        now = root.start
        root.add_child_at("read_body", now, now + 0.0001)
        root.tag(format="postgres-json", mode="rule")
        root.add_child_at("admission", now, now + 0.0001)
        root.add_child_at("decode", now, now + 0.0001, batch_size=1, mode="rule")
        root.add_child_at("finalize", now, now + 0.0001)
        root.tag(status=200)
        root.add_child_at("respond", now, now + 0.0001, status=200)


def _span_machinery_us() -> float:
    tracer = Tracer(store=TraceStore(window=256, keep=16))
    for _ in range(500):
        _request_span_shape(tracer)
    best = float("inf")
    for _ in range(SPAN_ROUNDS):
        started = time.perf_counter()
        for _ in range(SPAN_ITERATIONS):
            _request_span_shape(tracer)
        best = min(best, time.perf_counter() - started)
    return best / SPAN_ITERATIONS * 1e6


def _warm_request_us() -> float:
    service = build_service(port=0)
    host, port = service.start()
    client = LanternClient(f"http://{host}:{port}")
    try:
        for _ in range(HTTP_WARMUP):
            client.narrate(PLAN)
        rounds = []
        for _ in range(HTTP_ROUNDS):
            started = time.perf_counter()
            for _ in range(HTTP_REQUESTS_PER_ROUND):
                client.narrate(PLAN)
            rounds.append(time.perf_counter() - started)
    finally:
        client.close()
        service.stop()
    return statistics.median(rounds) / HTTP_REQUESTS_PER_ROUND * 1e6


def test_tracing_overhead_on_warm_path(benchmark):
    def measure():
        return _span_machinery_us(), _warm_request_us()

    span_us, request_us = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = span_us / request_us

    print_table(
        "LANTERN-SCOPE tracing overhead (warm rule memo)",
        ["measurement", "value"],
        [
            ["span machinery per request", f"{span_us:.2f} us"],
            ["warm POST /narrate end to end", f"{request_us:.1f} us"],
            ["tracing share of a request", f"{overhead * 100.0:.2f}%"],
        ],
    )

    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "obs_overhead",
                "span_machinery_us_per_request": round(span_us, 3),
                "warm_request_us": round(request_us, 3),
                "overhead_fraction": round(overhead, 5),
                "budget_fraction": MAX_OVERHEAD_FRACTION,
            },
            indent=1,
        )
        + "\n"
    )

    assert overhead <= MAX_OVERHEAD_FRACTION, (
        f"tracing costs {span_us:.1f} us of a {request_us:.1f} us warm request "
        f"({overhead * 100.0:.1f}% > {MAX_OVERHEAD_FRACTION * 100.0:.0f}%)"
    )
