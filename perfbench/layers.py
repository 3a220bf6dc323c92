"""Turning one run's observations into metrics.

End-to-end metrics come from the load generator's timings and ``/proc``.
Per-layer metrics (traced runs) come from the probe's spans, from the
program's own ``GET /metrics`` counters read at both ends of the window,
and from per-process ``/proc`` CPU.  Every per-layer metric is reported on
every workload; a layer the workload does not run reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Optional

from loadgen import Outcome, Slice, closed_rate
from repro.errors import ServiceError

INGEST_FORMATS = ("postgres-json", "sqlserver-xml", "mysql-json")
#: reported for a lower-is-better figure that failures made infinite (JSON
#: has no infinity)
UNMEASURABLE = 1e9


def percentile(values: Iterable[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Snapshots:
    """The program's ``GET /metrics`` documents at both ends of the window,
    one per narrating process (fleet workers are read through the router)."""

    def __init__(self, deployment: Any, workload: Any) -> None:
        self.deployment = deployment
        self.root_pid = deployment.process.pid
        self.fleet = workload.workers > 0
        self.docs: dict[str, dict[str, dict[str, Any]]] = {}

    def take(self, label: str) -> None:
        try:
            status, document = self.deployment.client.request_json("GET", "/metrics")
        except ServiceError:
            status, document = 0, {}
        if status != 200:
            self.docs[label] = {}
        elif self.fleet:
            self.docs[label] = {**document.get("workers", {}), "_fleet": document.get("fleet", {})}
        else:
            self.docs[label] = {"server": document}

    def counter_delta(self, section: str, key: str) -> dict[str, float]:
        """Per narrating process: the change of ``doc[section][key]``."""
        out = {}
        for name, end_doc in self.docs["end"].items():
            if name.startswith("_"):
                continue
            start_doc = self.docs["start"].get(name, {})
            out[name] = float((end_doc.get(section) or {}).get(key, 0)) - float(
                (start_doc.get(section) or {}).get(key, 0)
            )
        return out

    def stage_mean_ms(self, stage: str) -> float:
        """Mean of a ``stages`` histogram over the window, all processes."""
        total = count = 0.0
        for name, end_doc in self.docs["end"].items():
            if name.startswith("_"):
                continue
            end = end_doc.get("stages", {}).get(stage, {})
            start = self.docs["start"].get(name, {}).get("stages", {}).get(stage, {})
            count += end.get("count", 0) - start.get("count", 0)
            total += end.get("count", 0) * end.get("mean", 0.0) - start.get("count", 0) * start.get(
                "mean", 0.0
            )
        return total / count if count else 0.0


def _outcomes(slices: list[Slice], phase: Optional[str] = None) -> list[Outcome]:
    return [
        outcome
        for piece in slices
        if phase is None or piece.phase == phase
        for outcome in piece.outcomes
    ]


def _cpu(slices: list[Slice], pids: Optional[set[int]] = None) -> float:
    return sum(
        seconds
        for piece in slices
        for pid, seconds in piece.cpu.items()
        if pids is None or pid in pids
    )


def _open_latencies_ms(slices: list[Slice]) -> list[float]:
    """Due-to-done latencies of open-loop requests; a failure counts as
    missing every latency limit."""
    return [o.latency_s * 1000.0 if o.ok else math.inf for o in _outcomes(slices, "open")]


def end_to_end(
    slices: list[Slice], rss: float, setups: list[dict[str, float]]
) -> dict[str, dict[str, Any]]:
    latencies = _open_latencies_ms(slices)
    served = sum(1 for o in _outcomes(slices) if o.ok)
    values = {
        "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
        "throughput_plans_per_s": (closed_rate(slices), "1/s"),
        "cpu_ms_per_plan": (_cpu(slices) * 1000.0 / served if served else math.inf, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "rss_mib": (rss, "MiB"),
    }
    return _as_metrics(values)


def _as_metrics(values: dict[str, tuple[float, str]]) -> dict[str, dict[str, Any]]:
    return {
        name: {"value": value if math.isfinite(value) else UNMEASURABLE, "unit": unit}
        for name, (value, unit) in values.items()
    }


def _load_spans(probe_dir: Path) -> dict[int, dict[str, Any]]:
    documents = {}
    for path in sorted(probe_dir.glob("spans-*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        documents[document["pid"]] = document
    return documents


class _Spans:
    """Spans of a set of processes, with self times, filtered to a window."""

    def __init__(self, documents: Iterable[dict[str, Any]], start: float, end: float) -> None:
        self.by_name: dict[str, list[list[Any]]] = defaultdict(list)
        self.children: dict[tuple[int, int], list[list[Any]]] = defaultdict(list)
        for document in documents:
            pid = document["pid"]
            for span in document["spans"]:
                span_id, name, span_start, span_end, parent = span[:5]
                if parent:
                    self.children[(pid, parent)].append(span)
                if start <= span_start <= end:
                    self.by_name[name].append([pid, *span])

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1000.0 for s in self.by_name.get(name, [])]

    def self_ms(self, name: str) -> list[float]:
        out = []
        for pid, span_id, _, start, end, *_ in self.by_name.get(name, []):
            covered = sum(c[3] - c[2] for c in self.children.get((pid, span_id), []))
            out.append((end - start - covered) * 1000.0)
        return out

    def children_of(self, name: str, child: str) -> list[list[Any]]:
        return [
            c
            for pid, span_id, *_ in self.by_name.get(name, [])
            for c in self.children.get((pid, span_id), [])
            if c[1] == child
        ]

    def notes(self, name: str) -> list[Any]:
        return [s[7] for s in self.by_name.get(name, []) if s[7] is not None]

    def cpu_s(self, name: str) -> float:
        """Thread CPU seconds of the spans (only ``CPU_TIMED`` spans have it)."""
        return sum(s[8] for s in self.by_name.get(name, []))


def per_layer(
    slices: list[Slice],
    snapshots: Snapshots,
    setups: list[dict[str, float]],
    probe_dir: Path,
) -> dict[str, dict[str, Any]]:
    """Layer metrics over the whole measured window."""
    documents = _load_spans(probe_dir)
    router = snapshots.root_pid if snapshots.fleet else None
    start, end = slices[0].start, slices[-1].end
    spans = _Spans(documents.values(), start, end)
    server_spans = _Spans([doc for pid, doc in documents.items() if pid != router], start, end)
    router_spans = _Spans([documents[router]] if router in documents else [], start, end)
    served = max(sum(1 for o in _outcomes(slices) if o.ok), 1)

    def median_setup(key: str) -> float:
        values = [s[key] for s in setups if key in s]
        return statistics.median(values) if values else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, tuple[float, str]] = {
        "setup.inputs_s": (median_setup("inputs_s"), "s"),
        "training.train_s": (median_setup("train_s"), "s"),
        "training.epoch_s": (median_setup("epoch_s"), "s"),
        "persistence.save_s": (median_setup("save_s"), "s"),
        "boot.ready_s": (median_setup("ready_s"), "s"),
        "server.read_body_ms": (_mean(server_spans.durations_ms("server.read_body")), "ms"),
        "server.admission_ms": (snapshots.stage_mean_ms("admission"), "ms"),
        "server.respond_ms": (snapshots.stage_mean_ms("respond"), "ms"),
    }
    ingest = spans.by_name.get("registry.ingest", [])
    for plan_format in INGEST_FORMATS:
        values[f"registry.ingest_ms.{plan_format}"] = (
            _mean([(s[4] - s[3]) * 1000.0 for s in ingest if s[7] == plan_format]),
            "ms",
        )
    values["registry.ingest_calls_per_plan"] = (len(ingest) / served, "count")

    memo_hits = sum(snapshots.counter_delta("rule_memo", "hits").values())
    memo_misses = sum(snapshots.counter_delta("rule_memo", "misses").values())
    aligns = server_spans.durations_ms("acts.align")
    values.update(
        {
            "rule.narrate_ms": (_mean(server_spans.durations_ms("rule.narrate")), "ms"),
            "rule_memo.hit_rate": (ratio(memo_hits, memo_hits + memo_misses), "ratio"),
            "acts.align_ms": (
                ratio(sum(server_spans.durations_ms("acts.decompose")) + sum(aligns), len(aligns)),
                "ms",
            ),
            "lantern.describe_plans_self_ms": (
                _mean(server_spans.self_ms("lantern.describe_plans")), "ms"
            ),
        }
    )

    batches = [waits for waits in server_spans.notes("batcher.collect") if waits]
    waits_ms = [wait * 1000.0 for batch in batches for wait in batch]
    rejected = sum(snapshots.counter_delta("requests", "rejected_overload").values()) + sum(
        snapshots.counter_delta("requests", "timed_out").values()
    )
    values.update(
        {
            "batcher.queue_wait_ms.p50": (percentile(waits_ms, 0.50), "ms"),
            "batcher.queue_wait_ms.p90": (percentile(waits_ms, 0.90), "ms"),
            "batcher.batch_size_mean": (_mean([len(batch) for batch in batches]), "count"),
            "batcher.rejected": (rejected, "count"),
        }
    )

    cache_hits = snapshots.counter_delta("decode_cache", "hits")
    cache_misses = snapshots.counter_delta("decode_cache", "misses")
    lookups = sum(cache_hits.values()) + sum(cache_misses.values())
    beam_calls = len(server_spans.by_name.get("seq2seq.beam_decode_batch", []))
    kernels = server_spans.children_of("seq2seq.beam_decode_batch", "seq2seq.step_infer") + (
        server_spans.children_of("seq2seq.beam_decode_batch", "seq2seq.step_context")
    )
    values.update(
        {
            "neural.translate_steps_self_ms": (
                _mean(server_spans.self_ms("neural.translate_steps")), "ms"
            ),
            "decode_cache.hit_rate": (ratio(sum(cache_hits.values()), lookups), "ratio"),
            "decode_cache.lookups_per_plan": (lookups / served, "count"),
            "seq2seq.beam_decode_batch_ms": (
                _mean(server_spans.durations_ms("seq2seq.beam_decode_batch")), "ms"
            ),
            "seq2seq.sources_per_call": (_mean(server_spans.notes("seq2seq.beam_decode_batch")), "count"),
            "seq2seq.decode_steps_per_call": (
                ratio(
                    len(server_spans.children_of("seq2seq.beam_decode_batch", "seq2seq.step_infer")),
                    beam_calls,
                ),
                "count",
            ),
            "seq2seq.step_kernels_ms": (
                ratio(sum(c[3] - c[2] for c in kernels) * 1000.0, beam_calls), "ms"
            ),
            "seq2seq.beam_bookkeeping_ms": (
                _mean(server_spans.self_ms("seq2seq.beam_decode_batch")), "ms"
            ),
            "seq2seq.encode_batch_ms": (_mean(server_spans.durations_ms("seq2seq.encode_batch")), "ms"),
            "seq2seq.beam_decode_cpu_share": (
                ratio(server_spans.cpu_s("seq2seq.beam_decode_batch"), _cpu(slices)), "ratio"
            ),
        }
    )

    shard_rates = [
        ratio(cache_hits[name], cache_hits[name] + cache_misses.get(name, 0.0))
        for name in cache_hits
    ] if snapshots.fleet else []
    routed = []
    if snapshots.fleet:
        start_shards = snapshots.docs["start"].get("_fleet", {}).get("per_shard", {})
        for name, shard in snapshots.docs["end"].get("_fleet", {}).get("per_shard", {}).items():
            routed.append(shard.get("routed", 0) - start_shards.get(name, {}).get("routed", 0))
    forwards = [
        (s[4] - s[3]) * 1000.0
        for s in router_spans.by_name.get("client.request_json", [])
        if s[7] == "/narrate"
    ]
    values.update(
        {
            "router.signature_ms": (_mean(router_spans.durations_ms("router.signature")), "ms"),
            "router.forward_ms": (_mean(forwards), "ms"),
            "router.cpu_ms_per_plan": (
                _cpu(slices, {router}) * 1000.0 / served if router else 0.0, "ms"
            ),
            "router.shard_hit_rate_min": (min(shard_rates) if shard_rates else 0.0, "ratio"),
            "router.shard_imbalance": (
                ratio(max(routed), _mean(routed)) if routed else 0.0, "ratio"
            ),
        }
    )

    opened = _outcomes(slices, "open")
    overhead_s = sum(
        doc["per_span_cost_s"] * sum(1 for s in doc["spans"] if start <= s[2] <= end)
        for doc in documents.values()
    )
    attempted = _outcomes(slices)
    values.update(
        {
            "harness.sched_lag_p99_ms": (
                percentile([(o.sent - o.due) * 1000.0 for o in opened], 0.99), "ms"
            ),
            "harness.latency_p90_ms": (percentile(_open_latencies_ms(slices), 0.90), "ms"),
            "harness.latency_p99_ms": (percentile(_open_latencies_ms(slices), 0.99), "ms"),
            "harness.trace_overhead_fraction": (ratio(overhead_s, _cpu(slices)), "ratio"),
            "harness.failed_fraction": (
                ratio(sum(1 for o in attempted if not o.ok), len(attempted)), "ratio"
            ),
            "harness.steal_fraction": (_mean([piece.steal for piece in slices]), "ratio"),
        }
    )
    return _as_metrics(values)
