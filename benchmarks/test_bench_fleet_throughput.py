"""LANTERN-FLEET rung: sharded multi-process serving through the router.

Extends the serving trajectory in ``BENCH_serve.json`` (written by
``test_bench_serve_throughput``) with fleet measurements — the two files
merge into the one artifact, each preserving the other's keys, so rungs
never clobber each other regardless of which bench runs last.

What is measured, all through the real router + spawned worker processes,
every worker warm-booting the *same* mmap checkpoint:

* **cache-affine routing pays**: a plateaued workload is replayed through
  the router; because consistent-hash routing sends a plan shape to the
  same shard every time, each worker's decode cache converges and the
  aggregated per-shard hit rate must reach ≥ 0.9 — asserted on every
  machine, since it is a routing property, not a parallelism one.
* **no lost requests**: every narration in every pass answers 200 with a
  narration body (the split/rejoin and re-route paths drop nothing).
* **scale-out throughput** (recorded always, asserted only with ≥ 4 cores):
  closed-loop HTTP clients against a 4-worker fleet vs one single-process
  service booted from the same checkpoint.  With enough cores the fleet
  must win by ≥ 2.5×; on smaller boxes the workers time-share one CPU and
  the number is recorded for the trajectory only.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from conftest import print_table

from repro.core import Lantern, LanternConfig
from repro.nlg.dataset import build_dataset
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.training import Trainer
from repro.service import LanternClient, build_service
from repro.service.fleet import FleetConfig, LanternFleet
from repro.workloads import build_dblp_database
from repro.workloads.dblp import DBLP_JOIN_GRAPH
from repro.workloads.generator import RandomQueryGenerator

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

DISTINCT_PLANS = 24
REPLAY_PASSES = 16
THROUGHPUT_WORKERS = 4
THROUGHPUT_CONCURRENCY = 8
THROUGHPUT_PLANS = 96


def merge_bench_json(path: Path, updates: dict) -> dict:
    """Update ``path`` with ``updates``, preserving every other key."""
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            document = {}
    document.update(updates)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


@pytest.fixture(scope="module")
def fleet_checkpoint(tmp_path_factory):
    """A trained (small) narrator saved as the mmap checkpoint a fleet boots."""
    db = build_dblp_database(publication_count=300, seed=9)
    generator = RandomQueryGenerator(db, DBLP_JOIN_GRAPH, seed=9)
    queries = [generated.sql for generated in generator.generate(25)]
    dataset = build_dataset([(db, queries, "postgresql", "dblp")], seed=9)
    config = Seq2SeqConfig(
        hidden_dim=48, attention_dim=24, learning_rate=0.005, batch_size=8, seed=9
    )
    model = QEP2Seq(dataset.input_vocabulary, dataset.output_vocabulary, config)
    Trainer(model, dataset.train_samples[:220], dataset.validation_samples[:40], seed=9).train(
        epochs=10, early_stopping_threshold=None
    )
    neural = NeuralLantern(model, dataset=dataset, beam_size=3)
    lantern = Lantern(neural=neural, config=LanternConfig(seed=None))
    checkpoint = tmp_path_factory.mktemp("fleet") / "ckpt"
    lantern.save(checkpoint, weights_layout="mmap")

    payload_generator = RandomQueryGenerator(db, DBLP_JOIN_GRAPH, seed=78)
    payloads = [
        db.explain(generated.sql, output_format="json")
        for generated in payload_generator.generate(max(DISTINCT_PLANS, THROUGHPUT_PLANS))
    ]
    return str(checkpoint), payloads


def _drive_http(url: str, payloads, concurrency: int) -> tuple[float, int]:
    """Closed-loop clients; returns (plans/sec, ok_count)."""
    chunks = [payloads[i::concurrency] for i in range(concurrency)]
    ok = [0] * concurrency

    def drive(slot: int) -> None:
        with LanternClient(url) as client:
            for payload in chunks[slot]:
                result = client.narrate(payload, mode="neural")
                if "narration" in result:
                    ok[slot] += 1

    started = time.perf_counter()
    threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return len(payloads) / elapsed, sum(ok)


def test_fleet_cache_affinity_and_throughput(benchmark, fleet_checkpoint):
    checkpoint, payloads = fleet_checkpoint
    replay = payloads[:DISTINCT_PLANS]

    def measure():
        results = {}
        # --- cache-affine routing: plateaued workload through 2 shards ----
        with LanternFleet(
            FleetConfig(port=0, num_workers=2, checkpoint=checkpoint, snapshot_every=0)
        ) as fleet:
            host, port = fleet.start()
            url = f"http://{host}:{port}"
            served = 0
            with LanternClient(url) as client:
                started = time.perf_counter()
                for _ in range(REPLAY_PASSES):
                    envelope = client.narrate_batch(replay, mode="neural")
                    served += sum(
                        1 for item in envelope["results"] if "narration" in item
                    )
                replay_elapsed = time.perf_counter() - started
                shards = client.metrics()["fleet"]["per_shard"]
            results["fleet_replay_plans_per_s"] = (
                REPLAY_PASSES * len(replay) / replay_elapsed
            )
            results["fleet_requests_sent"] = REPLAY_PASSES * len(replay)
            results["fleet_requests_answered"] = served
            hit_rates = {
                worker_id: shard.get("decode_cache_hit_rate")
                for worker_id, shard in shards.items()
            }
            results["fleet_per_shard_hit_rate_min"] = min(hit_rates.values())
            results["fleet_per_shard_hit_rate"] = hit_rates
        # --- scale-out throughput: 4 workers vs one process ---------------
        single = build_service(lantern=Lantern.load(checkpoint), port=0, max_batch_size=64)
        host, port = single.start()
        try:
            results["single_process_plans_per_s"], _ = _drive_http(
                f"http://{host}:{port}",
                payloads[:THROUGHPUT_PLANS],
                THROUGHPUT_CONCURRENCY,
            )
        finally:
            single.stop()
        with LanternFleet(
            FleetConfig(
                port=0,
                num_workers=THROUGHPUT_WORKERS,
                checkpoint=checkpoint,
                max_batch_size=64,
                snapshot_every=0,
            )
        ) as fleet:
            host, port = fleet.start()
            plans_per_s, ok = _drive_http(
                f"http://{host}:{port}",
                payloads[:THROUGHPUT_PLANS],
                THROUGHPUT_CONCURRENCY,
            )
        results["fleet_workers"] = THROUGHPUT_WORKERS
        results["fleet_plans_per_s_concurrency8"] = plans_per_s
        results["fleet_throughput_ok"] = ok
        results["fleet_vs_single_process_speedup"] = (
            plans_per_s / results["single_process_plans_per_s"]
        )
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        "LANTERN-FLEET serving (plans/sec)",
        ["measurement", "value"],
        [
            [key, f"{value:.3f}" if isinstance(value, float) else str(value)]
            for key, value in results.items()
        ],
    )

    merge_bench_json(
        BENCH_JSON,
        {
            "fleet_workers": results["fleet_workers"],
            "fleet_replay_plans_per_s": round(results["fleet_replay_plans_per_s"], 3),
            "fleet_per_shard_hit_rate_min": round(
                results["fleet_per_shard_hit_rate_min"], 4
            ),
            "fleet_plans_per_s_concurrency8": round(
                results["fleet_plans_per_s_concurrency8"], 3
            ),
            "fleet_vs_single_process_speedup": round(
                results["fleet_vs_single_process_speedup"], 3
            ),
        },
    )

    # routing property, machine-independent: the same plan shape always
    # lands on the same shard, so a replayed workload must plateau hot
    assert results["fleet_per_shard_hit_rate_min"] >= 0.9, results[
        "fleet_per_shard_hit_rate"
    ]
    # nothing is lost in the split/rejoin machinery
    assert results["fleet_requests_answered"] == results["fleet_requests_sent"]
    assert results["fleet_throughput_ok"] == THROUGHPUT_PLANS
    # the parallelism win needs actual cores; workers time-share below 4
    if (os.cpu_count() or 1) >= 4:
        assert results["fleet_vs_single_process_speedup"] >= 2.5
