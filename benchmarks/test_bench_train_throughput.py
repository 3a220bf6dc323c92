"""TRAIN-TURBO: per-epoch training throughput, reference vs fused pipeline.

Not a paper table — this bench tracks the repo's training-throughput
trajectory the way ``test_bench_table6_efficiency`` tracks narration latency.
Training QEP2Seq gates everything downstream (checkpoint production, the
Figure 6/7 curves, multi-workload experiments), and until this PR it still
ran the step-wise seed pipeline.  Four rows, each one optimization layer of
the TRAIN-TURBO overhaul:

* ``reference`` — the step-wise oracle (``StepwiseQEP2Seq`` from
  ``tests/oracles/seq2seq.py``): one decoder step + one attention call
  (with a redundant encoder projection) per timestep, per-step cache
  objects, float64;
* ``turbo`` — the shipped fused path: hoisted input-side gate matmuls,
  cross-timestep fused attention, structure-of-arrays BPTT caches;
* ``turbo_buckets`` — plus the length-bucketed batch scheduler
  (``Trainer(bucket_by_length=True)``): batches stop paying padded-width
  matmul cost for their longest member;
* ``turbo_buckets_float32`` — plus ``Seq2SeqConfig(dtype="float32")``, the
  opt-in ~2× memory/bandwidth mode.

The fully-stacked turbo configuration must be at least ``MIN_SPEEDUP``×
faster per epoch than the reference path on the dblp training workload;
with float64 the math is parity-exact against the reference
(``tests/test_nlg_train_turbo.py`` asserts allclose(rtol=1e-9) gradients
and token-identical narrations).  Results land in ``BENCH_train.json``.
"""

import json
import time
from pathlib import Path

from conftest import print_table
from oracles.seq2seq import StepwiseQEP2Seq

from repro.nlg.dataset import build_dataset
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.train import _build_workload
from repro.nlg.training import Trainer

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_train.json"

QUERY_COUNT = 12
TRAIN_CAP = 300
VALIDATION_CAP = 40
HIDDEN = 128
ATTENTION = 64
BATCH = 8
EPOCHS = 2
ROUNDS = 2  # per-epoch seconds are the min over rounds (load-noise guard)
MIN_SPEEDUP = 3.0

VARIANTS = [
    # (row key, model class, bucket_by_length, dtype)
    ("reference", StepwiseQEP2Seq, False, "float64"),
    ("turbo", QEP2Seq, False, "float64"),
    ("turbo_buckets", QEP2Seq, True, "float64"),
    ("turbo_buckets_float32", QEP2Seq, True, "float32"),
]


def test_train_turbo_throughput(benchmark):
    database, queries, engine = _build_workload("dblp", 9, QUERY_COUNT)
    dataset = build_dataset([(database, queries, engine, "dblp")], paraphrase=True, seed=9)
    train_samples = dataset.train_samples[:TRAIN_CAP]
    validation_samples = dataset.validation_samples[:VALIDATION_CAP]
    epoch_samples = len(train_samples) + len(validation_samples)

    def train_epoch_seconds(model_class: type, bucket: bool, dtype: str) -> float:
        config = Seq2SeqConfig(
            hidden_dim=HIDDEN,
            attention_dim=ATTENTION,
            learning_rate=0.005,
            batch_size=BATCH,
            seed=9,
            dtype=dtype,
        )
        model = model_class(dataset.input_vocabulary, dataset.output_vocabulary, config)
        trainer = Trainer(
            model, train_samples, validation_samples, seed=9, bucket_by_length=bucket
        )
        started = time.perf_counter()
        trainer.train(epochs=EPOCHS, early_stopping_threshold=None)
        return (time.perf_counter() - started) / EPOCHS

    def measure():
        timings = {name: float("inf") for name, *_ in VARIANTS}
        # round-robin over the variants so machine-load spikes cannot bias
        # one row systematically
        for _ in range(ROUNDS):
            for name, model_class, bucket, dtype in VARIANTS:
                timings[name] = min(
                    timings[name], train_epoch_seconds(model_class, bucket, dtype)
                )
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    reference = timings["reference"]
    rows = [
        [name, f"{seconds:.3f}", f"{epoch_samples / seconds:.0f}", f"{reference / seconds:.2f}x"]
        for name, seconds in timings.items()
    ]
    print_table(
        "TRAIN-TURBO — per-epoch training throughput (dblp workload)",
        ["variant", "s/epoch", "samples/s", "speedup"],
        rows,
    )

    document = {
        "workload": {
            "name": "dblp",
            "queries": QUERY_COUNT,
            "train_samples": len(train_samples),
            "validation_samples": len(validation_samples),
            "hidden_dim": HIDDEN,
            "attention_dim": ATTENTION,
            "batch_size": BATCH,
        },
        "per_epoch_s": {name: round(seconds, 4) for name, seconds in timings.items()},
        "samples_per_s": {
            name: round(epoch_samples / seconds, 1) for name, seconds in timings.items()
        },
        "speedup_vs_reference": {
            name: round(reference / seconds, 2) for name, seconds in timings.items()
        },
        "min_speedup_asserted": MIN_SPEEDUP,
    }
    BENCH_JSON.write_text(json.dumps(document, indent=2) + "\n")

    # the trajectory must not regress: the fused layers clearly beat the
    # reference (wide margins), and the full stack clears the acceptance
    # bar.  turbo_buckets vs turbo is reported but not strictly ordered —
    # its ~10-20% gap is within shared-runner timing noise.
    assert timings["turbo"] < reference
    assert timings["turbo_buckets"] < reference
    assert reference / timings["turbo_buckets_float32"] >= MIN_SPEEDUP
