"""``python -m repro.nlg.train`` — train a narrator and emit a checkpoint.

The missing half of the paper's pipeline lifecycle: QEP2Seq is trained
*once*, then narrates interactively forever — so training belongs in an
offline CLI whose output is a LANTERN-PERSIST checkpoint, not in the serving
process.  This command builds the requested workload, generates the training
dataset, trains QEP2Seq, wraps it in a :class:`~repro.core.lantern.Lantern`
facade, and saves the whole thing::

    python -m repro.nlg.train --workload dblp --queries 25 --epochs 10 --out ckpt/dblp
    python -m repro.service --checkpoint ckpt/dblp     # boots warm, no retraining

``--warm-cache`` additionally narrates every training plan once in neural
mode before saving, so the checkpoint ships with a hot act-signature decode
cache.  ``--parity-sample FILE`` records a handful of plans and the exact
narrations the saved facade will produce for them next — a separate process
can load the checkpoint and verify token-identical output (the CI warm-boot
smoke does exactly that).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core import Lantern, LanternConfig
from repro.errors import WorkloadError
from repro.nlg.dataset import build_dataset
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.persistence import save_lantern, save_neural_lantern
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.training import TelemetryHooks, Trainer, TrainerHooks
from repro.obs.events import JsonEventLog
from repro.obs.tracing import default_tracer, format_span_tree

WORKLOADS = ("dblp", "imdb", "tpch", "sdss")


def _build_workload(name: str, seed: int, query_count: int):
    """(database, queries, engine) for one named workload.

    DBLP and IMDB use the schema-driven random query generator; TPC-H and
    SDSS use their canned paper query sets (capped at ``query_count``).
    """
    if name == "dblp":
        from repro.workloads import build_dblp_database
        from repro.workloads.dblp import DBLP_JOIN_GRAPH
        from repro.workloads.generator import RandomQueryGenerator

        database = build_dblp_database(publication_count=300, seed=seed)
        generator = RandomQueryGenerator(database, DBLP_JOIN_GRAPH, seed=seed)
        return database, [g.sql for g in generator.generate(query_count)], "postgresql"
    if name == "imdb":
        from repro.workloads import build_imdb_database
        from repro.workloads.generator import RandomQueryGenerator
        from repro.workloads.imdb import IMDB_JOIN_GRAPH

        database = build_imdb_database(title_count=600, seed=seed)
        generator = RandomQueryGenerator(database, IMDB_JOIN_GRAPH, seed=seed)
        return database, [g.sql for g in generator.generate(query_count)], "postgresql"
    if name == "tpch":
        from repro.workloads import build_tpch_database, tpch_queries

        database = build_tpch_database(scale=0.001, seed=seed)
        return database, [q.sql for q in tpch_queries()][:query_count], "postgresql"
    if name == "sdss":
        from repro.workloads import build_sdss_database, sdss_queries

        database = build_sdss_database(object_count=800, seed=seed)
        return database, [q.sql for q in sdss_queries()][:query_count], "sqlserver"
    raise WorkloadError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def train_workload_lantern(
    workload: str = "dblp",
    queries: int = 25,
    epochs: int = 10,
    hidden_dim: int = 48,
    attention_dim: int = 24,
    batch_size: int = 8,
    learning_rate: float = 0.005,
    beam_size: int = 2,
    seed: int = 9,
    train_cap: int = 220,
    validation_cap: int = 40,
    paraphrase: bool = True,
    early_stop_threshold: float | None = None,
    bucket_by_length: bool = False,
    dtype: str = "float64",
    verbose: bool = False,
    hooks: TrainerHooks | None = None,
):
    """The one canonical "train a servable narrator" recipe.

    Builds the workload, generates the dataset, trains QEP2Seq, and wraps it
    in a ``Lantern`` with the deterministic serving config (``seed=None`` —
    rule wording independent of arrival order, which is also what makes
    checkpoint continuation token-identical).  Shared by the CLI below, the
    ``--neural`` flag of ``python -m repro.service``, and the checkpoint
    benchmark, so the serving conventions cannot drift apart.

    Returns ``(lantern, database, queries, engine, history)``.
    """
    tracer = default_tracer()
    with tracer.span("build_workload", workload=workload, queries=queries):
        database, query_texts, engine = _build_workload(workload, seed, queries)
    with tracer.span("build_dataset"):
        dataset = build_dataset(
            [(database, query_texts, engine, workload)], paraphrase=paraphrase, seed=seed
        )
    train_samples = dataset.train_samples[:train_cap]
    validation_samples = dataset.validation_samples[:validation_cap]
    if verbose:
        print(
            f"dataset: {dataset.size} samples "
            f"({len(train_samples)} train / {len(validation_samples)} validation), "
            f"vocabularies {len(dataset.input_vocabulary)}/{len(dataset.output_vocabulary)}"
        )
    config = Seq2SeqConfig(
        hidden_dim=hidden_dim,
        attention_dim=attention_dim,
        learning_rate=learning_rate,
        batch_size=batch_size,
        seed=seed,
        dtype=dtype,
    )
    model = QEP2Seq(dataset.input_vocabulary, dataset.output_vocabulary, config)
    with tracer.span("train", epochs=epochs, train_samples=len(train_samples)):
        history = Trainer(
            model,
            train_samples,
            validation_samples,
            seed=seed,
            bucket_by_length=bucket_by_length,
        ).train(epochs=epochs, early_stopping_threshold=early_stop_threshold, hooks=hooks)
    neural = NeuralLantern(model, dataset=dataset, beam_size=beam_size)
    lantern = Lantern(neural=neural, config=LanternConfig(seed=None))
    return lantern, database, query_texts, engine, history


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.nlg.train",
        description="Train QEP2Seq on a workload and emit a LANTERN-PERSIST checkpoint.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default="dblp")
    parser.add_argument(
        "--queries", type=int, default=25, help="workload queries to train on"
    )
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--hidden-dim", type=int, default=48)
    parser.add_argument("--attention-dim", type=int, default=24)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=0.005)
    parser.add_argument("--beam-size", type=int, default=2)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument(
        "--train-cap", type=int, default=220, help="max training samples"
    )
    parser.add_argument(
        "--validation-cap", type=int, default=40, help="max validation samples"
    )
    parser.add_argument(
        "--no-paraphrase",
        action="store_true",
        help="skip paraphrase expansion of the training targets",
    )
    parser.add_argument(
        "--early-stop-threshold",
        type=float,
        default=None,
        help="train-loss fluctuation below which training stops (default: run all epochs)",
    )
    parser.add_argument(
        "--bucket",
        action="store_true",
        help="length-bucketed batching: group similar-length samples per batch "
        "(less padding waste; deterministic given --seed)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="model dtype: float64 (exact reference parity) or float32 (~2x memory/bandwidth)",
    )
    parser.add_argument(
        "--kind",
        choices=("lantern", "neural"),
        default="lantern",
        help="checkpoint the full Lantern facade (servable) or the bare NeuralLantern",
    )
    parser.add_argument(
        "--warm-cache",
        action="store_true",
        help="narrate every training plan once before saving, shipping a hot decode cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="exclude decode-cache entries from the checkpoint",
    )
    parser.add_argument(
        "--parity-sample",
        metavar="FILE",
        help="write plans + the narrations the saved state will produce next, "
        "for cross-process warm-boot verification",
    )
    parser.add_argument(
        "--weights-layout",
        choices=("npz", "mmap"),
        default="npz",
        help="weight storage: compressed npz archive, or raw aligned bytes the "
        "loader maps copy-free (LANTERN-ZERO warm boot)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        help="persist the run as JSONL events (per-batch/per-epoch wall time, "
        "tokens/s, gradient norms, early-stopping state, phase trace)",
    )
    parser.add_argument(
        "--no-batch-telemetry",
        action="store_true",
        help="with --telemetry, keep only epoch/run-level events (smaller files)",
    )
    parser.add_argument("--out", required=True, help="checkpoint directory to write")
    return parser


def main(argv: list[str] | None = None) -> Path:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.parity_sample and args.kind != "lantern":
        # the sample records narrations of the full facade (rule wording,
        # habituation, exposure state); a bare NeuralLantern checkpoint
        # cannot reproduce them in a fresh process
        parser.error("--parity-sample requires --kind lantern")

    telemetry_log = JsonEventLog(args.telemetry) if args.telemetry else None
    hooks = (
        TelemetryHooks(telemetry_log, per_batch=not args.no_batch_telemetry)
        if telemetry_log is not None
        else None
    )

    print(f"building the {args.workload} workload ({args.queries} queries) ...")
    started = time.perf_counter()
    root = default_tracer().trace("nlg.train", workload=args.workload)
    with root:
        lantern, database, queries, engine, history = train_workload_lantern(
            workload=args.workload,
            queries=args.queries,
            epochs=args.epochs,
            hidden_dim=args.hidden_dim,
            attention_dim=args.attention_dim,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            beam_size=args.beam_size,
            seed=args.seed,
            train_cap=args.train_cap,
            validation_cap=args.validation_cap,
            paraphrase=not args.no_paraphrase,
            early_stop_threshold=args.early_stop_threshold,
            bucket_by_length=args.bucket,
            dtype=args.dtype,
            verbose=True,
            hooks=hooks,
        )
        train_seconds = time.perf_counter() - started
        final = history.final
        print(
            f"trained {history.epochs} epochs in {train_seconds:.1f}s — "
            f"loss {final.train_loss:.3f}, accuracy {final.train_accuracy:.3f}, "
            f"validation loss {final.validation_loss:.3f}"
        )

        neural = lantern.neural
        if args.warm_cache:
            with default_tracer().span("warm_cache"):
                trees = [lantern.plan_for_sql(database, sql, engine) for sql in queries]
                lantern.describe_plans(trees, mode="neural")
            print(f"warmed the decode cache: {len(neural.decode_cache)} act signatures")

        out = Path(args.out)
        with default_tracer().span("save", kind=args.kind, layout=args.weights_layout):
            if args.kind == "neural":
                save_neural_lantern(
                    neural, out, include_cache=not args.no_cache, weights_layout=args.weights_layout
                )
            else:
                save_lantern(
                    lantern, out, include_cache=not args.no_cache, weights_layout=args.weights_layout
                )
        size = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
        print(f"checkpoint written to {out} ({size / 1024:.0f} KiB, kind={args.kind})")

        if args.parity_sample:
            # narrated AFTER the save: the saved state is the starting point
            # for these exact narrations, so a fresh process that loads the
            # checkpoint must reproduce them token for token
            sample_sqls = queries[: min(4, len(queries))]
            payloads = [database.explain(sql, output_format="json") for sql in sample_sqls]
            texts = [
                lantern.describe_plan(lantern.parse_plan(payload), mode="neural").text
                for payload in payloads
            ]
            Path(args.parity_sample).write_text(
                json.dumps({"mode": "neural", "payloads": payloads, "texts": texts}, indent=2)
                + "\n",
                encoding="utf-8",
            )
            print(f"parity sample ({len(payloads)} plans) written to {args.parity_sample}")

    phase_trace = root.to_dict() if root else None
    if phase_trace:
        print("phase timings:")
        print(format_span_tree(phase_trace, indent=1))
    if telemetry_log is not None:
        if phase_trace:
            telemetry_log.emit({"event": "trace", **phase_trace})
        telemetry_log.close()
        print(
            f"telemetry ({telemetry_log.emitted} events) written to {args.telemetry}"
        )

    if args.kind == "lantern":
        print(f"serve it with: python -m repro.service --checkpoint {out}")
    return out


if __name__ == "__main__":
    main()
