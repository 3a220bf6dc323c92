"""Shared state for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Heavy
artifacts (workload databases, the training dataset, trained model variants)
are built once per session and cached lazily, so each bench file only pays
for what it actually uses.

Scale note: the databases are small (laptop-friendly) and the QEP2Seq
configuration is reduced (48 hidden units, a handful of epochs with Adam)
compared with the paper's 256-unit/50-epoch SGD setup; the *shapes* of the
curves and orderings are what the benches reproduce, not absolute values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import pytest

# the reference oracles (``tests/oracles/``) the benches compare against;
# pytest puts ``tests/`` on the path only for the test modules themselves
_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

from repro.core import Lantern
from repro.nlg.dataset import TrainingDataset, build_dataset
from repro.nlg.embeddings import build_embedding_matrix
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.training import Trainer, TrainingHistory
from repro.pool import build_default_store
from repro.workloads import (
    build_imdb_database,
    build_sdss_database,
    build_tpch_database,
    sdss_queries,
    tpch_queries,
)
from repro.workloads.generator import RandomQueryGenerator
from repro.workloads.imdb import IMDB_JOIN_GRAPH

#: reduced-but-real training configuration used across all benchmark variants
BENCH_HIDDEN = 48
BENCH_ATTENTION = 24
BENCH_EPOCHS = 8
BENCH_LEARNING_RATE = 0.01
BENCH_BATCH = 8
BENCH_TRAIN_CAP = 600
BENCH_EMBED_DIMS = {"word2vec": 48, "glove": 40, "bert": 96, "elmo": 128}


@dataclass
class TrainedVariant:
    """One trained QEP2Seq variant plus its training history."""

    name: str
    model: QEP2Seq
    history: TrainingHistory
    neural: NeuralLantern


@dataclass
class BenchmarkSuite:
    """Lazily built shared artifacts for the benchmark session."""

    store: object = field(default_factory=build_default_store)
    _databases: dict = field(default_factory=dict)
    _datasets: dict = field(default_factory=dict)
    _variants: dict = field(default_factory=dict)
    _embeddings: dict = field(default_factory=dict)
    _imdb_queries: Optional[list] = None

    # -- workloads -------------------------------------------------------

    def tpch(self):
        if "tpch" not in self._databases:
            self._databases["tpch"] = build_tpch_database(scale=0.001, seed=1)
        return self._databases["tpch"]

    def sdss(self):
        if "sdss" not in self._databases:
            self._databases["sdss"] = build_sdss_database(object_count=800, seed=2)
        return self._databases["sdss"]

    def imdb(self):
        if "imdb" not in self._databases:
            self._databases["imdb"] = build_imdb_database(title_count=600, seed=3)
        return self._databases["imdb"]

    def lantern(self) -> Lantern:
        return Lantern(store=self.store)

    def imdb_test_queries(self, count: int = 60) -> list[str]:
        if self._imdb_queries is None:
            generator = RandomQueryGenerator(self.imdb(), IMDB_JOIN_GRAPH, seed=5)
            self._imdb_queries = [generated.sql for generated in generator.generate(count)]
        return self._imdb_queries

    # -- datasets ---------------------------------------------------------

    def dataset(self, paraphrase: bool = True) -> TrainingDataset:
        key = "para" if paraphrase else "plain"
        if key not in self._datasets:
            self._datasets[key] = build_dataset(
                [
                    (self.tpch(), [query.sql for query in tpch_queries()], "postgresql", "tpch"),
                    (self.sdss(), [query.sql for query in sdss_queries()], "sqlserver", "sdss"),
                ],
                store=self.store,
                paraphrase=paraphrase,
                seed=7,
            )
        return self._datasets[key]

    def imdb_test_dataset(self) -> TrainingDataset:
        if "imdb" not in self._datasets:
            self._datasets["imdb"] = build_dataset(
                [(self.imdb(), self.imdb_test_queries(), "postgresql", "imdb")],
                store=self.store,
                paraphrase=False,
                seed=8,
            )
        return self._datasets["imdb"]

    # -- embeddings and model variants ------------------------------------

    def embedding_matrix(self, family: str, pretrained: bool, dataset: TrainingDataset):
        key = (family, pretrained)
        if key not in self._embeddings:
            self._embeddings[key] = build_embedding_matrix(
                family,
                dataset.output_vocabulary,
                dataset.rule_sentences,
                pretrained=pretrained,
                dimension=BENCH_EMBED_DIMS[family],
                epochs=1,
                seed=13,
            )
        return self._embeddings[key]

    def variant(
        self,
        name: str,
        embedding_family: Optional[str] = None,
        pretrained: bool = True,
        paraphrase: bool = True,
        share_weights: bool = False,
        epochs: int = BENCH_EPOCHS,
    ) -> TrainedVariant:
        """Train (once) and return the requested QEP2Seq variant."""
        if name in self._variants:
            return self._variants[name]
        dataset = self.dataset(paraphrase=paraphrase)
        decoder_matrix = None
        if embedding_family is not None:
            decoder_matrix = self.embedding_matrix(embedding_family, pretrained, dataset)
        config = Seq2SeqConfig(
            hidden_dim=BENCH_HIDDEN,
            attention_dim=BENCH_ATTENTION,
            learning_rate=BENCH_LEARNING_RATE,
            batch_size=BENCH_BATCH,
            share_weights=share_weights,
            seed=17,
            embedding_name=embedding_family or "random",
        )
        model = QEP2Seq(
            dataset.input_vocabulary, dataset.output_vocabulary, config, decoder_pretrained=decoder_matrix
        )
        trainer = Trainer(
            model,
            dataset.train_samples[:BENCH_TRAIN_CAP],
            dataset.validation_samples[: BENCH_TRAIN_CAP // 4],
            seed=17,
        )
        history = trainer.train(epochs=epochs, early_stopping_threshold=None)
        variant = TrainedVariant(
            name=name, model=model, history=history, neural=NeuralLantern(model, dataset=dataset, beam_size=3)
        )
        self._variants[name] = variant
        return variant


@pytest.fixture(scope="session")
def suite() -> BenchmarkSuite:
    return BenchmarkSuite()


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Aligned text table used by every bench to print its paper-style output."""
    widths = [max(len(str(headers[i])), max((len(str(row[i])) for row in rows), default=0)) for i in range(len(headers))]
    print(f"\n=== {title} ===")
    print("  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
