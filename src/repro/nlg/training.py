"""Training loops for QEP2Seq: teacher forcing, minibatches of 4, early stopping.

The per-batch forward/backward is the model's fused TRAIN-TURBO path
(parity-tested against the step-wise oracle in ``tests/oracles/`` to
allclose(rtol=1e-9) per batch and token-identical narration after
identical-seed runs).  On top of that the Trainer offers **length-bucketed
batching** (``bucket_by_length=True``): each epoch's seeded shuffle is
stable-sorted by source+target length before chunking, so batches stop
paying padded-width matmul cost for their longest member.  The schedule stays deterministic given the Trainer seed, and epoch
metrics remain chunk-size-weighted (the PR 3 fix) under uneven buckets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.nlg.dataset import TrainingSample, length_bucketed_chunks
from repro.nlg.seq2seq import QEP2Seq


@dataclass
class EpochRecord:
    """Metrics collected for one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    validation_loss: float
    validation_accuracy: float
    seconds: float
    #: non-padded target tokens consumed by the epoch's training pass
    tokens: int = 0
    #: training throughput (``tokens`` / training-pass wall time)
    tokens_per_second: float = 0.0
    #: pre-clip global gradient L2 norm of the epoch's final optimizer step
    grad_norm: Optional[float] = None


class TrainerHooks:
    """Callback API for observing a :meth:`Trainer.train` run.

    Subclass and override what you need — every hook is a no-op by default,
    and the Trainer behaves identically with or without hooks attached
    (they observe, they never steer).  :class:`TelemetryHooks` is the
    standard JSONL-emitting implementation behind
    ``python -m repro.nlg.train --telemetry out.jsonl``.
    """

    def on_train_begin(self, trainer: "Trainer", epochs: int, batch_size: int) -> None:
        """Called once before the first epoch."""

    def on_epoch_begin(self, epoch: int) -> None:
        """Called at the top of every epoch, before the shuffle."""

    def on_batch_end(
        self,
        epoch: int,
        batch_index: int,
        loss: float,
        accuracy: float,
        tokens: int,
        seconds: float,
        grad_norm: Optional[float],
    ) -> None:
        """Called after every *training* batch (not validation batches)."""

    def on_epoch_end(self, record: EpochRecord, early_stopping: dict) -> None:
        """Called with the finished epoch's record and the early-stopping
        state (``window``, ``threshold``, ``fluctuation``, ``triggered``)."""

    def on_train_end(self, history: "TrainingHistory") -> None:
        """Called once after the last epoch (stopped early or not)."""


class TelemetryHooks(TrainerHooks):
    """Persist a training run as structured JSONL events.

    ``log`` is anything with an ``emit(dict)`` method — normally a
    :class:`repro.obs.events.JsonEventLog`.  Set ``per_batch=False`` to
    keep only the epoch/run-level events (long runs, small files).
    """

    def __init__(self, log, per_batch: bool = True) -> None:
        self.log = log
        self.per_batch = per_batch

    def on_train_begin(self, trainer: "Trainer", epochs: int, batch_size: int) -> None:
        self.log.emit(
            {
                "event": "train_begin",
                "epochs": epochs,
                "batch_size": batch_size,
                "train_samples": len(trainer.train_samples),
                "validation_samples": len(trainer.validation_samples),
                "precision": trainer.model.precision,
            }
        )

    def on_batch_end(
        self,
        epoch: int,
        batch_index: int,
        loss: float,
        accuracy: float,
        tokens: int,
        seconds: float,
        grad_norm: Optional[float],
    ) -> None:
        if not self.per_batch:
            return
        self.log.emit(
            {
                "event": "batch",
                "epoch": epoch,
                "batch": batch_index,
                "loss": round(float(loss), 6),
                "accuracy": round(float(accuracy), 6),
                "tokens": tokens,
                "seconds": round(seconds, 6),
                "tokens_per_second": round(tokens / seconds, 3) if seconds > 0 else 0.0,
                "grad_norm": round(grad_norm, 6) if grad_norm is not None else None,
            }
        )

    def on_epoch_end(self, record: EpochRecord, early_stopping: dict) -> None:
        self.log.emit(
            {
                "event": "epoch",
                "epoch": record.epoch,
                "train_loss": round(record.train_loss, 6),
                "train_accuracy": round(record.train_accuracy, 6),
                "validation_loss": round(record.validation_loss, 6),
                "validation_accuracy": round(record.validation_accuracy, 6),
                "seconds": round(record.seconds, 6),
                "tokens": record.tokens,
                "tokens_per_second": round(record.tokens_per_second, 3),
                "grad_norm": (
                    round(record.grad_norm, 6) if record.grad_norm is not None else None
                ),
                "early_stopping": early_stopping,
            }
        )

    def on_train_end(self, history: "TrainingHistory") -> None:
        self.log.emit(
            {
                "event": "train_end",
                "epochs": history.epochs,
                "stopped_early": history.stopped_early,
                "total_seconds": round(history.total_seconds, 6),
                "best_validation_loss": round(history.best_validation_loss, 6),
            }
        )


@dataclass
class TrainingHistory:
    """The per-epoch metric curves (Figures 6 and 7 plot these)."""

    records: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs(self) -> int:
        return len(self.records)

    def series(self, metric: str) -> list[float]:
        return [getattr(record, metric) for record in self.records]

    @property
    def final(self) -> Optional[EpochRecord]:
        return self.records[-1] if self.records else None

    @property
    def best_validation_loss(self) -> float:
        if not self.records:
            return float("inf")
        return min(record.validation_loss for record in self.records)

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)

    @property
    def average_epoch_seconds(self) -> float:
        if not self.records:
            return 0.0
        return self.total_seconds / len(self.records)


class Trainer:
    """Runs teacher-forced SGD epochs with optional early stopping.

    Early stopping follows the paper's description: training terminates when
    the training-loss fluctuation over a window drops below a threshold
    (default 0.001).

    ``bucket_by_length=True`` enables the length-bucketed batch scheduler
    (see :func:`repro.nlg.dataset.length_bucketed_chunks`): each epoch's
    seeded shuffle is preserved as the tie-break of a stable length sort, so
    the schedule is deterministic given the Trainer seed and identical to
    the unbucketed one whenever all samples have the same length.
    """

    def __init__(
        self,
        model: QEP2Seq,
        train_samples: Sequence[TrainingSample],
        validation_samples: Sequence[TrainingSample],
        seed: int = 11,
        bucket_by_length: bool = False,
    ) -> None:
        self.model = model
        self.train_samples = list(train_samples)
        self.validation_samples = list(validation_samples)
        self.bucket_by_length = bucket_by_length
        self._rng = random.Random(seed)
        # vocabulary-encode every sample once: the id rows never change, so
        # re-encoding them for every chunk of every epoch is pure overhead
        self._encoded = {
            id(sample): model.encode_pair(sample.source_tokens, sample.target_tokens)
            for sample in self.train_samples + self.validation_samples
        }
        # validation chunks are identical every epoch (no shuffle), so their
        # padded batches are built once per batch size and reused
        self._validation_batches: dict[int, list[tuple[object, int]]] = {}

    def _chunks(self, samples: Sequence[TrainingSample], batch_size: int):
        """The epoch's batch schedule: sequential chunks, or length buckets.

        Bucketing stable-sorts by source+target length, so it is
        deterministic given the (already seed-shuffled) sample order and
        degenerates to the sequential schedule on uniform-length data.
        """
        if self.bucket_by_length:
            return length_bucketed_chunks(samples, batch_size)
        return [samples[start : start + batch_size] for start in range(0, len(samples), batch_size)]

    def _batches(self, samples: Sequence[TrainingSample], batch_size: int, train: bool):
        """(padded batch, chunk size) pairs for one epoch pass.

        Training chunks change with every epoch's shuffle, so their batches
        are rebuilt from the pre-encoded id rows; validation chunks are
        deterministic and their padded batches are cached across epochs.
        """
        if not train and samples is self.validation_samples:
            if batch_size not in self._validation_batches:
                self._validation_batches[batch_size] = [
                    (self.model.make_batch_encoded([self._encoded[id(s)] for s in chunk]), len(chunk))
                    for chunk in self._chunks(samples, batch_size)
                ]
            return self._validation_batches[batch_size]
        encoded = self._encoded
        return (
            (
                self.model.make_batch_encoded(
                    [
                        encoded.get(id(sample))
                        or self.model.encode_pair(sample.source_tokens, sample.target_tokens)
                        for sample in chunk
                    ]
                ),
                len(chunk),
            )
            # a generator: padded batches are built one at a time as the
            # epoch consumes them, never all resident at once
            for chunk in self._chunks(samples, batch_size)
        )

    def _run_batches(
        self,
        samples: Sequence[TrainingSample],
        batch_size: int,
        train: bool,
        hooks: Optional[TrainerHooks] = None,
        epoch: int = 0,
        stats: Optional[dict] = None,
    ):
        # per-batch means are combined weighted by chunk size: an unweighted
        # average would overweight a partial final batch (e.g. 1 sample out
        # of 33 contributing 1/9th of the epoch metric instead of 1/33rd),
        # skewing the reported curves and the early-stopping window — this
        # weighting is what keeps the metric correct under uneven buckets too
        loss_sum = 0.0
        accuracy_sum = 0.0
        sample_count = 0
        tokens_total = 0
        observing = train and (hooks is not None or stats is not None)
        for batch_index, (batch, chunk_size) in enumerate(
            self._batches(samples, batch_size, train)
        ):
            batch_started = time.perf_counter() if observing else 0.0
            if train:
                loss, accuracy = self.model.train_batch(batch)
            else:
                loss, accuracy = self.model.evaluate_batch(batch)
            if observing:
                tokens = int(batch.decoder_mask.sum())
                tokens_total += tokens
                grad_norm = getattr(self.model.optimizer, "last_grad_norm", None)
                if hooks is not None:
                    hooks.on_batch_end(
                        epoch,
                        batch_index,
                        loss,
                        accuracy,
                        tokens,
                        time.perf_counter() - batch_started,
                        grad_norm,
                    )
                if stats is not None:
                    stats["grad_norm"] = grad_norm
            loss_sum += loss * chunk_size
            accuracy_sum += accuracy * chunk_size
            sample_count += chunk_size
        if stats is not None:
            stats["tokens"] = tokens_total
        if not sample_count:
            return 0.0, 0.0
        return loss_sum / sample_count, accuracy_sum / sample_count

    def train(
        self,
        epochs: int = 50,
        batch_size: Optional[int] = None,
        early_stopping_threshold: Optional[float] = 0.001,
        early_stopping_window: int = 5,
        hooks: Optional[TrainerHooks] = None,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs, recording the metric curves.

        ``hooks`` (a :class:`TrainerHooks`) observes the run — per-batch and
        per-epoch wall time, token throughput, gradient norms, and the
        early-stopping state — without altering any training behaviour.
        """
        batch_size = batch_size or self.model.config.batch_size
        history = TrainingHistory()
        if hooks is not None:
            hooks.on_train_begin(self, epochs, batch_size)
        for epoch in range(1, epochs + 1):
            if hooks is not None:
                hooks.on_epoch_begin(epoch)
            started = time.perf_counter()
            shuffled = list(self.train_samples)
            self._rng.shuffle(shuffled)
            stats: dict = {}
            train_loss, train_accuracy = self._run_batches(
                shuffled, batch_size, train=True, hooks=hooks, epoch=epoch, stats=stats
            )
            train_seconds = time.perf_counter() - started
            validation_loss, validation_accuracy = self._run_batches(
                self.validation_samples, batch_size, train=False
            )
            tokens = stats.get("tokens", 0)
            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_accuracy,
                validation_loss=validation_loss,
                validation_accuracy=validation_accuracy,
                seconds=time.perf_counter() - started,
                tokens=tokens,
                tokens_per_second=(
                    round(tokens / train_seconds, 3) if train_seconds > 0 else 0.0
                ),
                grad_norm=stats.get("grad_norm"),
            )
            history.records.append(record)
            early_stopping = {
                "threshold": early_stopping_threshold,
                "window": early_stopping_window,
                "fluctuation": None,
                "triggered": False,
            }
            if early_stopping_threshold is not None and len(history.records) >= early_stopping_window:
                window = history.series("train_loss")[-early_stopping_window:]
                fluctuation = max(window) - min(window)
                early_stopping["fluctuation"] = round(fluctuation, 6)
                if fluctuation < early_stopping_threshold:
                    early_stopping["triggered"] = True
                    history.stopped_early = True
            if hooks is not None:
                hooks.on_epoch_end(record, early_stopping)
            if history.stopped_early:
                break
        if hooks is not None:
            hooks.on_train_end(history)
        return history
