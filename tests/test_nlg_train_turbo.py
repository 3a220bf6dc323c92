"""TRAIN-TURBO: parity of the fused training path with the step-wise reference.

The contract mirrors PR 1's beam-search batching: the vectorized pipeline
(hoisted gate matmuls, cross-timestep fused attention, SoA caches) must
reproduce the step-wise oracles of ``tests/oracles/`` — per-batch
loss/accuracy and *every* parameter gradient to ``allclose(rtol=1e-9)`` in
float64, and token-identical narrations after identical-seed training of
the shipped model and of :class:`oracles.seq2seq.StepwiseQEP2Seq`.  The
length-bucketed batch scheduler is covered by its own regression tests:
deterministic given the Trainer seed, degenerates to the unbucketed
schedule on uniform-length data, and keeps the PR 3 chunk-size-weighted
epoch metrics under uneven buckets.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from oracles import attention as attention_oracle
from oracles import lstm as lstm_oracle
from oracles import seq2seq as seq2seq_oracle
from oracles.seq2seq import StepwiseQEP2Seq
from repro.errors import ModelConfigError
from repro.nlg.dataset import TrainingSample, length_bucketed_chunks
from repro.nlg.nn.attention import AdditiveAttention
from repro.nlg.nn.losses import cross_entropy_from_logits
from repro.nlg.nn.lstm import LSTM
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.training import Trainer
from repro.nlg.vocab import Vocabulary

RTOL = 1e-9
ATOL = 1e-12

SOURCES = [
    ["scan", "TBL1", "filter", "COND1"],
    ["join", "TBL1", "TBL2", "hash", "COND2", "build"],
    ["sort", "KEY1"],
    ["aggregate", "group", "KEY2", "TBL1"],
    ["scan", "TBL2"],
    ["join", "TBL2", "TBL3", "merge", "COND1"],
    ["limit", "N1", "sort", "KEY1", "KEY2"],
    ["scan", "TBL3", "index", "IDX1", "COND2"],
]
TARGETS = [
    ["read", "every", "row", "of", "TBL1"],
    ["combine", "TBL1", "and", "TBL2"],
    ["order", "the", "rows"],
    ["group", "rows", "by", "KEY2"],
    ["read", "TBL2"],
    ["merge", "TBL2", "with", "TBL3", "pairwise"],
    ["keep", "the", "first", "rows"],
    ["probe", "the", "index", "IDX1", "of", "TBL3"],
]


def _samples(sources=SOURCES, targets=TARGETS):
    return [
        TrainingSample(
            source_tokens=list(source),
            target_tokens=list(target),
            abstracted_text=" ".join(target),
        )
        for source, target in zip(sources, targets)
    ]


def _model(model_class=QEP2Seq, dtype="float64", share_weights=False, seed=5) -> QEP2Seq:
    input_vocabulary = Vocabulary.from_sequences(SOURCES)
    output_vocabulary = Vocabulary.from_sequences(TARGETS)
    config = Seq2SeqConfig(
        hidden_dim=12,
        attention_dim=7,
        encoder_embedding_dim=6,
        decoder_embedding_dim=9,
        batch_size=4,
        seed=seed,
        dtype=dtype,
        share_weights=share_weights,
        max_decode_length=12,
        beam_size=2,
    )
    return model_class(input_vocabulary, output_vocabulary, config)


def _parameter_grads(module) -> dict[str, np.ndarray]:
    return {p.name: p.grad.copy() for p in module.parameters()}


def _assert_grads_match(module, expected: dict[str, np.ndarray]) -> None:
    for parameter in module.parameters():
        np.testing.assert_allclose(
            parameter.grad, expected[parameter.name], rtol=RTOL, atol=ATOL,
            err_msg=parameter.name,
        )


class TestLstmFusedParity:
    """forward_fused/backward_fused vs the step-wise oracle forward/backward."""

    def _lstm_and_data(self):
        rng = np.random.default_rng(2)
        lstm = LSTM(3, 5, rng)
        inputs = rng.normal(size=(4, 6, 3))
        mask = np.ones((4, 6))
        mask[1, 4:] = 0.0  # ragged lengths exercise the pass-through branch
        mask[3, 2:] = 0.0
        return lstm, inputs, mask, rng

    def test_forward_fused_matches_stepwise(self):
        lstm, inputs, mask, _ = self._lstm_and_data()
        out_ref, h_ref, c_ref, _ = lstm_oracle.forward(lstm, inputs, mask=mask)
        out_fused, h_fused, c_fused, cache = lstm.forward_fused(inputs, mask=mask)
        np.testing.assert_allclose(out_fused, out_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(h_fused, h_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(c_fused, c_ref, rtol=RTOL, atol=ATOL)
        # the SoA cache holds the whole sequence: no per-step objects
        assert cache.gates.shape == (4, 6, 20)
        assert cache.h_all.shape == (4, 7, 5)

    def test_backward_fused_matches_stepwise(self):
        lstm, inputs, mask, rng = self._lstm_and_data()
        grad_outputs = rng.normal(size=(4, 6, 5))
        grad_h_final = rng.normal(size=(4, 5))
        grad_c_final = rng.normal(size=(4, 5))

        _, _, _, step_caches = lstm_oracle.forward(lstm, inputs, mask=mask)
        for parameter in lstm.parameters():
            parameter.zero_grad()
        gi_ref, gh_ref, gc_ref = lstm_oracle.backward(
            lstm, step_caches, grad_outputs, grad_h_final=grad_h_final, grad_c_final=grad_c_final
        )
        expected = _parameter_grads(lstm)

        _, _, _, fused_cache = lstm.forward_fused(inputs, mask=mask)
        for parameter in lstm.parameters():
            parameter.zero_grad()
        gi_fused, gh_fused, gc_fused = lstm.backward_fused(
            fused_cache, grad_outputs, grad_h_final=grad_h_final, grad_c_final=grad_c_final
        )
        np.testing.assert_allclose(gi_fused, gi_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(gh_fused, gh_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(gc_fused, gc_ref, rtol=RTOL, atol=ATOL)
        _assert_grads_match(lstm, expected)


class TestAttentionFusedParity:
    """One fused call over all decoder steps vs one reference call per step."""

    def _attention_and_data(self):
        rng = np.random.default_rng(3)
        attention = AdditiveAttention(4, 5, 3, rng)
        decoder_states = rng.normal(size=(2, 6, 4))
        encoder_states = rng.normal(size=(2, 5, 5))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        return attention, decoder_states, encoder_states, mask, rng

    def test_forward_fused_matches_per_step(self):
        attention, decoder_states, encoder_states, mask, _ = self._attention_and_data()
        contexts, weights, _ = attention.forward_fused(decoder_states, encoder_states, mask)
        for t in range(decoder_states.shape[1]):
            context_ref, weights_ref, _ = attention_oracle.forward(
                attention, decoder_states[:, t], encoder_states, mask
            )
            np.testing.assert_allclose(contexts[:, t], context_ref, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(weights[:, t], weights_ref, rtol=RTOL, atol=ATOL)

    def test_backward_fused_matches_per_step(self):
        attention, decoder_states, encoder_states, mask, rng = self._attention_and_data()
        steps = decoder_states.shape[1]
        grad_contexts = rng.normal(size=(2, steps, 5))

        for parameter in attention.parameters():
            parameter.zero_grad()
        grad_decoder_ref = np.zeros_like(decoder_states)
        grad_encoder_ref = np.zeros_like(encoder_states)
        for t in range(steps):
            _, _, cache = attention_oracle.forward(
                attention, decoder_states[:, t], encoder_states, mask
            )
            grad_decoder_step, grad_encoder_step = attention_oracle.backward(
                attention, cache, grad_contexts[:, t]
            )
            grad_decoder_ref[:, t] = grad_decoder_step
            grad_encoder_ref += grad_encoder_step
        expected = _parameter_grads(attention)

        for parameter in attention.parameters():
            parameter.zero_grad()
        _, _, fused_cache = attention.forward_fused(decoder_states, encoder_states, mask)
        grad_decoder, grad_encoder = attention.backward_fused(fused_cache, grad_contexts)
        np.testing.assert_allclose(grad_decoder, grad_decoder_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grad_encoder, grad_encoder_ref, rtol=RTOL, atol=ATOL)
        _assert_grads_match(attention, expected)


class TestSeq2SeqTurboParity:
    """Full-model parity: the acceptance contract of the turbo path."""

    @pytest.mark.parametrize("share_weights", [False, True])
    def test_loss_and_every_gradient_match_reference(self, share_weights):
        model = _model(share_weights=share_weights)
        samples = _samples()
        batch = model.make_batch(
            [s.source_tokens for s in samples], [s.target_tokens for s in samples]
        )

        reference = seq2seq_oracle._forward_reference(model, batch)
        loss_ref, grad_logits_ref = cross_entropy_from_logits(
            reference.logits, batch.decoder_targets, batch.decoder_mask
        )
        model.optimizer.zero_grad()
        seq2seq_oracle._backward_reference(model, batch, reference, grad_logits_ref)
        expected = _parameter_grads(model)

        turbo = model._forward_turbo(batch)
        loss_turbo, grad_logits_turbo = cross_entropy_from_logits(
            turbo.logits, batch.decoder_targets, batch.decoder_mask
        )
        model.optimizer.zero_grad()
        model._backward_turbo(batch, turbo, grad_logits_turbo)

        np.testing.assert_allclose(turbo.logits, reference.logits, rtol=RTOL, atol=ATOL)
        assert loss_turbo == pytest.approx(loss_ref, rel=RTOL, abs=ATOL)
        _assert_grads_match(model, expected)

    def test_token_identical_narrations_after_identical_seed_training(self):
        """Train the same seed twice — the shipped fused model and the
        step-wise oracle model — and require the resulting narrators to emit
        token-for-token identical output."""
        histories = []
        decoded = []
        for model_class in (QEP2Seq, StepwiseQEP2Seq):
            model = _model(model_class)
            trainer = Trainer(model, _samples(), _samples()[:2], seed=11)
            history = trainer.train(epochs=3, early_stopping_threshold=None)
            histories.append(history)
            decoded.append(model.beam_decode_batch(SOURCES, beam_size=2))
        assert decoded[0] == decoded[1]
        for turbo_record, reference_record in zip(histories[0].records, histories[1].records):
            assert turbo_record.train_loss == pytest.approx(
                reference_record.train_loss, rel=1e-9
            )
            assert turbo_record.validation_loss == pytest.approx(
                reference_record.validation_loss, rel=1e-9
            )


#: symbols that left the shipped modules for ``tests/oracles/`` (or were
#: deleted as batch-of-one wrappers and dead code)
MOVED_SYMBOLS = {
    "LSTMStepCache",
    "AttentionCache",
    "_ForwardCache",
    "_forward_reference",
    "_backward_reference",
    "beam_decode_candidates_sequential",
    "_encode_single",
    "_log_sum_exp",
    "_top_k_ascending",
    "greedy_decode",
    "beam_decode",
    "beam_decode_candidates",
    "generate_abstracted",
    "_ranked_candidates",
}
SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


class TestOracleBoundary:
    """One shipped training path; the reference twins live only in tests."""

    def test_config_has_no_turbo_knob(self):
        assert not hasattr(Seq2SeqConfig(), "turbo")
        for name in ("step", "forward", "backward_step", "backward"):
            assert not hasattr(LSTM, name), name
        for name in ("forward", "backward"):
            assert not hasattr(AdditiveAttention, name), name

    def test_shipped_modules_neither_import_nor_define_the_oracles(self):
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                for module in modules:
                    assert module.split(".")[0] not in ("oracles", "tests"), (path, module)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert node.name not in MOVED_SYMBOLS, (path, node.name)

    def test_oracles_compute_through_the_shipped_kernels(self, monkeypatch):
        """The step-wise twins call ``LSTM._gates`` and
        ``AdditiveAttention._score_and_mix`` — one call per timestep —
        rather than copies of the math."""
        calls = {"gates": 0, "score_and_mix": 0}
        gates, score_and_mix = LSTM._gates, AdditiveAttention._score_and_mix

        def counting_gates(self, *args, **kwargs):
            calls["gates"] += 1
            return gates(self, *args, **kwargs)

        def counting_score_and_mix(self, *args, **kwargs):
            calls["score_and_mix"] += 1
            return score_and_mix(self, *args, **kwargs)

        monkeypatch.setattr(LSTM, "_gates", counting_gates)
        monkeypatch.setattr(AdditiveAttention, "_score_and_mix", counting_score_and_mix)
        rng = np.random.default_rng(4)
        lstm_oracle.forward(LSTM(3, 4, rng), rng.normal(size=(2, 5, 3)))
        assert calls["gates"] == 5
        attention_oracle.forward(
            AdditiveAttention(4, 4, 3, rng), rng.normal(size=(2, 4)), rng.normal(size=(2, 6, 4))
        )
        assert calls["score_and_mix"] == 1


class TestDtypeKnob:
    def test_float32_threads_through_parameters_and_training(self):
        model = _model(dtype="float32")
        assert all(p.value.dtype == np.float32 for p in model.parameters())
        assert all(p.grad.dtype == np.float32 for p in model.parameters())
        samples = _samples()
        batch = model.make_batch(
            [s.source_tokens for s in samples], [s.target_tokens for s in samples]
        )
        assert batch.encoder_mask.dtype == np.float32
        loss, accuracy = model.train_batch(batch)
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0
        # the update really happened in float32 — no silent upcast
        assert all(p.value.dtype == np.float32 for p in model.parameters())
        cache = model._forward_turbo(batch)
        assert cache.logits.dtype == np.float32

    def test_float32_close_to_float64(self):
        samples = _samples()
        losses = []
        for dtype in ("float64", "float32"):
            model = _model(dtype=dtype)
            batch = model.make_batch(
                [s.source_tokens for s in samples], [s.target_tokens for s in samples]
            )
            losses.append(model.evaluate_batch(batch)[0])
        assert losses[0] == pytest.approx(losses[1], rel=1e-4)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ModelConfigError, match="unsupported dtype"):
            _model(dtype="float16")


class TestLengthBucketedScheduler:
    def test_deterministic_and_orders_by_total_length(self):
        samples = _samples()
        chunks = length_bucketed_chunks(samples, 3)
        assert chunks == length_bucketed_chunks(samples, 3)  # deterministic
        assert [len(chunk) for chunk in chunks] == [3, 3, 2]  # only last partial
        totals = [
            len(sample.source_tokens) + len(sample.target_tokens)
            for chunk in chunks
            for sample in chunk
        ]
        assert totals == sorted(totals)

    def test_reduces_padded_width(self):
        """The point of bucketing: mixed-length epochs stop paying the
        widest member's padded cost in every batch."""
        samples = _samples()

        def padded_positions(chunks):
            return sum(
                len(chunk)
                * (
                    max(len(s.source_tokens) for s in chunk)
                    + max(len(s.target_tokens) for s in chunk)
                )
                for chunk in chunks
            )

        sequential = [samples[i : i + 4] for i in range(0, len(samples), 4)]
        assert padded_positions(length_bucketed_chunks(samples, 4)) < padded_positions(sequential)

    def test_uniform_lengths_degenerate_to_sequential_schedule(self):
        """Stable sort + equal keys = the incoming (seed-shuffled) order."""
        sources = [[f"s{i}", "x", "y"] for i in range(7)]
        targets = [[f"t{i}", "u"] for i in range(7)]
        samples = _samples(sources, targets)
        assert length_bucketed_chunks(samples, 3) == [
            samples[0:3], samples[3:6], samples[6:7]
        ]

    def test_epoch_metrics_identical_bucketing_on_or_off_uniform_lengths(self):
        """Regression guard for the PR 3 weighted-metric fix under the new
        scheduler: on uniform-length data (where bucketing is schedule-
        neutral by construction) a fixed seed must produce *identical*
        loss/accuracy curves and early-stopping behaviour — including a
        partial final batch (7 samples, batch size 3)."""
        sources = [[f"s{i}", "x", "y"] for i in range(7)]
        targets = [[f"t{i}", "u", "v"] for i in range(7)]
        histories = []
        for bucket in (False, True):
            input_vocabulary = Vocabulary.from_sequences(sources)
            output_vocabulary = Vocabulary.from_sequences(targets)
            model = QEP2Seq(
                input_vocabulary,
                output_vocabulary,
                Seq2SeqConfig(hidden_dim=10, attention_dim=6, batch_size=3, seed=7),
            )
            trainer = Trainer(
                model,
                _samples(sources, targets),
                _samples(sources[:3], targets[:3]),
                seed=19,
                bucket_by_length=bucket,
            )
            histories.append(
                trainer.train(epochs=4, early_stopping_threshold=10.0, early_stopping_window=3)
            )
        off, on = histories
        assert [r.train_loss for r in on.records] == [r.train_loss for r in off.records]
        assert [r.train_accuracy for r in on.records] == [r.train_accuracy for r in off.records]
        assert [r.validation_loss for r in on.records] == [r.validation_loss for r in off.records]
        assert on.stopped_early == off.stopped_early
        assert on.epochs == off.epochs

    def test_weighted_metrics_hold_under_uneven_buckets(self):
        """Chunk-size weighting (PR 3) applied to the bucketed schedule: the
        Trainer's epoch metric must equal the hand-computed weighted mean of
        per-chunk metrics, partial final batch included."""
        model = _model()
        samples = _samples()  # 8 samples, batch 3 -> chunks of 3/3/2
        trainer = Trainer(model, samples, [], seed=13, bucket_by_length=True)
        loss, accuracy = trainer._run_batches(samples, 3, train=False)

        expected_loss = 0.0
        expected_accuracy = 0.0
        for chunk in length_bucketed_chunks(samples, 3):
            batch = model.make_batch(
                [s.source_tokens for s in chunk], [s.target_tokens for s in chunk]
            )
            chunk_loss, chunk_accuracy = model.evaluate_batch(batch)
            expected_loss += chunk_loss * len(chunk)
            expected_accuracy += chunk_accuracy * len(chunk)
        assert loss == pytest.approx(expected_loss / len(samples), abs=1e-12)
        assert accuracy == pytest.approx(expected_accuracy / len(samples), abs=1e-12)
