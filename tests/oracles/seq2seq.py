"""QEP2Seq reference paths: the step-wise trainer and the unbatched decoder.

* :func:`_forward_reference` / :func:`_backward_reference` — the twins of
  ``QEP2Seq._forward_turbo`` / ``_backward_turbo``: one decoder step and
  one attention call per timestep, through :mod:`oracles.lstm` and
  :mod:`oracles.attention`.
* :class:`StepwiseQEP2Seq` — a model whose ``train_batch`` and
  ``evaluate_batch`` run those twins, so the ``Trainer`` trains it like
  any model (the parity tests and the training-throughput bench).
* :func:`beam_decode_candidates_sequential` — the twin of
  ``QEP2Seq.beam_decode_batch``: one batch-1 decoder step per beam per
  timestep, on any model, quantized or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from oracles import attention as attention_oracle
from oracles import lstm as lstm_oracle
from repro.nlg.seq2seq import Batch, QEP2Seq


@dataclass
class ForwardCache:
    """Forward values of the step-wise path: per-timestep cache lists."""

    encoder_embedded: np.ndarray
    encoder_outputs: np.ndarray
    encoder_caches: list = field(default_factory=list)
    decoder_caches: list = field(default_factory=list)
    attention_caches: list = field(default_factory=list)
    concatenated: Optional[np.ndarray] = None
    logits: Optional[np.ndarray] = None


def _forward_reference(model: QEP2Seq, batch: Batch) -> ForwardCache:
    """The step-wise teacher-forced forward pass (one decoder step + one
    attention call per timestep) — the parity ground truth for the fused
    path."""
    cache = ForwardCache(
        encoder_embedded=model.encoder_embedding.forward(batch.encoder_ids),
        encoder_outputs=np.empty(0),
    )
    encoder_outputs, final_h, final_c, encoder_caches = lstm_oracle.forward(
        model.encoder, cache.encoder_embedded, mask=batch.encoder_mask
    )
    cache.encoder_outputs = encoder_outputs
    cache.encoder_caches = encoder_caches

    batch_size, target_length = batch.decoder_inputs.shape
    hidden = model.config.hidden_dim
    concatenated = np.zeros((batch_size, target_length, 2 * hidden), dtype=model.dtype)
    h, c = final_h, final_c
    decoder_embedded = model.decoder_embedding.forward(batch.decoder_inputs)
    for t in range(target_length):
        h, c, step_cache = lstm_oracle.step(model.decoder, decoder_embedded[:, t, :], h, c)
        context, _, attention_cache = attention_oracle.forward(
            model.attention, h, encoder_outputs, mask=batch.encoder_mask
        )
        concatenated[:, t, :hidden] = h
        concatenated[:, t, hidden:] = context
        cache.decoder_caches.append(step_cache)
        cache.attention_caches.append(attention_cache)
    cache.concatenated = concatenated
    cache.logits = model.output_layer.forward(concatenated)
    return cache


def _backward_reference(
    model: QEP2Seq, batch: Batch, cache: ForwardCache, grad_logits: np.ndarray
) -> None:
    """Backward through :func:`_forward_reference`, one timestep at a time;
    parameter gradients are accumulated."""
    hidden = model.config.hidden_dim
    batch_size, target_length = batch.decoder_inputs.shape
    grad_concat = model.output_layer.backward(cache.concatenated, grad_logits)
    grad_encoder_outputs = np.zeros_like(cache.encoder_outputs)
    grad_h_carry = np.zeros((batch_size, hidden), dtype=model.dtype)
    grad_c_carry = np.zeros((batch_size, hidden), dtype=model.dtype)
    decoder_input_grads = np.zeros(
        (batch_size, target_length, model.decoder_embedding.dimension), dtype=model.dtype
    )
    for t in reversed(range(target_length)):
        grad_h_step = grad_concat[:, t, :hidden]
        grad_context = grad_concat[:, t, hidden:]
        grad_h_attention, grad_encoder_step = attention_oracle.backward(
            model.attention, cache.attention_caches[t], grad_context
        )
        grad_encoder_outputs += grad_encoder_step
        grad_h_total = grad_h_step + grad_h_attention + grad_h_carry
        grad_x, grad_h_carry, grad_c_carry = lstm_oracle.backward_step(
            model.decoder, cache.decoder_caches[t], grad_h_total, grad_c_carry
        )
        decoder_input_grads[:, t, :] = grad_x
    model.decoder_embedding.backward(batch.decoder_inputs, decoder_input_grads)
    grad_encoder_inputs, _, _ = lstm_oracle.backward(
        model.encoder,
        cache.encoder_caches,
        grad_encoder_outputs,
        grad_h_final=grad_h_carry,
        grad_c_final=grad_c_carry,
    )
    model.encoder_embedding.backward(batch.encoder_ids, grad_encoder_inputs)


class StepwiseQEP2Seq(QEP2Seq):
    """A QEP2Seq whose training forward/backward are the step-wise twins.

    Same constructor, parameters, optimizer and inference as the shipped
    model; only ``train_batch``/``evaluate_batch`` go through
    :func:`_forward_reference`/:func:`_backward_reference`.
    """

    def _forward_turbo(self, batch: Batch) -> ForwardCache:
        return _forward_reference(self, batch)

    def _backward_turbo(self, batch: Batch, cache: ForwardCache, grad_logits: np.ndarray) -> None:
        _backward_reference(self, batch, cache, grad_logits)


def _log_sum_exp(x: np.ndarray) -> float:
    maximum = float(np.max(x))
    return maximum + float(np.log(np.sum(np.exp(x - maximum))))


def _encode_single(model: QEP2Seq, source_tokens: list[str]):
    ids = np.array([model._encode_ids(source_tokens)], dtype=np.int64)
    mask = np.ones((1, ids.shape[1]), dtype=model._infer_dtype)
    embedded = model.encoder_embedding.lookup(ids)
    outputs, final_h, final_c = model.encoder.forward_infer(embedded, mask=mask)
    return outputs, mask, final_h, final_c


def beam_decode_candidates_sequential(
    model: QEP2Seq, source_tokens: list[str], beam_size: Optional[int] = None
) -> list[list[str]]:
    """The unbatched reference decoder (one batch-1 step per beam per t).

    Produces exactly the same ranked candidates as
    ``model.beam_decode_batch([source_tokens], beam_size)[0]``.
    """
    beam_size = beam_size or model.config.beam_size
    encoder_outputs, mask, h, c = _encode_single(model, source_tokens)
    projected_encoder = model.attention.project_encoder_infer(encoder_outputs)
    end_id = model.output_vocabulary.end_id
    beams: list[tuple[float, list[int], np.ndarray, np.ndarray, bool]] = [
        (0.0, [model.output_vocabulary.bos_id], h, c, False)
    ]
    for _ in range(model.config.max_decode_length):
        candidates: list[tuple[float, list[int], np.ndarray, np.ndarray, bool]] = []
        for score, tokens, beam_h, beam_c, finished in beams:
            if finished:
                candidates.append((score, tokens, beam_h, beam_c, True))
                continue
            embedded = model.decoder_embedding.lookup(np.array([tokens[-1]]))
            new_h, new_c = model.decoder.step_infer(embedded, beam_h, beam_c)
            context = model.attention.step_context(
                new_h, encoder_outputs, projected_encoder, mask=mask
            )
            logits = model.output_layer.forward_infer(np.concatenate([new_h, context], axis=1))[0]
            log_probabilities = logits - _log_sum_exp(logits)
            top = np.argsort(log_probabilities)[-beam_size:]
            for token_id in top:
                candidates.append(
                    (
                        score + float(log_probabilities[token_id]),
                        tokens + [int(token_id)],
                        new_h,
                        new_c,
                        int(token_id) == end_id,
                    )
                )
        candidates.sort(key=lambda item: item[0] / max(len(item[1]) - 1, 1), reverse=True)
        beams = candidates[:beam_size]
        if all(finished for _, _, _, _, finished in beams):
            break
    ranked = sorted(beams, key=lambda item: item[0] / max(len(item[1]) - 1, 1), reverse=True)
    decoded = [model.output_vocabulary.decode(tokens) for _, tokens, _, _, _ in ranked]
    return [tokens for tokens in decoded if tokens] or [decoded[0] if decoded else []]
