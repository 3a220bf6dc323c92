"""Additive (Bahdanau) attention with manual gradients (paper Equations 8–10).

The layer ships one training path and one inference path:

* :meth:`AdditiveAttention.forward_fused` /
  :meth:`AdditiveAttention.backward_fused` — training.  Under teacher
  forcing the context vector never feeds back into the decoder recurrence,
  so attention for *all* decoder timesteps runs as one fused call producing
  ``(B, T_dec, T_enc)`` weights and ``(B, T_dec, He)`` contexts, with
  ``project_encoder`` (the ``(B, T_enc, He) @ (He, A)`` matmul) computed
  once per sequence.
* :meth:`AdditiveAttention.step_context` — decoding: one decoder step for
  every live beam, over an encoder projection computed once per act.

The per-decoder-step reference twin of the training path lives in the
test-only oracle package ``tests/oracles/attention.py``;
``tests/test_nlg_train_turbo.py`` asserts the two agree to
``allclose(rtol=1e-9)`` on contexts, weights, and every gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nlg.nn.functional import softmax
from repro.nlg.nn.layers import Parameter


@dataclass
class AttentionSequenceCache:
    """Structure-of-arrays forward cache for one fused attention pass.

    Covers all ``T_dec`` decoder states at once in a few tensors read back
    as views on backward.
    """

    decoder_states: np.ndarray  # (B, Td, Hd)
    encoder_states: np.ndarray  # (B, Te, He)
    mask: Optional[np.ndarray]  # (B, Te)
    scores_tanh: np.ndarray  # (B, Td, Te, A)
    weights: np.ndarray  # (B, Td, Te)


class AdditiveAttention:
    """score(s, h_i) = v^T tanh(W_s s + W_h h_i)."""

    def __init__(
        self,
        decoder_dim: int,
        encoder_dim: int,
        attention_dim: int,
        rng: np.random.Generator,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.weight_decoder = Parameter.uniform(
            (decoder_dim, attention_dim), rng, name="attention.weight_decoder", dtype=dtype
        )
        self.weight_encoder = Parameter.uniform(
            (encoder_dim, attention_dim), rng, name="attention.weight_encoder", dtype=dtype
        )
        self.score_vector = Parameter.uniform(
            (attention_dim,), rng, name="attention.score_vector", dtype=dtype
        )

    def _score_and_mix(
        self,
        decoder_state: np.ndarray,
        encoder_states: np.ndarray,
        projected_encoder: np.ndarray,
        mask: Optional[np.ndarray],
        weight_decoder: Optional[np.ndarray] = None,
        score_vector: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shared additive-score / softmax / weighted-sum pipeline.

        :meth:`step_context` (decoding) and the per-step reference oracle go
        through this single implementation, and :meth:`forward_fused`
        mirrors it row for row, so the paths can never diverge
        numerically.  The weight overrides let
        inference substitute quantized replicas; ``None`` means the training
        weights.  Returns (context (B, He), weights (B, T),
        scores_tanh (B, T, A)).
        """
        if weight_decoder is None:
            weight_decoder = self.weight_decoder.value
        if score_vector is None:
            score_vector = self.score_vector.value
        projected_decoder = decoder_state @ weight_decoder  # (B, A)
        scores_tanh = np.tanh(projected_encoder + projected_decoder[:, None, :])  # (B, T, A)
        scores = scores_tanh @ score_vector  # (B, T)
        if mask is not None:
            scores = np.where(mask > 0, scores, -1e9)
        weights = softmax(scores, axis=1)
        context = np.einsum("bt,bth->bh", weights, encoder_states)
        return context, weights, scores_tanh

    def project_encoder(self, encoder_states: np.ndarray) -> np.ndarray:
        """Precompute ``W_h h_i`` for every encoder state, shape (B, T, A).

        The encoder-side projection does not depend on the decoder state, so
        beam search computes it once per act and reuses it at every decoding
        timestep instead of redoing the (B, T, He) @ (He, A) matmul per step.
        """
        return encoder_states @ self.weight_encoder.value

    def project_encoder_infer(self, encoder_states: np.ndarray) -> np.ndarray:
        """:meth:`project_encoder` through the (possibly quantized)
        inference replica — the same array when no quantization is active."""
        return encoder_states @ self.weight_encoder.infer_value

    def step_context(
        self,
        decoder_state: np.ndarray,
        encoder_states: np.ndarray,
        projected_encoder: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inference-only context vector with a precomputed encoder projection.

        The :meth:`_score_and_mix` pipeline with no backward cache and no
        per-step encoder projection.
        ``decoder_state`` (B, Hd), ``encoder_states`` / ``projected_encoder``
        (B, T, ·), ``mask`` (B, T).  Computes through the inference replicas
        (identical to the training weights when quantization is off).
        """
        context, _, _ = self._score_and_mix(
            decoder_state,
            encoder_states,
            projected_encoder,
            mask,
            weight_decoder=self.weight_decoder.infer_value,
            score_vector=self.score_vector.infer_value,
        )
        return context

    def forward_fused(
        self,
        decoder_states: np.ndarray,
        encoder_states: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, AttentionSequenceCache]:
        """Context vectors for *all* decoder timesteps in one fused pass.

        ``decoder_states`` (B, Td, Hd); ``encoder_states`` (B, Te, He);
        ``mask`` (B, Te).  Returns (contexts (B, Td, He), weights
        (B, Td, Te), cache).  The encoder projection is computed once for
        the whole sequence — the per-step reference path redoes that
        ``(B, Te, He) @ (He, A)`` matmul at every decoder step.  Row-wise
        the score/softmax/mix math is identical to :meth:`_score_and_mix`.
        """
        projected_encoder = self.project_encoder(encoder_states)  # (B, Te, A), once
        projected_decoder = decoder_states @ self.weight_decoder.value  # (B, Td, A)
        scores_tanh = np.tanh(
            projected_encoder[:, None, :, :] + projected_decoder[:, :, None, :]
        )  # (B, Td, Te, A)
        scores = scores_tanh @ self.score_vector.value  # (B, Td, Te)
        if mask is not None:
            scores = np.where(mask[:, None, :] > 0, scores, -1e9)
        weights = softmax(scores, axis=2)
        contexts = weights @ encoder_states  # (B, Td, Te) @ (B, Te, He)
        cache = AttentionSequenceCache(
            decoder_states=decoder_states,
            encoder_states=encoder_states,
            mask=mask,
            scores_tanh=scores_tanh,
            weights=weights,
        )
        return contexts, weights, cache

    def backward_fused(
        self,
        cache: AttentionSequenceCache,
        grad_contexts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backward for one fused :meth:`forward_fused` pass.

        ``grad_contexts`` (B, Td, He).  Returns gradients w.r.t. the decoder
        states (B, Td, Hd) and the encoder states (B, Te, He); parameter
        gradients are accumulated.  One batched contraction per term instead
        of one per decoder step.
        """
        weights = cache.weights  # (B, Td, Te)
        encoder_states = cache.encoder_states

        # contexts = weights @ encoder_states
        grad_weights = grad_contexts @ encoder_states.transpose(0, 2, 1)  # (B, Td, Te)
        grad_encoder = weights.transpose(0, 2, 1) @ grad_contexts  # (B, Te, He)

        # softmax backward, per (batch, decoder-step) row
        dot = np.sum(grad_weights * weights, axis=2, keepdims=True)
        grad_scores = weights * (grad_weights - dot)
        if cache.mask is not None:
            grad_scores = np.where(cache.mask[:, None, :] > 0, grad_scores, 0.0)

        # scores = tanh(...) @ v — the (b, d, t) axes contract away, so the
        # einsums flatten into plain 2D matmuls (BLAS instead of c_einsum)
        attention_dim = self.score_vector.value.shape[0]
        flat_scores_tanh = cache.scores_tanh.reshape(-1, attention_dim)
        self.score_vector.grad += grad_scores.reshape(-1) @ flat_scores_tanh
        grad_pre = grad_scores[:, :, :, None] * self.score_vector.value
        grad_pre *= 1.0 - cache.scores_tanh ** 2  # (B, Td, Te, A), in place

        # pre = encoder @ W_h + decoder @ W_s; the encoder term is shared
        # across decoder steps, so its gradient sums over Td (and vice versa)
        grad_pre_encoder = grad_pre.sum(axis=1)  # (B, Te, A)
        grad_pre_decoder = grad_pre.sum(axis=2)  # (B, Td, A)
        encoder_dim = encoder_states.shape[-1]
        decoder_dim = cache.decoder_states.shape[-1]
        self.weight_encoder.grad += (
            encoder_states.reshape(-1, encoder_dim).T @ grad_pre_encoder.reshape(-1, attention_dim)
        )
        self.weight_decoder.grad += (
            cache.decoder_states.reshape(-1, decoder_dim).T
            @ grad_pre_decoder.reshape(-1, attention_dim)
        )
        grad_encoder += grad_pre_encoder @ self.weight_encoder.value.T
        grad_decoders = grad_pre_decoder @ self.weight_decoder.value.T
        return grad_decoders, grad_encoder

    def parameters(self) -> list[Parameter]:
        return [self.weight_decoder, self.weight_encoder, self.score_vector]
