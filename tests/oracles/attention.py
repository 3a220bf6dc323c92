"""Per-decoder-step attention: the reference twin of
``AdditiveAttention.forward_fused``/``backward_fused``.

One :func:`forward` call per decoder step, each recomputing the encoder
projection and saving an :class:`AttentionCache`.  Scoring, softmax and
mixing are the shipped
:meth:`repro.nlg.nn.attention.AdditiveAttention._score_and_mix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nlg.nn.attention import AdditiveAttention


@dataclass
class AttentionCache:
    """Forward values reused in the backward pass for one decoding step."""

    decoder_state: np.ndarray
    encoder_states: np.ndarray
    mask: Optional[np.ndarray]
    scores_tanh: np.ndarray
    weights: np.ndarray
    context: np.ndarray


def forward(
    attention: AdditiveAttention,
    decoder_state: np.ndarray,
    encoder_states: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Compute the context vector for one decoder step.

    ``decoder_state`` (B, Hd); ``encoder_states`` (B, T, He); ``mask`` (B, T).
    Returns (context (B, He), weights (B, T), cache).
    """
    context, weights, scores_tanh = attention._score_and_mix(
        decoder_state, encoder_states, attention.project_encoder(encoder_states), mask
    )
    cache = AttentionCache(
        decoder_state=decoder_state,
        encoder_states=encoder_states,
        mask=mask,
        scores_tanh=scores_tanh,
        weights=weights,
        context=context,
    )
    return context, weights, cache


def backward(
    attention: AdditiveAttention,
    cache: AttentionCache,
    grad_context: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward for one step.

    Returns gradients w.r.t. the decoder state (B, Hd) and the encoder
    states (B, T, He); parameter gradients are accumulated.
    """
    weights = cache.weights
    encoder_states = cache.encoder_states

    # context = sum_t weights_t * encoder_t
    grad_weights = np.einsum("bh,bth->bt", grad_context, encoder_states)
    grad_encoder = weights[:, :, None] * grad_context[:, None, :]

    # softmax backward
    dot = np.sum(grad_weights * weights, axis=1, keepdims=True)
    grad_scores = weights * (grad_weights - dot)
    if cache.mask is not None:
        grad_scores = np.where(cache.mask > 0, grad_scores, 0.0)

    # scores = tanh(...) @ v
    grad_tanh = grad_scores[:, :, None] * attention.score_vector.value[None, None, :]
    attention.score_vector.grad += np.einsum("bta,bt->a", cache.scores_tanh, grad_scores)
    grad_pre = grad_tanh * (1.0 - cache.scores_tanh ** 2)  # (B, T, A)

    # pre = encoder @ W_h + decoder @ W_s
    attention.weight_encoder.grad += np.einsum("bth,bta->ha", encoder_states, grad_pre)
    attention.weight_decoder.grad += cache.decoder_state.T @ grad_pre.sum(axis=1)
    grad_encoder += grad_pre @ attention.weight_encoder.value.T
    grad_decoder = grad_pre.sum(axis=1) @ attention.weight_decoder.value.T
    return grad_decoder, grad_encoder
