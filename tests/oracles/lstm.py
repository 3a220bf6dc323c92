"""The step-wise LSTM: the reference twin of ``LSTM.forward_fused``/``backward_fused``.

One :func:`step` per timestep, each saving an :class:`LSTMStepCache`, and
one :func:`backward_step` per timestep in reverse.  The gate math is the
shipped :meth:`repro.nlg.nn.lstm.LSTM._gates`, so the only difference from
the fused path is the loop structure the fusion removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nlg.nn.lstm import LSTM


@dataclass
class LSTMStepCache:
    """Values saved during one forward step and reused by the backward pass."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # (B, 4H) post-activation: [i, f, o, g]
    c: np.ndarray
    h: np.ndarray
    mask: Optional[np.ndarray] = None


def step(
    lstm: LSTM,
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, LSTMStepCache]:
    """One time step for a batch: returns (h, c, cache)."""
    h, c, i, f, o, g = lstm._gates(x, h_prev, c_prev)
    if mask is not None:
        keep = mask[:, None]
        h = keep * h + (1.0 - keep) * h_prev
        c = keep * c + (1.0 - keep) * c_prev
    cache = LSTMStepCache(
        x=x, h_prev=h_prev, c_prev=c_prev,
        gates=np.concatenate([i, f, o, g], axis=1), c=c, h=h, mask=mask,
    )
    return h, c, cache


def forward(
    lstm: LSTM,
    inputs: np.ndarray,
    mask: Optional[np.ndarray] = None,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[LSTMStepCache]]:
    """Run the full sequence.

    ``inputs`` has shape (B, T, D); ``mask`` (B, T) with 1 for real tokens.
    Returns hidden states (B, T, H), final h, final c, and per-step caches.
    """
    batch, steps, _ = inputs.shape
    dtype = lstm.weight_x.value.dtype
    h = np.zeros((batch, lstm.hidden_dim), dtype=dtype) if h0 is None else h0.copy()
    c = np.zeros((batch, lstm.hidden_dim), dtype=dtype) if c0 is None else c0.copy()
    outputs = np.zeros((batch, steps, lstm.hidden_dim), dtype=dtype)
    caches: list[LSTMStepCache] = []
    for t in range(steps):
        step_mask = mask[:, t] if mask is not None else None
        h, c, cache = step(lstm, inputs[:, t, :], h, c, mask=step_mask)
        outputs[:, t, :] = h
        caches.append(cache)
    return outputs, h, c, caches


def backward_step(
    lstm: LSTM,
    cache: LSTMStepCache,
    grad_h: np.ndarray,
    grad_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through one step.

    Returns gradients w.r.t. the step input x, the previous hidden state,
    and the previous cell state; parameter gradients are accumulated.
    """
    hidden = lstm.hidden_dim
    i = cache.gates[:, :hidden]
    f = cache.gates[:, hidden : 2 * hidden]
    o = cache.gates[:, 2 * hidden : 3 * hidden]
    g = cache.gates[:, 3 * hidden :]

    if cache.mask is not None:
        keep = cache.mask[:, None]
        grad_h_prev_passthrough = grad_h * (1.0 - keep)
        grad_c_prev_passthrough = grad_c * (1.0 - keep)
        grad_h = grad_h * keep
        grad_c = grad_c * keep
    else:
        grad_h_prev_passthrough = 0.0
        grad_c_prev_passthrough = 0.0

    tanh_c = np.tanh(cache.c)
    grad_o = grad_h * tanh_c
    grad_c_total = grad_c + grad_h * o * (1.0 - tanh_c ** 2)
    grad_i = grad_c_total * g
    grad_g = grad_c_total * i
    grad_f = grad_c_total * cache.c_prev
    grad_c_prev = grad_c_total * f

    d_pre_i = grad_i * i * (1.0 - i)
    d_pre_f = grad_f * f * (1.0 - f)
    d_pre_o = grad_o * o * (1.0 - o)
    d_pre_g = grad_g * (1.0 - g ** 2)
    d_pre = np.concatenate([d_pre_i, d_pre_f, d_pre_o, d_pre_g], axis=1)

    lstm.weight_x.grad += cache.x.T @ d_pre
    lstm.weight_h.grad += cache.h_prev.T @ d_pre
    lstm.bias.grad += d_pre.sum(axis=0)

    grad_x = d_pre @ lstm.weight_x.value.T
    grad_h_prev = d_pre @ lstm.weight_h.value.T + grad_h_prev_passthrough
    grad_c_prev = grad_c_prev + grad_c_prev_passthrough
    return grad_x, grad_h_prev, grad_c_prev


def backward(
    lstm: LSTM,
    caches: list[LSTMStepCache],
    grad_outputs: np.ndarray,
    grad_h_final: Optional[np.ndarray] = None,
    grad_c_final: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through the whole sequence.

    ``grad_outputs`` has shape (B, T, H): the gradient flowing into each
    per-step hidden state.  Returns the gradient w.r.t. the inputs
    (B, T, D) and the initial hidden/cell states.
    """
    batch, steps, _ = grad_outputs.shape
    dtype = lstm.weight_x.value.dtype
    grad_inputs = np.zeros((batch, steps, lstm.input_dim), dtype=dtype)
    grad_h = (
        np.zeros((batch, lstm.hidden_dim), dtype=dtype)
        if grad_h_final is None
        else grad_h_final.copy()
    )
    grad_c = (
        np.zeros((batch, lstm.hidden_dim), dtype=dtype)
        if grad_c_final is None
        else grad_c_final.copy()
    )
    for t in reversed(range(steps)):
        grad_h = grad_h + grad_outputs[:, t, :]
        grad_x, grad_h, grad_c = backward_step(lstm, caches[t], grad_h, grad_c)
        grad_inputs[:, t, :] = grad_x
    return grad_inputs, grad_h, grad_c
