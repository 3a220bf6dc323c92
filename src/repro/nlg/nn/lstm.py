"""An LSTM layer with full backpropagation through time.

The gate equations follow the paper (Equations 2–6): input, forget and output
gates plus a candidate cell state, combined as

    c_t = i_t * tanh(U_c h_{t-1} + V_c x_t) + f_t * c_{t-1}
    h_t = o_t * tanh(c_t)

Gates are computed as one fused affine transform (:meth:`LSTM._gates`).
The layer ships one training path and one inference path:

* :meth:`LSTM.forward_fused` / :meth:`LSTM.backward_fused` — training.  The
  input-side gate matmul ``x_t @ weight_x`` does not depend on
  ``h_{t-1}``, so it is hoisted out of the recurrence as one
  ``(B·T, D) @ (D, 4H)`` matmul; only ``h_prev @ weight_h`` stays per step.
  Forward values land in a preallocated structure-of-arrays
  :class:`LSTMSequenceCache` (no per-step ``np.concatenate``), and the
  backward pass accumulates ``d_pre`` into one ``(B, T, 4H)`` buffer so the
  ``weight_x`` / ``weight_h`` / input-gradient contractions become three
  batched matmuls after the reverse loop instead of three per step.
* :meth:`LSTM.forward_infer` / :meth:`LSTM.step_infer` — decoding: the
  encoder runs the whole act, the beam search one step at a time, neither
  building backward caches.

The step-wise reference twin of the training path (one ``step`` /
``backward_step`` per timestep) lives in the test-only oracle package
``tests/oracles/lstm.py``; ``tests/test_nlg_train_turbo.py`` asserts the
two agree to ``allclose(rtol=1e-9)`` on values and every parameter
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nlg.nn.functional import sigmoid, tanh
from repro.nlg.nn.layers import Parameter


@dataclass
class LSTMSequenceCache:
    """Structure-of-arrays forward cache for one fused sequence.

    Gates and states live in tensors preallocated once per sequence, written
    by slice on forward and read back as views on backward — no per-step
    ``np.concatenate`` (or any other) allocations inside the recurrence.

    ``h_all`` / ``c_all`` hold ``T + 1`` slots: index ``t`` is the state
    *entering* step ``t`` (``h_all[:, 0]`` is ``h0``), index ``t + 1`` the
    state that step produced (post-mask).
    """

    inputs: np.ndarray  # (B, T, D)
    gates: np.ndarray  # (B, T, 4H) post-activation: [i, f, o, g]
    h_all: np.ndarray  # (B, T+1, H)
    c_all: np.ndarray  # (B, T+1, H)
    mask: Optional[np.ndarray] = None  # (B, T)


class LSTM:
    """A single-layer LSTM operating on batches of padded sequences."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        name: str = "lstm",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = Parameter.uniform(
            (input_dim, 4 * hidden_dim), rng, name=f"{name}.weight_x", dtype=dtype
        )
        self.weight_h = Parameter.uniform(
            (hidden_dim, 4 * hidden_dim), rng, name=f"{name}.weight_h", dtype=dtype
        )
        self.bias = Parameter(np.zeros(4 * hidden_dim), name=f"{name}.bias", dtype=dtype)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _gates(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        weight_x: Optional[np.ndarray] = None,
        weight_h: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The shared gate equations: returns (h, c, i, f, o, g).

        :meth:`step_infer`, :meth:`forward_infer` and the step-wise
        reference oracle go through this single implementation, and
        :meth:`forward_fused` mirrors it exactly, so the paths can never
        diverge numerically.  The weight overrides let
        the inference paths substitute quantized replicas without forking
        the math; ``None`` means the training weights.
        """
        hidden = self.hidden_dim
        if weight_x is None:
            weight_x = self.weight_x.value
        if weight_h is None:
            weight_h = self.weight_h.value
        if bias is None:
            bias = self.bias.value
        pre = x @ weight_x + h_prev @ weight_h + bias
        # i, f and o share one sigmoid over the leading 3H lanes (one ufunc
        # launch instead of three); elementwise, so the slices are identical
        # to three separate calls
        activated = sigmoid(pre[:, : 3 * hidden])
        i = activated[:, :hidden]
        f = activated[:, hidden : 2 * hidden]
        o = activated[:, 2 * hidden :]
        g = tanh(pre[:, 3 * hidden :])
        c = i * g + f * c_prev
        h = o * np.tanh(c)
        return h, c, i, f, o, g

    def step_infer(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One inference-only time step: (h, c) without a backward cache.

        The :meth:`_gates` math with no cache allocation — this is what the
        batched beam-search decoder calls once per timestep for all live beams at
        once (a ``(K, H)`` state matrix instead of K batch-1 calls).
        Computes through the (possibly quantized) inference replicas, which
        are the training weights themselves when no quantization is active.
        """
        h, c, _, _, _, _ = self._gates(
            x,
            h_prev,
            c_prev,
            weight_x=self.weight_x.infer_value,
            weight_h=self.weight_h.infer_value,
            bias=self.bias.infer_value,
        )
        return h, c

    def forward_infer(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the full sequence inference-only: no backward caches.

        One :meth:`_gates` call per timestep with the same mask arithmetic
        as :meth:`forward_fused`, through ``infer_value`` weights and
        without building caches — the encoder's decode-time path.
        """
        batch, steps, _ = inputs.shape
        weight_x = self.weight_x.infer_value
        weight_h = self.weight_h.infer_value
        bias = self.bias.infer_value
        dtype = weight_x.dtype
        h = np.zeros((batch, self.hidden_dim), dtype=dtype) if h0 is None else h0.copy()
        c = np.zeros((batch, self.hidden_dim), dtype=dtype) if c0 is None else c0.copy()
        outputs = np.zeros((batch, steps, self.hidden_dim), dtype=dtype)
        for t in range(steps):
            h_new, c_new, _, _, _, _ = self._gates(
                inputs[:, t, :], h, c, weight_x=weight_x, weight_h=weight_h, bias=bias
            )
            if mask is not None:
                keep = mask[:, t][:, None]
                h = keep * h_new + (1.0 - keep) * h
                c = keep * c_new + (1.0 - keep) * c
            else:
                h, c = h_new, c_new
            outputs[:, t, :] = h
        return outputs, h, c

    def forward_fused(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, LSTMSequenceCache]:
        """Run the full sequence with the input-side gate matmul hoisted.

        ``inputs`` has shape (B, T, D); ``mask`` (B, T) with 1 for real
        tokens.  Returns hidden states (B, T, H), final h, final c, and the
        :class:`LSTMSequenceCache` for :meth:`backward_fused`.  ``x_t @ weight_x`` is independent of ``h_{t-1}``, so it is computed
        for all timesteps in one ``(B·T, D) @ (D, 4H)`` matmul before the
        sequential loop; only ``h_prev @ weight_h`` remains per step.  The
        per-step math (including the bias addition order and the mask
        pass-through) mirrors :meth:`_gates` exactly.
        """
        batch, steps, _ = inputs.shape
        hidden = self.hidden_dim
        dtype = self.weight_x.value.dtype
        h = np.zeros((batch, hidden), dtype=dtype) if h0 is None else h0
        c = np.zeros((batch, hidden), dtype=dtype) if c0 is None else c0
        pre_x = (
            inputs.reshape(batch * steps, self.input_dim) @ self.weight_x.value
        ).reshape(batch, steps, 4 * hidden)
        pre_x += self.bias.value  # folded into the hoisted matmul output once
        gates = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        h_all = np.empty((batch, steps + 1, hidden), dtype=dtype)
        c_all = np.empty((batch, steps + 1, hidden), dtype=dtype)
        h_all[:, 0] = h
        c_all[:, 0] = c
        weight_h = self.weight_h.value
        # an all-ones mask is a no-op pass-through (keep * x + 0 * prev == x
        # bit for bit), so skip the mask arithmetic entirely — under length
        # bucketing most batches have uniform lengths, making this the
        # common case
        masked = mask is not None and not bool(np.all(mask == 1.0))
        pre = np.empty((batch, 4 * hidden), dtype=dtype)
        scratch = np.empty((batch, hidden), dtype=dtype)
        for t in range(steps):
            # pre = (x_t @ Wx + bias) (hoisted) + h_prev @ Wh, with out=
            # kernels so the recurrence allocates nothing per step
            np.matmul(h, weight_h, out=pre)
            pre += pre_x[:, t]
            gate_t = gates[:, t]
            # i, f and o share one sigmoid over the leading 3H lanes — one
            # ufunc launch per step instead of three, written straight into
            # the SoA gate buffer
            sigmoid(pre[:, : 3 * hidden], out=gate_t[:, : 3 * hidden])
            np.tanh(pre[:, 3 * hidden :], out=gate_t[:, 3 * hidden :])
            i = gate_t[:, :hidden]
            f = gate_t[:, hidden : 2 * hidden]
            o = gate_t[:, 2 * hidden : 3 * hidden]
            g = gate_t[:, 3 * hidden :]
            h_view = h_all[:, t + 1]
            c_view = c_all[:, t + 1]
            np.multiply(i, g, out=c_view)
            np.multiply(f, c, out=scratch)
            c_view += scratch
            np.tanh(c_view, out=scratch)
            np.multiply(o, scratch, out=h_view)
            if masked:
                keep = mask[:, t][:, None]
                h_view[...] = keep * h_view + (1.0 - keep) * h
                c_view[...] = keep * c_view + (1.0 - keep) * c
            h, c = h_view, c_view
        cache = LSTMSequenceCache(inputs=inputs, gates=gates, h_all=h_all, c_all=c_all, mask=mask)
        return h_all[:, 1:], h, c, cache

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward_fused(
        self,
        cache: LSTMSequenceCache,
        grad_outputs: np.ndarray,
        grad_h_final: Optional[np.ndarray] = None,
        grad_c_final: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through a :meth:`forward_fused` sequence.

        ``grad_outputs`` (B, T, H) is the gradient flowing into each
        per-step hidden state.  Returns the gradients w.r.t. the inputs
        (B, T, D) and the initial hidden/cell states; parameter gradients
        are accumulated.  The gate pre-activation gradients go into one
        preallocated ``(B, T, 4H)`` buffer, and the ``weight_x.grad`` /
        ``weight_h.grad`` / input-gradient contractions run as single
        batched matmuls after the reverse loop, instead of three matmuls
        per step.  Only the recurrent
        ``d_pre_t @ weight_h.T`` remains inside the loop.
        """
        batch, steps, _ = grad_outputs.shape
        hidden = self.hidden_dim
        dtype = self.weight_x.value.dtype
        grad_h = (
            np.zeros((batch, hidden), dtype=dtype)
            if grad_h_final is None
            else grad_h_final.copy()
        )
        grad_c = (
            np.zeros((batch, hidden), dtype=dtype)
            if grad_c_final is None
            else grad_c_final.copy()
        )
        d_pre = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        weight_h_t = np.ascontiguousarray(self.weight_h.value.T)
        masked = cache.mask is not None and not bool(np.all(cache.mask == 1.0))

        # every gradient-independent factor is precomputed across ALL
        # timesteps as a handful of big (B, T, H) kernels, so the sequential
        # reverse loop shrinks to the true recurrence: eight small kernels
        # plus one gemm per step.
        gates = cache.gates
        i_all = gates[:, :, :hidden]
        f_all = gates[:, :, hidden : 2 * hidden]
        o_all = gates[:, :, 2 * hidden : 3 * hidden]
        g_all = gates[:, :, 3 * hidden :]
        tanh_c = np.tanh(cache.c_all[:, 1:])
        # o * (1 - tanh(c)²): the cell-gradient contribution of grad_h
        cell_factor = o_all * (1.0 - tanh_c ** 2)
        # gate derivative factors: d_pre_x = <grad term> * factor_x
        factor_o = tanh_c * o_all * (1.0 - o_all)  # times grad_h
        factor_i = g_all * i_all * (1.0 - i_all)  # times grad_c_total
        factor_f = cache.c_all[:, :-1] * f_all * (1.0 - f_all)  # times grad_c_total
        factor_g = i_all * (1.0 - g_all ** 2)  # times grad_c_total

        grad_c_total = np.empty((batch, hidden), dtype=dtype)
        for t in reversed(range(steps)):
            grad_h += grad_outputs[:, t]  # grad_h is always step-owned here
            if masked:
                keep = cache.mask[:, t][:, None]
                grad_h_prev_passthrough = grad_h * (1.0 - keep)
                grad_c_prev_passthrough = grad_c * (1.0 - keep)
                grad_h = grad_h * keep
                grad_c = grad_c * keep
            d_pre_t = d_pre[:, t]
            np.multiply(grad_h, factor_o[:, t], out=d_pre_t[:, 2 * hidden : 3 * hidden])
            np.multiply(grad_h, cell_factor[:, t], out=grad_c_total)
            grad_c_total += grad_c
            np.multiply(grad_c_total, factor_i[:, t], out=d_pre_t[:, :hidden])
            np.multiply(grad_c_total, factor_f[:, t], out=d_pre_t[:, hidden : 2 * hidden])
            np.multiply(grad_c_total, factor_g[:, t], out=d_pre_t[:, 3 * hidden :])
            grad_h = d_pre_t @ weight_h_t
            grad_c = grad_c_total * f_all[:, t]
            if masked:
                grad_h += grad_h_prev_passthrough
                grad_c += grad_c_prev_passthrough
        flat_d_pre = d_pre.reshape(batch * steps, 4 * hidden)
        self.weight_x.grad += cache.inputs.reshape(batch * steps, self.input_dim).T @ flat_d_pre
        self.weight_h.grad += cache.h_all[:, :-1].reshape(batch * steps, hidden).T @ flat_d_pre
        self.bias.grad += flat_d_pre.sum(axis=0)
        grad_inputs = (flat_d_pre @ self.weight_x.value.T).reshape(batch, steps, self.input_dim)
        return grad_inputs, grad_h, grad_c

    def parameters(self) -> list[Parameter]:
        return [self.weight_x, self.weight_h, self.bias]

    @property
    def recurrent_connection_count(self) -> int:
        """Number of recurrent weights (the quantity reported in paper Table 3)."""
        return int(self.weight_x.size + self.weight_h.size + self.bias.size)
