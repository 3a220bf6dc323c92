"""QEP2Seq: the act-to-sentence encoder/decoder with additive attention (paper §6.4).

The encoder LSTM reads the serialized act (operator tokens plus structural
tags); the decoder LSTM — whose word embeddings may be initialized from
pre-trained vectors — generates the description token by token, attending
over the encoder states.  Training uses teacher forcing and plain SGD;
inference uses beam search.

The model ships one decode path and one training path.

Decoding is :meth:`QEP2Seq.beam_decode_batch`, batched on two axes.  Within
one act, all K live beams advance through a single (K, H) decoder step, one
attention call, and one output-projection matmul per timestep.  Across a
plan, every act is padded into one encoder forward and all acts' beams
decode as one fused tensor, which is what makes NEURAL-LANTERN response
times interactive (Table 6); a single act is a batch of one.  The search is
also joinable: acts of requests that arrive while it runs enter it between
steps, so concurrent narrations share decode steps.  Finished beams are
simply dropped from the fused batch instead of being masked-and-recomputed.

Training is vectorized the same way (the TRAIN-TURBO path):

* the input-side gate matmuls of both LSTMs are hoisted out of the
  recurrences (:meth:`~repro.nlg.nn.lstm.LSTM.forward_fused`);
* because teacher forcing never feeds the context vector back into the
  decoder recurrence (it only enters the output concat), the decoder LSTM
  runs *before* attention, and attention for all decoder timesteps runs as
  one fused call (:meth:`~repro.nlg.nn.attention.AdditiveAttention.forward_fused`),
  which also computes the encoder projection once per sequence;
* the backward pass mirrors both fusions
  (:meth:`~repro.nlg.nn.lstm.LSTM.backward_fused` /
  :meth:`~repro.nlg.nn.attention.AdditiveAttention.backward_fused`).

The reference twins of both paths — the step-wise forward/backward and the
unbatched beam search — live in the test-only oracle package
``tests/oracles/seq2seq.py``.  ``tests/test_nlg_train_turbo.py`` holds the
training contract: with ``float64`` every per-batch loss/accuracy and all
parameter gradients match the step-wise twin to ``allclose(rtol=1e-9)``,
and identical-seed training runs narrate token-identically.
``tests/test_nlg_batched_decode.py`` holds the decode contract: token for
token the same ranked candidates as the unbatched decoder.
``Seq2SeqConfig.dtype`` selects ``float64`` (default, exact parity) or
``float32`` (~2× memory/bandwidth savings).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from repro.errors import ModelConfigError
from repro.nlg.nn.attention import AdditiveAttention
from repro.nlg.nn.layers import Dense, Embedding, Parameter
from repro.nlg.nn.losses import cross_entropy_from_logits
from repro.nlg.nn.lstm import LSTM
from repro.nlg.nn.optimizers import SGD, Adam
from repro.nlg.nn.quant import infer_replica, validate_quantize_mode
from repro.nlg.vocab import Vocabulary


@dataclass
class Seq2SeqConfig:
    """Hyper-parameters of the QEP2Seq model.

    Defaults follow §6.4.2: 256 LSTM cells, encoder embeddings of 16, decoder
    embeddings of 32 when no pre-trained vectors are supplied, SGD with
    learning rate 0.001 and minibatches of 4.
    """

    hidden_dim: int = 256
    encoder_embedding_dim: int = 16
    decoder_embedding_dim: int = 32
    attention_dim: int = 64
    learning_rate: float = 0.001
    batch_size: int = 4
    #: "sgd" reproduces the paper's training setup; "adam" converges much
    #: faster and is the default for the test suite and benchmarks.
    optimizer: str = "adam"
    share_weights: bool = False
    seed: int = 13
    max_decode_length: int = 60
    beam_size: int = 4
    embedding_name: str = "random"
    #: "float64" (default) for exact reference parity; "float32" halves
    #: parameter/activation memory and bandwidth.  Recorded in checkpoint
    #: manifests so a saved float32 model round-trips as float32.
    dtype: str = "float64"
    #: "none" (default), "int8" (per-row absmax weight quantization) or
    #: "float16" — the LANTERN-ZERO reduced-precision *inference* mode.
    #: Training weights keep ``dtype``; decode computes through float32
    #: replicas rounded on the selected grid.  Recorded in checkpoint
    #: manifests so a quantized model round-trips quantized.
    quantize: str = "none"


@dataclass
class Batch:
    """One padded training batch."""

    encoder_ids: np.ndarray
    encoder_mask: np.ndarray
    decoder_inputs: np.ndarray
    decoder_targets: np.ndarray
    decoder_mask: np.ndarray


@dataclass
class _TurboForwardCache:
    """Forward values of the fused path: three SoA caches instead of three
    per-timestep object lists."""

    encoder_cache: object  # LSTMSequenceCache
    decoder_cache: object  # LSTMSequenceCache
    attention_cache: object  # AttentionSequenceCache
    concatenated: np.ndarray
    logits: np.ndarray


class QEP2Seq:
    """The sequence-to-sequence translation model for acts."""

    def __init__(
        self,
        input_vocabulary: Vocabulary,
        output_vocabulary: Vocabulary,
        config: Optional[Seq2SeqConfig] = None,
        decoder_pretrained: Optional[np.ndarray] = None,
        *,
        init_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config if config is not None else Seq2SeqConfig()
        self.input_vocabulary = input_vocabulary
        self.output_vocabulary = output_vocabulary
        if self.config.dtype not in ("float64", "float32"):
            raise ModelConfigError(
                f"unsupported dtype {self.config.dtype!r}; expected 'float64' or 'float32'"
            )
        validate_quantize_mode(self.config.quantize)
        self.dtype = np.dtype(self.config.dtype)
        # init_rng is the checkpoint loader's fast-boot hook: every parameter
        # is overwritten (or mmap-adopted) right after construction, so the
        # loader substitutes a generator whose draws are uninitialized
        # np.empty buffers instead of paying for real random numbers
        rng = init_rng if init_rng is not None else np.random.default_rng(self.config.seed)

        decoder_dim = self.config.decoder_embedding_dim
        if decoder_pretrained is not None:
            decoder_dim = decoder_pretrained.shape[1]
            if decoder_pretrained.shape[0] != len(output_vocabulary):
                raise ModelConfigError(
                    "pretrained decoder embeddings do not cover the output vocabulary"
                )
        encoder_dim = self.config.encoder_embedding_dim
        if self.config.share_weights:
            # sharing the recurrent weights requires identical input widths
            encoder_dim = decoder_dim

        self.encoder_embedding = Embedding(
            len(input_vocabulary), encoder_dim, rng, name="encoder_embedding", dtype=self.dtype
        )
        self.decoder_embedding = Embedding(
            len(output_vocabulary),
            decoder_dim,
            rng,
            pretrained=decoder_pretrained,
            name="decoder_embedding",
            dtype=self.dtype,
        )
        self.encoder = LSTM(encoder_dim, self.config.hidden_dim, rng, name="encoder", dtype=self.dtype)
        if self.config.share_weights:
            self.decoder = self.encoder
        else:
            self.decoder = LSTM(decoder_dim, self.config.hidden_dim, rng, name="decoder", dtype=self.dtype)
        self.attention = AdditiveAttention(
            self.config.hidden_dim, self.config.hidden_dim, self.config.attention_dim, rng,
            dtype=self.dtype,
        )
        self.output_layer = Dense(
            2 * self.config.hidden_dim, len(output_vocabulary), rng, name="output", dtype=self.dtype
        )
        # the optimizer is built lazily on first access (see the property
        # below): pure inference processes — the mmap warm-boot path in
        # particular — never pay for Adam's moment buffers (3x the weight
        # bytes) or the flat-space parameter copy
        self._optimizer: SGD | Adam | None = None
        self._decode_counters = {"steps": 0, "rows": 0, "joins": 0}
        if self.config.quantize != "none":
            self.quantize(self.config.quantize)

    @property
    def optimizer(self) -> SGD | Adam:
        if self._optimizer is None:
            self._optimizer = self._build_optimizer()
        return self._optimizer

    @optimizer.setter
    def optimizer(self, value: SGD | Adam) -> None:
        self._optimizer = value

    def _build_optimizer(self) -> SGD | Adam:
        # copy-on-train: mmap-adopted (read-only) weights become private
        # writable arrays the moment training state is requested
        for parameter in self.parameters():
            parameter.materialize()
        if self.config.optimizer == "adam":
            return Adam(self.parameters(), learning_rate=max(self.config.learning_rate, 0.002))
        return SGD(self.parameters(), learning_rate=self.config.learning_rate)

    # ------------------------------------------------------------------
    # quantized inference (LANTERN-ZERO)
    # ------------------------------------------------------------------

    def quantize(self, mode: str) -> None:
        """Attach reduced-precision inference replicas for ``mode``.

        Idempotent and reversible (:meth:`dequantize`); training weights are
        untouched, so de/re-quantization is lossless.  Replicas are built
        deterministically from the current weights, which is also how a
        checkpoint whose manifest records a quantize mode restores them.
        """
        validate_quantize_mode(mode)
        if mode == "none":
            self.dequantize()
            return
        for parameter in self.parameters():
            parameter.set_infer(infer_replica(parameter.value, mode))
        self.config.quantize = mode

    def dequantize(self) -> None:
        """Drop inference replicas; decode returns to full-precision weights."""
        for parameter in self.parameters():
            parameter.clear_infer()
        self.config.quantize = "none"

    @property
    def precision(self) -> str:
        """``"<dtype>:<quantize>"`` — the decode-cache key component that
        keeps entries from crossing precision boundaries."""
        return f"{self.config.dtype}:{self.config.quantize}"

    def weights_memory_info(self) -> dict:
        """Parameter count, resident weight bytes, and whether every
        parameter is an mmap-shared view (the /metrics payload)."""
        parameters = self.parameters()
        return {
            "parameter_count": int(sum(p.size for p in parameters)),
            "bytes": int(sum(p.value.nbytes for p in parameters)),
            "mmap_backed": bool(parameters) and all(p.mmap_backed for p in parameters),
        }

    # ------------------------------------------------------------------
    # parameters and statistics
    # ------------------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        parameters: list[Parameter] = []
        parameters.extend(self.encoder_embedding.parameters())
        parameters.extend(self.decoder_embedding.parameters())
        parameters.extend(self.encoder.parameters())
        if self.decoder is not self.encoder:
            parameters.extend(self.decoder.parameters())
        parameters.extend(self.attention.parameters())
        parameters.extend(self.output_layer.parameters())
        return parameters

    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def recurrent_connection_counts(self) -> tuple[int, int]:
        """(encoder, decoder) recurrent connection counts — the Table 3 quantity."""
        encoder_count = self.encoder.recurrent_connection_count
        decoder_count = self.decoder.recurrent_connection_count
        return encoder_count, decoder_count

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    def encode_pair(self, source_tokens: list[str], target_tokens: list[str]) -> tuple[list[int], list[int]]:
        """Vocabulary-encode one (source, target) pair for :meth:`make_batch_encoded`.

        The Trainer encodes every sample once up front and reuses the id
        rows across epochs, instead of redoing the vocabulary lookups for
        every chunk of every epoch.
        """
        return (
            self.input_vocabulary.encode(source_tokens),
            self.output_vocabulary.encode(target_tokens, add_end=True),
        )

    def make_batch(self, sources: list[list[str]], targets: list[list[str]]) -> Batch:
        """Pad and encode token sequences into one training batch."""
        return self.make_batch_encoded(
            [self.encode_pair(source, target) for source, target in zip(sources, targets)]
        )

    def make_batch_encoded(self, pairs: list[tuple[list[int], list[int]]]) -> Batch:
        """Pad pre-encoded (encoder ids, target ids) pairs into one batch."""
        encoder_ids = [pair[0] for pair in pairs]
        target_ids = [pair[1] for pair in pairs]
        input_ids = [
            [self.output_vocabulary.bos_id] + ids[:-1] for ids in target_ids
        ]
        encoder_matrix, encoder_mask = _pad_and_mask(
            encoder_ids, self.input_vocabulary.pad_id, dtype=self.dtype
        )
        decoder_targets, decoder_mask = _pad_and_mask(
            target_ids, self.output_vocabulary.pad_id, dtype=self.dtype
        )
        # input rows mirror target rows one-for-one in length, so they pad to
        # the same width and share the targets' mask
        decoder_inputs, _ = _pad_and_mask(input_ids, self.output_vocabulary.pad_id, dtype=self.dtype)
        return Batch(encoder_matrix, encoder_mask, decoder_inputs, decoder_targets, decoder_mask)

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _forward_turbo(self, batch: Batch) -> _TurboForwardCache:
        """The fused teacher-forced forward pass (TRAIN-TURBO).

        The decoder recurrence never consumes the attention context under
        teacher forcing, so the whole decoder LSTM runs first (with its
        input-side gate matmul hoisted, like the encoder's), then attention
        for *all* decoder timesteps runs as one fused call.  Produces the
        same concatenated states and logits as the step-wise oracle
        ``_forward_reference`` to allclose(rtol=1e-9).
        """
        encoder_embedded = self.encoder_embedding.forward(batch.encoder_ids)
        encoder_outputs, final_h, final_c, encoder_cache = self.encoder.forward_fused(
            encoder_embedded, mask=batch.encoder_mask
        )
        decoder_embedded = self.decoder_embedding.forward(batch.decoder_inputs)
        decoder_outputs, _, _, decoder_cache = self.decoder.forward_fused(
            decoder_embedded, h0=final_h, c0=final_c
        )
        contexts, _, attention_cache = self.attention.forward_fused(
            decoder_outputs, encoder_outputs, mask=batch.encoder_mask
        )
        concatenated = np.concatenate([decoder_outputs, contexts], axis=2)
        return _TurboForwardCache(
            encoder_cache=encoder_cache,
            decoder_cache=decoder_cache,
            attention_cache=attention_cache,
            concatenated=concatenated,
            logits=self.output_layer.forward(concatenated),
        )

    def _backward_turbo(
        self, batch: Batch, cache: _TurboForwardCache, grad_logits: np.ndarray
    ) -> None:
        """Backward for the fused path: three sequence-level backward calls
        (output layer → fused attention → fused decoder → fused encoder)
        instead of two per-timestep loops."""
        hidden = self.config.hidden_dim
        grad_concat = self.output_layer.backward(cache.concatenated, grad_logits)
        grad_contexts = grad_concat[:, :, hidden:]
        grad_h_attention, grad_encoder_outputs = self.attention.backward_fused(
            cache.attention_cache, grad_contexts
        )
        grad_decoder_inputs, grad_h0, grad_c0 = self.decoder.backward_fused(
            cache.decoder_cache, grad_concat[:, :, :hidden] + grad_h_attention
        )
        self.decoder_embedding.backward(batch.decoder_inputs, grad_decoder_inputs)
        grad_encoder_inputs, _, _ = self.encoder.backward_fused(
            cache.encoder_cache,
            grad_encoder_outputs,
            grad_h_final=grad_h0,
            grad_c_final=grad_c0,
        )
        self.encoder_embedding.backward(batch.encoder_ids, grad_encoder_inputs)

    def evaluate_batch(self, batch: Batch) -> tuple[float, float]:
        """Loss and sparse-categorical accuracy on one batch (no gradient update)."""
        cache = self._forward_turbo(batch)
        loss, _ = cross_entropy_from_logits(cache.logits, batch.decoder_targets, batch.decoder_mask)
        accuracy = _masked_accuracy(cache.logits, batch.decoder_targets, batch.decoder_mask)
        return loss, accuracy

    def train_batch(self, batch: Batch) -> tuple[float, float]:
        """One teacher-forced SGD update; returns (loss, accuracy)."""
        if self.config.quantize != "none":
            raise ModelConfigError(
                "cannot train while quantized inference replicas are attached; "
                "call dequantize() first"
            )
        cache = self._forward_turbo(batch)
        loss, grad_logits = cross_entropy_from_logits(
            cache.logits, batch.decoder_targets, batch.decoder_mask
        )
        accuracy = _masked_accuracy(cache.logits, batch.decoder_targets, batch.decoder_mask)
        self.optimizer.zero_grad()
        self._backward_turbo(batch, cache, grad_logits)
        self.optimizer.step()
        return loss, accuracy

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    @property
    def _infer_dtype(self) -> np.dtype:
        """The dtype inference activations compute in — the model dtype
        normally, float32 when quantized replicas are attached."""
        return self.encoder.weight_x.infer_value.dtype

    def _encode_ids(self, source_tokens: list[str]) -> list[int]:
        """Vocabulary-encode one act signature for inference.

        An empty act (which degenerate plan steps can legitimately yield)
        encodes to a single ``<UNK>`` so the encoder always sees at least
        one timestep instead of a zero-width sequence; whitespace-only
        tokens already fall back to ``<UNK>`` inside the vocabulary.
        """
        ids = self.input_vocabulary.encode(source_tokens)
        return ids or [self.input_vocabulary.unk_id]

    def _encode_batch(self, sources: list[list[str]]):
        """Pad and encode many acts in one encoder forward.

        Returns (encoder outputs (N, T, H), precomputed attention projection
        (N, T, A), mask (N, T), final h (N, H), final c (N, H)).  Post-padding
        plus the LSTM step mask means the final states are identical to those
        of each act encoded alone.
        """
        ids_list = [self._encode_ids(tokens) for tokens in sources]
        ids, mask = _pad_and_mask(ids_list, self.input_vocabulary.pad_id, dtype=self._infer_dtype)
        embedded = self.encoder_embedding.lookup(ids)
        outputs, final_h, final_c = self.encoder.forward_infer(embedded, mask=mask)
        return outputs, self.attention.project_encoder_infer(outputs), mask, final_h, final_c

    def beam_decode_batch(
        self,
        sources: list[list[str]],
        beam_size: Optional[int] = None,
        feed: Optional[DecodeFeed] = None,
    ) -> list[list[list[str]]]:
        """Decode many acts at once; returns one ranked candidate list per act.

        All acts are padded and encoded in a single encoder forward, then
        every live beam of every act advances as one row of a fused (M, H)
        decoder step — M shrinks as beams finish and acts complete.  Output
        is token-for-token identical to the unbatched reference decoder
        (the test oracle ``beam_decode_candidates_sequential``) per act.

        With ``feed`` the search is joinable.  After every step it calls
        ``feed(retired)`` with the ``(index, candidates)`` of the acts that
        finished at that step, and the feed answers with more acts to join
        before the next step (an empty list when none arrived).  Acts are
        indexed in the order they entered: ``sources`` first, then each
        joined list in turn.  Every act counts its own steps against
        ``max_decode_length`` and leaves as soon as its beams finish, so a
        joiner decodes exactly as it would alone.  The search ends once no
        act is live and the feed has nothing to add; with a feed every
        result goes through it and the call returns an empty list.
        """
        search = _BeamSearch(self, beam_size or self.config.beam_size)
        results: list[list[list[str]]] = [[] for _ in sources] if feed is None else []
        pending = sources
        while True:
            retired = search.join(pending) if pending else []
            if search.live:
                retired += search.step()
            if feed is None:
                for index, candidates in retired:
                    results[index] = candidates
                if not search.live:
                    return results
                pending = []
                continue
            pending = feed(retired)
            if pending:
                self._decode_counters["joins"] += len(pending)
            elif not search.live:
                return results

    def decode_stats(self) -> dict[str, int]:
        """Decoder work since construction: fused steps taken, beam rows
        they carried, and acts that joined a search already under way."""
        return dict(self._decode_counters)

#: the joinable-search callback of :meth:`QEP2Seq.beam_decode_batch`: takes
#: the ``(index, candidates)`` retired at a step, returns the acts to join
DecodeFeed = Callable[[list[tuple[int, list[list[str]]]]], list[list[str]]]

_BY_NORMALIZED_SCORE = itemgetter(0)


class _ActBeams:
    """One act's place in a :class:`_BeamSearch`.

    ``beams`` holds ``(normalized score, score, token ids, state row,
    finished)`` tuples, best first.  The leading element is score / max(len
    - 1, 1), the exact float the sequential reference decoder sorts on, so
    ranking sorts on a C-level itemgetter and ties break identically (both
    sorts are stable).  The state row indexes the (h, c) matrices of the
    search's last step, so one gather rebuilds the next step's state.
    """

    __slots__ = ("index", "row", "length", "steps", "beams")

    def __init__(self, index: int, row: int, length: int, beams: list[tuple]) -> None:
        self.index = index
        self.row = row
        self.length = length
        self.steps = 0
        self.beams = beams


class _BeamSearch:
    """The state of one joinable beam search (see
    :meth:`QEP2Seq.beam_decode_batch`): the live acts, their encoder rows
    padded to one width, and the decoder state of the last step."""

    def __init__(self, model: QEP2Seq, beam_size: int) -> None:
        self.model = model
        self.beam_size = beam_size
        self.max_steps = model.config.max_decode_length
        self.end_id = model.output_vocabulary.end_id
        self.live: list[_ActBeams] = []
        self._entered = 0
        self._outputs = self._projected = self._mask = None
        self._state_h = self._state_c = None
        # encoder-side gathers are reused while the set of live rows is
        # stable (it only changes when beams fork or finish, or acts join),
        # so the fancy indexing is not repeated on every step
        self._gathered_key: Optional[tuple[int, ...]] = None
        self._gathered: tuple = ()

    def join(self, sources: list[list[str]]) -> list[tuple[int, list[list[str]]]]:
        """Encode ``sources`` and add them to the search before its next
        step.  The running acts' encoder rows are compacted to the live ones
        and padded, with the joiners', to the longest live act; padded
        positions are masked, so attention weighs them exactly 0."""
        outputs, projected, mask, h0, c0 = self.model._encode_batch(sources)
        lengths = np.count_nonzero(mask, axis=1).tolist()
        kept = len(self.live)
        if kept:
            width = max(max(act.length for act in self.live), outputs.shape[1])
            rows = [act.row for act in self.live]
            outputs = self._pad_rows(self._outputs, rows, outputs, width)
            projected = self._pad_rows(self._projected, rows, projected, width)
            mask = self._pad_rows(self._mask, rows, mask, width)
            states = self._state_h.shape[0]
            self._state_h = np.concatenate([self._state_h, h0])
            self._state_c = np.concatenate([self._state_c, c0])
            for row, act in enumerate(self.live):
                act.row = row
        else:
            states = 0
            self._state_h, self._state_c = h0, c0
        self._outputs, self._projected, self._mask = outputs, projected, mask
        self._gathered_key = None
        bos = [self.model.output_vocabulary.bos_id]
        joined = [
            _ActBeams(self._entered + n, kept + n, length, [(0.0, 0.0, bos, states + n, False)])
            for n, length in enumerate(lengths)
        ]
        self._entered += len(sources)
        if self.max_steps <= 0:
            return [(act.index, self._ranked(act)) for act in joined]
        self.live.extend(joined)
        return []

    @staticmethod
    def _pad_rows(
        running: np.ndarray, rows: list[int], joining: np.ndarray, width: int
    ) -> np.ndarray:
        """``running[rows]`` stacked over ``joining``, both zero-padded (or
        cut) to ``width`` positions along axis 1."""
        kept = len(rows)
        cut = min(width, running.shape[1])
        merged = np.zeros((kept + joining.shape[0], width) + joining.shape[2:], dtype=joining.dtype)
        merged[:kept, :cut] = running[rows, :cut]
        merged[kept:, : joining.shape[1]] = joining
        return merged

    def step(self) -> list[tuple[int, list[list[str]]]]:
        """Advance every live beam of every live act by one token; returns
        the ``(index, candidates)`` of the acts that finished."""
        model = self.model
        state_rows: list[int] = []
        last_ids: list[int] = []
        encoder_rows: list[int] = []
        for act in self.live:
            for beam in act.beams:
                if not beam[4]:
                    state_rows.append(beam[3])
                    last_ids.append(beam[2][-1])
                    encoder_rows.append(act.row)
        key = tuple(encoder_rows)
        if key != self._gathered_key:
            self._gathered = (
                self._outputs[encoder_rows],
                self._projected[encoder_rows],
                self._mask[encoder_rows],
            )
            self._gathered_key = key
        outputs, projected, mask = self._gathered
        embedded = model.decoder_embedding.lookup(np.array(last_ids, dtype=np.int64))
        state_index = np.array(state_rows)
        new_h, new_c = model.decoder.step_infer(
            embedded, self._state_h[state_index], self._state_c[state_index]
        )
        context = model.attention.step_context(new_h, outputs, projected, mask=mask)
        logits = model.output_layer.forward_infer(np.concatenate([new_h, context], axis=1))
        maxima = logits.max(axis=1, keepdims=True)
        log_probabilities = logits - (
            maxima + np.log(np.exp(logits - maxima).sum(axis=1, keepdims=True))
        )
        # top-k for ALL live rows in one vectorized call, then one bulk
        # tolist() — per-row numpy calls and scalar float() extractions
        # dominated decode time for small models
        top_ids, top_scores = _top_k_ascending_rows(log_probabilities, self.beam_size)
        self._state_h, self._state_c = new_h, new_c
        counters = model._decode_counters
        counters["steps"] += 1
        counters["rows"] += len(state_rows)
        beam_size = self.beam_size
        end_id = self.end_id
        retired: list[tuple[int, list[list[str]]]] = []
        still_live: list[_ActBeams] = []
        m = 0
        for act in self.live:
            candidates: list[tuple] = []
            for beam in act.beams:
                if beam[4]:
                    candidates.append(beam)
                    continue
                _, score, tokens, _, _ = beam
                length = max(len(tokens), 1)
                for token_id, token_score in zip(top_ids[m], top_scores[m]):
                    new_score = score + token_score
                    candidates.append(
                        (new_score / length, new_score, tokens + [token_id], m, token_id == end_id)
                    )
                m += 1
            candidates.sort(key=_BY_NORMALIZED_SCORE, reverse=True)
            act.beams = candidates[:beam_size]
            act.steps += 1
            if act.steps >= self.max_steps or all(beam[4] for beam in act.beams):
                retired.append((act.index, self._ranked(act)))
            else:
                still_live.append(act)
        self.live = still_live
        return retired

    def _ranked(self, act: _ActBeams) -> list[list[str]]:
        """The act's candidates, best first, with empty decodes dropped."""
        ranked = sorted(act.beams, key=_BY_NORMALIZED_SCORE, reverse=True)
        decoded = [self.model.output_vocabulary.decode(beam[2]) for beam in ranked]
        return [tokens for tokens in decoded if tokens] or [decoded[0] if decoded else []]


def _pad_and_mask(
    rows: list[list[int]], pad_id: int, dtype: np.dtype | type = np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Pad id rows to the longest row; returns (ids (B, T), mask (B, T)).

    The single padding/mask implementation shared by training batches
    (:meth:`QEP2Seq.make_batch`) and batched inference encoding
    (:meth:`QEP2Seq._encode_batch`), so the two can never drift apart.
    The mask is created in the model's dtype so float32 models never
    upcast through mask arithmetic.
    """
    length = max(len(row) for row in rows)
    ids = np.full((len(rows), length), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), length), dtype=dtype)
    for index, row in enumerate(rows):
        ids[index, : len(row)] = row
        mask[index, : len(row)] = 1.0
    return ids, mask


def _masked_accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """sparse_categorical_accuracy over unmasked positions."""
    predictions = logits.argmax(axis=-1)
    correct = (predictions == targets).astype(np.float64) * mask
    total = max(mask.sum(), 1.0)
    return float(correct.sum() / total)


def _top_k_ascending_rows(
    values: np.ndarray, k: int
) -> tuple[list[list[int]], list[list[float]]]:
    """Per-row top-k of a (M, V) matrix, each row ascending by value.

    Row for row the ``np.argsort(row)[-k:]`` selection of the unbatched
    reference decoder, but O(V) per row via ``argpartition`` plus an
    O(k log k) sort of the selected slice (both operate on each row
    independently).  All M rows go through one vectorized call, and
    indices/values come back as plain Python lists in one bulk conversion —
    the batched beam search consumes them element-wise in Python anyway.
    """
    rows = np.arange(values.shape[0])[:, None]
    if k >= values.shape[1]:
        top = np.argsort(values, axis=1)
        return top.tolist(), values[rows, top].tolist()
    part = np.argpartition(values, -k, axis=1)[:, -k:]
    part_values = values[rows, part]
    order = np.argsort(part_values, axis=1)
    return part[rows, order].tolist(), part_values[rows, order].tolist()
