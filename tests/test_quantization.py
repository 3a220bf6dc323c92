"""LANTERN-ZERO quantized inference: the parity contract and its edge cases.

Quantization is an opt-in *inference* optimization: int8 (per-row absmax)
or float16 replicas are attached next to the float64 master weights, the
decode cache keys on the precision tag, and training is refused until the
replicas are dropped.  The load-bearing contract (ISSUE 6): against the
float64 reference on the dblp workload, top-1 token agreement >= 0.98 and
corpus-BLEU delta <= 0.5 points — reduced precision may change wording
only within that envelope (on the test model it changes nothing at all).
"""

import numpy as np
import pytest

from oracles.neural import cached_candidates
from oracles.seq2seq import beam_decode_candidates_sequential
from repro.errors import ModelConfigError
from repro.nlg.metrics import corpus_bleu
from repro.nlg.nn.quant import infer_replica, quantize_int8_rowwise, validate_quantize_mode

#: the ISSUE 6 acceptance thresholds
MIN_TOKEN_AGREEMENT = 0.98
MAX_BLEU_DELTA_POINTS = 0.5


@pytest.fixture(scope="module")
def parity_samples(trained_neural):
    samples = (
        trained_neural.dataset.validation_samples[:40]
        + trained_neural.dataset.train_samples[:20]
    )
    return samples


def _token_agreement(reference: list[list[str]], candidate: list[list[str]]) -> float:
    agreeing = total = 0
    for ref, cand in zip(reference, candidate):
        length = max(len(ref), len(cand))
        total += length
        agreeing += sum(1 for a, b in zip(ref, cand) if a == b)
    return agreeing / total if total else 1.0


class TestQuantPrimitives:
    def test_validate_quantize_mode(self):
        for mode in ("none", "int8", "float16"):
            validate_quantize_mode(mode)
        with pytest.raises(ModelConfigError, match="quantize"):
            validate_quantize_mode("int4")

    def test_int8_rowwise_reconstruction_error_bounded(self):
        rng = np.random.default_rng(5)
        value = rng.normal(scale=0.4, size=(37, 53))
        codes, scales = quantize_int8_rowwise(value)
        assert codes.dtype == np.int8
        replica = codes.astype(np.float32) * scales.astype(np.float32)
        # per-row absmax grid: error is at most half a quantization step
        steps = np.abs(value).max(axis=1, keepdims=True) / 127.0
        assert np.all(np.abs(replica - value) <= steps * 0.5 + 1e-7)

    def test_int8_zero_row_does_not_divide_by_zero(self):
        value = np.zeros((3, 8))
        value[1] = np.linspace(-1, 1, 8)
        codes, scales = quantize_int8_rowwise(value)
        assert np.all(np.isfinite(scales))
        assert np.all(codes[0] == 0) and np.all(codes[2] == 0)

    def test_replica_dtypes(self):
        value = np.random.default_rng(0).normal(size=(4, 6))
        assert infer_replica(value, "float16").dtype == np.float32  # f16 grid, f32 math
        assert infer_replica(value, "int8").dtype == np.float32
        assert infer_replica(value[0], "int8").dtype == np.float32  # 1-D stays plain
        with pytest.raises(ModelConfigError):
            infer_replica(value, "none")


class TestParityContract:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    def test_token_agreement_and_bleu_delta(self, trained_neural, parity_samples, mode):
        model = trained_neural.model
        sources = [s.source_tokens for s in parity_samples]
        references = [s.target_tokens for s in parity_samples]
        baseline = model.beam_decode_batch(sources, beam_size=2)
        model.quantize(mode)
        try:
            assert model.precision == f"float64:{mode}"
            quantized = model.beam_decode_batch(sources, beam_size=2)
        finally:
            model.dequantize()
        assert model.precision == "float64:none"

        agreement = _token_agreement(
            [c[0] for c in baseline], [c[0] for c in quantized]
        )
        assert agreement >= MIN_TOKEN_AGREEMENT
        bleu_full = corpus_bleu([c[0] for c in baseline], references)
        bleu_quant = corpus_bleu([c[0] for c in quantized], references)
        assert abs(bleu_full - bleu_quant) <= MAX_BLEU_DELTA_POINTS

    def test_batched_matches_sequential_under_int8(self, trained_neural, parity_samples):
        """The fused-beam parity guarantee must also hold on the reduced
        grid — including how beam ties resolve (both paths rank with the
        same stable sort over the same float32 scores)."""
        model = trained_neural.model
        sources = [s.source_tokens for s in parity_samples[:20]]
        model.quantize("int8")
        try:
            batched = model.beam_decode_batch(sources, beam_size=2)
            sequential = [
                beam_decode_candidates_sequential(model, source, beam_size=2)
                for source in sources
            ]
            assert batched == sequential
            # decoding is deterministic: re-running yields the exact ranking
            assert model.beam_decode_batch(sources, beam_size=2) == batched
        finally:
            model.dequantize()

    def test_dequantize_restores_exact_float64_path(self, trained_neural, parity_samples):
        model = trained_neural.model
        sources = [s.source_tokens for s in parity_samples[:10]]
        baseline = model.beam_decode_batch(sources, beam_size=2)
        model.quantize("int8")
        model.quantize("float16")  # re-quantizing switches replicas in place
        model.dequantize()
        assert model.beam_decode_batch(sources, beam_size=2) == baseline
        assert all(p.infer_value is p.value for p in model.parameters())


class TestQuantizedLifecycle:
    def test_training_refused_while_quantized(self, trained_neural):
        model = trained_neural.model
        samples = trained_neural.dataset.train_samples[:4]
        batch = model.make_batch(
            [s.source_tokens for s in samples], [s.target_tokens for s in samples]
        )
        model.quantize("int8")
        try:
            with pytest.raises(ModelConfigError, match="dequantize"):
                model.train_batch(batch)
        finally:
            model.dequantize()
        # and after dequantizing, the training forward works again
        # (evaluate_batch shares train_batch's forward without mutating the
        # session-scoped fixture's weights)
        loss, accuracy = model.evaluate_batch(batch)
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0

    def test_quantized_checkpoint_round_trip(self, trained_neural, tmp_path):
        """A quantized model saves its ORIGINAL weights plus the quantize
        mode; loading re-quantizes deterministically, so decodes match."""
        import json

        from repro.nlg.persistence import MANIFEST_FILE, load_qep2seq, save_qep2seq

        model = trained_neural.model
        sources = [s.source_tokens for s in trained_neural.dataset.samples[:6]]
        model.quantize("int8")
        try:
            expected = model.beam_decode_batch(sources, beam_size=2)
            target = save_qep2seq(model, tmp_path / "int8")
        finally:
            model.dequantize()

        manifest = json.loads((target / MANIFEST_FILE).read_text())
        assert manifest["model"]["config"]["quantize"] == "int8"

        loaded = load_qep2seq(target)
        assert loaded.config.quantize == "int8"
        assert loaded.precision == "float64:int8"
        assert loaded.beam_decode_batch(sources, beam_size=2) == expected
        # the master weights survived at full precision
        originals = {p.name: p.value for p in model.parameters()}
        for parameter in loaded.parameters():
            np.testing.assert_array_equal(parameter.value, originals[parameter.name])

    def test_decode_cache_keys_on_precision(self, trained_neural):
        """Toggling quantization must never serve candidates decoded under
        the other numeric grid (satellite 1: dtype+quantize in the key)."""
        from repro.nlg.cache import make_key
        from repro.nlg.neural_lantern import NeuralLantern

        neural = NeuralLantern(trained_neural.model, beam_size=2)
        source = trained_neural.dataset.samples[0].source_tokens
        cached_candidates(neural, source, 2)
        [full_key] = [key for key, _ in neural.decode_cache.export_entries()]
        assert full_key == make_key(source, 2, "float64:none")

        neural.model.quantize("int8")
        try:
            cached_candidates(neural, source, 2)
            keys = {key for key, _ in neural.decode_cache.export_entries()}
        finally:
            neural.model.dequantize()
        assert make_key(source, 2, "float64:int8") in keys
        assert len(keys) == 2  # distinct entries per precision


class TestQuantizedEdgeCases:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    def test_oov_tokens_decode(self, trained_neural, mode):
        model = trained_neural.model
        oov = ["positronic", "flux", "capacitor", "scan"]
        model.quantize(mode)
        try:
            batched = model.beam_decode_batch([oov], beam_size=2)
            sequential = beam_decode_candidates_sequential(model, oov, beam_size=2)
        finally:
            model.dequantize()
        assert batched[0] == sequential
        assert all(candidate for candidate in sequential)

    @pytest.mark.parametrize("source", [[], ["  "], ["", " "]])
    def test_empty_and_whitespace_acts(self, trained_neural, source):
        """Degenerate act serializations must decode (as pure-UNK input),
        not crash — quantized or not, batched or not."""
        model = trained_neural.model
        plain = model.beam_decode_batch([source], beam_size=2)[0]
        assert plain and all(plain)
        model.quantize("int8")
        try:
            quantized = model.beam_decode_batch([source], beam_size=2)[0]
            assert quantized == beam_decode_candidates_sequential(model, source, beam_size=2)
        finally:
            model.dequantize()
        assert quantized and all(quantized)

    def test_generation_through_facade_while_quantized(self, trained_neural, dblp_db):
        """End to end: a quantized NeuralLantern narrates real plans with
        non-empty, tag-restored text."""
        from repro.core import Lantern, LanternConfig
        from repro.nlg.neural_lantern import NeuralLantern

        lantern = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        tree = lantern.plan_for_sql(dblp_db, sql)
        trained_neural.model.quantize("int8")
        try:
            narration = lantern.describe_plan(tree, mode="neural")
        finally:
            trained_neural.model.dequantize()
        assert narration.text.strip().endswith(".")
        assert "<" not in narration.text  # all tags restored or filled
