"""Tests for the NumPy neural substrate, including numerical gradient checks."""

import numpy as np
import pytest

from oracles import attention as attention_oracle
from oracles import lstm as lstm_oracle
from repro.errors import ModelConfigError
from repro.nlg.nn.attention import AdditiveAttention
from repro.nlg.nn.functional import one_hot, sigmoid, softmax
from repro.nlg.nn.layers import Dense, Embedding
from repro.nlg.nn.losses import cross_entropy_from_logits
from repro.nlg.nn.lstm import LSTM
from repro.nlg.nn.optimizers import SGD, Adam


class TestFunctional:
    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_softmax_sums_to_one_and_is_stable(self):
        logits = np.array([[1000.0, 1000.0, 999.0], [0.0, 1.0, 2.0]])
        probabilities = softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert not np.any(np.isnan(probabilities))

    def test_one_hot(self):
        encoded = one_hot(np.array([[0, 2]]), 3)
        assert encoded.shape == (1, 2, 3)
        assert encoded[0, 1, 2] == 1.0 and encoded[0, 1].sum() == 1.0


class TestLayers:
    def test_dense_forward_backward_shapes(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        y = layer.forward(x)
        assert y.shape == (5, 3)
        grad_x = layer.backward(x, np.ones_like(y))
        assert grad_x.shape == x.shape
        assert layer.weight.grad.shape == (4, 3)

    def test_embedding_lookup_and_grad_accumulation(self):
        rng = np.random.default_rng(0)
        layer = Embedding(10, 4, rng)
        ids = np.array([[1, 1, 2]])
        out = layer.forward(ids)
        assert out.shape == (1, 3, 4)
        layer.backward(ids, np.ones_like(out))
        assert np.allclose(layer.table.grad[1], 2.0)
        assert np.allclose(layer.table.grad[2], 1.0)
        assert np.allclose(layer.table.grad[3], 0.0)

    def test_embedding_pretrained_shape_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelConfigError):
            Embedding(10, 4, rng, pretrained=np.zeros((9, 4)))

    def test_frozen_embedding_accumulates_no_grad(self):
        rng = np.random.default_rng(0)
        layer = Embedding(5, 2, rng, trainable=False)
        layer.backward(np.array([[0]]), np.ones((1, 1, 2)))
        assert not layer.parameters()


class TestLoss:
    def test_cross_entropy_perfect_prediction_is_low(self):
        logits = np.full((1, 2, 3), -10.0)
        logits[0, 0, 1] = 10.0
        logits[0, 1, 2] = 10.0
        loss, grad = cross_entropy_from_logits(logits, np.array([[1, 2]]))
        assert loss < 1e-6
        assert grad.shape == logits.shape

    def test_masked_positions_do_not_contribute(self):
        logits = np.random.default_rng(0).normal(size=(1, 3, 4))
        targets = np.array([[1, 2, 3]])
        full_loss, _ = cross_entropy_from_logits(logits, targets)
        masked_loss, grad = cross_entropy_from_logits(logits, targets, np.array([[1.0, 1.0, 0.0]]))
        assert masked_loss != pytest.approx(full_loss)
        assert np.allclose(grad[0, 2], 0.0)


class TestOptimizers:
    def test_sgd_moves_against_gradient(self):
        from repro.nlg.nn.layers import Parameter

        parameter = Parameter(np.array([1.0, -1.0]))
        parameter.grad = np.array([0.5, -0.5])
        SGD([parameter], learning_rate=0.1, clip_norm=None).step()
        assert np.allclose(parameter.value, [0.95, -0.95])

    def test_sgd_clips_large_gradients(self):
        from repro.nlg.nn.layers import Parameter

        parameter = Parameter(np.zeros(2))
        parameter.grad = np.array([300.0, 400.0])
        SGD([parameter], learning_rate=1.0, clip_norm=5.0).step()
        assert np.linalg.norm(parameter.value) == pytest.approx(5.0)

    def test_adam_converges_on_quadratic(self):
        from repro.nlg.nn.layers import Parameter

        parameter = Parameter(np.array([5.0]))
        optimizer = Adam([parameter], learning_rate=0.2)
        for _ in range(200):
            parameter.grad = 2 * parameter.value
            optimizer.step()
        assert abs(parameter.value[0]) < 0.05


class TestLstmGradients:
    """Finite-difference checks of the step-wise LSTM oracle, the ground
    truth ``tests/test_nlg_train_turbo.py`` holds the fused path to."""

    def test_lstm_forward_shapes_and_mask_passthrough(self):
        rng = np.random.default_rng(1)
        lstm = LSTM(3, 5, rng)
        inputs = rng.normal(size=(2, 4, 3))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=float)
        outputs, final_h, final_c, caches = lstm_oracle.forward(lstm, inputs, mask=mask)
        assert outputs.shape == (2, 4, 5)
        # masked steps keep the previous hidden state
        assert np.allclose(outputs[1, 1], outputs[1, 3])
        assert len(caches) == 4
        assert final_h.shape == (2, 5) and final_c.shape == (2, 5)

    def test_lstm_numerical_gradient_check(self):
        rng = np.random.default_rng(2)
        lstm = LSTM(2, 3, rng)
        inputs = rng.normal(size=(1, 3, 2))

        def loss_for(weight_value):
            original = lstm.weight_x.value.copy()
            lstm.weight_x.value = weight_value
            outputs, _, _, _ = lstm_oracle.forward(lstm, inputs)
            lstm.weight_x.value = original
            return float(np.sum(outputs ** 2))

        outputs, _, _, caches = lstm_oracle.forward(lstm, inputs)
        for parameter in lstm.parameters():
            parameter.zero_grad()
        lstm_oracle.backward(lstm, caches, 2 * outputs)
        analytic = lstm.weight_x.grad.copy()

        epsilon = 1e-5
        index = (0, 1)
        perturbed = lstm.weight_x.value.copy()
        perturbed[index] += epsilon
        plus = loss_for(perturbed)
        perturbed[index] -= 2 * epsilon
        minus = loss_for(perturbed)
        numeric = (plus - minus) / (2 * epsilon)
        assert analytic[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_lstm_backward_input_gradient_check(self):
        rng = np.random.default_rng(3)
        lstm = LSTM(2, 3, rng)
        inputs = rng.normal(size=(1, 2, 2))
        outputs, _, _, caches = lstm_oracle.forward(lstm, inputs)
        grad_inputs, _, _ = lstm_oracle.backward(lstm, caches, 2 * outputs)

        epsilon = 1e-5
        perturbed = inputs.copy()
        perturbed[0, 0, 1] += epsilon
        plus = float(np.sum(lstm_oracle.forward(lstm, perturbed)[0] ** 2))
        perturbed[0, 0, 1] -= 2 * epsilon
        minus = float(np.sum(lstm_oracle.forward(lstm, perturbed)[0] ** 2))
        numeric = (plus - minus) / (2 * epsilon)
        assert grad_inputs[0, 0, 1] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_recurrent_connection_count(self):
        rng = np.random.default_rng(4)
        lstm = LSTM(16, 256, rng)
        # 4H(D + H + 1): the quantity the paper reports per component in Table 3
        assert lstm.recurrent_connection_count == 4 * 256 * (16 + 256 + 1)


class TestAttentionGradients:
    """Finite-difference checks of the per-step attention oracle."""

    def test_attention_weights_sum_to_one_and_respect_mask(self):
        rng = np.random.default_rng(5)
        attention = AdditiveAttention(4, 4, 3, rng)
        decoder_state = rng.normal(size=(2, 4))
        encoder_states = rng.normal(size=(2, 5, 4))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        context, weights, _ = attention_oracle.forward(attention, decoder_state, encoder_states, mask)
        assert context.shape == (2, 4)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.allclose(weights[0, 3:], 0.0)

    def test_attention_numerical_gradient_check(self):
        rng = np.random.default_rng(6)
        attention = AdditiveAttention(3, 3, 2, rng)
        decoder_state = rng.normal(size=(1, 3))
        encoder_states = rng.normal(size=(1, 4, 3))

        def loss(state):
            context, _, _ = attention_oracle.forward(attention, state, encoder_states)
            return float(np.sum(context ** 2))

        context, _, cache = attention_oracle.forward(attention, decoder_state, encoder_states)
        grad_decoder, _ = attention_oracle.backward(attention, cache, 2 * context)

        epsilon = 1e-6
        perturbed = decoder_state.copy()
        perturbed[0, 1] += epsilon
        plus = loss(perturbed)
        perturbed[0, 1] -= 2 * epsilon
        minus = loss(perturbed)
        numeric = (plus - minus) / (2 * epsilon)
        assert grad_decoder[0, 1] == pytest.approx(numeric, rel=1e-3, abs=1e-7)
