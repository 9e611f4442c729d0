import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from helpers import load_with_tensor_shape
from spamforest.errors import ModelIntegrityError, ShapeError
from spamforest.numerics import Layer, Rng, sigmoid_chain
from spamforest.training import (AutoencoderParams, TrainConfig, _loss_terms,
                                 init_model, joint_loss, predict)


def _sigma(z):
    return 1.0 / (1.0 + math.exp(-z))


# The model's forward pass runs each stack through sigmoid_chain; these are
# its encoder and decoder halves.
def encode(x, params):
    return sigmoid_chain(x, params.encoder)[-1]


def decode(h, params):
    return sigmoid_chain(h, params.decoder)[-1]


def reconstruction_loss(x_in, x_rec):
    """The production joint loss with one tree certain of the true class,
    which leaves only the reconstruction term, mean over samples."""
    x_in = np.atleast_2d(np.asarray(x_in, dtype=np.float64))
    x_rec = np.atleast_2d(np.asarray(x_rec, dtype=np.float64))
    certain = np.tile([1.0, 0.0], (1, x_in.shape[0], 1))
    return _loss_terms(x_in, np.zeros(x_in.shape[0], dtype=np.int64), x_rec,
                       certain)


def single_layer_params(W_e, b_e, W_d, b_d):
    return AutoencoderParams([Layer(W_e, b_e)], [Layer(W_d, b_d)])


class TestEncode:
    def test_zero_weights_give_half(self):
        params = single_layer_params(np.zeros((3, 2)), np.zeros(3),
                                     np.zeros((2, 3)), np.zeros(2))
        npt.assert_array_equal(encode([5.0, -9.0], params), [0.5, 0.5, 0.5])

    def test_identity_weights_elementwise_sigmoid(self):
        params = single_layer_params(np.eye(2), np.zeros(2),
                                     np.eye(2), np.zeros(2))
        npt.assert_allclose(encode([0.0, math.log(3)], params), [0.5, 0.75],
                            atol=1e-15)

    def test_two_layer_hand_chain(self):
        # Oracle: chain sigma(affine) by hand with math.exp.
        W1, b1 = np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.1, -0.2])
        W2, b2 = np.array([[2.0, 0.0], [-1.0, 1.0]]), np.array([0.0, 0.3])
        params = AutoencoderParams(
            [Layer(W1, b1), Layer(W2, b2)],
            [Layer(np.zeros((2, 2)), np.zeros(2))],
        )
        x = [1.0, 0.0]
        a1 = [_sigma(1.0 * 1 + -1.0 * 0 + 0.1), _sigma(0.5 * 1 + 2.0 * 0 - 0.2)]
        expected = [_sigma(2.0 * a1[0] + 0.0 * a1[1] + 0.0),
                    _sigma(-1.0 * a1[0] + 1.0 * a1[1] + 0.3)]
        npt.assert_allclose(encode(x, params), expected, atol=1e-15)

    def test_outputs_in_unit_interval(self, rng):
        params = AutoencoderParams(
            [Layer(rng.normal((4, 6)), rng.normal((4,)))],
            [Layer(rng.normal((6, 4)), rng.normal((6,)))],
        )
        h = encode(rng.normal((10, 6)), params)
        assert np.all((h > 0) & (h < 1))

    def test_shape_mismatch(self):
        # A batch of another width is refused where it enters the model.
        model = init_model(TrainConfig(n_tree=1, n_depth=1, seed=0), 2, Rng(0))
        with pytest.raises(ShapeError, match=r"\(rows, 2\), got shape \(1, 3\)"):
            predict(model, [[1.0, 2.0, 3.0]])


class TestDecode:
    def test_zero_weights_give_half(self):
        params = single_layer_params(np.zeros((2, 3)), np.zeros(2),
                                     np.zeros((3, 2)), np.zeros(3))
        npt.assert_array_equal(decode([0.9, 0.1], params), [0.5, 0.5, 0.5])

    def test_roundtrip_shape(self, rng):
        params = AutoencoderParams(
            [Layer(rng.normal((3, 5)), rng.normal((3,)))],
            [Layer(rng.normal((5, 3)), rng.normal((5,)))],
        )
        x = rng.normal((5,))
        assert decode(encode(x, params), params).shape == (5,)

    def test_single_layer_matches_sigma_affine(self):
        W, b = np.array([[0.3, -0.7], [1.1, 0.2], [0.0, 0.5]]), np.array([0.1, 0.0, -0.4])
        params = AutoencoderParams(
            [Layer(np.zeros((2, 3)), np.zeros(2))], [Layer(W, b)])
        h = [0.25, 0.8]
        expected = [_sigma(W[i] @ h + b[i]) for i in range(3)]
        npt.assert_allclose(decode(h, params), expected, atol=1e-15)


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        assert reconstruction_loss([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_unit_differences(self):
        assert reconstruction_loss([1.0, 1.0], [0.0, 0.0]) == 2.0

    def test_batch_mean(self):
        # per-sample losses 1 and 4 -> mean 2.5
        x_in = np.array([[1.0, 0.0], [0.0, 0.0]])
        x_rec = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert reconstruction_loss(x_in, x_rec) == 2.5

    def test_symmetric(self, rng):
        a, b = rng.normal((6,)), rng.normal((6,))
        assert reconstruction_loss(a, b) == reconstruction_loss(b, a)

    def test_length_mismatch(self):
        # The loss only ever sees a reconstruction of the model's own input
        # width; an input of another width is refused before the forward.
        model = init_model(TrainConfig(n_tree=1, n_depth=1, seed=0), 3, Rng(0))
        with pytest.raises(ShapeError):
            joint_loss([[1.0, 2.0]], [0], model)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_nonnegative_zero_iff_equal(self, vec, seed):
        x = np.array(vec)
        loss_self = reconstruction_loss(x, x)
        assert loss_self == 0.0
        noise = Rng(seed).normal(x.shape, 0.5)
        if np.any(noise != 0):
            assert reconstruction_loss(x, x + noise) > 0.0


class TestParamsValidation:
    # The encoder and decoder shapes a model file supplies must be the ones
    # its config describes; load_model refuses any other.
    MODEL = init_model(TrainConfig(ae_widths=(3, 2), n_tree=1, n_depth=1), 4,
                       Rng(0))

    def test_mismatched_chain_rejected(self, tmp_path):
        # encoder.1 reads 4 inputs where encoder.0 writes 3.
        with pytest.raises(ModelIntegrityError,
                           match=r"encoder\.1\.W has shape \[2, 4\]; .* needs \[2, 3\]"):
            load_with_tensor_shape(tmp_path, self.MODEL, "encoder.1.W", (2, 4))

    def test_decoder_must_return_to_input_width(self, tmp_path):
        with pytest.raises(ModelIntegrityError,
                           match=r"decoder\.1\.W has shape \[3, 3\]; .* needs \[4, 3\]"):
            load_with_tensor_shape(tmp_path, self.MODEL, "decoder.1.W", (3, 3))

    def test_deterministic_inference(self, rng):
        params = AutoencoderParams(
            [Layer(rng.normal((2, 4)), rng.normal((2,)))],
            [Layer(rng.normal((4, 2)), rng.normal((4,)))],
        )
        x = rng.normal((4,))
        npt.assert_array_equal(encode(x, params), encode(x, params))
