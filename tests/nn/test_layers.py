"""Layers: shapes, analytic-vs-numerical gradients, validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, DimensionMismatchError, NotFittedError
from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    LeakyReLU,
    ReLU,
    Reshape,
    Sigmoid,
    Tanh,
    Upsample2x,
)

EPS = 1e-6


def numerical_input_grad(layer, x, grad_out):
    """Central-difference gradient of sum(out * grad_out) wrt x."""
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + EPS
        up = (layer.forward(x, training=False) * grad_out).sum()
        flat_x[i] = orig - EPS
        down = (layer.forward(x, training=False) * grad_out).sum()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * EPS)
    return grad


def numerical_param_grad(layer, param, x, grad_out):
    grad = np.zeros_like(param)
    flat_p = param.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_p.size):
        orig = flat_p[i]
        flat_p[i] = orig + EPS
        up = (layer.forward(x, training=False) * grad_out).sum()
        flat_p[i] = orig - EPS
        down = (layer.forward(x, training=False) * grad_out).sum()
        flat_p[i] = orig
        flat_g[i] = (up - down) / (2 * EPS)
    return grad


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(3, 2, seed=0)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(x), x @ layer.W + layer.b)

    def test_backward_gradients_match_numerical(self, rng):
        layer = Dense(4, 3, seed=0)
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))
        layer.forward(x)
        dx = layer.backward(grad_out)
        np.testing.assert_allclose(
            dx, numerical_input_grad(layer, x, grad_out), atol=1e-5)
        np.testing.assert_allclose(
            layer.dW, numerical_param_grad(layer, layer.W, x, grad_out),
            atol=1e-5)
        np.testing.assert_allclose(
            layer.db, numerical_param_grad(layer, layer.b, x, grad_out),
            atol=1e-5)

    def test_backward_before_forward_raises(self):
        with pytest.raises(NotFittedError):
            Dense(2, 2, seed=0).backward(np.zeros((1, 2)))

    def test_wrong_input_dim_rejected(self, rng):
        layer = Dense(3, 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(4, 5)))

    def test_glorot_init_supported(self):
        layer = Dense(3, 2, seed=0, init="glorot")
        assert np.abs(layer.W).max() <= np.sqrt(6 / 5) + 1e-12

    def test_unknown_init_rejected(self):
        with pytest.raises(ConfigurationError):
            Dense(3, 2, init="bogus")


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(2, 4, 3, stride=2, padding=1, seed=0)
        out = layer.forward(rng.normal(size=(3, 2, 8, 8)))
        assert out.shape == (3, 4, 4, 4)

    def test_matches_direct_convolution(self, rng):
        layer = Conv2d(1, 1, 3, stride=1, padding=0, seed=0)
        x = rng.normal(size=(1, 1, 5, 5))
        out = layer.forward(x)
        # direct sliding-window computation
        expected = np.zeros((3, 3))
        kernel = layer.W[0, 0]
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i:i + 3, j:j + 3] * kernel).sum()
        np.testing.assert_allclose(out[0, 0], expected + layer.b[0],
                                   atol=1e-10)

    def test_backward_gradients_match_numerical(self, rng):
        layer = Conv2d(2, 3, 3, stride=2, padding=1, seed=0)
        x = rng.normal(size=(2, 2, 6, 6))
        out = layer.forward(x)
        grad_out = rng.normal(size=out.shape)
        dx = layer.backward(grad_out)
        np.testing.assert_allclose(
            dx, numerical_input_grad(layer, x, grad_out), atol=1e-4)
        np.testing.assert_allclose(
            layer.dW, numerical_param_grad(layer, layer.W, x, grad_out),
            atol=1e-4)
        np.testing.assert_allclose(
            layer.db, numerical_param_grad(layer, layer.b, x, grad_out),
            atol=1e-4)

    def test_wrong_channels_rejected(self, rng):
        layer = Conv2d(2, 4, 3, seed=0)
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(1, 3, 8, 8)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Conv2d(0, 4, 3)
        with pytest.raises(ConfigurationError):
            Conv2d(1, 4, 3, padding=-1)


@pytest.mark.parametrize("activation_cls", [ReLU, LeakyReLU, Sigmoid, Tanh])
class TestActivations:
    def test_gradient_matches_numerical(self, activation_cls, rng):
        layer = activation_cls()
        x = rng.normal(size=(4, 6)) + 0.1  # avoid ReLU kink at exactly 0
        layer.forward(x)
        grad_out = rng.normal(size=(4, 6))
        dx = layer.backward(grad_out)
        np.testing.assert_allclose(
            dx, numerical_input_grad(layer, x, grad_out), atol=1e-5)

    def test_backward_before_forward_raises(self, activation_cls):
        with pytest.raises(NotFittedError):
            activation_cls().backward(np.zeros((1, 2)))


class TestActivationValues:
    def test_relu_clamps_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out = LeakyReLU(alpha=0.1).forward(np.array([[-2.0, 3.0]]))
        np.testing.assert_allclose(out, [[-0.2, 3.0]])

    def test_sigmoid_range_and_stability(self):
        out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-12)
        assert np.isfinite(out).all()

    @given(x=arrays(np.float64, st.tuples(st.integers(1, 4),
                                          st.integers(1, 16)),
                    elements=st.one_of(
                        st.sampled_from([0.0, -0.0, 800.0, -800.0, np.inf,
                                         -np.inf, np.nan]),
                        st.floats(-50.0, 50.0))))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_in_place_keeps_the_bits(self, x):
        """The in-place forward equals the expression it replaced, byte
        for byte; ``1 / (1 + exp(-x))`` for every ``x`` fails this."""
        with np.errstate(invalid="ignore"):
            ex = np.exp(-np.abs(x))
            expected = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
            got = Sigmoid().forward(x)
        assert got.tobytes() == expected.tobytes()

    def test_tanh_is_odd(self, rng):
        x = rng.normal(size=(3, 3))
        np.testing.assert_allclose(Tanh().forward(x),
                                   -Tanh().forward(-x))


class TestShapeLayers:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_reshape_roundtrip(self, rng):
        layer = Reshape((3, 2, 2))
        x = rng.normal(size=(5, 12))
        out = layer.forward(x)
        assert out.shape == (5, 3, 2, 2)
        assert layer.backward(out).shape == x.shape

    def test_upsample_forward_values(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = Upsample2x().forward(x)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out[0, 0], [[0.0, 0.0, 1.0, 1.0],
                                               [0.0, 0.0, 1.0, 1.0],
                                               [2.0, 2.0, 3.0, 3.0],
                                               [2.0, 2.0, 3.0, 3.0]])

    def test_upsample_backward_sums_blocks(self, rng):
        layer = Upsample2x()
        x = rng.normal(size=(1, 2, 3, 3))
        out = layer.forward(x)
        grad = np.ones_like(out)
        back = layer.backward(grad)
        np.testing.assert_allclose(back, np.full_like(x, 4.0))

    def test_upsample_gradient_matches_numerical(self, rng):
        layer = Upsample2x()
        x = rng.normal(size=(1, 1, 3, 3))
        out = layer.forward(x)
        grad_out = rng.normal(size=out.shape)
        dx = layer.backward(grad_out)
        np.testing.assert_allclose(
            dx, numerical_input_grad(layer, x, grad_out), atol=1e-5)
