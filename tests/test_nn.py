"""Numerics core: layers, backprop, RMSProp, clipping, noise."""

import numpy as np
import pytest

from evadegan import nn
from evadegan.nn import (
    LinearLayer,
    Network,
    NoCachedForward,
    NonPositiveClip,
    RmsProp,
    ShapeMismatch,
    clip_network,
    clip_weights,
    make_rng,
    relu_forward,
)

# layer shapes used by the adversarial pipeline (generator, critic, detector MLP)
PIPELINE_DIMS = [
    (50, 64, 96, 96, 64, 41),
    (41, 64, 32, 1),
    (41, 64, 32, 2),
]


def naive_matmul(x, w, b):
    """Triple-loop oracle for y = x W^T + b."""
    n, d_in = x.shape
    d_out = w.shape[0]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = b[j]
            for k in range(d_in):
                acc += x[i, k] * w[j, k]
            out[i, j] = acc
    return out


class TestLinearForward:
    def test_identity_layer(self):
        layer = LinearLayer(3, 3, make_rng(0))
        layer.weights = np.eye(3)
        layer.bias = np.zeros(3)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(layer.forward(x, cache=False), x)

    def test_hand_example(self):
        layer = LinearLayer(2, 1, make_rng(0))
        layer.weights = np.array([[3.0, 4.0]])
        layer.bias = np.array([1.0])
        assert layer.forward(np.array([[1.0, 2.0]]), cache=False)[0, 0] == 12.0

    def test_against_naive_multiply(self):
        rng = make_rng(7)
        layer = LinearLayer(4, 3, rng)
        x = rng.normal(size=(5, 4))
        expected = naive_matmul(x, layer.weights, layer.bias)
        assert np.allclose(layer.forward(x, cache=False), expected, atol=1e-12)

    def test_shape_mismatch(self):
        layer = LinearLayer(4, 3, make_rng(0))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((2, 5)), cache=False)


class TestRelu:
    def test_elementwise(self):
        assert np.array_equal(relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert np.array_equal(relu_forward(-np.ones(4)), np.zeros(4))

    def test_idempotent(self):
        x = make_rng(1).normal(size=(3, 5))
        assert np.array_equal(relu_forward(relu_forward(x)), relu_forward(x))


class TestBackward:
    def test_single_layer_scalar_grad(self):
        # y = w.x, dL/dw = x when dL/dy = 1
        layer = LinearLayer(3, 1, make_rng(0))
        layer.bias[:] = 0.0
        x = np.array([[1.0, 2.0, 3.0]])
        layer.forward(x)
        layer.backward(np.array([[1.0]]))
        assert np.array_equal(layer.grad_weights, x)
        assert np.array_equal(layer.grad_bias, [1.0])

    def test_backward_without_forward(self):
        net = Network((3, 2), make_rng(0))
        with pytest.raises(NoCachedForward):
            net.backward(np.ones((1, 2)))

    def test_dead_relu_blocks_gradient(self):
        net = Network((2, 2, 1), make_rng(0))
        # force both hidden units dead for this input
        net.layers[0].weights[:] = -1.0
        net.layers[0].bias[:] = -1.0
        net.forward(np.array([[1.0, 1.0]]))
        net.zero_grad()
        net.backward(np.ones((1, 1)))
        assert np.array_equal(net.layers[0].grad_weights, np.zeros((2, 2)))

    @pytest.mark.parametrize("dims", PIPELINE_DIMS)
    def test_finite_difference_all_parameters(self, dims):
        """Central finite differences vs analytic grads, every layer config."""
        rng = make_rng(123)
        net = Network(dims, rng)
        x = rng.random((4, dims[0]))
        target = rng.normal(size=(4, dims[-1]))

        def loss():
            return float(((net.forward(x, cache=False) - target) ** 2).sum())

        net.forward(x)
        net.zero_grad()
        grad_out = 2.0 * (net.forward(x) - target)
        net.backward(grad_out)

        h = 1e-5
        checked = 0
        for layer in net.layers:
            for param, grad in ((layer.weights, layer.grad_weights), (layer.bias, layer.grad_bias)):
                flat_p = param.reshape(-1)
                flat_g = grad.reshape(-1)
                idx = make_rng(checked).choice(flat_p.size, size=min(8, flat_p.size), replace=False)
                for i in idx:
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up = loss()
                    flat_p[i] = orig - h
                    down = loss()
                    flat_p[i] = orig
                    fd = (up - down) / (2 * h)
                    scale = max(abs(fd), abs(flat_g[i]), 1e-8)
                    assert abs(fd - flat_g[i]) / scale <= 1e-4
                    checked += 1
        assert checked > 0

    def test_input_gradient_finite_difference(self):
        rng = make_rng(5)
        net = Network((6, 8, 3), rng)
        x = rng.random((2, 6))
        net.forward(x)
        net.zero_grad()
        grad_in = net.backward(np.ones((2, 3)))
        h = 1e-5
        for i in range(2):
            for j in range(6):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (net.forward(xp, cache=False).sum() - net.forward(xm, cache=False).sum()) / (2 * h)
                scale = max(abs(fd), abs(grad_in[i, j]), 1e-8)
                assert abs(fd - grad_in[i, j]) / scale <= 1e-4


class TestRmsProp:
    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0])
        opt = RmsProp()
        opt.step([(p, np.zeros(2))])
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # rho 0.99, g 1, lr 1e-4: cache 0.01, delta -1e-4/(0.1 + 1e-8)
        p = np.array([0.0])
        RmsProp(learning_rate=1e-4, rho=0.99, epsilon=1e-8).step([(p, np.array([1.0]))])
        assert p[0] == pytest.approx(-0.00099999990000001, abs=1e-18)

    def test_two_steps_match_scripted_recurrence(self):
        p = np.array([0.0])
        opt = RmsProp(learning_rate=1e-4, rho=0.99, epsilon=1e-8)
        opt.step([(p, np.array([1.0]))])
        opt.step([(p, np.array([0.5]))])

        # independent scripted recurrence
        cache = 0.0
        q = 0.0
        for g in (1.0, 0.5):
            cache = 0.99 * cache + 0.01 * g * g
            q -= 1e-4 * g / (np.sqrt(cache) + 1e-8)
        assert abs(p[0] - q) <= 1e-12

    def test_random_sequence_matches_oracle(self):
        rng = make_rng(11)
        p = rng.normal(size=(3, 4))
        q = p.copy()
        opt = RmsProp(learning_rate=1e-3, rho=0.9, epsilon=1e-8)
        cache = np.zeros_like(q)
        for _ in range(20):
            g = rng.normal(size=(3, 4))
            opt.step([(p, g)])
            cache = 0.9 * cache + 0.1 * g * g
            q = q - 1e-3 * g / (np.sqrt(cache) + 1e-8)
            assert np.allclose(p, q, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            RmsProp().step([(np.zeros(3), np.zeros(4))])


class TestClipWeights:
    def test_clips_above_threshold(self):
        layer = LinearLayer(2, 2, make_rng(0))
        layer.weights[0, 0] = 0.05
        clip_weights(layer, 0.01)
        assert layer.weights[0, 0] == 0.01

    def test_within_range_unchanged(self):
        layer = LinearLayer(2, 2, make_rng(0))
        layer.weights[:] = -0.005
        layer.bias[:] = 0.003
        clip_weights(layer, 0.01)
        assert np.all(layer.weights == -0.005)
        assert np.all(layer.bias == 0.003)

    def test_idempotent(self):
        layer = LinearLayer(3, 3, make_rng(2))
        layer.weights *= 10
        clip_weights(layer, 0.01)
        snapshot = layer.weights.copy()
        clip_weights(layer, 0.01)
        assert np.array_equal(layer.weights, snapshot)

    def test_biases_clipped_too(self):
        layer = LinearLayer(2, 2, make_rng(0))
        layer.bias[:] = 5.0
        clip_weights(layer, 0.01)
        assert np.all(layer.bias == 0.01)

    def test_non_positive_threshold(self):
        layer = LinearLayer(2, 2, make_rng(0))
        with pytest.raises(NonPositiveClip):
            clip_weights(layer, 0.0)


class TestUniformNoise:
    def test_same_seed_same_sequence(self):
        a = make_rng(99).random(1000)
        b = make_rng(99).random(1000)
        assert np.array_equal(a, b)

    def test_range(self):
        draws = make_rng(1).random(100_000)
        assert draws.min() >= 0.0
        assert draws.max() < 1.0

    def test_mean_near_half(self):
        draws = make_rng(2).random(100_000)
        assert abs(draws.mean() - 0.5) < 0.01


class TestCheckpoint:
    def test_network_round_trip(self, tmp_path):
        net = Network((5, 4, 2), make_rng(3))
        nn.save_network(net, tmp_path / "net.blob", {"role": "test"})
        loaded, meta = nn.load_network(tmp_path / "net.blob")
        assert meta["role"] == "test"
        assert loaded.dims == net.dims
        x = make_rng(4).random((3, 5))
        assert np.array_equal(loaded.forward(x, cache=False), net.forward(x, cache=False))

    def test_derive_seed_stable_and_distinct(self):
        a = nn.derive_seed(42, "svm", "dos", "functional_only")
        b = nn.derive_seed(42, "svm", "dos", "functional_only")
        c = nn.derive_seed(42, "svm", "dos", "ablation")
        assert a == b
        assert a != c


def test_clip_network_bounds_everything():
    net = Network((4, 8, 1), make_rng(6))
    for layer in net.layers:
        layer.weights *= 100
    clip_network(net, 0.01)
    assert nn.max_abs_param(net) <= 0.01
