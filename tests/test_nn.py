"""Numerics core: the network's forward and backward, RMSProp, clipping, noise."""

import numpy as np
import pytest

from evadegan import nn
from evadegan.nn import (
    Network,
    NoCachedForward,
    NonPositiveClip,
    RmsProp,
    ShapeMismatch,
    clip_network,
    make_rng,
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
        net = Network((3, 3), make_rng(0))
        net.layers[0].weights[:] = np.eye(3)
        net.layers[0].bias[:] = 0.0
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(net.forward(x, cache=False), x)

    def test_hand_example(self):
        net = Network((2, 1), make_rng(0))
        net.layers[0].weights[:] = [[3.0, 4.0]]
        net.layers[0].bias[:] = 1.0
        assert net.forward(np.array([[1.0, 2.0]]), cache=False)[0, 0] == 12.0

    def test_against_naive_multiply(self):
        rng = make_rng(7)
        net = Network((4, 3), rng)
        x = rng.normal(size=(5, 4))
        expected = naive_matmul(x, net.layers[0].weights, net.layers[0].bias)
        assert np.allclose(net.forward(x, cache=False), expected, atol=1e-12)

    def test_shape_mismatch(self):
        net = Network((4, 3), make_rng(0))
        for bad in (np.zeros((2, 5)), np.zeros(4)):
            with pytest.raises(ShapeMismatch):
                net.forward(bad, cache=False)


class TestBackward:
    def test_single_layer_scalar_grad(self):
        # y = w.x, dL/dw = x when dL/dy = 1
        net = Network((3, 1), make_rng(0))
        layer = net.layers[0]
        layer.bias[:] = 0.0
        x = np.array([[1.0, 2.0, 3.0]])
        net.forward(x)
        net.backward(np.array([[1.0]]))
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
        opt.step(p, np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # rho 0.99, g 1, lr 1e-4: cache 0.01, delta -1e-4/(0.1 + 1e-8)
        p = np.array([0.0])
        RmsProp(learning_rate=1e-4, rho=0.99, epsilon=1e-8).step(p, np.array([1.0]))
        assert p[0] == pytest.approx(-0.00099999990000001, abs=1e-18)

    def test_two_steps_match_scripted_recurrence(self):
        p = np.array([0.0])
        opt = RmsProp(learning_rate=1e-4, rho=0.99, epsilon=1e-8)
        opt.step(p, np.array([1.0]))
        opt.step(p, np.array([0.5]))

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
            opt.step(p, g)
            cache = 0.9 * cache + 0.1 * g * g
            q = q - 1e-3 * g / (np.sqrt(cache) + 1e-8)
            assert np.allclose(p, q, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            RmsProp().step(np.zeros(3), np.zeros(4))


def one_layer(in_dim, out_dim, seed):
    """A single-layer network: its only layer's weights and bias are the whole buffer."""
    net = Network((in_dim, out_dim), make_rng(seed))
    return net, net.layers[0]


class TestClipWeights:
    def test_clips_above_threshold(self):
        net, layer = one_layer(2, 2, 0)
        layer.weights[0, 0] = 0.05
        clip_network(net, 0.01)
        assert layer.weights[0, 0] == 0.01

    def test_within_range_unchanged(self):
        net, layer = one_layer(2, 2, 0)
        layer.weights[:] = -0.005
        layer.bias[:] = 0.003
        clip_network(net, 0.01)
        assert np.all(layer.weights == -0.005)
        assert np.all(layer.bias == 0.003)

    def test_idempotent(self):
        net, layer = one_layer(3, 3, 2)
        layer.weights[:] *= 10
        clip_network(net, 0.01)
        snapshot = layer.weights.copy()
        clip_network(net, 0.01)
        assert np.array_equal(layer.weights, snapshot)

    def test_biases_clipped_too(self):
        net, layer = one_layer(2, 2, 0)
        layer.bias[:] = 5.0
        clip_network(net, 0.01)
        assert np.all(layer.bias == 0.01)

    def test_non_positive_threshold(self):
        net = Network((4, 8, 1), make_rng(6))
        before = net.params.copy()
        for c in (0.0, -0.01):
            with pytest.raises(NonPositiveClip):
                clip_network(net, c)
        assert np.array_equal(net.params, before)


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
    def test_derive_seed_stable_and_distinct(self):
        a = nn.derive_seed(42, "svm", "dos", "functional_only")
        b = nn.derive_seed(42, "svm", "dos", "functional_only")
        c = nn.derive_seed(42, "svm", "dos", "ablation")
        assert a == b
        assert a != c


def test_clip_network_bounds_everything():
    net = Network((4, 8, 1), make_rng(6))
    for layer in net.layers:
        layer.weights[:] *= 100
    clip_network(net, 0.01)
    assert np.abs(net.params).max() <= 0.01


class TestFlatBuffer:
    """Every layer's parameters and gradients are views into one buffer each."""

    @pytest.mark.parametrize("dims", PIPELINE_DIMS)
    def test_views_into_one_buffer(self, dims):
        net = Network(dims, make_rng(8))
        params, grads = net.params, net.grads
        assert params.size == sum(l.weights.size + l.bias.size for l in net.layers)
        for layer in net.layers:
            for array, flat in (
                (layer.weights, params),
                (layer.bias, params),
                (layer.grad_weights, grads),
                (layer.grad_bias, grads),
            ):
                assert array.base is flat and array.flags.c_contiguous

    @pytest.mark.parametrize("dims", PIPELINE_DIMS)
    def test_initialisation_unchanged(self, dims):
        """The buffer holds the per-layer RNG draws, in their old order."""
        net = Network(dims, make_rng(9))
        rng = make_rng(9)
        for layer, n_in, n_out in zip(net.layers, dims, dims[1:]):
            bound = np.sqrt(1.0 / n_in)
            assert np.array_equal(layer.weights, rng.uniform(-bound, bound, size=(n_out, n_in)))
            assert np.array_equal(layer.bias, rng.uniform(-bound, bound, size=n_out))
        assert not net.grads.any()

    def test_layers_cannot_be_rebound(self):
        """A rebound view would leave the buffer, so the layer records refuse it."""
        net = Network((5, 4, 3), make_rng(1))
        with pytest.raises(AttributeError):
            net.layers[0].weights = np.zeros((4, 5))
        with pytest.raises(TypeError):
            net.layers[0] = net.layers[1]
        assert net.layers[0].weights.base is net.params

    def test_layer_writes_show_in_parameters(self):
        net = Network((5, 4, 3), make_rng(1))
        params = net.params
        net.layers[1].weights[2, 1] = 7.5
        net.layers[0].bias[3] = -2.0
        assert params[5 * 4 + 4 + 2 * 4 + 1] == 7.5
        assert params[5 * 4 + 3] == -2.0


def unfused_rmsprop(p, cache, g, lr, rho, eps):
    """The RMSProp update written as plain expressions, fresh arrays each step."""
    cache = rho * cache + (1.0 - rho) * g * g
    return p - lr * g / (np.sqrt(cache) + eps), cache


def test_rmsprop_bit_equal_to_unfused_formula():
    rng = make_rng(21)
    net = Network((41, 64, 32, 1), rng)
    p = net.params.copy()
    cache = np.zeros_like(p)
    opt = RmsProp(learning_rate=1e-3, rho=0.9, epsilon=1e-8)
    for _ in range(20):
        g = rng.normal(size=p.size) * 10.0 ** rng.integers(-6, 2)
        net.grads[:] = g
        opt.step(net.params, net.grads)
        p, cache = unfused_rmsprop(p, cache, g, 1e-3, 0.9, 1e-8)
        assert np.array_equal(net.params, p)


@pytest.mark.parametrize("dims", PIPELINE_DIMS)
def test_backward_without_param_grads(dims):
    """The input gradient, bit for bit, and the parameter gradients left alone."""
    rng = make_rng(31)
    net = Network(dims, rng)
    x = rng.random((16, dims[0]))
    upstream = rng.normal(size=(16, dims[-1]))
    net.forward(x)
    full = net.backward(upstream)
    grads_after_full = net.grads.copy()

    net.forward(x)
    net.grads[:] = rng.normal(size=net.grads.size)
    before = net.grads.copy()
    only_input = net.backward(upstream, param_grads=False)
    assert np.array_equal(only_input, full)
    assert np.array_equal(net.grads, before)
    assert grads_after_full.any()


@pytest.mark.parametrize("dims", PIPELINE_DIMS)
def test_backward_without_input_grad(dims):
    """The parameter gradients, bit for bit, and no input gradient."""
    rng = make_rng(37)
    net = Network(dims, rng)
    x = rng.random((16, dims[0]))
    upstream = rng.normal(size=(16, dims[-1]))
    net.forward(x)
    net.backward(upstream)
    grads_after_full = net.grads.copy()

    net.forward(x)
    assert net.backward(upstream, input_grad=False) is None
    assert np.array_equal(net.grads, grads_after_full)
    assert grads_after_full.any()


def reference_pass(layers, x, upstream, grads, param_grads, input_grad):
    """The per-layer math as plain expressions, with fresh arrays throughout.

    ``layers`` and ``grads`` are lists of (W, b) pairs; returns (output,
    input gradient or None, the parameter gradients after the pass, which
    replace ``grads`` with `param_grads` and leave them as they were without).
    """
    inputs, out = [], x
    for k, (w, b) in enumerate(layers):
        inputs.append(out)
        out = out @ w.T + b
        if k < len(layers) - 1:
            out = np.maximum(0.0, out)
    grads = list(grads)
    grad = upstream
    for k in range(len(layers) - 1, -1, -1):
        if k < len(layers) - 1:
            grad = grad * (inputs[k + 1] > 0.0)
        if param_grads:
            grads[k] = (grad.T @ inputs[k], grad.sum(axis=0))
        grad = grad @ layers[k][0] if input_grad or k > 0 else None
    return out, grad, grads


@pytest.mark.parametrize("dims", PIPELINE_DIMS)
def test_forward_backward_bit_equal_to_reference(dims):
    """From the initial parameters, every output and gradient equals the plain math bit for bit."""
    rng = make_rng(41)
    net = Network(dims, rng)
    layers = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
    x = rng.random((24, dims[0]))
    upstream = rng.normal(size=(24, dims[-1]))
    for param_grads in (True, False):
        for input_grad in (True, False):
            net.grads[:] = rng.normal(size=net.grads.size)
            start = [(l.grad_weights.copy(), l.grad_bias.copy()) for l in net.layers]
            out, grad_in, grads = reference_pass(
                layers, x, upstream, start, param_grads, input_grad
            )
            assert np.array_equal(net.forward(x, cache=False), out)
            assert np.array_equal(net.forward(x), out)
            result = net.backward(upstream, param_grads=param_grads, input_grad=input_grad)
            assert (result is None) == (grad_in is None)
            assert grad_in is None or np.array_equal(result, grad_in)
            for layer, (gw, gb) in zip(net.layers, grads):
                assert np.array_equal(layer.grad_weights, gw)
                assert np.array_equal(layer.grad_bias, gb)
    assert all(np.array_equal(l.weights, w) for l, (w, _) in zip(net.layers, layers))
