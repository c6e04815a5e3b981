"""Small deterministic neural-network engine on numpy float64.

Just the pieces the adversarial pipeline needs: a chain of dense layers
with ReLU between them and manual gradients, RMSProp, weight clipping and a
seeded PCG64 noise stream. No autodiff graph.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NoCachedForward(RuntimeError):
    pass


class NonPositiveClip(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    """The project-wide PRNG: PCG64 under numpy's Generator front end."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master_seed: int, *parts) -> int:
    """Stable sub-seed from a master seed and a label path (hash-based)."""
    text = repr((int(master_seed),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Layer(NamedTuple):
    """One layer's views into its Network's ``params`` and ``grads``."""

    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray
    grad_bias: np.ndarray


class Network:
    """A fixed chain of dense layers y = x W^T + b, with ReLU between them.

    ``dims`` gives the layer sizes, e.g. (50, 64, 41) builds two layers.
    ReLU follows every layer except the last.

    All parameters live in one flat float64 array, ``params``, and all
    gradients in another, ``grads`` (w0, b0, w1, b1, ...), so an optimiser
    step or a clip is one array operation. ``layers`` holds one
    read-only `Layer` of C-contiguous views into them per layer; write
    through the views in place (``layer.weights[:] = ...``).
    """

    def __init__(self, dims, rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        size = sum((n_in + 1) * n_out for n_in, n_out in zip(self.dims, self.dims[1:]))
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        self._bind()
        for layer, n_in in zip(self.layers, self.dims):
            bound = np.sqrt(1.0 / n_in)
            layer.weights[...] = rng.uniform(-bound, bound, size=layer.weights.shape)
            layer.bias[...] = rng.uniform(-bound, bound, size=layer.bias.shape)

    def _bind(self):
        """Make ``layers`` views into ``params`` and ``grads``, with no cached forward."""
        layers = []
        start = 0
        for n_in, n_out in zip(self.dims, self.dims[1:]):
            mid, end = start + n_in * n_out, start + (n_in + 1) * n_out
            layers.append(
                Layer(
                    self.params[start:mid].reshape(n_out, n_in),
                    self.params[mid:end],
                    self.grads[start:mid].reshape(n_out, n_in),
                    self.grads[mid:end],
                )
            )
            start = end
        self.layers = tuple(layers)
        self._inputs = None  # each layer's input in the last cached forward

    # Pickled as its dims and two buffers: the layers are rebuilt as views on
    # load, since pickled copies would no longer see a step on ``params``.
    def __getstate__(self):
        return {"dims": self.dims, "params": self.params, "grads": self.grads}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = np.asarray(x, dtype=float)
        if out.ndim != 2 or out.shape[1] != self.dims[0]:
            raise ShapeMismatch(f"expected (n, {self.dims[0]}) input, got {out.shape}")
        # Without `cache` no layer input is kept, so each activation is
        # freed as soon as the next layer has read it.
        inputs = []
        last = len(self.layers) - 1
        for k, layer in enumerate(self.layers):
            if cache:
                inputs.append(out)
            out = out @ layer.weights.T
            out += layer.bias
            if k < last:
                # In place: backward needs the pre-activation only as the
                # mask ``pre > 0``, which the ReLU output gives exactly.
                np.maximum(0.0, out, out=out)
        if cache:
            self._inputs = inputs
        return out

    def backward(
        self, upstream: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> np.ndarray | None:
        """Returns the gradient w.r.t. the input, or None without `input_grad`.

        With `param_grads` it also writes every layer's parameter gradients
        into ``grads``, replacing what they held; without, ``grads`` is left
        untouched.
        Without `input_grad` the first layer skips the product that only
        the input gradient needs.
        """
        inputs = self._inputs
        if inputs is None:
            raise NoCachedForward("backward before forward")
        grad = np.asarray(upstream, dtype=float)
        last = len(self.layers) - 1
        for k in range(last, -1, -1):
            layer = self.layers[k]
            if k < last:
                grad = grad * (inputs[k + 1] > 0.0)
            if param_grads:
                np.matmul(grad.T, inputs[k], out=layer.grad_weights)
                np.sum(grad, axis=0, out=layer.grad_bias)
            grad = grad @ layer.weights if input_grad or k > 0 else None
        return grad

    def param_arrays(self) -> dict:
        arrays = {}
        for k, layer in enumerate(self.layers):
            arrays[f"w{k}"] = layer.weights
            arrays[f"b{k}"] = layer.bias
        return arrays


class RmsProp:
    """RMSProp: cache <- rho*cache + (1-rho)*g^2; p <- p - lr*g/(sqrt(cache)+eps).

    One optimiser steps one array, such as a `Network`'s flat ``params``.
    Each step works in place on state made on the first step: the cache
    and two scratch arrays, so a step makes no temporaries.
    """

    def __init__(self, learning_rate: float = 1e-4, rho: float = 0.99, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self._state = None

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        if param.shape != grad.shape:
            raise ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
        if self._state is None:
            self._state = tuple(np.zeros_like(param) for _ in range(3))
        cache, a, b = self._state
        # The same operations, in the same order, as the formula above.
        np.multiply(grad, 1.0 - self.rho, out=a)
        a *= grad
        cache *= self.rho
        cache += a
        np.sqrt(cache, out=a)
        a += self.epsilon
        np.multiply(grad, self.learning_rate, out=b)
        b /= a
        param -= b


def clip_network(net: Network, c: float) -> None:
    """Clamp every weight and bias of the network into [-c, c]."""
    if c <= 0.0:
        raise NonPositiveClip(f"clip threshold must be positive, got {c}")
    np.clip(net.params, -c, c, out=net.params)

