"""Small deterministic neural-network engine on numpy float64.

Just the pieces the adversarial pipeline needs: dense linear layers with
manual gradients, ReLU chains, RMSProp, weight clipping and a seeded PCG64
noise stream. No autodiff graph.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .blob import load_blob, save_blob


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


class LinearLayer:
    """Dense layer y = x W^T + b with gradients filled by backward()."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = np.sqrt(1.0 / in_dim)
        self.weights = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.bias = rng.uniform(-bound, bound, size=out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._input = None

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"expected (n, {self.in_dim}) input, got {x.shape}")
        if cache:
            self._input = x
        return x @ self.weights.T + self.bias

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise NoCachedForward("backward before forward")
        upstream = np.asarray(upstream, dtype=float)
        self.grad_weights += upstream.T @ self._input
        self.grad_bias += upstream.sum(axis=0)
        return upstream @ self.weights

    def zero_grad(self) -> None:
        self.grad_weights[:] = 0.0
        self.grad_bias[:] = 0.0


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.asarray(x, dtype=float))


class Network:
    """A fixed chain of LinearLayers with ReLU between the hidden ones.

    ``dims`` gives the layer sizes, e.g. (50, 64, 41) builds two linear
    layers. ReLU follows every layer except the last.
    """

    def __init__(self, dims, rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.layers = [
            LinearLayer(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]
        self._pre_acts = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        pre_acts = []
        out = np.asarray(x, dtype=float)
        for k, layer in enumerate(self.layers):
            out = layer.forward(out, cache=cache)
            if k < len(self.layers) - 1:
                pre_acts.append(out)
                out = relu_forward(out)
        if cache:
            self._pre_acts = pre_acts
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. the input."""
        if self._pre_acts is None:
            raise NoCachedForward("backward before forward")
        grad = np.asarray(upstream, dtype=float)
        for k in range(len(self.layers) - 1, -1, -1):
            if k < len(self.layers) - 1:
                grad = grad * (self._pre_acts[k] > 0.0)
            grad = self.layers[k].backward(grad)
        return grad

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self):
        out = []
        for layer in self.layers:
            out.append((layer.weights, layer.grad_weights))
            out.append((layer.bias, layer.grad_bias))
        return out

    def param_arrays(self) -> dict:
        arrays = {}
        for k, layer in enumerate(self.layers):
            arrays[f"w{k}"] = layer.weights
            arrays[f"b{k}"] = layer.bias
        return arrays

    def load_param_arrays(self, arrays: dict) -> None:
        for k, layer in enumerate(self.layers):
            w, b = arrays[f"w{k}"], arrays[f"b{k}"]
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ShapeMismatch(f"layer {k}: checkpoint shape {w.shape} != {layer.weights.shape}")
            layer.weights[:] = w
            layer.bias[:] = b

    @property
    def dims(self):
        return tuple([self.layers[0].in_dim] + [l.out_dim for l in self.layers])


class RmsProp:
    """RMSProp: cache <- rho*cache + (1-rho)*g^2; p <- p - lr*g/(sqrt(cache)+eps)."""

    def __init__(self, learning_rate: float = 1e-4, rho: float = 0.99, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self._cache = {}

    def step(self, params_and_grads) -> None:
        for param, grad in params_and_grads:
            if param.shape != grad.shape:
                raise ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
            cache = self._cache.get(id(param))
            if cache is None:
                cache = self._cache[id(param)] = np.zeros_like(param)
            cache *= self.rho
            cache += (1.0 - self.rho) * grad * grad
            param -= self.learning_rate * grad / (np.sqrt(cache) + self.epsilon)


def clip_weights(layer: LinearLayer, c: float) -> None:
    """Clamp every weight and bias of the layer into [-c, c]."""
    if c <= 0.0:
        raise NonPositiveClip(f"clip threshold must be positive, got {c}")
    np.clip(layer.weights, -c, c, out=layer.weights)
    np.clip(layer.bias, -c, c, out=layer.bias)


def clip_network(net: Network, c: float) -> None:
    for layer in net.layers:
        clip_weights(layer, c)


def max_abs_param(net: Network) -> float:
    return max(
        max(np.abs(l.weights).max(), np.abs(l.bias).max()) for l in net.layers
    )


def save_network(net: Network, path, meta: dict | None = None) -> None:
    """Checkpoint a network to a versioned blob with its layer dims."""
    header = {"dims": list(net.dims)}
    header.update(meta or {})
    save_blob(path, net.param_arrays(), meta=header)


def load_network(path):
    """Restore a checkpointed network; returns (network, meta)."""
    arrays, meta = load_blob(path)
    net = Network(tuple(meta["dims"]), make_rng(0))
    net.load_param_arrays(arrays)
    return net, meta
