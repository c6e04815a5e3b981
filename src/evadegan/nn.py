"""Small deterministic neural-network engine on numpy float64.

Just the pieces the adversarial pipeline needs: dense linear layers with
manual gradients, ReLU chains, RMSProp, weight clipping and a seeded PCG64
noise stream. No autodiff graph.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .blob import save_blob


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
    """Dense layer y = x W^T + b with gradients filled by backward().

    A layer owns its arrays until a Network moves them into its flat buffers.
    """

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
        out = x @ self.weights.T
        out += self.bias
        return out

    def backward(
        self, upstream: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> np.ndarray | None:
        """Gradient w.r.t. the input (None without `input_grad`).

        With `param_grads`, also accumulate W and b grads.
        """
        if self._input is None:
            raise NoCachedForward("backward before forward")
        upstream = np.asarray(upstream, dtype=float)
        if param_grads:
            self.grad_weights += upstream.T @ self._input
            self.grad_bias += upstream.sum(axis=0)
        return upstream @ self.weights if input_grad else None


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(0.0, np.asarray(x, dtype=float), out=out)


class Network:
    """A fixed chain of LinearLayers with ReLU between the hidden ones.

    ``dims`` gives the layer sizes, e.g. (50, 64, 41) builds two linear
    layers. ReLU follows every layer except the last.

    All parameters live in one flat float64 array, ``params``, and all
    gradients in another, ``grads``: each layer's ``weights``, ``bias`` and
    ``grad_*`` are C-contiguous views into them (w0, b0, w1, b1, ...), so
    an optimiser step, a clip or a zeroing is one array operation. Write
    layer parameters in place (``layer.weights[:] = ...``); rebinding the
    attribute detaches it from the buffer.
    """

    def __init__(self, dims, rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.layers = [
            LinearLayer(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]
        size = sum(layer.weights.size + layer.bias.size for layer in self.layers)
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        offset = 0
        for layer in self.layers:
            for name in ("weights", "bias"):
                value = getattr(layer, name)
                end = offset + value.size
                view = self.params[offset:end].reshape(value.shape)
                view[...] = value
                setattr(layer, name, view)
                setattr(layer, f"grad_{name}", self.grads[offset:end].reshape(value.shape))
                offset = end
        self._acts = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        acts = []
        out = np.asarray(x, dtype=float)
        last = len(self.layers) - 1
        for k, layer in enumerate(self.layers):
            out = layer.forward(out, cache=cache)
            if k < last:
                # In place: the pre-activation is needed only as the mask
                # ``pre > 0``, which the ReLU output gives exactly.
                out = relu_forward(out, out=out)
                acts.append(out)
        if cache:
            self._acts = acts
        return out

    def backward(
        self, upstream: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ) -> np.ndarray | None:
        """Returns the gradient w.r.t. the input, or None without `input_grad`.

        With `param_grads` it also accumulates every layer's parameter
        gradients into ``grads``; without, ``grads`` is left untouched.
        Without `input_grad` the first layer skips the product that only
        the input gradient needs.
        """
        if self._acts is None:
            raise NoCachedForward("backward before forward")
        grad = np.asarray(upstream, dtype=float)
        for k in range(len(self.layers) - 1, -1, -1):
            if k < len(self.layers) - 1:
                grad = grad * (self._acts[k] > 0.0)
            grad = self.layers[k].backward(grad, param_grads, input_grad or k > 0)
        return grad

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def parameters(self):
        """The one (params, grads) pair, as the list RmsProp.step takes."""
        return [(self.params, self.grads)]

    def param_arrays(self) -> dict:
        arrays = {}
        for k, layer in enumerate(self.layers):
            arrays[f"w{k}"] = layer.weights
            arrays[f"b{k}"] = layer.bias
        return arrays

    @property
    def dims(self):
        return tuple([self.layers[0].in_dim] + [l.out_dim for l in self.layers])


class RmsProp:
    """RMSProp: cache <- rho*cache + (1-rho)*g^2; p <- p - lr*g/(sqrt(cache)+eps).

    Each step works in place on per-parameter state allocated on first use:
    the cache and two scratch arrays, so a step makes no temporaries.
    """

    def __init__(self, learning_rate: float = 1e-4, rho: float = 0.99, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self._state = {}

    def step(self, params_and_grads) -> None:
        for param, grad in params_and_grads:
            if param.shape != grad.shape:
                raise ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
            state = self._state.get(id(param))
            if state is None:
                state = self._state[id(param)] = tuple(np.zeros_like(param) for _ in range(3))
            cache, a, b = state
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


def max_abs_param(net: Network) -> float:
    return float(np.abs(net.params).max())


def save_network(net: Network, path, meta: dict | None = None) -> None:
    """Write a network's parameters to a versioned blob with its layer dims."""
    header = {"dims": list(net.dims)}
    header.update(meta or {})
    save_blob(path, net.param_arrays(), meta=header)
