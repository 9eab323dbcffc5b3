"""Minimal dense networks with hand-written backprop, Adam, soft updates.

Everything is float64 numpy.  Layers cache their forward pass, so the
usage pattern is strictly forward(x) then backward(dL/dy) per batch.
No general autodiff: exactly what two small actor/critic heads need.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DimensionMismatchError,
)

_ACTIVATIONS = ("relu", "tanh", "linear")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation at pre-activation z (a = act(z))."""
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


class Mlp:
    """Dense stack: layer i computes act_i(x @ W_i + b_i)."""

    def __init__(
        self,
        layer_sizes: list[int],
        activations: list[str],
        rng: np.random.Generator,
        final_init_scale: float = 1.0,
    ):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        if len(activations) != len(layer_sizes) - 1:
            raise ConfigurationError(
                f"{len(layer_sizes) - 1} layers need {len(layer_sizes) - 1} "
                f"activations, got {len(activations)}"
            )
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ConfigurationError(f"unknown activation {act!r}")
        self.layer_sizes = list(layer_sizes)
        self.activations = list(activations)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (d_in, d_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            # He scaling for relu layers, Xavier-style for tanh/linear.
            if activations[i] == "relu":
                std = np.sqrt(2.0 / d_in)
            else:
                std = np.sqrt(1.0 / d_in)
            if i == len(activations) - 1:
                std *= final_init_scale
            self.weights.append(rng.normal(0.0, std, size=(d_in, d_out)))
            self.biases.append(np.zeros(d_out))
        self._cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    @classmethod
    def from_parameters(
        cls,
        layer_sizes: list[int],
        activations: list[str],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ) -> "Mlp":
        """Rebuild a network from stored arrays, validating the shape chain."""
        net = cls(layer_sizes, activations, np.random.default_rng(0))
        if len(weights) != net.n_layers or len(biases) != net.n_layers:
            raise DimensionMismatchError(
                f"expected {net.n_layers} layers of parameters, "
                f"got {len(weights)} weights / {len(biases)} biases"
            )
        for i, (w, b) in enumerate(zip(weights, biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
                raise DimensionMismatchError(
                    f"layer {i}: stored shapes {w.shape}/{b.shape} do not match "
                    f"declared sizes {net.weights[i].shape}/{net.biases[i].shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigurationError(f"layer {i}: non-finite parameters")
            net.weights[i] = w
            net.biases[i] = b
        return net

    def to_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Weights and biases as npz entries `{prefix}w{i}`, `{prefix}b{i}`.

        The layer sizes and activations are stored by the caller, next to
        its other header entries.
        """
        arrays = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"{prefix}w{i}"] = w
            arrays[f"{prefix}b{i}"] = b
        return arrays

    @classmethod
    def from_arrays(cls, data, sizes, acts, prefix: str = "") -> "Mlp":
        """Rebuild a network written by `to_arrays` from a loaded npz."""
        sizes = [int(s) for s in sizes]
        acts = [str(a) for a in acts]
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            wk, bk = f"{prefix}w{i}", f"{prefix}b{i}"
            if wk not in data or bk not in data:
                raise CorruptCheckpointError(f"network arrays missing {wk}/{bk}")
            weights.append(data[wk])
            biases.append(data[bk])
        return cls.from_parameters(sizes, acts, weights, biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatchError(
                f"expected input width {self.layer_sizes[0]}, got {x.shape[1]}"
            )
        cache = []
        a = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w + b
            a_next = _act(act, z)
            cache.append((a, z, a_next))
            a = a_next
        self._cache = cache
        return a[0] if squeeze else a

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Backpropagate dL/dy; returns (dL/dx, grads aligned with parameters())."""
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        dout = np.asarray(dout, dtype=float)
        if dout.ndim == 1:
            dout = dout[None, :]
        grads_w: list[np.ndarray] = [None] * self.n_layers
        grads_b: list[np.ndarray] = [None] * self.n_layers
        da = dout
        for i in range(self.n_layers - 1, -1, -1):
            a_in, z, a_out = self._cache[i]
            dz = da * _act_grad(self.activations[i], z, a_out)
            grads_w[i] = a_in.T @ dz
            grads_b[i] = dz.sum(axis=0)
            da = dz @ self.weights[i].T
        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.extend([gw, gb])
        return da, grads

    def copy(self) -> "Mlp":
        twin = object.__new__(Mlp)
        twin.layer_sizes = list(self.layer_sizes)
        twin.activations = list(self.activations)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        twin._cache = None
        return twin


class Adam:
    """Adam over a fixed parameter list, updating arrays in place."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise DimensionMismatchError(
                f"expected {len(self.params)} gradients, got {len(grads)}"
            )
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Polyak-average source parameters into the target, in place."""
    if not 0 < tau <= 1:
        raise ConfigurationError(f"tau must be in (0,1], got {tau}")
    for pt, ps in zip(target.parameters(), source.parameters()):
        pt *= 1.0 - tau
        pt += tau * ps


def numeric_param_grads(
    mlp: Mlp, x: np.ndarray, loss_weights: np.ndarray, h: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradients of L = sum(forward(x) * loss_weights).

    Test oracle only: O(n_params) forward passes.
    """
    grads = []
    for p in mlp.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = float(np.sum(mlp.forward(x) * loss_weights))
            p[idx] = orig - h
            lm = float(np.sum(mlp.forward(x) * loss_weights))
            p[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def min_relu_preactivation_margin(mlp: Mlp, x: np.ndarray) -> float:
    """Smallest |pre-activation| over relu layers for the given batch.

    Finite-difference gradient checks are only trustworthy when no relu
    input sits near its kink; callers assert this margin first.
    """
    mlp.forward(x)
    margin = np.inf
    for (a_in, z, a_out), act in zip(mlp._cache, mlp.activations):
        if act == "relu":
            margin = min(margin, float(np.abs(z).min()))
    return margin
