"""Finite-difference gradient checks for `driftwatch.nets.Mlp`.

Test oracles only: `numeric_param_grads` runs two forward passes per
parameter.
"""

from __future__ import annotations

import numpy as np

from driftwatch.nets import Mlp
from nets_oracles import reference_forward


def numeric_param_grads(
    mlp: Mlp, x: np.ndarray, loss_weights: np.ndarray, h: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradients of L = sum(forward(x) * loss_weights),
    one array per weight and bias as `split_like` cuts them; each entry of
    `mlp.flat` is perturbed in turn.

    Test oracle only: O(n_params) forward passes.
    """
    flat = mlp.flat
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float(np.sum(mlp.forward(x) * loss_weights))
        flat[i] = orig - h
        lm = float(np.sum(mlp.forward(x) * loss_weights))
        flat[i] = orig
        grad[i] = (lp - lm) / (2.0 * h)
    return split_like(mlp, grad)


def min_relu_preactivation_margin(mlp: Mlp, x: np.ndarray) -> float:
    """Smallest |pre-activation| over relu layers for the given batch.

    Finite-difference gradient checks are only trustworthy when no relu
    input sits near its kink; callers assert this margin first.  Each
    pre-activation is recomputed as a_in @ W + b from the public weights.
    """
    _, layers = reference_forward(mlp.weights, mlp.biases, mlp.activations,
                                  np.asarray(x, dtype=float))
    margin = np.inf
    for (a_in, z, a_out), act in zip(layers, mlp.activations):
        if act == "relu":
            margin = min(margin, float(np.abs(z).min()))
    return margin


def split_like(mlp: Mlp, flat: np.ndarray) -> list[np.ndarray]:
    """A vector laid out like `mlp.flat` cut into views shaped w0, b0, w1,
    b1, ... like `mlp.weights` and `mlp.biases`."""
    out, off = [], 0
    for wb in zip(mlp.weights, mlp.biases):
        for p in wb:
            out.append(flat[off:off + p.size].reshape(p.shape))
            off += p.size
    return out
