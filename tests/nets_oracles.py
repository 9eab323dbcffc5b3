"""List-form oracles for `driftwatch.nets` and the window AE's training loop.

`reference_forward` and `reference_backward` are `Mlp.forward` and
`Mlp.backward` as first written: every layer keeps its (input,
pre-activation, output) triple and the activation derivative is a fresh
array from the pre-activation.  With `ReferenceAdam` and
`reference_soft_update` they work on per-array parameters.  The
flat-buffer, in-place versions must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from driftwatch.nets import Mlp


def reference_forward(weights, biases, acts, x):
    cache, a = [], x
    for w, b, act in zip(weights, biases, acts):
        z = a @ w + b
        a_next = (np.maximum(z, 0.0) if act == "relu"
                  else np.tanh(z) if act == "tanh" else z)
        cache.append((a, z, a_next))
        a = a_next
    return a, cache


def reference_backward(weights, acts, cache, dout):
    """(dL/dx, [dW0, db0, dW1, db1, ...])."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    da = dout
    for i in range(len(weights) - 1, -1, -1):
        a_in, z, a_out = cache[i]
        if acts[i] == "relu":
            d_act = (z > 0.0).astype(z.dtype)
        elif acts[i] == "tanh":
            d_act = 1.0 - a_out * a_out
        else:
            d_act = np.ones_like(z)
        dz = da * d_act
        grads_w[i] = a_in.T @ dz
        grads_b[i] = dz.sum(axis=0)
        da = dz @ weights[i].T
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend([gw, gb])
    return da, grads


class ReferenceAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = params, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def reference_soft_update(target_params, source_params, tau):
    for pt, ps in zip(target_params, source_params):
        pt *= 1.0 - tau
        pt += tau * ps


def joined(arrays) -> bytes:
    return b"".join(a.tobytes() for a in arrays)


def reference_window_ae_train(streams, window=32, bottleneck=4, hidden=16,
                              epochs=200, lr=1e-3, threshold_stds=3.0, seed=0):
    """`detectors.window_ae_train` as first written, on the list-form nets.

    Returns (flat parameters, mean, std, threshold, loss curve).
    """
    x_raw = np.stack([s[i:i + window] for s in streams
                      for i in range(len(s) - window + 1)])
    mu = float(x_raw.mean())
    sd = float(max(x_raw.std(), 1e-6))
    x = (x_raw - mu) / sd
    acts = ["relu", "linear", "relu", "linear"]
    init = Mlp([window, hidden, bottleneck, hidden, window], acts,
               np.random.default_rng(seed))
    params = [p.copy() for wb in zip(init.weights, init.biases) for p in wb]
    opt = ReferenceAdam(params, lr)
    curve = []
    for _ in range(epochs):
        recon, cache = reference_forward(params[0::2], params[1::2], acts, x)
        err = recon - x
        curve.append(float(np.mean(err**2)))
        _, grads = reference_backward(params[0::2], acts, cache,
                                      2.0 * err / err.size)
        opt.step(grads)
    recon, _ = reference_forward(params[0::2], params[1::2], acts, x)
    per_window = np.mean((recon - x) ** 2, axis=1)
    threshold = float(per_window.mean() + threshold_stds * per_window.std())
    return np.concatenate([p.ravel() for p in params]), mu, sd, threshold, curve
