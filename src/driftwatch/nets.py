"""Minimal dense networks with hand-written backprop, Adam, soft updates.

Everything is float64 numpy on batches: x is (rows, width), and dL/dy is
shaped like the output.  Layers cache their forward pass, so the usage
pattern is strictly forward(x) then backward(dL/dy) per batch; an
inference pass (`cache=False`) in between touches neither.
No general autodiff: exactly what two small actor/critic heads need.

Each network keeps all of its parameters in one contiguous vector,
`flat`, laid out w0, b0, w1, b1, ... in the order `to_arrays` writes
them; `weights[i]` and `biases[i]` are reshaped views into it.  Adam and
the soft update therefore work on one vector per network.

A net computes in buffers it owns and keeps while the batch size
repeats, so a full-batch training loop allocates little after its first
pass; a new batch size reallocates them.  A cached forward writes one
post-activation array per layer and returns the last.  `backward` writes
dL/dz per layer except a linear output layer, whose dL/dz is the
caller's dL/dy, and the parameter gradient, a vector laid out like
`flat`.  Derivatives are not kept: relu multiplies by its mask a > 0 and
tanh by a temporary 1 - a*a.  The input gradient, when asked for, is a
fresh array.  A later call may overwrite the output and the parameter
gradient an earlier one returned, so copy what must outlive it.
`forward(cache=False)` computes into fresh arrays that nothing
overwrites, and leaves the buffers and the cached pass as they were.

`save_npz` and `load_npz` are the one npz codec for every file of
networks, the agent checkpoint and the window autoencoder alike: a schema
tag, a header of small arrays, then each net's parameters under its own
prefix.  Any fault in such a file is a CorruptCheckpointError.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DimensionMismatchError,
)

_ACTIVATIONS = ("relu", "tanh", "linear")

# Adam's moment decay rates and denominator guard; no study varies them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _layer_views(buf: np.ndarray, layer_sizes: list[int]):
    """(weight views, bias views) into `buf`, laid out w0, b0, w1, b1, ..."""
    weights, biases = [], []
    off = 0
    for d_in, d_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(buf[off:off + d_in * d_out].reshape(d_in, d_out))
        off += d_in * d_out
        biases.append(buf[off:off + d_out])
        off += d_out
    return weights, biases


class Mlp:
    """Dense stack: layer i computes act_i(x @ W_i + b_i)."""

    def __init__(
        self,
        layer_sizes: list[int],
        activations: list[str],
        rng: np.random.Generator,
        final_init_scale: float = 1.0,
    ):
        self._allocate(layer_sizes, activations)
        for i, w in enumerate(self.weights):
            # He scaling for relu layers, Xavier-style for tanh/linear.
            d_in = w.shape[0]
            if activations[i] == "relu":
                std = np.sqrt(2.0 / d_in)
            else:
                std = np.sqrt(1.0 / d_in)
            if i == len(activations) - 1:
                std *= final_init_scale
            w[...] = rng.normal(0.0, std, size=w.shape)

    def _allocate(self, layer_sizes, activations, flat=None) -> None:
        """Check the shape chain and lay the parameters out in `flat`.

        `flat` defaults to zeros; a given vector is adopted, not copied.
        """
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
        if flat is None:
            flat = np.zeros(sum((d_in + 1) * d_out for d_in, d_out
                                in zip(layer_sizes, layer_sizes[1:])))
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, self.layer_sizes)
        self._grad: np.ndarray | None = None
        self._x = self._work = None  # the cached forward's input and buffers

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
        """Rebuild a network written by `to_arrays`, validating the shape chain.

        `data` maps each `{prefix}w{i}` / `{prefix}b{i}` to its array; a
        missing entry raises KeyError.
        """
        net = object.__new__(cls)
        net._allocate([int(s) for s in sizes], [str(a) for a in acts])
        for i, (w_view, b_view) in enumerate(zip(net.weights, net.biases)):
            w = np.asarray(data[f"{prefix}w{i}"], dtype=float)
            b = np.asarray(data[f"{prefix}b{i}"], dtype=float)
            if w.shape != w_view.shape or b.shape != b_view.shape:
                raise DimensionMismatchError(
                    f"layer {i}: stored shapes {w.shape}/{b.shape} do not match "
                    f"declared sizes {w_view.shape}/{b_view.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigurationError(f"layer {i}: non-finite parameters")
            w_view[...] = w
            b_view[...] = b
        return net

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _buffers(self, n: int):
        """(outputs, dL/dz) for n rows; a linear output layer has no dL/dz."""
        sizes = self.layer_sizes[1:]
        last = (None if self.activations[-1] == "linear"
                else np.empty((n, sizes[-1])))
        return ([np.empty((n, d)) for d in sizes],
                [np.empty((n, d)) for d in sizes[:-1]] + [last])

    def forward(self, x: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Output for a (rows, width) batch, one output row per input row.

        A cached pass writes each layer into this net's buffer for the batch
        size and returns the last one.  `cache=False` writes into fresh
        arrays and leaves the buffers and the cached pass alone.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatchError(
                f"expected (rows, {self.layer_sizes[0]}) input, got {x.shape}"
            )
        if not cache:
            outs = [None] * self.n_layers
        else:
            if self._work is None or len(self._work[0][0]) != len(x):
                self._work = self._buffers(len(x))
            outs = self._work[0]
        a = x
        for w, b, act, out in zip(self.weights, self.biases,
                                  self.activations, outs):
            a = np.matmul(a, w, out=out)
            a += b
            if act == "relu":
                np.maximum(a, 0.0, out=a)
            elif act == "tanh":
                np.tanh(a, out=a)
        if cache:
            self._x = x
        return a

    def backward(
        self,
        dout: np.ndarray,
        *,
        param_grad: bool = True,
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Backpropagate dL/dy through the last cached forward pass.

        dL/dy is shaped like that pass's output.  Returns (dL/dx,
        dL/d`flat`); either is None when its flag is off, and then it is
        not computed.  dL/dx is a fresh array.  The parameter gradient,
        laid out like `flat`, is this net's own buffer: the next
        `backward` overwrites it, so copy it to keep it.
        """
        if self._x is None:
            raise ConfigurationError("backward called before forward")
        outs, dzs = self._work
        dout = np.asarray(dout, dtype=float)
        if dout.shape != outs[-1].shape:
            raise DimensionMismatchError(
                f"expected dL/dy of shape {outs[-1].shape}, got {dout.shape}"
            )
        if param_grad and self._grad is None:
            self._grad = np.empty_like(self.flat)
            self._grad_w, self._grad_b = _layer_views(self._grad,
                                                      self.layer_sizes)
        da = dout
        for i in range(self.n_layers - 1, -1, -1):
            # relu': the mask a > 0, i.e. z > 0 (NaN gives False), which the
            # multiply casts to exactly 1.0 or 0.0; tanh': 1 - a*a.  Multiplied
            # as floats, so NaN, +-inf and -0.0 in dL/da carry.
            act, a_out, deriv = self.activations[i], outs[i], None
            if act == "relu":
                deriv = a_out > 0.0
            elif act == "tanh":
                deriv = 1.0 - a_out * a_out
            dz = da if deriv is None else np.multiply(da, deriv, out=dzs[i])
            if param_grad:
                a_in = outs[i - 1] if i > 0 else self._x
                np.matmul(a_in.T, dz, out=self._grad_w[i])
                dz.sum(axis=0, out=self._grad_b[i])
            if i > 0:
                da = np.matmul(dz, self.weights[i].T, out=dzs[i - 1])
            elif input_grad:
                da = np.matmul(dz, self.weights[0].T)
        return (da if input_grad else None), (self._grad if param_grad else None)

    def copy(self) -> "Mlp":
        twin = object.__new__(Mlp)
        twin._allocate(self.layer_sizes, self.activations, self.flat.copy())
        return twin


class Adam:
    """Adam over one parameter vector (such as `Mlp.flat`), updated in place."""

    def __init__(self, params: np.ndarray, lr: float):
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._tmp = np.empty_like(params)
        self._step = np.empty_like(params)

    def step(self, grad: np.ndarray) -> None:
        if np.shape(grad) != self.params.shape:
            raise DimensionMismatchError(
                f"expected a gradient of shape {self.params.shape}, "
                f"got {np.shape(grad)}"
            )
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        m, v, tmp, step = self.m, self.v, self._tmp, self._step
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= grad
        v += tmp
        # p -= (lr (m / b1t)) / (sqrt(v / b2t) + eps)
        np.divide(v, b2t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, b1t, out=step)
        step *= self.lr
        step /= tmp
        self.params -= step


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Polyak-average source parameters into the target, in place."""
    if not 0 < tau <= 1:
        raise ConfigurationError(f"tau must be in (0,1], got {tau}")
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


def save_npz(path, schema: str, header: dict, nets: dict[str, Mlp]) -> None:
    """Write `schema`, the header entries, then each net under its prefix."""
    arrays = {"schema": np.array(schema)}
    arrays.update((key, np.asarray(value)) for key, value in header.items())
    for prefix, net in nets.items():
        arrays.update(net.to_arrays(prefix))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_npz(path, schema: str, what: str, read):
    """`read(data)` of the npz at `path`, once its schema is checked.

    An unreadable file, a wrong schema, a missing entry or a value that
    `read` rejects is a CorruptCheckpointError naming `what` and the file.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CorruptCheckpointError(f"cannot read {what} {path}: {exc}")
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CorruptCheckpointError(f"{what} {path} is not an npz archive")
    with data:
        try:
            found = str(data["schema"]) if "schema" in data else None
            if found != schema:
                raise CorruptCheckpointError(
                    f"{what} {path} has schema {found!r}, expected {schema!r}"
                )
            return read(data)
        except (KeyError, TypeError, ValueError, DimensionMismatchError,
                ConfigurationError) as exc:
            raise CorruptCheckpointError(f"{what} {path} failed to load: {exc}")
