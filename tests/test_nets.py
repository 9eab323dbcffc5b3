"""Tests for the dense-network building blocks and their gradients."""

import io
import tracemalloc

import numpy as np
import pytest

from driftwatch.errors import ConfigurationError, DimensionMismatchError
from driftwatch.nets import Adam, Mlp, soft_update
from gradcheck import min_relu_preactivation_margin, numeric_param_grads, split_like
from nets_oracles import (
    ReferenceAdam,
    joined,
    reference_backward,
    reference_forward,
    reference_soft_update,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def check_gradients(layer_sizes, activations, seed, batch=4):
    """Analytic vs central-difference parameter gradients, per array."""
    rng = np.random.default_rng(seed)
    mlp = Mlp(layer_sizes, activations, rng)
    x = rng.normal(size=(batch, layer_sizes[0]))
    margin = min_relu_preactivation_margin(mlp, x)
    assert margin > 1e-3, f"seed {seed} puts a relu input at its kink ({margin})"
    loss_w = rng.normal(size=(batch, layer_sizes[-1]))

    mlp.forward(x)
    analytic = split_like(mlp, mlp.backward(loss_w)[1])
    numeric = numeric_param_grads(mlp, x, loss_w, h=1e-5)
    errs = [rel_err(a, n) for a, n in zip(analytic, numeric)]
    assert max(errs) < 1e-4, f"gradient mismatch: {errs}"


def test_policy_shape_gradients():
    check_gradients([9, 64, 64, 3], ["relu", "relu", "tanh"], seed=101)


def test_value_shape_gradients():
    check_gradients([12, 64, 64, 1], ["relu", "relu", "linear"], seed=201)


def test_small_net_gradients_all_activations():
    check_gradients([3, 5, 4, 2], ["tanh", "relu", "linear"], seed=200)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    mlp = Mlp([4, 8, 2], ["relu", "tanh"], rng)
    x = rng.normal(size=(3, 4))
    assert min_relu_preactivation_margin(mlp, x) > 1e-3
    loss_w = rng.normal(size=(3, 2))
    mlp.forward(x)
    dx, _ = mlp.backward(loss_w)
    fd = np.zeros_like(x)
    h = 1e-5
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd[i, j] = (np.sum(mlp.forward(xp) * loss_w)
                        - np.sum(mlp.forward(xm) * loss_w)) / (2 * h)
    assert rel_err(dx, fd) < 1e-6


def test_single_linear_layer_is_affine_map():
    rng = np.random.default_rng(1)
    mlp = Mlp([3, 2], ["linear"], rng)
    x = rng.normal(size=(5, 3))
    np.testing.assert_allclose(mlp.forward(x), x @ mlp.weights[0] + mlp.biases[0])
    dout = rng.normal(size=(5, 2))
    mlp.forward(x)
    dx, grad = mlp.backward(dout)
    grads = split_like(mlp, grad)
    np.testing.assert_allclose(dx, dout @ mlp.weights[0].T)
    np.testing.assert_allclose(grads[0], x.T @ dout)
    np.testing.assert_allclose(grads[1], dout.sum(axis=0))


def test_batch_gradients_are_sums_of_singles():
    rng = np.random.default_rng(3)
    mlp = Mlp([4, 6, 2], ["tanh", "linear"], rng)
    xs = rng.normal(size=(3, 4))
    ws = rng.normal(size=(3, 2))
    mlp.forward(xs)
    # the returned gradient is the net's buffer: copy it before the next
    # backward overwrites it
    batch_grad = mlp.backward(ws)[1].copy()
    summed = np.zeros_like(batch_grad)
    for i in range(3):
        mlp.forward(xs[i:i + 1])
        summed += mlp.backward(ws[i:i + 1])[1]
    np.testing.assert_allclose(batch_grad, summed, atol=1e-12)


def test_construction_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        Mlp([4], ["relu"], rng)
    with pytest.raises(ConfigurationError):
        Mlp([4, 3], ["relu", "tanh"], rng)
    with pytest.raises(ConfigurationError):
        Mlp([4, 3], ["sigmoid"], rng)
    mlp = Mlp([4, 3], ["relu"], rng)
    with pytest.raises(DimensionMismatchError):
        mlp.forward(np.zeros((2, 5)))
    with pytest.raises(ConfigurationError):
        Mlp([4, 3], ["relu"], rng).backward(np.zeros((1, 3)))


@pytest.mark.parametrize("shape", [(4,), (1, 1, 4), ()])
def test_forward_takes_a_batch_only(shape):
    """A row is a (1, width) batch: a 1-D row, or any other rank, is refused."""
    mlp = Mlp([4, 3], ["relu"], np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match=r"\(rows, 4\)"):
        mlp.forward(np.zeros(shape))
    with pytest.raises(DimensionMismatchError):
        mlp.forward(np.zeros(shape), cache=False)


@pytest.mark.parametrize("acts", [["relu", "tanh"], ["relu", "relu"],
                                  ["tanh", "linear"]])
@pytest.mark.parametrize("shape", [(2,), (1, 2), (4, 2), (5, 1), (5, 3)])
def test_backward_takes_dout_shaped_like_the_output(acts, shape):
    """dL/dy for a 5-row pass is (5, 2): a row, a shorter batch or another
    width is refused, never broadcast over the rows."""
    rng = np.random.default_rng(1)
    mlp = Mlp([3, 4, 2], acts, rng)
    mlp.forward(rng.normal(size=(5, 3)))
    with pytest.raises(DimensionMismatchError, match=r"\(5, 2\)"):
        mlp.backward(np.ones(shape))
    dx, grad = mlp.backward(np.ones((5, 2)))
    assert dx.shape == (5, 3) and grad.shape == mlp.flat.shape


def test_final_init_scale_shrinks_output_layer():
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    big = Mlp([4, 8, 2], ["relu", "tanh"], rng_a, final_init_scale=1.0)
    small = Mlp([4, 8, 2], ["relu", "tanh"], rng_b, final_init_scale=0.01)
    np.testing.assert_allclose(small.weights[0], big.weights[0])
    np.testing.assert_allclose(small.weights[1], big.weights[1] * 0.01)


def test_init_determinism():
    a = Mlp([5, 7, 2], ["relu", "linear"], np.random.default_rng(9))
    b = Mlp([5, 7, 2], ["relu", "linear"], np.random.default_rng(9))
    np.testing.assert_array_equal(a.flat, b.flat)


def test_copy_is_independent():
    mlp = Mlp([3, 4, 1], ["relu", "linear"], np.random.default_rng(4))
    twin = mlp.copy()
    x = np.ones((1, 3))
    np.testing.assert_allclose(twin.forward(x), mlp.forward(x))
    twin.weights[0] += 1.0
    assert not np.allclose(twin.weights[0], mlp.weights[0])


def test_adam_first_step_size():
    """With constant unit gradient the bias-corrected first step is ~lr."""
    p = np.array([1.0])
    opt = Adam(p, lr=0.1)
    opt.step(np.array([1.0]))
    assert np.isclose(p[0], 1.0 - 0.1, atol=1e-6)


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(6)
    p = rng.normal(size=(4,))
    target = np.array([1.0, -2.0, 0.5, 3.0])
    opt = Adam(p, lr=0.05)
    for _ in range(2000):
        opt.step(2.0 * (p - target))
    np.testing.assert_allclose(p, target, atol=1e-4)


def test_adam_rejects_mismatched_grads():
    p = np.zeros(3)
    opt = Adam(p, lr=0.1)
    with pytest.raises(DimensionMismatchError):
        opt.step(np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        opt.step(np.zeros((2, 3)))
    assert opt.t == 0 and not p.any()
    with pytest.raises(ConfigurationError):
        Adam(p, lr=0.0)


def test_soft_update_blends_and_copies():
    src = Mlp([3, 4, 2], ["relu", "tanh"], np.random.default_rng(10))
    tgt = src.copy()
    tgt.flat *= 0.0
    expected = 0.005 * src.flat
    soft_update(tgt, src, tau=0.005)
    np.testing.assert_allclose(tgt.flat, expected)
    soft_update(tgt, src, tau=1.0)
    np.testing.assert_allclose(tgt.flat, src.flat)
    with pytest.raises(ConfigurationError):
        soft_update(tgt, src, tau=0.0)


def test_flat_layout_and_aliasing():
    mlp = Mlp([5, 7, 2], ["relu", "linear"], np.random.default_rng(13))
    assert mlp.flat.shape == (5 * 7 + 7 + 7 * 2 + 2,)
    np.testing.assert_array_equal(mlp.flat, np.concatenate(
        [p.ravel() for wb in zip(mlp.weights, mlp.biases) for p in wb]))
    for p in mlp.weights + mlp.biases:
        assert np.shares_memory(p, mlp.flat)
    twin = mlp.copy()
    arrays = {k: v.copy() for k, v in mlp.to_arrays().items()}
    stored = list(arrays.values())
    rebuilt = Mlp.from_arrays(arrays, mlp.layer_sizes, mlp.activations)
    for other in (twin, rebuilt):
        np.testing.assert_array_equal(other.flat, mlp.flat)
        for p in other.weights + other.biases:
            assert np.shares_memory(p, other.flat)
            assert not np.shares_memory(p, mlp.flat)
            assert not any(np.shares_memory(p, q) for q in stored)


def test_to_arrays_writes_the_same_npz_bytes():
    """Views into `flat` serialise exactly like standalone arrays."""
    mlp = Mlp([9, 64, 64, 3], ["relu", "relu", "tanh"], np.random.default_rng(14))
    got, want = io.BytesIO(), io.BytesIO()
    np.savez(got, **mlp.to_arrays("actor_"))
    np.savez(want, **{k: np.array(v) for k, v in mlp.to_arrays("actor_").items()})
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("sizes, acts, final_scale", [
    ([9, 64, 64, 3], ["relu", "relu", "tanh"], 0.01),
    ([12, 64, 64, 1], ["relu", "relu", "linear"], 1.0),
    ([32, 16, 4, 16, 32], ["relu", "linear", "relu", "linear"], 1.0),
], ids=["actor", "critic", "ae"])
def test_flat_training_matches_list_reference(sizes, acts, final_scale):
    """50 steps of backward, Adam and soft update, bit for bit."""
    rng = np.random.default_rng(15)
    net = Mlp(sizes, acts, rng, final_init_scale=final_scale)
    target = net.copy()
    params = [p.copy() for p in split_like(net, net.flat)]
    target_params = [p.copy() for p in params]
    opt = Adam(net.flat, 1e-3)
    ref_opt = ReferenceAdam(params, 1e-3)
    for _ in range(50):
        x = rng.normal(size=(8, sizes[0]))
        dout = rng.normal(size=(8, sizes[-1]))
        y = net.forward(x)
        ref_y, cache = reference_forward(params[0::2], params[1::2], acts, x)
        assert y.tobytes() == ref_y.tobytes()
        ref_dx, ref_grads = reference_backward(params[0::2], acts, cache, dout)

        dx, grad = net.backward(dout)
        assert dx.tobytes() == ref_dx.tobytes()
        assert grad.tobytes() == joined(ref_grads)
        dx_only, no_grad = net.backward(dout, param_grad=False)
        assert no_grad is None and dx_only.tobytes() == ref_dx.tobytes()
        no_dx, grad = net.backward(dout, input_grad=False)
        assert no_dx is None and grad.tobytes() == joined(ref_grads)

        opt.step(grad)
        ref_opt.step(ref_grads)
        soft_update(target, net, 0.005)
        reference_soft_update(target_params, params, 0.005)
    assert net.flat.tobytes() == joined(params)
    assert opt.m.tobytes() == joined(ref_opt.m)
    assert opt.v.tobytes() == joined(ref_opt.v)
    assert target.flat.tobytes() == joined(target_params)


def special_rows(rng, n, width):
    """Random rows cycling through a zero row, a -0.0 row and rows with one
    NaN, +inf or -inf entry; row 0 is the zero row."""
    x = rng.normal(size=(n, width))
    for r in range(n):
        kind = r % 7
        if kind == 0:
            x[r] = 0.0
        elif kind == 1:
            x[r] = -0.0
        elif kind <= 4:
            x[r, r % width] = (np.nan, np.inf, -np.inf)[kind - 2]
    return x


@pytest.mark.parametrize("batch", [1, 64, 1825])
@pytest.mark.parametrize("sizes, acts", [
    ([9, 64, 64, 3], ["relu", "relu", "tanh"]),
    ([12, 64, 64, 1], ["relu", "relu", "linear"]),
    ([32, 16, 4, 16, 32], ["relu", "linear", "relu", "linear"]),
    ([3, 5, 4, 2], ["tanh", "relu", "linear"]),
], ids=["actor", "critic", "ae", "mixed"])
def test_in_place_passes_match_first_written_mlp(sizes, acts, batch):
    """Output, input gradient and parameter gradient, bit for bit, with
    NaN, +-inf, -0.0 and exact-zero pre-activations and NaN, inf and -0.0
    in dL/dy."""
    rng = np.random.default_rng(batch)
    net = Mlp(sizes, acts, rng)
    for b in net.biases:
        b[::2] = 0.0
        b[1::4] = -0.0
    x = special_rows(rng, batch, sizes[0])
    dout = rng.normal(size=(batch, sizes[-1]))
    dout[::5, 0] = -0.0
    dout[1::11, -1] = np.nan
    dout[2::13, 0] = np.inf
    dout[3::17, -1] = 0.0
    with np.errstate(invalid="ignore"):
        ref_y, cache = reference_forward(net.weights, net.biases, acts, x)
        ref_dx, ref_grads = reference_backward(net.weights, acts, cache, dout)
        y = net.forward(x).tobytes()
        dx, grad = net.backward(dout)
        y_inference = net.forward(x, cache=False).tobytes()
    z = np.concatenate([z.ravel() for _, z, _ in cache])
    relu_z = np.concatenate([z.ravel() for (_, z, _), act in zip(cache, acts)
                             if act == "relu"])
    assert (relu_z == 0.0).any()
    if batch > 4:
        assert np.isnan(z).any() and np.isinf(z).any()

    assert y == y_inference == ref_y.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    assert grad.tobytes() == joined(ref_grads)


def test_cached_forward_reuses_buffers_per_batch_size():
    rng = np.random.default_rng(21)
    net = Mlp([4, 8, 3], ["relu", "tanh"], rng)
    x, x2 = rng.normal(size=(2, 5, 4))
    dout = rng.normal(size=(5, 3))
    y = net.forward(x)
    dx, grad = net.backward(dout)
    dx_kept = dx.copy()
    assert net.forward(x2) is y
    # the parameter gradient is a buffer, the input gradient a fresh array
    dx2, grad2 = net.backward(dout)
    assert grad2 is grad
    assert not np.shares_memory(dx2, dx) and dx.tobytes() == dx_kept.tobytes()
    # a new batch size reallocates; the old arrays keep their values
    y_kept = y.copy()
    y7 = net.forward(rng.normal(size=(7, 4)))
    assert y7.shape == (7, 3) and not np.shares_memory(y7, y)
    assert not np.shares_memory(net.backward(rng.normal(size=(7, 3)))[0], dx)
    assert y.tobytes() == y_kept.tobytes()
    # a one-row batch reuses its buffer too
    assert net.forward(x[:1]) is net.forward(x2[:1])


def test_backward_keeps_no_buffer_it_never_writes():
    """A linear output layer's dL/dz is the caller's dL/dy, tanh' is a
    temporary and dL/dx is made only when asked for: after a cached forward
    and a backward without dL/dx the net holds its outputs, the hidden
    layer's dL/dz and the parameter gradient, and nothing of the output's
    or the input's width or a derivative array."""
    rng = np.random.default_rng(23)
    n = 2000
    net = Mlp([4, 8, 3], ["tanh", "linear"], rng)
    x, dout = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        net.forward(x)
        net.backward(dout, input_grad=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = 8 * (n * (8 + 3) + n * 8 + net.flat.size)
    assert kept <= held < kept + 8 * n, (held, kept)


def test_inference_results_are_never_overwritten():
    rng = np.random.default_rng(22)
    net = Mlp([4, 8, 3], ["relu", "tanh"], rng)
    x = rng.normal(size=(5, 4))
    first = net.forward(x, cache=False)
    want = first.tobytes()
    second = net.forward(x, cache=False)
    assert second is not first and not np.shares_memory(first, second)
    for _ in range(2):
        cached = net.forward(2.0 * x)
        net.backward(np.ones((5, 3)))
        assert not np.shares_memory(cached, first)
    net.forward(x, cache=False)
    assert first.tobytes() == want
    # an inference pass, of this batch size or another, leaves the cached
    # forward and its buffers alone: backward after it is backward without it
    dy = rng.normal(size=(5, 3))
    net.forward(2.0 * x)
    dx, grad = net.backward(dy)
    alone = (dx.tobytes(), grad.tobytes())
    work = net._work
    net.forward(2.0 * x)
    net.forward(x, cache=False)
    net.forward(x[:2], cache=False)
    dx, grad = net.backward(dy)
    assert (dx.tobytes(), grad.tobytes()) == alone
    assert net._work is work
