"""The numpy kernel facts the fleet controller rests on.

`env.steer_fleet` reproduces `env.steer` bit for bit because each batched
kernel it calls gives, row for row or element for element, the bits of the
call the per-flight form makes.  A numpy or BLAS build that breaks one of
these facts fails here with the kernel named, instead of as a mismatch in
a golden file.
"""

import math

import numpy as np
import pytest

from driftwatch.env import _columns, _rowdot

SIZES = (1, 2, 3, 7, 20, 64, 301)  # one row, SIMD tails, a full study


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", SIZES)
def test_stacked_matmul_rows_are_ndarray_dot(rows):
    """One `ddot` per row: the 3-vectors of a (B, 3) array and the leading
    2-vectors of its rows, as `ndarray.dot` of one row gives them."""
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
    b = rng.normal(size=(rows, 3)) * 40.0
    for x, y in ((a, b), (a, a), (a[:, :2], b[:, :2]), (b[:, :2], b[:, :2])):
        assert same_bits(_rowdot(x, y), [u.dot(v) for u, v in zip(x, y)]), \
            f"matmul rows of {x.shape[1]}-vectors differ from ndarray.dot"


@pytest.mark.parametrize("rows", SIZES)
def test_stacked_matrix_vector_rows_are_2d_dot(rows):
    """One `dgemv` per row: (B, 3, 3) @ (B, 3, 1) as 2-D `.dot` gives it."""
    rng = np.random.default_rng(100 + rows)
    m = np.eye(3) + rng.normal(size=(rows, 3, 3))
    v = rng.normal(size=(rows, 3)) * 10.0
    got = np.matmul(m, v[:, :, None])[:, :, 0]
    assert same_bits(got, [mi.dot(vi) for mi, vi in zip(m, v)]), \
        "stacked matrix-vector rows differ from 2-D dot"


@pytest.mark.parametrize("rows", SIZES)
def test_elementwise_kernels_on_arrays_are_their_0d_calls(rows):
    """`exp`, `cos`, `sin` and `arctan2` on contiguous arrays, and the
    float remainder, give each element the bits of a call on one float."""
    rng = np.random.default_rng(200 + rows)
    x = rng.uniform(-60.0, 10.0, size=rows)
    angle = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=rows)
    y, z = _columns(rng.normal(size=(rows, 2)) * rng.choice([0.0, 1e-9, 1.0, 8.0],
                                                            size=(rows, 2)))
    cases = {"exp": (np.exp, (x,)), "cos": (np.cos, (angle,)),
             "sin": (np.sin, (angle,)), "arctan2": (np.arctan2, (y, z))}
    for name, (kernel, args) in cases.items():
        alone = [kernel(*values) for values in zip(*(a.tolist() for a in args))]
        assert same_bits(kernel(*args), alone), f"np.{name} on an array differs"
    d = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, size=rows)
    assert same_bits(d % (2.0 * math.pi),
                     [v % (2.0 * math.pi) for v in d.tolist()]), \
        "numpy's float remainder differs from Python's"
