"""Pseudorange simulation and iterative least-squares position/time solving.

A pseudorange to satellite i is the true geometric range plus a common
receiver clock bias (expressed in meters) plus measurement noise.  The
solver linearizes around the current estimate and applies Gauss-Newton
corrections until the correction norm drops below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1

from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)

# Ranges shorter than this are treated as degenerate geometry: the unit
# line-of-sight vector (and hence the Jacobian row) is no longer meaningful.
MIN_RANGE_M = 1.0


@dataclass(frozen=True)
class Constellation:
    """Satellites visible for the whole scenario.

    `positions` holds one satellite per row, shape (N, 3), in meters: a
    read-only copy of the array it was built from.
    """

    positions: np.ndarray

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class PvtSolution:
    """Outcome of an iterative PVT solve; the fix `x` is (x, y, z, bias)."""

    x: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool
    residuals: np.ndarray


def make_constellation(
    n_sats: int = 8,
    radius: float = 2.0e7,
    seed: int = 0,
    min_separation_deg: float = 10.0,
) -> Constellation:
    """Place satellites on the upper hemisphere of a sphere around the origin.

    Directions are rejection-sampled so that every pair is separated by at
    least ``min_separation_deg``, which keeps the PVT geometry well
    conditioned over the airspace near the origin.
    """
    if n_sats < 4:
        raise ConfigurationError(f"need at least 4 satellites, got {n_sats}")
    if radius < 1.0e7:
        raise ConfigurationError(f"orbit radius must be >= 1e7 m, got {radius}")
    rng = np.random.default_rng(seed)
    min_cos = np.cos(np.deg2rad(min_separation_deg))
    dirs: list[np.ndarray] = []
    attempts = 0
    while len(dirs) < n_sats:
        attempts += 1
        if attempts > 100_000:
            raise ConfigurationError(
                f"could not place {n_sats} satellites with "
                f"{min_separation_deg} deg separation"
            )
        # Uniform on the upper hemisphere: z ~ U(0,1], azimuth ~ U[0,2pi).
        z = rng.uniform(0.05, 1.0)
        az = rng.uniform(0.0, 2.0 * np.pi)
        r_xy = np.sqrt(1.0 - z * z)
        d = np.array([r_xy * np.cos(az), r_xy * np.sin(az), z])
        if all(float(d @ prev) < min_cos for prev in dirs):
            dirs.append(d)
    return Constellation(radius * np.array(dirs))


def _line_of_sight(position: np.ndarray, positions: np.ndarray):
    """Satellite-to-receiver offsets, shape (N, 3), and their lengths.

    The lengths are the geometric ranges, computed as `np.linalg.norm`
    computes them along axis 1.
    """
    sep = position - positions
    return sep, np.sqrt(np.add.reduce(sep * sep, axis=1))


def _fill_jacobian(h: np.ndarray, sep: np.ndarray, ranges: np.ndarray) -> None:
    """Write the unit line-of-sight rows into h[:, :3]; h[:, 3] holds ones."""
    if (ranges < MIN_RANGE_M).any():
        raise DegenerateGeometryError("receiver estimate coincides with a satellite")
    np.divide(sep, ranges[:, None], out=h[:, :3])


def predicted_pseudoranges(
    position: np.ndarray, clock_bias: float, constellation: Constellation
) -> np.ndarray:
    """Model pseudoranges at a receiver: geometric range plus clock bias."""
    _, ranges = _line_of_sight(position, constellation.positions)
    return ranges + clock_bias


def measure_pseudoranges(
    position: np.ndarray,
    clock_bias: float,
    constellation: Constellation,
    noise_sigma: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Simulate one epoch of pseudoranges (meters) with iid Gaussian noise
    at the true position and clock bias (range-equivalent meters).

    `rng` is drawn from only when noise_sigma > 0, so it may be None at 0.
    """
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    clean = predicted_pseudoranges(position, clock_bias, constellation)
    noise = rng.normal(0.0, noise_sigma, size=len(clean)) if noise_sigma > 0 else 0.0
    return clean + noise


def _gauss_newton_step(
    x: np.ndarray, measured: np.ndarray, positions: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, float]:
    """Gauss-Newton step from x = (x, y, z, bias); returns (new x, correction norm).

    The ranges at x serve both the residual and the Jacobian, which is
    written into `h`, an (N, 4) array whose last column holds ones.  The
    normal equations go straight to the LAPACK gufunc (`dgesv`) that
    `np.linalg.solve` wraps; `_check_rank` has already rejected every
    matrix it could find singular.
    """
    sep, ranges = _line_of_sight(x[:3], positions)
    delta = measured - (ranges + x[3])
    _fill_jacobian(h, sep, ranges)
    normal = h.T @ h
    _check_rank(normal)
    correction = solve1(normal, h.T @ delta, signature="dd->d")
    step_norm = math.sqrt(correction.dot(correction))
    if not math.isfinite(step_norm):
        raise LinAlgError("Gauss-Newton correction is not finite")
    return x + correction, step_norm


def _check_rank(normal: np.ndarray) -> None:
    """Raise SingularGeometryError unless the normal matrix is well conditioned.

    The guard is on the 2-norm condition number s_max / s_min (infinite
    when s_min is 0): it must not exceed 1e12.  The SVD that gives it runs
    only when the cheaper bound of `_well_conditioned` cannot vouch for the
    matrix.  NaN entries make the SVD raise LinAlgError.
    """
    if _well_conditioned(normal.tolist()):
        return
    s = np.linalg.svd(normal, compute_uv=False).tolist()
    if not (s[-1] > 0.0 and s[0] / s[-1] <= 1e12):
        raise SingularGeometryError("satellite geometry is rank deficient")


def _well_conditioned(a: list) -> bool:
    """Cheap sufficient test that a 4x4 normal matrix passes the SVD guard.

    The normal matrix A = H^T H is symmetric positive semi-definite, so
    its singular values are its eigenvalues l1 >= ... >= l4 >= 0, with
    l1 <= tr(A) and l4 = det(A) / (l1 l2 l3) >= det(A) / tr(A)^3.  Hence
    cond(A) <= tr(A)^4 / det(A).  The test asks for tr^4 <= 1e11 det, ten
    times inside the guard's 1e12.  Every entry is at most tr in size, so
    the rounding error of det taken from 2x2 minors is below 300 eps tr^4;
    when the test passes that is below 1e-2 of det, so the exact det is at
    least 0.99 of the computed one and cond(A) < 1.02e11.  The SVD's
    singular values are exact to a few eps times s_max, which moves that
    ratio by far less than the margin, so every matrix accepted here passes
    the SVD guard.  Rounding can leave the computed H^T H with eigenvalues
    a few eps tr below zero: one makes det negative, two make det smaller
    than 1e-20 tr^4, and both fail the test.  NaN, inf, a non-positive det
    and an overflowing product all fail it too and go to the SVD.
    """
    r0, r1, r2, r3 = a
    a00, a01, a02, a03 = r0
    a10, a11, a12, a13 = r1
    a20, a21, a22, a23 = r2
    a30, a31, a32, a33 = r3
    # Laplace expansion along the top two rows
    det = ((a00 * a11 - a01 * a10) * (a22 * a33 - a23 * a32)
           - (a00 * a12 - a02 * a10) * (a21 * a33 - a23 * a31)
           + (a00 * a13 - a03 * a10) * (a21 * a32 - a22 * a31)
           + (a01 * a12 - a02 * a11) * (a20 * a33 - a23 * a30)
           - (a01 * a13 - a03 * a11) * (a20 * a32 - a22 * a30)
           + (a02 * a13 - a03 * a12) * (a20 * a31 - a21 * a30))
    tr = a00 + a11 + a22 + a33
    tr2 = tr * tr
    return 0.0 < det and tr2 * tr2 <= 1e11 * det < math.inf


def solve_pvt(
    measurements: np.ndarray,
    constellation: Constellation,
    init: np.ndarray | None = None,
    tol: float = 1e-4,
    max_iter: int = 20,
) -> PvtSolution:
    """Iterate Gauss-Newton steps from ``init`` (origin by default).

    ``measurements`` is a 1-D array of pseudoranges in meters, one per
    satellite of ``constellation``.  ``init`` is a (4,) vector (x, y, z,
    bias), which is copied, never written.  Convergence means the last
    correction norm fell below ``tol``.  The returned fix ``x`` has the
    same layout, and the residuals are evaluated at it.
    """
    if len(measurements) < 4:
        raise ConfigurationError(
            f"need at least 4 pseudoranges to solve, got {len(measurements)}"
        )
    if len(measurements) != len(constellation):
        raise ConfigurationError(
            f"{len(measurements)} measurements for {len(constellation)} satellites"
        )
    positions = constellation.positions
    x = np.zeros(4) if init is None else np.array(init, dtype=float)
    h = np.ones((len(constellation), 4))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x, step_norm = _gauss_newton_step(x, measurements, positions, h)
        if step_norm < tol:
            converged = True
            break
    _, ranges = _line_of_sight(x[:3], positions)
    final = measurements - (ranges + x[3])
    return PvtSolution(
        x=x,
        iterations=iterations,
        final_residual_norm=math.sqrt(final.dot(final)),
        converged=converged,
        residuals=final,
    )
