"""Pseudorange simulation and iterative least-squares position/time solving.

A pseudorange to satellite i is the true geometric range plus a common
receiver clock bias (expressed in meters) plus measurement noise.  The
solver linearizes around the current estimate and applies Gauss-Newton
corrections until the correction norm drops below TOL_M, for at most
MAX_ITER steps; both are constants, since no study varies them.

Each estimate's line of sight (the satellite-to-receiver offsets and
their lengths) is computed once: it serves the Gauss-Newton step taken from
that estimate, both residuals and Jacobian, or, at the last estimate, the
fix's residuals.  The fix keeps that last line of sight.

A solve may start from an earlier fix instead of a vector.  The solve is
deterministic in (measurements, init) for one constellation, so when that
fix is stationary (its `x` is bitwise the init it was solved from) and the
new measurements are bitwise the ones it was solved from, the new solve
would repeat the old one operation for operation: `solve_pvt` returns the
fix itself.  A drift spoofer whose ramp
has ended sends the same noiseless epoch again and again, and lands here.
Otherwise the solve starts from the fix's `x` as from a vector, and a fix
solved on the same constellation hands over its line of sight at that `x`
too, which is bitwise the one the vector would give.  Each Constellation
makes the Jacobian buffer that every step writes and reads once, and a
solve builds its frozen PvtSolution without the per-field `__init__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1

from .config import GnssConfig, check_bounds
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)

# Ranges shorter than this are treated as degenerate geometry: the unit
# line-of-sight vector (and hence the Jacobian row) is no longer meaningful.
MIN_RANGE_M = 1.0

# A solve converges when a Gauss-Newton correction is shorter than TOL_M
# (meters, and meters of clock bias) within MAX_ITER steps.
TOL_M = 1e-4
MAX_ITER = 20


@dataclass(frozen=True)
class Constellation:
    """Satellites visible for the whole scenario.

    `positions` holds one satellite per row, shape (N, 3), in meters: a
    read-only copy of the array it was built from.  `_jacobian` is the
    `_jacobian_views` buffer every solve on this constellation fills.
    """

    positions: np.ndarray
    _jacobian: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "_jacobian", _jacobian_views(len(positions)))

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class PvtSolution:
    """Outcome of an iterative PVT solve; the fix `x` is (x, y, z, bias).

    The last four fields say what the fix was solved from, for a solve
    that starts from it: the measurements' raw float64 bytes, whether `x`
    is bitwise the init, the `positions` of the constellation it was
    solved on, and the read-only (offsets, ranges) line of sight at `x` on
    them, which the residuals were computed from.  A fix built by hand
    leaves them empty and is used as its `x` alone.
    """

    x: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool
    residuals: np.ndarray
    measurements: bytes = field(default=b"", repr=False)
    stationary: bool = field(default=False, repr=False)
    solved_on: np.ndarray | None = field(default=None, repr=False)
    line_of_sight: tuple = field(default=(), repr=False)


def make_constellation(
    n_sats: int,
    radius: float,
    seed: int,
    min_separation_deg: float,
) -> Constellation:
    """Place satellites on the upper hemisphere of a sphere around the origin.

    Directions are rejection-sampled so that every pair is separated by at
    least ``min_separation_deg``, which keeps the PVT geometry well
    conditioned over the airspace near the origin.
    """
    check_bounds(n_sats=n_sats, radius=radius)
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


def constellation_from_config(gnss: GnssConfig) -> Constellation:
    """The constellation ``gnss`` describes: its satellite count, orbit
    radius, layout seed and minimum separation."""
    return make_constellation(gnss.n_sats, gnss.radius, gnss.constellation_seed,
                              gnss.min_separation_deg)


def _line_of_sight(position: np.ndarray, positions: np.ndarray):
    """Satellite-to-receiver offsets, shape (N, 3), and their lengths.

    The lengths are the geometric ranges, computed as `np.linalg.norm`
    computes them along axis 1.
    """
    sep = position - positions
    return sep, np.sqrt(np.add.reduce(sep * sep, axis=1))


def _jacobian_views(n_sats: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (N, 4) Jacobian buffer H whose last column holds ones, with the
    views H[:, :3] and H.T that every Gauss-Newton step writes and reads."""
    jac = np.ones((n_sats, 4))
    return jac, jac[:, :3], jac.T


def _fill_jacobian(h3: np.ndarray, sep: np.ndarray, ranges: np.ndarray) -> None:
    """Write the unit line-of-sight rows into h3, a Jacobian's H[:, :3].

    min < limit is any(... < limit), NaN included: neither raises.
    """
    if ranges.min() < MIN_RANGE_M:
        raise DegenerateGeometryError("receiver estimate coincides with a satellite")
    np.divide(sep, ranges[:, None], out=h3)


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
    if not noise_sigma > 0:  # a positive sigma is in bound: no call per step
        check_bounds(noise_sigma=noise_sigma)
    clean = predicted_pseudoranges(position, clock_bias, constellation)
    noise = rng.normal(0.0, noise_sigma, size=len(clean)) if noise_sigma > 0 else 0.0
    return clean + noise


def _gauss_newton_step(
    x: np.ndarray,
    measured: np.ndarray,
    los: tuple[np.ndarray, np.ndarray],
    h: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, float]:
    """Gauss-Newton step from x = (x, y, z, bias); returns (new x, correction norm).

    `los` is `_line_of_sight` at x.  Its ranges serve both the residual and
    the Jacobian H, which is written into `h`, the `_jacobian_views` of a
    buffer.  The normal equations go straight to the LAPACK gufunc
    (`dgesv`) that `np.linalg.solve` wraps; `_check_rank` has already
    rejected every matrix it could find singular.
    """
    jac, jac3, jac_t = h
    sep, ranges = los
    delta = measured - (ranges + x[3])
    _fill_jacobian(jac3, sep, ranges)
    normal = jac_t @ jac
    _check_rank(normal)
    correction = solve1(normal, jac_t @ delta, signature="dd->d")
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
    init: np.ndarray | PvtSolution | None = None,
) -> PvtSolution:
    """Iterate Gauss-Newton steps from ``init`` (origin by default).

    ``measurements`` is a 1-D array of pseudoranges in meters, one per
    satellite of ``constellation``.  ``init`` is a (4,) vector (x, y, z,
    bias), which is read, never written, or an earlier fix, which starts
    the solve from its ``x`` (see the module docstring: the result is the
    one the vector would give, bit for bit).  Convergence means a
    correction norm fell below TOL_M within MAX_ITER steps.  The returned
    fix ``x`` has the same layout, and the residuals are evaluated at it
    from its ``line_of_sight``; all of them are read-only.
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
    measurements = np.asarray(measurements, dtype=float)
    measured = measurements.tobytes()
    los = None
    if isinstance(init, PvtSolution):
        if init.solved_on is positions:
            if init.stationary and init.measurements == measured:
                return init
            los = init.line_of_sight
        init = init.x
    x = np.zeros(4) if init is None else np.asarray(init, dtype=float)
    if los is None:
        los = _line_of_sight(x[:3], positions)
    start = x.tobytes()
    h = constellation._jacobian
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        x, step_norm = _gauss_newton_step(x, measurements, los, h)
        los = _line_of_sight(x[:3], positions)
        if step_norm < TOL_M:
            converged = True
            break
    sep, ranges = los
    final = measurements - (ranges + x[3])
    for arr in (x, final, sep, ranges):
        arr.flags.writeable = False
    # built as env.WorldState._advance builds a state, without the frozen
    # __init__'s per-field object.__setattr__
    fix = object.__new__(PvtSolution)
    fix.__dict__.update(
        x=x,
        iterations=iterations,
        final_residual_norm=math.sqrt(final.dot(final)),
        converged=converged,
        residuals=final,
        measurements=measured,
        stationary=x.tobytes() == start,
        solved_on=positions,
        line_of_sight=los,
    )
    return fix
