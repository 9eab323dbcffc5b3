"""Pseudorange simulation and iterative least-squares position/time solving.

A pseudorange to satellite i is the true geometric range plus a common
receiver clock bias (expressed in meters) plus measurement noise.  The
solver linearizes around the current estimate and applies Gauss-Newton
corrections until the correction norm drops below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)

# Ranges shorter than this are treated as degenerate geometry: the unit
# line-of-sight vector (and hence the Jacobian row) is no longer meaningful.
MIN_RANGE_M = 1.0


@dataclass(frozen=True)
class Satellite:
    """A single broadcasting satellite with a fixed ECEF-like position."""

    id: int
    position: np.ndarray  # shape (3,), meters

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class Constellation:
    """An immutable set of satellites visible for the whole scenario.

    `positions` stacks the satellite positions once, shape (N, 3), as a
    read-only array.
    """

    satellites: tuple[Satellite, ...]
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = np.stack([s.position for s in self.satellites])
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.satellites)


@dataclass(frozen=True)
class PseudorangeSet:
    """Measured pseudoranges (meters) for one epoch, aligned with a constellation."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ReceiverEstimate:
    """Receiver state: position (meters) and clock bias (range-equivalent meters)."""

    position: np.ndarray
    clock_bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, [self.clock_bias]])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "ReceiverEstimate":
        v = np.asarray(v, dtype=float)
        return cls(position=v[:3], clock_bias=float(v[3]))


@dataclass(frozen=True)
class PvtSolution:
    """Outcome of an iterative PVT solve."""

    estimate: ReceiverEstimate
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
    sats = tuple(Satellite(i, radius * d) for i, d in enumerate(dirs))
    return Constellation(sats)


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
    est: ReceiverEstimate, constellation: Constellation
) -> np.ndarray:
    """Model pseudoranges at the estimate: geometric range plus clock bias."""
    _, ranges = _line_of_sight(est.position, constellation.positions)
    return ranges + est.clock_bias


def measure_pseudoranges(
    truth: ReceiverEstimate,
    constellation: Constellation,
    noise_sigma: float,
    rng: np.random.Generator,
) -> PseudorangeSet:
    """Simulate one epoch of measurements with iid Gaussian noise."""
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    clean = predicted_pseudoranges(truth, constellation)
    noise = rng.normal(0.0, noise_sigma, size=len(clean)) if noise_sigma > 0 else 0.0
    return PseudorangeSet(values=clean + noise)


def _check_lengths(measurements: PseudorangeSet, constellation: Constellation) -> None:
    if len(measurements) != len(constellation):
        raise ConfigurationError(
            f"{len(measurements)} measurements for {len(constellation)} satellites"
        )


def residuals(
    est: ReceiverEstimate,
    measurements: PseudorangeSet,
    constellation: Constellation,
) -> np.ndarray:
    """Measured minus modeled pseudoranges at the current estimate."""
    _check_lengths(measurements, constellation)
    return measurements.values - predicted_pseudoranges(est, constellation)


def jacobian(est: ReceiverEstimate, constellation: Constellation) -> np.ndarray:
    """Jacobian of modeled pseudoranges w.r.t. (x, y, z, bias), shape (N, 4).

    Row i is the unit line-of-sight vector from satellite i toward the
    receiver, with a constant 1 in the bias column.
    """
    h = np.ones((len(constellation), 4))
    _fill_jacobian(h, *_line_of_sight(est.position, constellation.positions))
    return h


def _gauss_newton_step(
    x: np.ndarray, measured: np.ndarray, positions: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, float]:
    """Gauss-Newton step from x = (x, y, z, bias); returns (new x, correction norm).

    The ranges at x serve both the residual and the Jacobian, which is
    written into `h`, an (N, 4) array whose last column holds ones.
    """
    sep, ranges = _line_of_sight(x[:3], positions)
    delta = measured - (ranges + x[3])
    _fill_jacobian(h, sep, ranges)
    normal = h.T @ h
    _check_rank(normal)
    correction = np.linalg.solve(normal, h.T @ delta)
    return x + correction, math.sqrt(correction.dot(correction))


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


def ls_step(
    est: ReceiverEstimate,
    measurements: PseudorangeSet,
    constellation: Constellation,
) -> tuple[ReceiverEstimate, float]:
    """One Gauss-Newton correction; returns the new estimate and correction norm."""
    _check_lengths(measurements, constellation)
    x, step_norm = _gauss_newton_step(
        est.as_vector(), measurements.values, constellation.positions,
        np.ones((len(constellation), 4)),
    )
    return ReceiverEstimate.from_vector(x), step_norm


def solve_pvt(
    measurements: PseudorangeSet,
    constellation: Constellation,
    init: ReceiverEstimate | None = None,
    tol: float = 1e-4,
    max_iter: int = 20,
) -> PvtSolution:
    """Iterate Gauss-Newton steps from ``init`` (origin by default).

    Convergence means the last correction norm fell below ``tol``.  The
    returned residuals are evaluated at the final estimate.
    """
    if len(measurements) < 4:
        raise ConfigurationError(
            f"need at least 4 pseudoranges to solve, got {len(measurements)}"
        )
    _check_lengths(measurements, constellation)
    measured = measurements.values
    positions = constellation.positions
    x = init.as_vector() if init is not None else np.zeros(4)
    h = np.ones((len(constellation), 4))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x, step_norm = _gauss_newton_step(x, measured, positions, h)
        if step_norm < tol:
            converged = True
            break
    est = ReceiverEstimate.from_vector(x)
    final = measured - predicted_pseudoranges(est, constellation)
    return PvtSolution(
        estimate=est,
        iterations=iterations,
        final_residual_norm=math.sqrt(final.dot(final)),
        converged=converged,
        residuals=final,
    )
