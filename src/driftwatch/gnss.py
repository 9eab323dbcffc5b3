"""Pseudorange simulation and iterative least-squares position/time solving.

A pseudorange to satellite i is the true geometric range plus a common
receiver clock bias (expressed in meters) plus measurement noise.  The
solver linearizes around the current estimate and applies Gauss-Newton
corrections until the correction norm drops below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """An immutable set of satellites visible for the whole scenario."""

    satellites: tuple[Satellite, ...]

    def __len__(self) -> int:
        return len(self.satellites)

    @property
    def positions(self) -> np.ndarray:
        """Stacked satellite positions, shape (N, 3)."""
        return np.stack([s.position for s in self.satellites])


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


def predicted_pseudoranges(
    est: ReceiverEstimate, constellation: Constellation
) -> np.ndarray:
    """Model pseudoranges at the estimate: geometric range plus clock bias."""
    ranges = np.linalg.norm(constellation.positions - est.position, axis=1)
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


def residuals(
    est: ReceiverEstimate,
    measurements: PseudorangeSet,
    constellation: Constellation,
) -> np.ndarray:
    """Measured minus modeled pseudoranges at the current estimate."""
    if len(measurements) != len(constellation):
        raise ConfigurationError(
            f"{len(measurements)} measurements for {len(constellation)} satellites"
        )
    return measurements.values - predicted_pseudoranges(est, constellation)


def jacobian(est: ReceiverEstimate, constellation: Constellation) -> np.ndarray:
    """Jacobian of modeled pseudoranges w.r.t. (x, y, z, bias), shape (N, 4).

    Row i is the unit line-of-sight vector from satellite i toward the
    receiver, with a constant 1 in the bias column.
    """
    sep = est.position - constellation.positions
    ranges = np.linalg.norm(sep, axis=1)
    if np.any(ranges < MIN_RANGE_M):
        raise DegenerateGeometryError("receiver estimate coincides with a satellite")
    return np.hstack([sep / ranges[:, None], np.ones((len(constellation), 1))])


def ls_step(
    est: ReceiverEstimate,
    measurements: PseudorangeSet,
    constellation: Constellation,
) -> tuple[ReceiverEstimate, float]:
    """One Gauss-Newton correction; returns the new estimate and correction norm."""
    delta = residuals(est, measurements, constellation)
    h = jacobian(est, constellation)
    normal = h.T @ h
    # Guard on the normal matrix instead of inverting it explicitly.
    if np.linalg.cond(normal) > 1e12:
        raise SingularGeometryError("satellite geometry is rank deficient")
    correction = np.linalg.solve(normal, h.T @ delta)
    new_est = ReceiverEstimate.from_vector(est.as_vector() + correction)
    return new_est, float(np.linalg.norm(correction))


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
    est = init if init is not None else ReceiverEstimate(np.zeros(3), 0.0)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        est, step_norm = ls_step(est, measurements, constellation)
        if step_norm < tol:
            converged = True
            break
    final = residuals(est, measurements, constellation)
    return PvtSolution(
        estimate=est,
        iterations=iterations,
        final_residual_norm=float(np.linalg.norm(final)),
        converged=converged,
        residuals=final,
    )
