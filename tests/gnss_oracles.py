"""Single-step solver helpers that the tests use as oracles for solve_pvt.

`residuals`, `jacobian` and `ls_step` expose one Gauss-Newton step of the
package's solver piece by piece.  A receiver state `x` is the (4,) vector
(x, y, z, clock bias) in meters that `solve_pvt` takes as `init` and
returns as `PvtSolution.x`.  Measurements are 1-D pseudorange arrays in
meters, as `solve_pvt` takes them.
"""

import numpy as np

from driftwatch.errors import ConfigurationError
from driftwatch.gnss import (
    Constellation,
    _fill_jacobian,
    _gauss_newton_step,
    _line_of_sight,
    predicted_pseudoranges,
)


def _check_lengths(measurements: np.ndarray, constellation: Constellation) -> None:
    if len(measurements) != len(constellation):
        raise ConfigurationError(
            f"{len(measurements)} measurements for {len(constellation)} satellites"
        )


def residuals(
    x: np.ndarray,
    measurements: np.ndarray,
    constellation: Constellation,
) -> np.ndarray:
    """Measured minus modeled pseudoranges at the current estimate."""
    _check_lengths(measurements, constellation)
    return measurements - predicted_pseudoranges(x[:3], x[3], constellation)


def jacobian(x: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Jacobian of modeled pseudoranges w.r.t. (x, y, z, bias), shape (N, 4).

    Row i is the unit line-of-sight vector from satellite i toward the
    receiver, with a constant 1 in the bias column.
    """
    h = np.ones((len(constellation), 4))
    _fill_jacobian(h, *_line_of_sight(x[:3], constellation.positions))
    return h


def ls_step(
    x: np.ndarray,
    measurements: np.ndarray,
    constellation: Constellation,
) -> tuple[np.ndarray, float]:
    """One Gauss-Newton correction; returns the new estimate and correction norm."""
    _check_lengths(measurements, constellation)
    return _gauss_newton_step(
        np.asarray(x, dtype=float), measurements, constellation.positions,
        np.ones((len(constellation), 4)),
    )
