"""Drift-evasive spoofing: pull the victim's implied position toward a target.

The attack interpolates linearly from the live true position to a fixed
target over a configurable number of steps, then emits pseudoranges that
are exactly consistent with the spoofed position and satellite geometry.
Because the fabricated measurements fit the range model perfectly, the
least-squares fit stays clean and residual-based checks see nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gnss import Constellation, predicted_pseudoranges


@dataclass(frozen=True)
class AttackConfig:
    """When the attack turns on and where it drags the victim."""

    t_start: int = 100
    drift_duration: int = 50
    target: tuple[float, float, float] = (0.0, 0.0, 0.0)
    enabled: bool = False

    def __post_init__(self):
        if self.drift_duration < 1:
            raise ConfigurationError(
                f"drift_duration must be >= 1, got {self.drift_duration}"
            )
        if self.t_start < 0:
            raise ConfigurationError(f"t_start must be >= 0, got {self.t_start}")

    @property
    def target_array(self) -> np.ndarray:
        return np.array(self.target, dtype=float)


def attack_alpha(t: int, cfg: AttackConfig) -> float | None:
    """Interpolation weight at step t: None (measure honestly) before onset.

    The ramp is (t - t_start) / drift_duration, saturated at 1, so the
    onset step itself is spoofed with weight 0.0, and a drift_duration of 1
    realizes an abrupt jump one step after onset.
    """
    if not cfg.enabled or t < cfg.t_start:
        return None
    return min(1.0, (t - cfg.t_start) / cfg.drift_duration)


def spoof_position(
    true_pos: np.ndarray, alpha: float, cfg: AttackConfig
) -> np.ndarray:
    """Convex combination of the live true position and the attack target."""
    return (1.0 - alpha) * true_pos + alpha * cfg.target_array


def spoof_pseudoranges(
    spoof_pos: np.ndarray,
    bias: float,
    constellation: Constellation,
) -> np.ndarray:
    """Fabricate noiseless pseudoranges exactly consistent with ``spoof_pos``.

    This is the range model; it stays a named call that `env.env_step` looks
    up so that a profiler (perfbench's tracer) times the attack's path alone.
    """
    return predicted_pseudoranges(spoof_pos, bias, constellation)
