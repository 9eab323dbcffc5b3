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
from .gnss import (
    Constellation,
    PseudorangeSet,
    ReceiverEstimate,
    predicted_pseudoranges,
)


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


@dataclass(frozen=True)
class AttackPhase:
    """Interpolation progress at one step."""

    alpha: float
    active: bool


def attack_alpha(t: int, cfg: AttackConfig) -> AttackPhase:
    """Interpolation weight at step t: 0 before onset, ramping to 1.

    The ramp is (t - t_start) / drift_duration, saturated at 1, so a
    drift_duration of 1 realizes an abrupt jump one step after onset.
    """
    if not cfg.enabled or t < cfg.t_start:
        return AttackPhase(alpha=0.0, active=False)
    alpha = min(1.0, (t - cfg.t_start) / cfg.drift_duration)
    return AttackPhase(alpha=alpha, active=True)


def spoof_position(
    true_pos: np.ndarray, phase: AttackPhase, cfg: AttackConfig
) -> np.ndarray:
    """Convex combination of the live true position and the attack target."""
    true_pos = np.asarray(true_pos, dtype=float)
    if not phase.active:
        return true_pos
    return (1.0 - phase.alpha) * true_pos + phase.alpha * cfg.target_array


def spoof_pseudoranges(
    spoof_pos: np.ndarray,
    bias: float,
    constellation: Constellation,
) -> PseudorangeSet:
    """Fabricate noiseless pseudoranges exactly consistent with ``spoof_pos``."""
    spoofed = ReceiverEstimate(spoof_pos, bias)
    return PseudorangeSet(values=predicted_pseudoranges(spoofed, constellation))
