"""Drift-evasive spoofing: pull the victim's implied position toward a target.

An attack spoofs from its onset `t_start` on, and None means no attack.  It
interpolates linearly from the live true position to a fixed target over a
configurable number of steps, emitting pseudoranges exactly consistent with
the spoofed position and satellite geometry.  Because these fit the range
model perfectly, the least-squares fit stays clean and residual-based
checks see nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_bounds
from .gnss import Constellation, predicted_pseudoranges


@dataclass(frozen=True)
class AttackConfig:
    """When the attack turns on and where it drags the victim: it spoofs from
    `t_start` on, and a flight with no attack is given None.  No value has a
    default here: `harness.eval_attack` builds it from EvalConfig's."""

    t_start: int
    drift_duration: int
    target: tuple[float, float, float]

    def __post_init__(self):
        check_bounds(t_start=self.t_start, drift_duration=self.drift_duration)


def attack_alpha(t: int, cfg: AttackConfig) -> float | None:
    """Interpolation weight at step t: None (measure honestly) before onset.

    The ramp is (t - t_start) / drift_duration, saturated at 1, so the
    onset step itself is spoofed with weight 0.0, and a drift_duration of 1
    realizes an abrupt jump one step after onset.
    """
    if t < cfg.t_start:
        return None
    return min(1.0, (t - cfg.t_start) / cfg.drift_duration)


def spoof_position(
    true_pos: np.ndarray, alpha: float, cfg: AttackConfig
) -> np.ndarray:
    """Convex combination of the live true position and the attack target.

    Element by element on Python floats: the same IEEE operations as the
    array expression (1 - alpha) * true_pos + alpha * target.
    """
    keep = 1.0 - alpha
    return np.array([keep * p + alpha * t
                     for p, t in zip(true_pos.tolist(), cfg.target)])


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
