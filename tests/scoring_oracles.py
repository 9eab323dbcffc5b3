"""Per-step scorers that the batched episode scorers replaced, as oracles.

The episode loop used to value each decision point with a one-row critic
forward and score the trailing window of the value stream with a
one-window AE forward.  `Agent.q_value` and `window_ae_score` now score a
whole episode in one forward each.  The per-step forms are kept here,
unchanged, so the tests can hold the batched forms to them: a batched
row runs the same operations through a matrix product of another shape,
so it agrees to round-off, and bit for bit when the batch has one row.
"""

import numpy as np

from driftwatch.ddpg import ACT_DIM, ACTION_CENTER, ACTION_HALF, OBS_DIM


def q_value_row(agent, phi, action) -> float:
    """Critic value of one observation and one ActionVec, as a 12-vector."""
    # obs / scales and (a - centre) / half, written into one input row
    x = np.empty(OBS_DIM + ACT_DIM)
    np.divide(phi, agent.obs_scales, out=x[:OBS_DIM])
    (c0, c1, c2), (h0, h1, h2) = ACTION_CENTER.tolist(), ACTION_HALF.tolist()
    x[OBS_DIM] = (action.rho0 - c0) / h0
    x[OBS_DIM + 1] = (action.sigma0 - c1) / h1
    x[OBS_DIM + 2] = (action.theta - c2) / h2
    return float(agent.critic.forward(x)[0])


def reconstruction_error(model, window_values) -> float:
    """Mean squared reconstruction error of one standardised window."""
    x = (np.asarray(window_values, dtype=float) - model.mean) / model.std
    d = model.net.forward(x) - x
    return float(np.add.reduce(d * d) / d.size)  # what np.mean runs


def trailing_window_score(model, recent_values) -> tuple[bool, float]:
    """(flag, error) of the trailing window; NaN and no flag while it fills."""
    vals = np.asarray(recent_values, dtype=float)
    if vals.size < model.window:
        return False, float("nan")
    err = reconstruction_error(model, vals[-model.window:])
    return err > model.threshold, err
