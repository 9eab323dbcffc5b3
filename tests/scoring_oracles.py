"""Per-step and per-stream scorers that the batched scorers replaced, as oracles.

The episode loop used to value each decision point with a one-row critic
forward and score the trailing window of the value stream with a
one-window AE forward.  `Agent.q_value` and `window_ae_score` now score a
whole episode in one forward each.  The per-step forms are kept here,
unchanged, so the tests can hold the batched forms to them: a batched
row runs the same operations through a matrix product of another shape,
so it agrees to round-off, and bit for bit when the batch has one row.

The run-length oracle computes the changepoint posterior by direct
summation over last-changepoint placements, with no carried state, for
the recursion and its scalar form to be checked against.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from driftwatch.ddpg import ACT_DIM, ACTION_CENTER, ACTION_HALF, OBS_DIM
from driftwatch.detectors import AgeProfile, BocpdState
from driftwatch.errors import ConfigurationError


def q_value_row(agent, phi, action) -> float:
    """Critic value of one observation and one (3,) action, as a 12-vector."""
    # obs / scales and (a - centre) / half, written into one input row
    x = np.empty(OBS_DIM + ACT_DIM)
    np.divide(phi, agent.obs_scales, out=x[:OBS_DIM])
    (c0, c1, c2), (h0, h1, h2) = ACTION_CENTER.tolist(), ACTION_HALF.tolist()
    rho0, sigma0, theta = np.asarray(action, dtype=float).tolist()
    x[OBS_DIM] = (rho0 - c0) / h0
    x[OBS_DIM + 1] = (sigma0 - c1) / h1
    x[OBS_DIM + 2] = (theta - c2) / h2
    return float(agent.critic.forward(x[None])[0, 0])


def reconstruction_error(model, window_values) -> float:
    """Mean squared reconstruction error of one standardised window."""
    x = (np.asarray(window_values, dtype=float) - model.mean) / model.std
    d = model.net.forward(x[None])[0] - x
    return float(np.add.reduce(d * d) / d.size)  # what np.mean runs


def trailing_window_score(model, recent_values) -> tuple[bool, float]:
    """(flag, error) of the trailing window; NaN and no flag while it fills."""
    vals = np.asarray(recent_values, dtype=float)
    if vals.size < model.window:
        return False, float("nan")
    err = reconstruction_error(model, vals[-model.window:])
    return err > model.threshold, err


def observation(prior: AgeProfile, t: int, q: float) -> tuple[float, float]:
    """Deviation from the same-age mean and its relative noise variance."""
    i = min(t, len(prior.means) - 1)
    return q - prior.means[i], prior.variances[i] / prior.level_var


def _gauss_pdf(x: float, mean: float, var: float) -> float:
    return float(np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var))


def bocpd_posterior_dense(state: BocpdState) -> np.ndarray:
    """Posteriors as a dense (B, t+1) array over run lengths 0..t."""
    dense = np.zeros((state.size.size, state.t + 1))
    for row, n in enumerate(state.size.tolist()):
        dense[row, state.run_lengths[row, :n]] = state.weights[row, :n]
    return dense


def bocpd_oracle(q_stream, profile: AgeProfile,
                 hazard: float, max_len: int = 64) -> list[np.ndarray]:
    """Run-length posteriors computed by direct summation, for validation.

    For every step, each possible last-changepoint time contributes the
    product of its segment's predictive densities, recomputed from the raw
    data with no carried state.  Shared sufficient statistics collapse the
    exponential number of changepoint placements to O(T^2) segment terms.
    O(T^3) time, so the length is capped.  Observation k is taken at age
    k, whichever segment it falls in.
    """
    q = [float(x) for x in q_stream]
    t_max = len(q)
    if t_max > max_len:
        raise ConfigurationError(
            f"oracle supports streams up to {max_len}, got {t_max}"
        )
    if not 0.0 < hazard < 1.0:
        raise ConfigurationError(f"hazard must be in (0,1), got {hazard}")
    s2, h = profile.noise_var, hazard
    obs = [observation(profile, k, x) for k, x in enumerate(q)]

    def segment_product(start: int, end: int) -> float:
        """Product of predictives for q[start:end] as one fresh segment."""
        prod = 1.0
        mean, count = 0.0, profile.prior_count
        for x, w in obs[start:end]:
            prod *= _gauss_pdf(x, mean, s2 * (w + 1.0 / count))
            mean = (mean * count + x / w) / (count + 1.0 / w)
            count += 1.0 / w
        return prod

    # cp_weight[s]: unnormalized weight of being freshly reset after s steps
    cp_weight = np.zeros(t_max + 1)
    cp_weight[0] = 1.0
    for s in range(1, t_max + 1):
        total = 0.0
        for s0 in range(s):
            total += (cp_weight[s0] * (1.0 - h) ** (s - 1 - s0)
                      * segment_product(s0, s))
        cp_weight[s] = h * total

    posteriors = []
    for s in range(1, t_max + 1):
        joint = np.zeros(s + 1)
        joint[0] = cp_weight[s]
        for l in range(1, s + 1):
            joint[l] = (cp_weight[s - l] * (1.0 - h) ** l
                        * segment_product(s - l, s))
        posteriors.append(joint / joint.sum())
    return posteriors


# The changepoint recursion, Page-Hinkley and the residual test as they ran
# one episode and one value at a time.  The package now scores a stage's
# episodes in lockstep, one row each; these scalar forms are the oracles
# the rows are held to.

@dataclass
class ScalarBocpdState:
    """Run-length posterior of one stream; see `scalar_bocpd_update`."""

    run_lengths: np.ndarray  # int, ascending
    weights: np.ndarray  # normalized posterior over run_lengths
    seg_means: np.ndarray  # posterior mean of each segment's level
    seg_counts: np.ndarray  # level precision in units of 1 / noise variance
    prior: AgeProfile
    hazard: float
    t: int = 0
    underflow_resets: int = 0


def scalar_bocpd_init(prior, hazard) -> ScalarBocpdState:
    return ScalarBocpdState(
        run_lengths=np.array([0]),
        weights=np.array([1.0]),
        seg_means=np.array([0.0]),
        seg_counts=np.array([prior.prior_count]),
        prior=prior,
        hazard=hazard,
        t=0,
    )


def scalar_bocpd_update(state, q: float, prune: float = 1e-8):
    """Advance the posterior with one observation; returns the argmax run length."""
    h = state.hazard
    prior = state.prior
    x, w = observation(prior, state.t, q)
    old_means = state.seg_means
    old_counts = state.seg_counts
    pred_var = prior.noise_var * (w + 1.0 / old_counts)
    d = x - old_means
    pred = np.exp(-0.5 * (d * d) / pred_var) / np.sqrt(2.0 * np.pi * pred_var)

    # entry 0 is the changepoint, entry 1 + i the growth of state entry i
    n = old_means.size + 1
    unnormalized = np.empty(n)
    np.multiply(state.weights * (1.0 - h), pred, out=unnormalized[1:])
    unnormalized[0] = (state.weights * h * pred).sum()

    # max() < limit is np.all(... < limit), NaN included: neither resets.
    if unnormalized.max() < 1e-300:
        warnings.warn("run-length posterior underflowed; resetting to the prior",
                      RuntimeWarning, stacklevel=2)
        fresh = scalar_bocpd_init(prior, h)
        fresh.t = state.t + 1
        fresh.underflow_resets = state.underflow_resets + 1
        return fresh, 0

    run_lengths = np.empty(n, dtype=int)
    run_lengths[0] = 0
    np.add(state.run_lengths, 1, out=run_lengths[1:])
    seg_counts = np.empty(n)
    seg_counts[0] = prior.prior_count
    np.add(old_counts, 1.0 / w, out=seg_counts[1:])
    seg_means = np.empty(n)
    seg_means[0] = 0.0
    np.divide(old_means * old_counts + x / w, seg_counts[1:],
              out=seg_means[1:])
    weights = unnormalized / unnormalized.sum()

    if prune > 0.0:
        keep = weights >= prune
        keep[weights.argmax()] = True
        idx = keep.nonzero()[0]
        run_lengths = run_lengths[idx]
        seg_means = seg_means[idx]
        seg_counts = seg_counts[idx]
        weights = weights[idx]
        weights = weights / weights.sum()

    new_state = ScalarBocpdState(
        run_lengths=run_lengths, weights=weights, seg_means=seg_means,
        seg_counts=seg_counts, prior=prior, hazard=h, t=state.t + 1,
        underflow_resets=state.underflow_resets,
    )
    return new_state, int(run_lengths[np.argmax(weights)])


class ScalarPageHinkley:
    """One-sided (downward) Page-Hinkley test over one stream."""

    def __init__(self, delta: float, lam: float):
        self.delta = delta
        self.lam = lam
        self.n = 0
        self.mean = 0.0
        self.m = 0.0
        self.m_min = 0.0

    def update(self, x: float) -> tuple[bool, float]:
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.m += self.mean - x - self.delta
        self.m_min = min(self.m_min, self.m)
        ph = self.m - self.m_min
        return ph > self.lam, ph


class ScalarResidualThreshold:
    """Residual-norm test plus a jump gate, one fix at a time."""

    def __init__(self, threshold: float, jump_gate: float):
        self.threshold = threshold
        self.jump_gate = jump_gate
        self.prev_position = None

    def update(self, position, rms: float) -> tuple[bool, float]:
        if self.prev_position is None:
            jump = 0.0
        else:
            step = position - self.prev_position
            jump = math.sqrt(step.dot(step))
        self.prev_position = position.copy()
        return (rms > self.threshold) or (jump > self.jump_gate), rms
