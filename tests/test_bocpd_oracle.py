"""Cross-validation of the run-length recursion against independent oracles.

Three implementations of the same posterior: the production recursion
(run on batches of streams, one row each), a
direct-summation oracle over last-changepoint placements, and (for short
streams) literal enumeration of every binary changepoint sequence.  Each
is checked under the pooled model (a one-age prior whose level variance
equals its noise variance) and under a same-age prior whose horizon ends
inside the streams.
"""

import math

import numpy as np
import pytest

from driftwatch.detectors import AgeProfile, bocpd_init, bocpd_update
from driftwatch.errors import ConfigurationError
from scoring_oracles import bocpd_oracle, bocpd_posterior_dense, observation

MU0, SIGMA0 = -1.2, 0.7


def one_age(mean, var):
    """The pooled model N(mean, var) as a one-age prior."""
    return AgeProfile(means=(mean,), variances=(var,), noise_var=var,
                      level_var=var, n_samples=1000)


POOLED = one_age(MU0, 0.49)
# ages 0..11, then held: a climbing mean, a shrinking spread, and a level
# prior three times wider than the noise
AGE_PROFILE = AgeProfile(
    means=tuple(float(x) for x in np.linspace(-3.0, 1.0, 12)),
    variances=tuple(float(x) for x in np.linspace(1.5, 0.4, 12)),
    noise_var=0.3,
    level_var=0.9,
    n_samples=1000,
)


def brute_force_posteriors(q, prior, hazard):
    """Enumerate all 2^T changepoint placements and group weight by run length.

    Written from the segment model itself: observation k has deviation x
    and relative noise variance v from the prior at age k; a segment's level
    has prior N(0, s2 / k0) and its observations N(level, s2 * v).
    """
    s2, k0 = prior.noise_var, prior.prior_count
    paths = [(0.0, k0, 0, 1.0)]  # (seg mean, seg precision, run length, weight)
    posteriors = []
    for t, raw in enumerate(q):
        x, v = observation(prior, t, raw)
        nxt = []
        for mean, count, rl, w in paths:
            var = s2 * (v + 1.0 / count)
            pred = math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(
                2 * math.pi * var
            )
            nxt.append(
                ((mean * count + x / v) / (count + 1 / v), count + 1 / v,
                 rl + 1, w * (1 - hazard) * pred)
            )
            nxt.append((0.0, k0, 0, w * hazard * pred))
        paths = nxt
        dist = np.zeros(t + 2)
        for _, _, rl, w in paths:
            dist[rl] += w
        posteriors.append(dist / dist.sum())
    return posteriors


def total_variation(a, b):
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def recursion_posteriors(streams, profile, hazard, prune):
    """Dense posteriors after each value of equal-length streams, scored
    as one batch: one list per stream."""
    values = np.array(streams, dtype=float)
    state = bocpd_init([profile] * len(values), hazard)
    out = [[] for _ in values]
    for column in values.T:
        state, _ = bocpd_update(state, column, prune=prune)
        for posteriors, dense in zip(out, bocpd_posterior_dense(state)):
            posteriors.append(dense)
    return out


def worst_tv(streams, profile, hazards, prune):
    """Largest total variation between the recursion, one batch per hazard,
    and the direct-summation oracle."""
    worst = 0.0
    for hazard in set(hazards):
        batch = [q for q, h in zip(streams, hazards) if h == hazard]
        for q, rec in zip(batch, recursion_posteriors(batch, profile, hazard,
                                                      prune)):
            for a, b in zip(rec, bocpd_oracle(q, profile, hazard)):
                worst = max(worst, total_variation(a, b))
    return worst


def test_oracle_matches_exhaustive_enumeration():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 9))
        q = list(MU0 + SIGMA0 * rng.normal(size=n))
        if trial % 3 == 0:
            q[n // 2:] = [v - 6 * SIGMA0 for v in q[n // 2:]]
        hazard = float(rng.uniform(0.005, 0.2))
        oracle = bocpd_oracle(q, POOLED, hazard)
        brute = brute_force_posteriors(q, POOLED, hazard)
        for a, b in zip(oracle, brute):
            worst = max(worst, total_variation(a, b))
    assert worst < 1e-12


def test_recursion_matches_oracle_without_pruning():
    rng = np.random.default_rng(424242)
    streams, hazards = [], []
    for trial in range(50):
        q = MU0 + SIGMA0 * rng.normal(size=30)
        if trial % 2 == 0:
            q[15:] -= 8 * SIGMA0
        streams.append(q)
        hazards.append(0.01 if trial % 3 else 0.05)
    assert worst_tv(streams, POOLED, hazards, prune=0.0) < 1e-9


def test_recursion_with_default_pruning_stays_close():
    rng = np.random.default_rng(31415)
    streams = []
    for trial in range(50):
        q = MU0 + SIGMA0 * rng.normal(size=30)
        if trial % 2 == 0:
            q[15:] -= 8 * SIGMA0
        streams.append(q)
    assert worst_tv(streams, POOLED, [0.01] * 50, prune=1e-8) < 1e-6


def test_two_step_posterior_matches_hand_derivation():
    # mean 0, variance 1, H=0.01, observations q1=0.7, q2=-0.4.
    # After q2 the three run lengths carry weights proportional to
    #   l=2: (1-H)^2 * A          with A = N(q2; (0+q1)/2, 1.5)
    #   l=1: H(1-H) * B           with B = N(q2; 0, 2)   (reset after q1)
    #   l=0: H * ((1-H) A + H B)  (pooled changepoint mass)
    profile = one_age(0.0, 1.0)
    q1, q2 = 0.7, -0.4
    a = math.exp(-0.5 * (q2 - q1 / 2) ** 2 / 1.5) / math.sqrt(2 * math.pi * 1.5)
    b = math.exp(-0.5 * q2**2 / 2.0) / math.sqrt(2 * math.pi * 2.0)
    raw = np.array([
        0.01 * (0.99 * a + 0.01 * b),
        0.01 * 0.99 * b,
        0.99 * 0.99 * a,
    ])
    expected = raw / raw.sum()

    rec, = recursion_posteriors([[q1, q2]], profile, hazard=0.01, prune=0.0)
    assert np.max(np.abs(rec[-1] - expected)) < 1e-12
    oracle = bocpd_oracle([q1, q2], profile, 0.01)
    assert np.max(np.abs(oracle[-1] - expected)) < 1e-12


def test_oracle_rejects_long_streams_and_bad_hazard():
    q = np.zeros(65)
    with pytest.raises(ConfigurationError):
        bocpd_oracle(q, POOLED, 0.01)
    with pytest.raises(ConfigurationError):
        bocpd_oracle(np.zeros(5), POOLED, 0.0)
    with pytest.raises(ConfigurationError):
        bocpd_oracle(np.zeros(5), POOLED, 1.0)


def age_stream(rng, n, shift_at=None):
    """Noise around the held same-age mean, optionally stepping down."""
    means = np.array(AGE_PROFILE.means)
    q = means[np.minimum(np.arange(n), AGE_PROFILE.horizon - 1)]
    q = q + np.sqrt(AGE_PROFILE.noise_var) * rng.normal(size=n)
    if shift_at is not None:
        q[shift_at:] -= 4.0
    return q


def test_age_prior_oracle_matches_exhaustive_enumeration():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 9))
        q = age_stream(rng, n, n // 2 if trial % 3 == 0 else None)
        hazard = float(rng.uniform(0.005, 0.2))
        oracle = bocpd_oracle(q, AGE_PROFILE, hazard)
        brute = brute_force_posteriors(q, AGE_PROFILE, hazard)
        for a, b in zip(oracle, brute):
            worst = max(worst, total_variation(a, b))
    assert worst < 1e-12


def test_age_prior_recursion_matches_oracle_past_the_horizon():
    rng = np.random.default_rng(2718)
    streams, hazards = [], []
    for trial in range(30):
        streams.append(age_stream(rng, 30, 15 if trial % 2 == 0 else None))
        hazards.append(0.022 if trial % 3 else 0.05)
    assert worst_tv(streams, AGE_PROFILE, hazards, prune=0.0) < 1e-9
