"""Behavioral tests for the detector bank."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from driftwatch.config import DetectorConfig, GnssConfig
from driftwatch.detectors import (
    AgeProfile,
    NominalProfile,
    WindowAutoencoder,
    bocpd_flag,
    bocpd_init,
    bocpd_update,
    calibrate_tau,
    fit_age_profile,
    fit_nominal_profile,
    fix_rms,
    page_hinkley,
    residual_score,
    window_ae_score,
    window_ae_train,
)
from driftwatch.errors import (
    ConfigurationError,
    CorruptCheckpointError,
    InsufficientDataError,
)
from driftwatch.gnss import (
    constellation_from_config,
    measure_pseudoranges,
    solve_pvt,
)
from nets_oracles import reference_window_ae_train
from scoring_oracles import (
    ScalarBocpdState,
    ScalarPageHinkley,
    ScalarResidualThreshold,
    bocpd_posterior_dense,
    observation,
    reconstruction_error,
    scalar_bocpd_init,
    scalar_bocpd_update,
    trailing_window_score,
)

PROFILE = NominalProfile(mu0=-1.2, sigma0_sq=0.49, n_samples=1000)


def one_age(profile):
    """The pooled model as a changepoint prior: one age, with the level
    prior variance equal to the noise variance."""
    return AgeProfile(means=(profile.mu0,), variances=(profile.sigma0_sq,),
                      noise_var=profile.sigma0_sq,
                      level_var=profile.sigma0_sq,
                      n_samples=profile.n_samples)


PRIOR = one_age(PROFILE)


def step1(state, x, prune=1e-8):
    """Advance a one-row posterior by one value; returns the argmax as an int."""
    state, l_hat = bocpd_update(state, np.array([x], dtype=float), prune=prune)
    return state, int(l_hat[0])


def run_argmaxes(q, profile, hazard, prune=1e-8):
    state = bocpd_init([profile], hazard)
    hats = []
    for x in q:
        state, l_hat = step1(state, x, prune=prune)
        hats.append(l_hat)
    return hats, state


class TestNominalProfile:
    def test_pooled_mean_and_population_variance(self):
        prof = fit_nominal_profile(
            [np.zeros(50), np.full(50, 2.0)], source_episodes=(0, 1)
        )
        assert prof.mu0 == 1.0
        assert prof.sigma0_sq == 1.0
        assert prof.n_samples == 100
        assert prof.source_episodes == (0, 1)

    def test_variance_floor_on_constant_stream(self):
        prof = fit_nominal_profile([np.full(200, 5.0)])
        assert prof.sigma0_sq == pytest.approx(1e-6 * (1 + 25.0))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_nominal_profile([np.zeros(99)])
        with pytest.raises(InsufficientDataError):
            fit_nominal_profile([])

    def test_rejects_bad_streams(self):
        with pytest.raises(ConfigurationError):
            fit_nominal_profile([np.zeros((10, 10))])
        bad = np.zeros(200)
        bad[7] = np.nan
        with pytest.raises(ConfigurationError):
            fit_nominal_profile([bad])

    def test_constructor_guards(self):
        with pytest.raises(ConfigurationError):
            NominalProfile(mu0=0.0, sigma0_sq=0.0, n_samples=500)
        with pytest.raises(ConfigurationError):
            NominalProfile(mu0=0.0, sigma0_sq=1.0, n_samples=99)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        PROFILE.save(path)
        loaded = NominalProfile.load(path)
        assert loaded == PROFILE

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = PROFILE.to_dict()
        doc["schema"] = "something-else"
        import json

        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            NominalProfile.load(path)


class TestAgeProfile:
    # three streams; two run to age 3, so the horizon is 4 ages
    STREAMS = ([0.0, 1.0, 2.0, 4.0], [2.0, 3.0, 4.0, 4.0], [1.0, 2.0, 3.0])

    def test_per_age_statistics_on_hand_made_streams(self):
        prof = fit_age_profile(self.STREAMS, source_episodes=(4, 5, 6))
        assert prof.means == (1.0, 2.0, 3.0, 4.0)
        assert prof.variances[:3] == pytest.approx((2 / 3,) * 3)
        # age 3 has no spread: floored like the pooled profile
        assert prof.variances[3] == pytest.approx(1e-6 * (1 + 16.0))
        # deviations: stream 0 is -1,-1,-1,0 (mean -0.75), stream 1 the
        # mirror image, stream 2 zero: W = 1.5/11 and B = 4.5/11
        assert prof.noise_var == pytest.approx(1.5 / 11)
        assert prof.level_var == pytest.approx(6.0 / 11)
        assert prof.prior_count == pytest.approx(0.25)
        assert prof.n_samples == 11
        assert prof.source_episodes == (4, 5, 6)
        x, w = observation(prof, 1, 2.5)
        assert x == pytest.approx(0.5)
        assert w == pytest.approx((2 / 3) / (6 / 11))

    def test_horizon_is_last_age_half_the_streams_reach(self):
        streams = [np.arange(n, dtype=float) for n in (10, 7, 5, 3)]
        assert fit_age_profile(streams).horizon == 7
        streams.append(np.arange(6, dtype=float))
        assert fit_age_profile(streams).horizon == 6

    def test_statistics_held_past_the_horizon(self):
        prof = fit_age_profile(self.STREAMS)
        last = observation(prof, prof.horizon - 1, 1.5)
        for t in (prof.horizon, prof.horizon + 1, 500):
            assert observation(prof, t, 1.5) == last

    def test_rejects_non_finite_and_malformed_streams(self):
        bad = np.zeros(50)
        bad[7] = np.inf
        with pytest.raises(ConfigurationError):
            fit_age_profile([np.zeros(50), bad])
        with pytest.raises(ConfigurationError):
            fit_age_profile([np.zeros(50), np.zeros((5, 10))])

    def test_rejects_too_short_input(self):
        with pytest.raises(InsufficientDataError):
            fit_age_profile([])
        with pytest.raises(InsufficientDataError):
            fit_age_profile([np.zeros(200)])
        with pytest.raises(InsufficientDataError):
            fit_age_profile([np.zeros(200), np.zeros(0), np.zeros(0)])

    def test_constructor_guards(self):
        ok = dict(means=(0.0, 1.0), variances=(1.0, 2.0), noise_var=0.5,
                  level_var=1.0, n_samples=10)
        AgeProfile(**ok)
        for change in (dict(means=()), dict(variances=(1.0,)),
                       dict(variances=(1.0, 0.0)), dict(noise_var=0.0),
                       dict(level_var=-1.0), dict(means=(0.0, np.nan))):
            with pytest.raises(ConfigurationError):
                AgeProfile(**{**ok, **change})

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        prof = fit_age_profile(
            [rng.normal(size=n) for n in (40, 45, 50)], source_episodes=(0, 1, 2)
        )
        path = tmp_path / "age_profile.json"
        prof.save(path)
        assert AgeProfile.load(path) == prof

    def test_load_rejects_wrong_schema(self, tmp_path):
        doc = fit_age_profile(self.STREAMS).to_dict()
        doc["schema"] = PROFILE.to_dict()["schema"]
        path = tmp_path / "bad.json"
        import json

        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            AgeProfile.load(path)

    def test_drift_along_the_same_age_mean_never_flags(self):
        # a stream that follows the nominal climb sits at the same-age mean
        means = tuple(float(x) for x in np.linspace(-40.0, 4.0, 130))
        prof = AgeProfile(means=means, variances=(1.0,) * 130,
                          noise_var=0.3, level_var=1.0, n_samples=2600)
        state = bocpd_init([prof], 0.022)
        for t, m in enumerate(means):
            state, l_hat = step1(state, m + 0.5)
            assert not bocpd_flag(l_hat, t + 1, tau=12, warmup=20)[0]


class TestBocpd:
    def test_init_state(self):
        state = bocpd_init([PRIOR, PRIOR], 0.01)
        assert state.run_lengths.tolist() == [[0], [0]]
        assert state.weights.tolist() == [[1.0], [1.0]]
        assert state.seg_means.tolist() == [[0.0], [0.0]]
        assert state.seg_counts.tolist() == [[1.0], [1.0]]
        assert state.size.tolist() == [1, 1]
        assert state.t == 0

    def test_init_rejects_bad_hazard(self):
        for h in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                bocpd_init([PRIOR], h)
        with pytest.raises(ConfigurationError):
            bocpd_init([], 0.01)

    def test_posterior_stays_normalized_and_well_formed(self):
        """30 streams per batch, with and without pruning; each row's
        support is a normalized, ascending prefix and the padding past it
        holds zero weight."""
        rng = np.random.default_rng(7)
        for prune in (0.0, 1e-8):
            q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=(30, 40))
            q[::2, 20:] -= 6 * PROFILE.sigma0
            state = bocpd_init([PRIOR] * 30, 0.02)
            for values in q.T:
                state, _ = bocpd_update(state, values, prune=prune)
                assert state.weights.shape[1] == state.size.max()
                for row, n in enumerate(state.size.tolist()):
                    w = state.weights[row]
                    assert abs(w[:n].sum() - 1.0) < 1e-9
                    assert np.all(w[:n] >= 0) and np.all(w[n:] == 0.0)
                    rl = state.run_lengths[row, :n]
                    assert np.all(np.diff(rl) > 0)
                    assert np.array_equal(state.seg_counts[row, :n], rl + 1.0)

    def test_constant_stream_argmax_tracks_time(self):
        hats, _ = run_argmaxes([PROFILE.mu0] * 200, PRIOR, 0.01)
        assert hats == list(range(1, 201))

    def test_constant_stream_never_flags_after_warmup(self):
        state = bocpd_init([PRIOR], 0.01)
        for t in range(1, 1001):
            state, l_hat = step1(state, PROFILE.mu0)
            flag, _ = bocpd_flag(l_hat, t, tau=5, warmup=10)
            assert not flag

    def test_downward_step_detected_within_five_steps(self):
        # 10 sigma drop at index 50; argmax collapses immediately
        for seed in range(12):
            rng = np.random.default_rng(seed)
            q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=80)
            q[50:] -= 10 * PROFILE.sigma0
            hats, _ = run_argmaxes(q, PRIOR, 0.01)
            post = hats[50:55]
            assert any(l <= 5 for l in post), f"seed {seed}: {post}"
            pre = [
                bocpd_flag(l, t, tau=5, warmup=10)[0]
                for t, l in enumerate(hats[:50], start=1)
            ]
            assert not any(pre), f"seed {seed} flagged before the step"

    def test_higher_hazard_shortens_argmax_after_change(self):
        for seed in range(20):
            rng = np.random.default_rng([7, seed])
            q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=60)
            q[30:] -= 8 * PROFILE.sigma0
            hats_fast, _ = run_argmaxes(q, PRIOR, 0.05)
            hats_slow, _ = run_argmaxes(q, PRIOR, 0.005)
            for t in range(30, 40):
                assert hats_fast[t] <= hats_slow[t]

    def test_affine_scale_equivariance(self):
        rng = np.random.default_rng(2024)
        q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=50)
        q[25:] -= 7 * PROFILE.sigma0
        a, c = 3.7, -11.0
        scaled_profile = one_age(NominalProfile(
            mu0=a * PROFILE.mu0 + c,
            sigma0_sq=a * a * PROFILE.sigma0_sq,
            n_samples=PROFILE.n_samples,
        ))
        state1 = bocpd_init([PRIOR], 0.01)
        state2 = bocpd_init([scaled_profile], 0.01)
        for x in q:
            state1, l1 = step1(state1, x)
            state2, l2 = step1(state2, a * x + c)
            assert l1 == l2
            d1 = bocpd_posterior_dense(state1)
            d2 = bocpd_posterior_dense(state2)
            assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_pruning_preserves_argmax_sequence(self):
        rng = np.random.default_rng(55)
        q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=60)
        q[30:] -= 8 * PROFILE.sigma0
        exact, _ = run_argmaxes(q, PRIOR, 0.01, prune=0.0)
        pruned, state = run_argmaxes(q, PRIOR, 0.01, prune=1e-8)
        assert exact == pruned
        assert state.size[0] < state.t + 1  # something was pruned

    def test_underflow_resets_with_warning(self):
        state = bocpd_init([PRIOR], 0.01)
        state, _ = step1(state, PROFILE.mu0)
        with pytest.warns(RuntimeWarning):
            state, l_hat = step1(state, PROFILE.mu0 + 1e6)
        assert l_hat == 0
        assert state.underflow_resets == 1
        assert state.weights.tolist() == [[1.0]]
        assert state.t == 2

    def test_flag_respects_warmup_boundary(self):
        assert bocpd_flag(0, t=10, tau=5, warmup=10) == (False, 0.0)
        assert bocpd_flag(5, t=11, tau=5, warmup=10) == (True, 5.0)
        assert bocpd_flag(6, t=11, tau=5, warmup=10) == (False, 6.0)
        assert bocpd_flag(3, t=11, tau=5, warmup=10)[1] == 3.0
        flags, stats = bocpd_flag(np.array([0, 5, 6, 3]),
                                  np.array([10, 11, 11, 11]), tau=5, warmup=10)
        assert flags.tolist() == [False, True, False, True]
        assert stats.tolist() == [0.0, 5.0, 6.0, 3.0]


# Reference recursion: `bocpd_update` as first written, for one stream, with
# `np.sum`, `** 2`, `np.all` and `np.concatenate`, pruning each array by its
# own mask and converting the run lengths with `.astype(int)`.  The scalar
# oracle and the one-row batch must both reproduce it bit for bit.

def reference_bocpd_update(state, q, prune=1e-8):
    h = state.hazard
    prior = state.prior
    x, w = observation(prior, state.t, q)
    pred_var = prior.noise_var * (w + 1.0 / state.seg_counts)
    pred = np.exp(-0.5 * (x - state.seg_means) ** 2 / pred_var) / np.sqrt(
        2.0 * np.pi * pred_var
    )
    growth = state.weights * (1.0 - h) * pred
    cp = float(np.sum(state.weights * h * pred))
    unnormalized = np.concatenate([[cp], growth])
    if np.all(unnormalized < 1e-300):
        fresh = scalar_bocpd_init(prior, h)
        fresh.t = state.t + 1
        fresh.underflow_resets = state.underflow_resets + 1
        return fresh, 0
    run_lengths = np.concatenate([[0], state.run_lengths + 1])
    seg_means = np.concatenate([
        [0.0],
        (state.seg_means * state.seg_counts + x / w)
        / (state.seg_counts + 1.0 / w),
    ])
    seg_counts = np.concatenate(
        [[prior.prior_count], state.seg_counts + 1.0 / w]
    )
    weights = unnormalized / unnormalized.sum()
    if prune > 0.0:
        keep = weights >= prune
        keep[np.argmax(weights)] = True
        run_lengths = run_lengths[keep]
        seg_means = seg_means[keep]
        seg_counts = seg_counts[keep]
        weights = weights[keep]
        weights = weights / weights.sum()
    new_state = ScalarBocpdState(
        run_lengths=run_lengths.astype(int), weights=weights,
        seg_means=seg_means, seg_counts=seg_counts, prior=prior, hazard=h,
        t=state.t + 1, underflow_resets=state.underflow_resets,
    )
    return new_state, int(run_lengths[np.argmax(weights)])


# a same-age prior whose 30-age horizon the 80-step streams cross
SAME_AGE = AgeProfile(
    means=tuple(-20.0 + 0.5 * k for k in range(30)),
    variances=tuple(0.3 + 0.01 * k for k in range(30)),
    noise_var=0.2, level_var=0.5, n_samples=600,
)


def row_arrays(state, row=0):
    """(run_lengths, weights, seg_means, seg_counts) of one row's support."""
    n = int(state.size[row])
    return tuple(getattr(state, name)[row, :n] for name in
                 ("run_lengths", "weights", "seg_means", "seg_counts"))


def assert_same_posterior(state, ref):
    """A one-row batch state, or a scalar state, equals `ref` bit for bit."""
    if isinstance(state, ScalarBocpdState):
        got = (state.run_lengths, state.weights, state.seg_means,
               state.seg_counts)
    else:
        assert state.size.tolist() == [ref.weights.size]
        assert state.weights.shape == (1, ref.weights.size)  # no padding
        got = row_arrays(state)
    want = (ref.run_lengths, ref.weights, ref.seg_means, ref.seg_counts)
    for name, g, w in zip(("run_lengths", "weights", "seg_means",
                           "seg_counts"), got, want):
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    assert state.t == ref.t
    assert state.underflow_resets == ref.underflow_resets
    assert np.issubdtype(got[0].dtype, np.integer)


class TestBocpdMatchesReference:
    @pytest.mark.parametrize("prior", [PRIOR, SAME_AGE], ids=["one-age", "same-age"])
    @pytest.mark.parametrize("prune", [0.0, 1e-8])
    @pytest.mark.filterwarnings("ignore:run-length posterior underflowed")
    def test_random_streams_bit_for_bit(self, prior, prune):
        """200 streams per prior and prune: quiet, shifted, drifting, noisy.

        The one-row batch, the scalar oracle and the reference agree bit
        for bit."""
        rng = np.random.default_rng([int(prune > 0), prior.horizon])
        for trial in range(200):
            ages = np.minimum(np.arange(80), prior.horizon - 1)
            base = np.array(prior.means)[ages]
            scale = np.sqrt(np.array(prior.variances)[ages])
            q = base + scale * rng.normal(size=80) * rng.uniform(0.2, 3.0)
            kind = trial % 4
            if kind == 1:
                q[rng.integers(5, 75):] -= rng.uniform(2.0, 12.0) * scale[-1]
            elif kind == 2:
                q += np.linspace(0.0, rng.uniform(-10.0, 10.0), 80)
            elif kind == 3:
                q[rng.integers(0, 80, size=5)] += rng.normal(0.0, 30.0, size=5)
            hazard = rng.uniform(0.002, 0.1)
            state = bocpd_init([prior], hazard)
            scalar = ref = scalar_bocpd_init(prior, hazard)
            for x in q.tolist():
                state, l_hat = step1(state, x, prune=prune)
                scalar, l_scalar = scalar_bocpd_update(scalar, x, prune=prune)
                ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
                assert l_hat == l_scalar == l_ref
                assert_same_posterior(state, ref)
                assert_same_posterior(scalar, ref)

    @pytest.mark.parametrize("prior", [PRIOR, SAME_AGE], ids=["one-age", "same-age"])
    @pytest.mark.parametrize("prune", [0.0, 1e-8])
    def test_underflow_reset_and_nan_bit_for_bit(self, prior, prune):
        state = bocpd_init([prior], 0.01)
        ref = scalar_bocpd_init(prior, 0.01)
        for k, x in enumerate([0.1, -0.2, 0.0, 1e6, 0.3, -0.1, 1e6, 0.2]):
            x += prior.means[min(k, prior.horizon - 1)]
            if x > 1e5:
                with pytest.warns(RuntimeWarning, match="underflowed"):
                    state, l_hat = step1(state, x, prune=prune)
            else:
                state, l_hat = step1(state, x, prune=prune)
            ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
            assert l_hat == l_ref
            assert_same_posterior(state, ref)
        assert state.underflow_resets == 2
        # a NaN value poisons the posterior without resetting it
        for x in (float("nan"), 0.0, 1.0):
            state, l_hat = step1(state, x, prune=prune)
            ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
            assert l_hat == l_ref
            assert_same_posterior(state, ref)
        assert np.isnan(row_arrays(state)[1]).all()
        assert state.underflow_resets == 2


def random_streams(rng, prior, lengths):
    """Noisy streams around the prior's same-age means; every third shifts
    down, every fifth drifts."""
    streams = []
    for k, n in enumerate(lengths):
        ages = np.minimum(np.arange(n), prior.horizon - 1)
        q = (np.array(prior.means)[ages] + np.sqrt(prior.noise_var)
             * rng.uniform(0.5, 3.0) * rng.normal(size=n))
        if k % 3 == 0:
            q[rng.integers(1, n):] -= rng.uniform(2.0, 10.0)
        if k % 5 == 0:
            q += np.linspace(0.0, rng.uniform(-8.0, 8.0), n)
        streams.append(q)
    return streams


def run_batch(streams, priors, hazard, prune=1e-8):
    """Score streams, sorted longest first, in one lockstep batch.

    Returns each stream's argmax run lengths and each stream's posterior
    support (run lengths, weights) after every one of its values.
    """
    lengths = [len(s) for s in streams]
    assert lengths == sorted(lengths, reverse=True)
    state = bocpd_init(priors, hazard)
    hats = [[] for _ in streams]
    supports = [[] for _ in streams]
    for t in range(lengths[0]):
        running = sum(n > t for n in lengths)
        values = np.array([s[t] for s in streams[:running]])
        state, l_hat = bocpd_update(state, values, prune=prune)
        assert l_hat.shape == (running,) and state.t == t + 1
        for row in range(running):
            hats[row].append(int(l_hat[row]))
            rl, w, _, _ = row_arrays(state, row)
            supports[row].append((rl.copy(), w.copy()))
    return hats, supports, state


def run_scalar(q, prior, hazard, prune=1e-8):
    state = scalar_bocpd_init(prior, hazard)
    hats, supports = [], []
    for x in q:
        state, l_hat = scalar_bocpd_update(state, float(x), prune=prune)
        hats.append(l_hat)
        supports.append((state.run_lengths, state.weights))
    return hats, supports, state


def assert_rows_match_scalar(streams, priors, hazard, prune=1e-8):
    """Every row agrees with its stream scored alone: equal argmaxes and
    run-length supports, weights within 1e-12 relative."""
    hats, supports, state = run_batch(streams, priors, hazard, prune)
    for row, (q, prior) in enumerate(zip(streams, priors)):
        want_hats, want_supports, _ = run_scalar(q, prior, hazard, prune)
        assert hats[row] == want_hats, row
        for (rl, w), (want_rl, want_w) in zip(supports[row], want_supports):
            assert np.array_equal(rl, want_rl)
            np.testing.assert_allclose(w, want_w, rtol=1e-12, atol=0.0)
    return state


class TestBocpdBatch:
    @pytest.mark.parametrize("prune", [0.0, 1e-8])
    def test_forty_rows_ending_at_different_ages_match_scalar(self, prune):
        """Pruned rows keep supports of different sizes, so the padding
        regroups their sums: the weights agree to round-off."""
        rng = np.random.default_rng(404)
        lengths = sorted(rng.integers(20, 160, size=40).tolist(), reverse=True)
        streams = random_streams(rng, SAME_AGE, lengths)
        state = assert_rows_match_scalar(streams, [SAME_AGE] * 40, 0.022,
                                         prune=prune)
        assert state.size.size == sum(n == lengths[0] for n in lengths)

    def test_leave_one_out_rows_have_their_own_horizons(self):
        """One prior per row, horizons from 8 to 40: each row holds its own
        last age, as the prior does alone."""
        rng = np.random.default_rng(406)
        priors = [AgeProfile(
            means=tuple(float(x) for x in rng.normal(size=h).cumsum()),
            variances=tuple(float(x) for x in rng.uniform(0.2, 1.0, size=h)),
            noise_var=float(rng.uniform(0.1, 0.4)), level_var=1.0,
            n_samples=400) for h in (8, 40, 15, 23, 31)]
        lengths = [90, 70, 60, 45, 30]
        streams = [random_streams(rng, p, [n])[0]
                   for p, n in zip(priors, lengths)]
        assert_rows_match_scalar(streams, priors, 0.022)

    def test_underflow_in_one_row_resets_only_that_row(self):
        rng = np.random.default_rng(407)
        streams = random_streams(rng, PRIOR, [30, 30, 30])
        streams[1] = streams[1].copy()
        streams[1][12] = PRIOR.means[0] + 1e6
        clean = run_batch([streams[0], streams[2]], [PRIOR] * 2, 0.01)
        with pytest.warns(RuntimeWarning, match="1 of 3 rows") as caught:
            hats, supports, state = run_batch(streams, [PRIOR] * 3, 0.01)
        assert len(caught) == 1
        assert state.underflow_resets == 1
        assert hats[1][12] == 0 and supports[1][12][0].tolist() == [0]
        assert [hats[0], hats[2]] == clean[0]
        with pytest.warns(RuntimeWarning, match="underflowed"):
            want_hats, _, want = run_scalar(streams[1], PRIOR, 0.01)
        assert hats[1] == want_hats and want.underflow_resets == 1

    def test_nan_in_one_row_leaves_the_others_unchanged(self):
        rng = np.random.default_rng(408)
        streams = random_streams(rng, SAME_AGE, [50, 50, 40])
        streams[1] = streams[1].copy()
        streams[1][20] = np.nan
        hats, supports, _ = run_batch(streams, [SAME_AGE] * 3, 0.022)
        clean = run_batch([streams[0], streams[2]], [SAME_AGE] * 2, 0.022)
        assert [hats[0], hats[2]] == clean[0]
        for got, want in zip(supports[0] + supports[2],
                             clean[1][0] + clean[1][1]):
            assert np.array_equal(got[0], want[0])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)
        assert all(np.isnan(w).all() for _, w in supports[1][20:])
        assert hats[1] == run_scalar(streams[1], SAME_AGE, 0.022)[0]


class TestCalibrateTau:
    def test_clean_streams_pick_largest_viable_tau(self):
        # argmax equals t on clean streams, so tau cannot exceed warmup:
        # at t = warmup+1 any tau >= warmup+1 would flag immediately
        streams = [list(range(1, 41)) for _ in range(10)]
        tau, rate = calibrate_tau(streams, warmup=10)
        assert tau == 10 and rate == 0.0

    def test_one_dipping_stream_forces_smaller_tau(self):
        streams = [list(range(1, 41)) for _ in range(10)]
        dip = list(range(1, 41))
        dip[20] = 3  # post-warmup dip to run length 3
        streams[0] = dip
        tau, rate = calibrate_tau(streams, warmup=10)
        assert tau == 2 and rate == 0.0

    def test_dip_during_warmup_is_ignored(self):
        streams = [list(range(1, 41)) for _ in range(10)]
        dip = list(range(1, 41))
        dip[4] = 1  # t=5 <= warmup
        streams[0] = dip
        tau, rate = calibrate_tau(streams, warmup=10)
        assert tau == 10 and rate == 0.0

    def test_fallback_when_no_tau_fits(self):
        streams = []
        for _ in range(10):
            s = list(range(1, 41))
            s[25] = 1
            streams.append(s)
        tau, rate = calibrate_tau(streams, warmup=10)
        assert tau == 1 and rate == 1.0

    def test_requires_streams(self):
        with pytest.raises(InsufficientDataError):
            calibrate_tau([], warmup=10)


# Page-Hinkley scaled by the pooled profile, as the profile stage scales it
PH_DELTA, PH_LAMBDA = 0.005 * PROFILE.sigma0, 50.0 * PROFILE.sigma0


class TestPageHinkley:
    def test_constant_stream_never_flags(self):
        flags, stats = page_hinkley(np.full(500, PROFILE.mu0), PH_DELTA,
                                    PH_LAMBDA)
        assert not flags.any()
        assert stats.tolist() == [0.0] * 500

    def test_upward_step_never_flags(self):
        rng = np.random.default_rng(3)
        q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=200)
        q[100:] += 10 * PROFILE.sigma0
        assert not page_hinkley(q, PH_DELTA, PH_LAMBDA)[0].any()

    def test_downward_step_flags_within_twenty_steps(self):
        for seed in range(8):
            q = PROFILE.mu0 + PROFILE.sigma0 * np.random.default_rng(
                seed).normal(size=120)
            q[50:] -= 10 * PROFILE.sigma0
            flags, _ = page_hinkley(q, PH_DELTA, PH_LAMBDA)
            first = int(flags.argmax()) + 1 if flags.any() else None  # age
            assert first is not None and 50 < first <= 70, f"seed {seed}: {first}"

    def test_statistic_is_nonnegative(self):
        rng = np.random.default_rng(11)
        _, stats = page_hinkley(rng.normal(size=300), 0.0, 1.0)
        assert (stats >= 0.0).all()

    def test_rows_match_scalar_bit_for_bit(self):
        """Streams of different lengths and a NaN in one: each stream's
        flags and statistics equal the one-value-at-a-time test's."""
        rng = np.random.default_rng(12)
        lengths = [80, 80, 61, 40, 7]
        streams = [PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=n)
                   for n in lengths]
        streams[0][30:] -= 4 * PROFILE.sigma0
        streams[1][25] = np.nan
        results = [page_hinkley(s, PH_DELTA, PH_LAMBDA) for s in streams]
        for stream, (flags, stats) in zip(streams, results):
            oracle = ScalarPageHinkley(PH_DELTA, PH_LAMBDA)
            want = [oracle.update(x) for x in stream.tolist()]
            assert flags.shape == stats.shape == stream.shape
            assert flags.tolist() == [flag for flag, _ in want]
            assert stats.tobytes() == np.array([s for _, s in want]).tobytes()
        assert results[0][0].any() and np.isnan(results[1][1][-1])


@pytest.fixture(scope="module")
def constellation():
    return constellation_from_config(GnssConfig())


# the residual thresholds the profile stage freezes at k = 3 sigma: 3 x 2 m,
# and at zero noise its 1e-6 floor
NOISY, NOISELESS = 6.0, 1e-6


def score_fixes(fixes, threshold):
    """(flags, statistics) of a list of fixes, as one episode, at the given
    RMS threshold and a 50 m jump gate."""
    positions = np.array([pvt.x[:3] for pvt in fixes])
    rms = np.array([fix_rms(pvt) for pvt in fixes])
    return residual_score(positions, rms, threshold=threshold, jump_gate=50.0)


class TestResidualThreshold:
    def solve_at(self, constellation, position, noise_sigma=0.0, rng=None):
        meas = measure_pseudoranges(np.asarray(position, dtype=float), 12.0,
                                    constellation, noise_sigma, rng)
        return solve_pvt(meas, constellation)

    def test_clean_solution_stays_quiet(self, constellation):
        """Zero noise: the threshold's 1e-6 floor keeps round-off quiet."""
        pvt = self.solve_at(constellation, [100.0, -50.0, 30.0])
        assert score_fixes([pvt], NOISELESS)[0].tolist() == [False]

    def test_nominal_noise_stays_under_threshold(self, constellation):
        rng = np.random.default_rng(5)
        pos = np.array([0.0, 0.0, 100.0])
        fixes = [self.solve_at(constellation, pos + [k, 0, 0],
                               noise_sigma=2.0, rng=rng) for k in range(50)]
        assert not score_fixes(fixes, NOISY)[0].any()

    def test_inconsistent_measurements_flag(self, constellation):
        meas = measure_pseudoranges(np.array([0.0, 0.0, 100.0]), 0.0,
                                    constellation, 0.0, None)
        values = meas.copy()
        values[:3] += 30.0  # corrupt three of eight channels
        pvt = solve_pvt(values, constellation)
        assert score_fixes([pvt], NOISY)[0].tolist() == [True]

    def test_jump_gate_catches_teleport_but_not_drift(self, constellation):
        a = self.solve_at(constellation, [0.0, 0.0, 100.0])
        b = self.solve_at(constellation, [30.0, 0.0, 100.0])
        c = self.solve_at(constellation, [630.0, 0.0, 100.0])
        # the first fix has no jump reference; 30 m is drift-sized; 600 m
        # is a teleport
        assert score_fixes([a, b, c], NOISELESS)[0].tolist() == [
            False, False, True]

    def test_statistics_match_numpy_norms(self, constellation):
        """Statistic and jump gate as np.sqrt and np.linalg.norm give them,
        and as the one-fix-at-a-time test gave them."""
        rng = np.random.default_rng(9)
        pos = np.array([500.0, 500.0, 150.0])
        fixes = []
        for _ in range(200):
            pos = pos + rng.normal(0.0, 30.0, size=3)
            fixes.append(self.solve_at(constellation, pos, noise_sigma=2.0,
                                       rng=rng))
        flags, stats = score_fixes(fixes, NOISY)
        oracle = ScalarResidualThreshold(NOISY, 50.0)
        prev = None
        jumped = 0
        for pvt, flag, statistic in zip(fixes, flags, stats):
            stat = pvt.final_residual_norm / np.sqrt(len(pvt.residuals))
            jump = (0.0 if prev is None
                    else float(np.linalg.norm(pvt.x[:3] - prev)))
            assert statistic == float(stat)
            assert flag == ((stat > NOISY) or (jump > 50.0))
            assert (flag, statistic) == oracle.update(pvt.x[:3],
                                                      float(stat))
            jumped += jump > 50.0
            prev = pvt.x[:3].copy()
        assert 0 < jumped < 200


def make_streams(rng, n, length, profile=PROFILE):
    return [profile.mu0 + profile.sigma0 * rng.normal(size=length)
            for _ in range(n)]


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(1234)
    train_streams = make_streams(rng, 8, 100)
    held_streams = make_streams(rng, 6, 100)
    model, curve = window_ae_train(train_streams, DetectorConfig(), 5)
    return model, curve, train_streams, held_streams


class TestWindowAutoencoder:
    def test_requires_enough_windows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientDataError, match="got 207"):
            window_ae_train(make_streams(rng, 3, 100), DetectorConfig(), 0)
        # no stream reaches the window: nothing to stack, still too little data
        cfg = DetectorConfig(ae_window=32)
        with pytest.raises(InsufficientDataError, match="got 0"):
            window_ae_train(make_streams(rng, 3, 20), cfg, 0)
        with pytest.raises(InsufficientDataError, match="got 0"):
            window_ae_train([], cfg, 0)

    def test_rejects_malformed_and_non_finite_streams(self):
        """Streams are checked as the profiles check them: a 2-D stream or a
        NaN or infinite value is rejected before any window is cut."""
        rng = np.random.default_rng(0)
        streams = make_streams(rng, 8, 100)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            window_ae_train(streams + [np.zeros((40, 40))], DetectorConfig(), 0)
        for bad in (np.nan, np.inf, -np.inf):
            faulty = [s.copy() for s in streams]
            faulty[3][50] = bad
            with pytest.raises(ConfigurationError, match="non-finite"):
                window_ae_train(faulty, DetectorConfig(), 0)

    def test_config_sets_shape_length_and_threshold(self):
        """ae_window, ae_hidden and ae_bottleneck set the layer sizes,
        ae_epochs the loss curve's length, and ae_threshold_stds moves the
        frozen threshold by that many standard deviations of the training
        errors."""
        rng = np.random.default_rng(6)
        streams = make_streams(rng, 6, 120)
        cfg = DetectorConfig(ae_window=12, ae_hidden=7, ae_bottleneck=2,
                             ae_epochs=9, ae_threshold_stds=1.0)
        model, curve = window_ae_train(streams, cfg, 4)
        assert model.net.layer_sizes == [12, 7, 2, 7, 12]
        assert model.window == 12 and len(curve) == 9
        wider, wider_curve = window_ae_train(
            streams, dataclasses.replace(cfg, ae_threshold_stds=4.0), 4)
        assert wider_curve == curve
        assert wider.net.flat.tobytes() == model.net.flat.tobytes()
        x = (np.concatenate([sliding_window_view(s, 12) for s in streams])
             - model.mean) / model.std
        errors = np.mean((model.net.forward(x, cache=False) - x) ** 2, axis=1)
        assert wider.threshold - model.threshold == pytest.approx(
            3.0 * errors.std(), rel=1e-12)

    def test_training_windows_are_the_sliding_slices(self):
        """The training set stacks every window of every stream, in stream
        order, as a slice loop builds it: same rows, mean and std, bit for
        bit; streams shorter than the window add none."""
        rng = np.random.default_rng(3)
        streams = make_streams(rng, 6, 150) + [rng.normal(size=10)]
        model, _ = window_ae_train(
            streams, DetectorConfig(ae_window=32, ae_epochs=1), 0)
        slices = np.stack([s[i:i + 32] for s in streams
                           for i in range(len(s) - 32 + 1)])
        assert len(slices) == 6 * (150 - 31)
        assert model.mean == float(slices.mean())
        assert model.std == float(max(slices.std(), 1e-6))

    @pytest.mark.parametrize("cfg, seed", [
        (DetectorConfig(), 0),
        (DetectorConfig(ae_window=16, ae_hidden=8, ae_bottleneck=3,
                        ae_epochs=40), 9),
    ], ids=["default", "small"])
    def test_training_matches_first_written_loop(self, cfg, seed):
        """Parameters, mean, std, threshold and loss curve, bit for bit;
        the returned net keeps no training buffers."""
        rng = np.random.default_rng(17)
        streams = make_streams(rng, 5, 140) + [rng.normal(size=12)]
        model, curve = window_ae_train(streams, cfg, seed)
        flat, mu, sd, threshold, ref_curve = reference_window_ae_train(
            streams, window=cfg.ae_window, bottleneck=cfg.ae_bottleneck,
            hidden=cfg.ae_hidden, epochs=cfg.ae_epochs, lr=cfg.ae_lr,
            threshold_stds=cfg.ae_threshold_stds, seed=seed)
        assert model.net.flat.tobytes() == flat.tobytes()
        assert (model.mean, model.std, model.threshold) == (mu, sd, threshold)
        assert curve == ref_curve
        assert model.net._work is None
        with pytest.raises(ConfigurationError, match="before forward"):
            model.net.backward(np.zeros((1, model.window)))

    def test_training_working_set_is_bounded(self):
        """Training holds the standardized windows, one error array and the
        net's buffers: its peak allocation stays under 6.5 times the windows'
        bytes (5.6 as written; 7.6 with a dL/dz buffer for the linear output
        and a dL/dx buffer, 10.5 with also a raw copy, a squared-error array
        and a relu derivative array per hidden layer).  Untouched np.empty
        buffers count too."""
        rng = np.random.default_rng(20)
        streams = make_streams(rng, 20, 150)
        cfg = DetectorConfig(ae_epochs=2)
        windows_bytes = 20 * (150 - cfg.ae_window + 1) * cfg.ae_window * 8
        tracemalloc.start()
        try:
            window_ae_train(streams, cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * windows_bytes, peak / windows_bytes

    def test_training_curve_decreases(self, trained):
        _, curve, _, _ = trained
        assert len(curve) == 200
        assert curve[-1] < 0.5 * curve[0]

    def test_heldout_nominal_rarely_flags(self, trained):
        model, _, _, held = trained
        flags, total = 0, 0
        for s in held:
            flagged, _ = window_ae_score(model, s)
            flags += int(flagged.sum())
            total += len(s) - model.window + 1
        assert total > 400
        assert flags / total <= 0.05

    def test_shifted_windows_flag(self, trained):
        model, _, _, _ = trained
        for k in range(20):
            s = PROFILE.mu0 + PROFILE.sigma0 * np.random.default_rng(k).normal(
                size=64
            )
            s[48:] -= 10 * PROFILE.sigma0
            assert window_ae_score(model, s)[0][-1]

    def test_reconstruction_error_matches_np_mean(self, trained):
        """The per-window oracle is np.mean; the stream form agrees to 1e-12."""
        model, _, _, held = trained
        for s in held:
            _, errors = window_ae_score(model, s)
            for i in range(0, len(s) - model.window + 1, 7):
                window = s[i:i + model.window]
                x = (window - model.mean) / model.std
                expected = float(np.mean((model.net.forward(x[None])[0] - x) ** 2))
                assert reconstruction_error(model, window) == expected
                assert errors[i + model.window - 1] == pytest.approx(
                    expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 68])
    def test_stream_scores_match_per_window_oracle(self, trained, extra):
        """Lengths window - 1, window, window + 1 and a long stream."""
        model, _, _, held = trained
        s = np.concatenate(held)[: model.window + extra]
        s[-10:] -= 10 * PROFILE.sigma0  # flag some windows
        flags, errors = window_ae_score(model, s)
        assert flags.shape == errors.shape == s.shape
        for i in range(s.size):
            flag, err = trailing_window_score(model, s[: i + 1])
            assert flags[i] == flag
            if i < model.window - 1:
                assert np.isnan(err) and np.isnan(errors[i])
            else:
                assert errors[i] == pytest.approx(err, rel=1e-12, abs=0.0)
        if extra >= 0:
            assert flags[-1]

    def test_nan_value_gives_nan_and_no_flag_in_its_windows(self, trained):
        model, _, _, held = trained
        s = held[0].copy()
        s[40] = np.nan
        flags, errors = window_ae_score(model, s)
        hit = np.arange(40, 40 + model.window)
        assert np.all(np.isnan(errors[hit])) and not flags[hit].any()
        clean = np.isfinite(errors)
        assert clean.sum() == s.size - (model.window - 1) - model.window
        for i in np.flatnonzero(clean):
            assert errors[i] == pytest.approx(
                trailing_window_score(model, s[: i + 1])[1], rel=1e-12, abs=0.0)

    def test_partial_window_gives_nan_and_no_flag(self, trained):
        model, _, _, _ = trained
        for n in (0, 1, model.window - 1):
            flags, stats = window_ae_score(model, np.zeros(n))
            assert flags.shape == stats.shape == (n,)
            assert not flags.any()
            assert np.all(np.isnan(stats))
        flags, stats = window_ae_score(model, np.zeros(model.window))
        assert np.all(np.isnan(stats[:-1])) and np.isfinite(stats[-1])

    def test_training_is_deterministic(self, trained):
        model, curve, train_streams, _ = trained
        model2, curve2 = window_ae_train(train_streams, DetectorConfig(), 5)
        assert curve == curve2
        assert np.array_equal(model.net.flat, model2.net.flat)
        assert model.threshold == model2.threshold

    def test_save_load_round_trip(self, trained, tmp_path):
        model, _, _, held = trained
        path = tmp_path / "ae.npz"
        model.save(path)
        loaded = WindowAutoencoder.load(path)
        assert loaded.window == model.window
        assert loaded.threshold == model.threshold
        got, want = window_ae_score(loaded, held[0]), window_ae_score(model, held[0])
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CorruptCheckpointError):
            WindowAutoencoder.load(path)

    @pytest.mark.parametrize("fault, message", [
        ("weight_shape", "layer 0: stored shapes"),
        ("window", "window 33 does not match layer sizes"),
        # scalars under which the window test never flags, or always does
        ("mean=nan", "mean must be in (-inf, inf), got nan"),
        ("std=0.0", "std must be in (0, inf), got 0.0"),
        ("std=inf", "std must be in (0, inf), got inf"),
        ("threshold=nan", "threshold must be in [0, inf), got nan"),
        ("threshold=-1.0", "threshold must be in [0, inf), got -1.0"),
    ])
    def test_load_rejects_a_malformed_model(self, trained, tmp_path, fault,
                                            message):
        model, _, _, _ = trained
        path = tmp_path / "ae.npz"
        model.save(path)
        data = dict(np.load(path))
        if fault == "weight_shape":
            data["w0"] = data["w0"][:, :-1]
        elif fault == "window":
            data["window"] = data["window"] + 1
        else:
            key, value = fault.split("=")
            data[key] = np.array(float(value))
        np.savez(path, **data)
        with pytest.raises(CorruptCheckpointError, match=re.escape(message)):
            WindowAutoencoder.load(path)
