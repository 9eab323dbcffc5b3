"""Behavioral tests for the detector bank."""

import numpy as np
import pytest

from driftwatch.detectors import (
    AgeProfile,
    BocpdState,
    NominalProfile,
    PageHinkley,
    ResidualThreshold,
    WindowAutoencoder,
    bocpd_flag,
    bocpd_init,
    bocpd_oracle,
    bocpd_posterior_dense,
    bocpd_update,
    calibrate_tau,
    fit_age_profile,
    fit_nominal_profile,
    window_ae_score,
    window_ae_train,
)
from driftwatch.errors import (
    ConfigurationError,
    CorruptCheckpointError,
    InsufficientDataError,
)
from driftwatch.gnss import (
    ReceiverEstimate,
    make_constellation,
    measure_pseudoranges,
    solve_pvt,
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


def run_argmaxes(q, profile, hazard, prune=1e-8):
    state = bocpd_init(profile, hazard)
    hats = []
    for x in q:
        state, l_hat = bocpd_update(state, float(x), prune=prune)
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
        x, w = prof.observation(1, 2.5)
        assert x == pytest.approx(0.5)
        assert w == pytest.approx((2 / 3) / (6 / 11))

    def test_horizon_is_last_age_half_the_streams_reach(self):
        streams = [np.arange(n, dtype=float) for n in (10, 7, 5, 3)]
        assert fit_age_profile(streams).horizon == 7
        streams.append(np.arange(6, dtype=float))
        assert fit_age_profile(streams).horizon == 6

    def test_statistics_held_past_the_horizon(self):
        prof = fit_age_profile(self.STREAMS)
        last = prof.observation(prof.horizon - 1, 1.5)
        for t in (prof.horizon, prof.horizon + 1, 500):
            assert prof.observation(t, 1.5) == last

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
        state = bocpd_init(prof, 0.022)
        for t, m in enumerate(means):
            state, l_hat = bocpd_update(state, m + 0.5)
            assert not bocpd_flag(l_hat, t + 1, tau=12, warmup=20).flag


class TestBocpd:
    def test_init_state(self):
        state = bocpd_init(PRIOR, 0.01)
        assert state.run_lengths.tolist() == [0]
        assert state.weights.tolist() == [1.0]
        assert state.seg_means.tolist() == [0.0]
        assert state.seg_counts.tolist() == [1.0]
        assert state.t == 0

    def test_init_rejects_bad_hazard(self):
        for h in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                bocpd_init(PRIOR, h)

    def test_posterior_stays_normalized_and_well_formed(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=40)
            if trial % 2 == 0:
                q[20:] -= 6 * PROFILE.sigma0
            prune = 0.0 if trial % 3 == 0 else 1e-8
            state = bocpd_init(PRIOR, 0.02)
            for x in q:
                state, _ = bocpd_update(state, float(x), prune=prune)
                assert abs(state.weights.sum() - 1.0) < 1e-9
                assert np.all(state.weights >= 0)
                rl = state.run_lengths
                assert np.all(np.diff(rl) > 0)
                assert np.array_equal(state.seg_counts, rl + 1.0)

    def test_constant_stream_argmax_tracks_time(self):
        hats, _ = run_argmaxes([PROFILE.mu0] * 200, PRIOR, 0.01)
        assert hats == list(range(1, 201))

    def test_constant_stream_never_flags_after_warmup(self):
        state = bocpd_init(PRIOR, 0.01)
        for t in range(1, 1001):
            state, l_hat = bocpd_update(state, PROFILE.mu0)
            verdict = bocpd_flag(l_hat, t, tau=5, warmup=10)
            assert not verdict.flag

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
                bocpd_flag(l, t, tau=5, warmup=10).flag
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
        state1 = bocpd_init(PRIOR, 0.01)
        state2 = bocpd_init(scaled_profile, 0.01)
        for x in q:
            state1, l1 = bocpd_update(state1, float(x))
            state2, l2 = bocpd_update(state2, float(a * x + c))
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
        assert len(state.weights) < state.t + 1  # something was pruned

    def test_underflow_resets_with_warning(self):
        state = bocpd_init(PRIOR, 0.01)
        state, _ = bocpd_update(state, PROFILE.mu0)
        with pytest.warns(RuntimeWarning):
            state, l_hat = bocpd_update(state, PROFILE.mu0 + 1e6)
        assert l_hat == 0
        assert state.underflow_resets == 1
        assert state.weights.tolist() == [1.0]
        assert state.t == 2

    def test_flag_respects_warmup_boundary(self):
        assert not bocpd_flag(0, t=10, tau=5, warmup=10).flag
        assert bocpd_flag(5, t=11, tau=5, warmup=10).flag
        assert not bocpd_flag(6, t=11, tau=5, warmup=10).flag
        assert bocpd_flag(3, t=11, tau=5, warmup=10).statistic == 3.0


# Reference recursion: `bocpd_update` as first written, with `np.sum`,
# `** 2`, `np.all` and `np.concatenate`, pruning each array by its own mask
# and converting the run lengths with `.astype(int)`.  The recursion must
# reproduce it bit for bit.

def reference_bocpd_update(state, q, prune=1e-8):
    h = state.hazard
    prior = state.prior
    x, w = prior.observation(state.t, q)
    pred_var = prior.noise_var * (w + 1.0 / state.seg_counts)
    pred = np.exp(-0.5 * (x - state.seg_means) ** 2 / pred_var) / np.sqrt(
        2.0 * np.pi * pred_var
    )
    growth = state.weights * (1.0 - h) * pred
    cp = float(np.sum(state.weights * h * pred))
    unnormalized = np.concatenate([[cp], growth])
    if np.all(unnormalized < 1e-300):
        fresh = bocpd_init(prior, h)
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
    new_state = BocpdState(
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


def assert_same_posterior(state, ref):
    for name in ("run_lengths", "weights", "seg_means", "seg_counts"):
        got, want = getattr(state, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert state.t == ref.t
    assert state.underflow_resets == ref.underflow_resets
    assert np.issubdtype(state.run_lengths.dtype, np.integer)


class TestBocpdMatchesReference:
    @pytest.mark.parametrize("prior", [PRIOR, SAME_AGE], ids=["one-age", "same-age"])
    @pytest.mark.parametrize("prune", [0.0, 1e-8])
    @pytest.mark.filterwarnings("ignore:run-length posterior underflowed")
    def test_random_streams_bit_for_bit(self, prior, prune):
        """200 streams per prior and prune: quiet, shifted, drifting, noisy."""
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
            state = ref = bocpd_init(prior, hazard)
            for x in q.tolist():
                state, l_hat = bocpd_update(state, x, prune=prune)
                ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
                assert l_hat == l_ref
                assert_same_posterior(state, ref)

    @pytest.mark.parametrize("prior", [PRIOR, SAME_AGE], ids=["one-age", "same-age"])
    @pytest.mark.parametrize("prune", [0.0, 1e-8])
    def test_underflow_reset_and_nan_bit_for_bit(self, prior, prune):
        state = ref = bocpd_init(prior, 0.01)
        for k, x in enumerate([0.1, -0.2, 0.0, 1e6, 0.3, -0.1, 1e6, 0.2]):
            x += prior.means[min(k, prior.horizon - 1)]
            if x > 1e5:
                with pytest.warns(RuntimeWarning, match="underflowed"):
                    state, l_hat = bocpd_update(state, x, prune=prune)
            else:
                state, l_hat = bocpd_update(state, x, prune=prune)
            ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
            assert l_hat == l_ref
            assert_same_posterior(state, ref)
        assert state.underflow_resets == 2
        # a NaN value poisons the posterior without resetting it
        for x in (float("nan"), 0.0, 1.0):
            state, l_hat = bocpd_update(state, x, prune=prune)
            ref, l_ref = reference_bocpd_update(ref, x, prune=prune)
            assert l_hat == l_ref
            assert_same_posterior(state, ref)
        assert np.isnan(state.weights).all()
        assert state.underflow_resets == 2


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


def scaled_ph():
    """Page-Hinkley scaled by the pooled profile, as the profile stage does."""
    return PageHinkley(delta=0.005 * PROFILE.sigma0, lam=50.0 * PROFILE.sigma0)


class TestPageHinkley:
    def test_constant_stream_never_flags(self):
        ph = scaled_ph()
        for _ in range(500):
            v = ph.update(PROFILE.mu0)
            assert not v.flag
            assert v.statistic == 0.0

    def test_upward_step_never_flags(self):
        ph = scaled_ph()
        rng = np.random.default_rng(3)
        q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=200)
        q[100:] += 10 * PROFILE.sigma0
        assert not any(ph.update(float(x)).flag for x in q)

    def test_downward_step_flags_within_twenty_steps(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            q = PROFILE.mu0 + PROFILE.sigma0 * rng.normal(size=120)
            q[50:] -= 10 * PROFILE.sigma0
            ph = scaled_ph()
            first = None
            for t, x in enumerate(q, start=1):
                if ph.update(float(x)).flag and first is None:
                    first = t
            assert first is not None and 50 < first <= 70, f"seed {seed}: {first}"

    def test_statistic_is_nonnegative(self):
        ph = PageHinkley(delta=0.0, lam=1.0)
        rng = np.random.default_rng(11)
        for x in rng.normal(size=300):
            assert ph.update(float(x)).statistic >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PageHinkley(delta=-0.1, lam=1.0)
        with pytest.raises(ConfigurationError):
            PageHinkley(delta=0.1, lam=0.0)


@pytest.fixture(scope="module")
def constellation():
    return make_constellation(n_sats=8, seed=7)


class TestResidualThreshold:
    def solve_at(self, constellation, position, noise_sigma=0.0, rng=None):
        truth = ReceiverEstimate(position=np.asarray(position, dtype=float),
                                 clock_bias=12.0)
        meas = measure_pseudoranges(truth, constellation, noise_sigma, rng)
        return solve_pvt(meas, constellation)

    def test_clean_solution_stays_quiet(self, constellation):
        det = ResidualThreshold(k_sigma=3.0, noise_sigma=0.0, jump_gate=50.0)
        pvt = self.solve_at(constellation, [100.0, -50.0, 30.0])
        assert not det.update(pvt).flag

    def test_nominal_noise_stays_under_threshold(self, constellation):
        rng = np.random.default_rng(5)
        det = ResidualThreshold(k_sigma=3.0, noise_sigma=2.0, jump_gate=50.0)
        flags = 0
        pos = np.array([0.0, 0.0, 100.0])
        for k in range(50):
            pvt = self.solve_at(constellation, pos + [k, 0, 0],
                                noise_sigma=2.0, rng=rng)
            flags += int(det.update(pvt).flag)
        assert flags == 0

    def test_inconsistent_measurements_flag(self, constellation):
        truth = ReceiverEstimate(position=np.array([0.0, 0.0, 100.0]))
        meas = measure_pseudoranges(truth, constellation, 0.0, None)
        values = meas.values.copy()
        values[:3] += 30.0  # corrupt three of eight channels
        from driftwatch.gnss import PseudorangeSet

        pvt = solve_pvt(PseudorangeSet(values=values), constellation)
        det = ResidualThreshold(k_sigma=3.0, noise_sigma=2.0, jump_gate=50.0)
        assert det.update(pvt).flag

    def test_jump_gate_catches_teleport_but_not_drift(self, constellation):
        det = ResidualThreshold(k_sigma=3.0, noise_sigma=0.0, jump_gate=50.0)
        a = self.solve_at(constellation, [0.0, 0.0, 100.0])
        b = self.solve_at(constellation, [30.0, 0.0, 100.0])
        c = self.solve_at(constellation, [630.0, 0.0, 100.0])
        assert not det.update(a).flag  # first step has no jump reference
        assert not det.update(b).flag  # 30 m, drift-sized
        assert det.update(c).flag  # 600 m teleport

    def test_statistics_match_numpy_norms(self, constellation):
        """Statistic and jump gate as np.sqrt and np.linalg.norm give them."""
        rng = np.random.default_rng(9)
        det = ResidualThreshold(k_sigma=3.0, noise_sigma=2.0, jump_gate=50.0)
        pos = np.array([500.0, 500.0, 150.0])
        prev = None
        jumped = 0
        for _ in range(200):
            pos = pos + rng.normal(0.0, 30.0, size=3)
            pvt = self.solve_at(constellation, pos, noise_sigma=2.0, rng=rng)
            verdict = det.update(pvt)
            stat = pvt.final_residual_norm / np.sqrt(len(pvt.residuals))
            jump = (0.0 if prev is None
                    else float(np.linalg.norm(pvt.estimate.position - prev)))
            assert verdict.statistic == float(stat)
            assert verdict.flag == ((stat > det.threshold) or (jump > 50.0))
            jumped += jump > 50.0
            prev = pvt.estimate.position.copy()
        assert 0 < jumped < 200

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ResidualThreshold(k_sigma=0.0, noise_sigma=1.0, jump_gate=50.0)
        with pytest.raises(ConfigurationError):
            ResidualThreshold(k_sigma=3.0, noise_sigma=-1.0, jump_gate=50.0)
        with pytest.raises(ConfigurationError):
            ResidualThreshold(k_sigma=3.0, noise_sigma=1.0, jump_gate=0.0)


def make_streams(rng, n, length, profile=PROFILE):
    return [profile.mu0 + profile.sigma0 * rng.normal(size=length)
            for _ in range(n)]


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(1234)
    train_streams = make_streams(rng, 8, 100)
    held_streams = make_streams(rng, 6, 100)
    model, curve = window_ae_train(train_streams, seed=5)
    return model, curve, train_streams, held_streams


class TestWindowAutoencoder:
    def test_requires_enough_windows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientDataError):
            window_ae_train(make_streams(rng, 3, 100))

    def test_training_curve_decreases(self, trained):
        _, curve, _, _ = trained
        assert len(curve) == 200
        assert curve[-1] < 0.5 * curve[0]

    def test_heldout_nominal_rarely_flags(self, trained):
        model, _, _, held = trained
        flags, total = 0, 0
        for s in held:
            for i in range(len(s) - model.window + 1):
                v = window_ae_score(model, s[: i + model.window])
                flags += int(v.flag)
                total += 1
        assert total > 400
        assert flags / total <= 0.05

    def test_shifted_windows_flag(self, trained):
        model, _, _, _ = trained
        for k in range(20):
            s = PROFILE.mu0 + PROFILE.sigma0 * np.random.default_rng(k).normal(
                size=64
            )
            s[48:] -= 10 * PROFILE.sigma0
            assert window_ae_score(model, s).flag

    def test_reconstruction_error_matches_np_mean(self, trained):
        model, _, _, held = trained
        for s in held:
            for i in range(0, len(s) - model.window + 1, 7):
                window = s[i:i + model.window]
                x = (window - model.mean) / model.std
                expected = float(np.mean((model.net.forward(x) - x) ** 2))
                assert model.reconstruction_error(window) == expected

    def test_partial_window_gives_nan_and_no_flag(self, trained):
        model, _, _, _ = trained
        v = window_ae_score(model, np.zeros(model.window - 1))
        assert not v.flag
        assert np.isnan(v.statistic)

    def test_training_is_deterministic(self, trained):
        model, curve, train_streams, _ = trained
        model2, curve2 = window_ae_train(train_streams, seed=5)
        assert curve == curve2
        for w1, w2 in zip(model.net.parameters(), model2.net.parameters()):
            assert np.array_equal(w1, w2)
        assert model.threshold == model2.threshold

    def test_save_load_round_trip(self, trained, tmp_path):
        model, _, _, held = trained
        path = tmp_path / "ae.npz"
        model.save(path)
        loaded = WindowAutoencoder.load(path)
        assert loaded.window == model.window
        assert loaded.threshold == model.threshold
        window = held[0][: model.window]
        assert loaded.reconstruction_error(window) == pytest.approx(
            model.reconstruction_error(window), abs=0.0
        )

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CorruptCheckpointError):
            WindowAutoencoder.load(path)
