"""Episode loop, detector bank wiring, and metric definition tests."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from driftwatch import env as env_module
from driftwatch import harness
from driftwatch.config import DetectorConfig, EnvConfig, EvalConfig
from driftwatch.ddpg import Agent
from driftwatch.detectors import (
    AgeProfile,
    NominalProfile,
    fit_age_profile,
    window_ae_train,
)
from driftwatch.errors import ConfigurationError
from driftwatch.gnss import make_constellation
from driftwatch.harness import (
    CSV_COLUMNS,
    DETECTOR_ORDER,
    DetectorBank,
    EpisodeDetectors,
    EpisodeLog,
    _lockstep,
    compute_metrics,
    evaluate,
    profile_pipeline,
    run_episode,
    write_episode_csv,
)
from driftwatch.spoofing import AttackConfig, attack_alpha
from scoring_oracles import (
    ScalarPageHinkley,
    ScalarResidualThreshold,
    scalar_bocpd_init,
    scalar_bocpd_update,
    trailing_window_score,
)


def play(agent, env_cfg, attack, bank, seed, **kwargs) -> EpisodeLog:
    """One episode played alone (the one-row stage), scored by `bank` if
    given."""
    [log] = run_episode(agent, env_cfg, [(attack, seed)], **kwargs)
    if bank is not None:
        bank.score([log])
    return log


@pytest.fixture(scope="module")
def constellation():
    return make_constellation(n_sats=8, seed=7)


@pytest.fixture(scope="module")
def small_agent():
    return Agent(np.random.default_rng([0, 1]), hidden=(16, 16))


@pytest.fixture(scope="module")
def mini_env():
    return EnvConfig(goal_distance_range=(400.0, 500.0), max_steps=60)


@pytest.fixture(scope="module")
def synthetic_bank():
    return make_synthetic_bank()


def make_synthetic_bank() -> DetectorBank:
    profile = NominalProfile(mu0=-3.0, sigma0_sq=0.25, n_samples=800)
    rng = np.random.default_rng(77)
    streams = [profile.mu0 + profile.sigma0 * rng.normal(size=100)
               for _ in range(8)]
    ae, _ = window_ae_train(streams, window=16, seed=3)
    return DetectorBank(
        profile=profile,
        # the pooled model as a one-age prior
        age_profile=AgeProfile(means=(profile.mu0,),
                               variances=(profile.sigma0_sq,),
                               noise_var=profile.sigma0_sq,
                               level_var=profile.sigma0_sq, n_samples=800),
        tau=5,
        warmup=10,
        hazard=0.01,
        prune=1e-8,
        ph_delta=0.005 * profile.sigma0,
        ph_lambda=50.0 * profile.sigma0,
        residual_k_sigma=3.0,
        residual_noise_sigma=2.0,
        residual_jump_gate=50.0,
        ae=ae,
    )


def synthetic_log(n, onset=None, flag_rows=(), seed=1) -> EpisodeLog:
    """Minimal log whose only meaningful content is one detector pattern."""
    flags = np.zeros((n, len(DETECTOR_ORDER)), dtype=bool)
    for det in range(len(DETECTOR_ORDER)):
        for r in flag_rows:
            flags[r, det] = True
    attack = (
        None
        if onset is None
        else AttackConfig(t_start=onset, drift_duration=5, enabled=True)
    )
    return EpisodeLog(
        seed=seed,
        config_hash="x",
        terminal_event="timeout",
        attack=attack,
        t=np.arange(n),
        true_pos=np.zeros((n, 3)),
        est_pos=np.zeros((n, 3)),
        residual_rms=np.zeros(n),
        phi=np.zeros((n, 9)),
        action=np.zeros((n, 3)),
        rewards=np.zeros((n, 4)),
        q=np.zeros(n),
        alpha=np.zeros(n),
        flags=flags,
        stats=np.zeros((n, len(DETECTOR_ORDER))),
    )


class TestMetricStubs:
    def test_perfect_detector(self):
        logs = [synthetic_log(500, onset=100, flag_rows=range(100, 500))
                for _ in range(3)]
        logs += [synthetic_log(200) for _ in range(3)]
        metrics = compute_metrics(logs)
        assert list(metrics) == list(DETECTOR_ORDER)
        for m in metrics.values():
            assert m["accuracy"] == {"mean": 1.0, "std": 0.0}
            assert m["false_positive_rate"]["mean"] == 0.0
            assert m["false_negative_rate"]["mean"] == 0.0
            assert m["step_miss_rate"]["mean"] == 0.0
            assert m["detection_delay"]["mean"] == 0.0
            assert m["n_detected"] == m["n_attacked"] == 3
            assert m["n_nominal"] == 3

    def test_never_flag_detector(self):
        logs = [synthetic_log(500, onset=100) for _ in range(4)]
        logs += [synthetic_log(200) for _ in range(2)]
        metrics = compute_metrics(logs)
        for m in metrics.values():
            assert m["false_negative_rate"]["mean"] == 1.0
            assert m["false_positive_rate"]["mean"] == 0.0
            assert m["detection_delay"] == {"mean": None, "std": None}
            assert m["n_detected"] == 0
            assert m["accuracy"]["mean"] == pytest.approx(
                (4 * (100 / 500) + 2 * 1.0) / 6
            )

    def test_always_flag_detector(self):
        logs = [synthetic_log(500, onset=100, flag_rows=range(500))
                for _ in range(2)]
        logs += [synthetic_log(200, flag_rows=range(200)) for _ in range(2)]
        metrics = compute_metrics(logs)
        for m in metrics.values():
            assert m["false_positive_rate"]["mean"] == 1.0
            assert m["false_negative_rate"]["mean"] == 0.0
            assert m["detection_delay"]["mean"] == 0.0
            assert m["accuracy"]["mean"] == pytest.approx(
                (2 * (400 / 500) + 2 * 0.0) / 4
            )

    def test_latched_scoring_forgives_gaps(self):
        # one raw flag at 120 latches through the rest of the episode
        log = synthetic_log(500, onset=100, flag_rows=[120])
        m = compute_metrics([log])["bocpd"]
        assert m["accuracy"]["mean"] == pytest.approx((100 + 380) / 500)
        assert m["detection_delay"]["mean"] == 20.0
        assert m["step_miss_rate"]["mean"] == pytest.approx(20 / 400)

    def test_pre_onset_flag_counts_against_fpr_not_delay(self):
        log = synthetic_log(500, onset=100, flag_rows=[50])
        m = compute_metrics([log])["bocpd"]
        assert m["false_positive_rate"]["mean"] == pytest.approx(50 / 100)
        assert m["detection_delay"]["mean"] == 0.0
        assert m["false_negative_rate"]["mean"] == 0.0

    def test_requires_logs(self):
        with pytest.raises(ConfigurationError):
            compute_metrics([])


class TestRunEpisode:
    def test_disabled_attack_logs_no_attack_activity(
        self, small_agent, mini_env, constellation
    ):
        logs = run_episode(
            small_agent, mini_env,
            [(AttackConfig(enabled=False), seed) for seed in range(20)],
            constellation=constellation, noise_sigma=2.0,
        )
        assert [log.seed for log in logs] == list(range(20))
        for log in logs:
            assert not log.attacked
            assert np.all(log.alpha == 0.0)
            assert log.n_steps <= mini_env.max_steps
            assert log.terminal_event in ("goal_reached", "timeout",
                                          "collision")

    def test_attack_drags_estimate_to_target_not_truth(
        self, small_agent, constellation
    ):
        attack = AttackConfig(t_start=100, drift_duration=50,
                              target=(0.0, 0.0, 0.0), enabled=True)
        log = play(
            small_agent, EnvConfig(), attack, None, 0,
            constellation=constellation, noise_sigma=2.0,
        )
        assert log.n_steps > 150
        assert np.linalg.norm(log.est_pos[150]) < 10.0
        assert np.linalg.norm(log.true_pos[150]) > 100.0
        # alpha column mirrors the attack schedule at every logged step
        for i in (0, 50, 99, 100, 125, 150, log.n_steps - 1):
            alpha = attack_alpha(int(log.t[i]), attack)
            assert log.alpha[i] == (0.0 if alpha is None else alpha)

    def test_same_seed_gives_byte_identical_csv(
        self, small_agent, mini_env, constellation, tmp_path
    ):
        attack = AttackConfig(t_start=10, drift_duration=5, enabled=True)
        paths = []
        for k in range(2):
            log = play(
                small_agent, mini_env, attack, None, 42,
                constellation=constellation, noise_sigma=2.0,
                config_hash="abc123",
            )
            p = tmp_path / f"run{k}.csv"
            write_episode_csv(log, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, small_agent, mini_env, constellation, tmp_path):
        log = play(
            small_agent, mini_env, None, None, 7,
            constellation=constellation, noise_sigma=2.0,
            config_hash="deadbeef",
        )
        path = tmp_path / "episode.csv"
        write_episode_csv(log, path)
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert len(meta) == 6
        assert meta[0] == "# schema: driftwatch-episode-v1"
        assert "# config_hash: deadbeef" in meta
        header = lines[len(meta)]
        assert header == ",".join(CSV_COLUMNS)
        assert len(lines) == len(meta) + 1 + log.n_steps

    def test_onset_zero_rejected(self, small_agent, mini_env, constellation):
        bad = AttackConfig(t_start=0, drift_duration=5, enabled=True)
        with pytest.raises(ConfigurationError):
            play(
                small_agent, mini_env, bad, None, 1,
                constellation=constellation, noise_sigma=2.0,
            )

    def test_detector_columns_populate(
        self, small_agent, mini_env, constellation, synthetic_bank
    ):
        log = play(
            small_agent, mini_env, None, synthetic_bank, 3,
            constellation=constellation, noise_sigma=2.0,
        )
        n = log.n_steps
        assert n >= 20
        assert log.flags.shape == (n, 4) and log.flags.dtype == bool
        # bocpd, ph, residual statistics always defined
        assert np.all(np.isfinite(log.stats[:, :3]))
        # window detector warms up for window-1 steps, then scores
        window = synthetic_bank.ae.window
        assert np.all(np.isnan(log.stats[: window - 1, 3]))
        assert np.all(np.isfinite(log.stats[window - 1:, 3]))
        assert not log.flags[: window - 1, 3].any()

    def test_no_solve_after_the_reset_starts_from_the_truth(
        self, small_agent, mini_env, constellation, monkeypatch
    ):
        """Each fix of a rollout starts from its episode's previous fix,
        bit for bit; only the reset's first fix starts from the truth."""
        real_solve, real_dynamics = env_module.solve_pvt, env_module.step_dynamics
        real_reset, real_step = harness.env_reset_full, harness.env_step
        episode_of = {}  # goal bytes -> seed
        now = {}  # episode being stepped and its true state after the move
        solves = {}  # seed -> [(init, fix, true state or None)]

        def reset(cfg, seed, *args):
            now.update(seed=seed, truth=None)
            out = real_reset(cfg, seed, *args)
            episode_of[out[0].goal.tobytes()] = seed
            return out

        def step(world, *args, **kwargs):
            now.update(seed=episode_of[world.goal.tobytes()], truth=None)
            return real_step(world, *args, **kwargs)

        def dynamics(*args, **kwargs):
            world = real_dynamics(*args, **kwargs)
            now["truth"] = np.append(world.uav_pos_true, world.clock_bias_true)
            return world

        def solve(meas, cons, init=None, **kwargs):
            pvt = real_solve(meas, cons, init=init, **kwargs)
            solves.setdefault(now["seed"], []).append(
                (init, pvt.x, now["truth"]))
            return pvt

        monkeypatch.setattr(harness, "env_reset_full", reset)
        monkeypatch.setattr(harness, "env_step", step)
        monkeypatch.setattr(env_module, "step_dynamics", dynamics)
        monkeypatch.setattr(env_module, "solve_pvt", solve)
        attack = AttackConfig(t_start=10, drift_duration=15,
                              target=(300.0, 200.0, 100.0), enabled=True)
        episodes = [(attack if seed % 2 else None, seed) for seed in range(6)]
        logs = run_episode(small_agent, mini_env, episodes,
                           constellation=constellation, noise_sigma=2.0)
        assert sorted(solves) == list(range(6))
        for log in logs:
            calls = solves[log.seed]
            assert len(calls) == log.n_steps + 1  # the reset's, then one a step
            assert calls[0][2] is None  # the reset's fix
            for (_, previous, _), (init, _, truth) in zip(calls, calls[1:]):
                assert init.shape == (4,)
                assert init.tobytes() == previous.tobytes()
                assert not np.array_equal(init, truth)

    def test_lockstep_play_does_not_change_an_episode(
        self, small_agent, mini_env, constellation, synthetic_bank
    ):
        """A mixed stage, played in either order, gives every episode what
        the same seed gives alone, up to the batched actor's round-off."""
        attack = AttackConfig(t_start=10, drift_duration=15,
                              target=(300.0, 200.0, 100.0), enabled=True)
        episodes = [(attack if k % 3 == 0 else None, 50 + k) for k in range(12)]
        kwargs = dict(constellation=constellation, noise_sigma=2.0)
        forward = run_episode(small_agent, mini_env, episodes, **kwargs)
        backward = run_episode(small_agent, mini_env, episodes[::-1],
                               **kwargs)[::-1]
        alone = [run_episode(small_agent, mini_env, [episode], **kwargs)[0]
                 for episode in episodes]
        assert len({log.n_steps for log in alone}) > 1  # rows drop out
        for logs in (forward, backward, alone):
            synthetic_bank.score(logs)
        for stage in (forward, backward):
            for log, want in zip(stage, alone):
                assert log.seed == want.seed and log.attack == want.attack
                assert log.n_steps == want.n_steps
                assert log.terminal_event == want.terminal_event
                assert np.array_equal(log.flags, want.flags)
                assert np.array_equal(log.t, want.t)
                assert np.array_equal(log.alpha, want.alpha)
                for name in ("true_pos", "est_pos", "phi"):  # metres
                    np.testing.assert_allclose(
                        getattr(log, name), getattr(want, name),
                        rtol=0.0, atol=1e-10, err_msg=name)
                for name in ("action", "rewards", "q", "residual_rms"):
                    np.testing.assert_allclose(
                        getattr(log, name), getattr(want, name),
                        rtol=1e-10, atol=1e-12, err_msg=name)
                np.testing.assert_allclose(log.stats, want.stats, rtol=1e-8,
                                           atol=1e-10, equal_nan=True)


# One short attacked episode, committed as CSV.  Regenerate it, after a
# change that is meant to alter episodes, with `python tests/test_harness.py`.
GOLDEN_EPISODE = Path(__file__).parent / "data" / "golden_attacked_episode.csv"


def golden_episode() -> EpisodeLog:
    """Seeded untrained agent, the synthetic bank, 60 steps, onset at 20."""
    agent = Agent(np.random.default_rng([0, 1]), hidden=(16, 16))
    attack = AttackConfig(t_start=20, drift_duration=20,
                          target=(600.0, 400.0, 150.0), enabled=True)
    return play(
        agent, EnvConfig(max_steps=60), attack, make_synthetic_bank(), 3,
        constellation=make_constellation(n_sats=8, seed=7), noise_sigma=2.0,
        config_hash="golden",
    )


def read_episode_csv(path):
    """(# metadata, column names, rows of text fields) of an episode CSV."""
    lines = Path(path).read_text().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    header = lines[len(meta)].split(",")
    rows = [line.split(",") for line in lines[len(meta) + 1:]]
    return meta, header, rows


def test_golden_attacked_episode(tmp_path):
    """Flags, terminal event and step count exact; floats to 1e-12 relative.

    A spoofed fix fits its pseudoranges exactly, so its residual statistic
    is solver round-off (about 3e-9 against a threshold of 6) and varies
    with the BLAS build; that column also passes within 1e-6 absolute.
    """
    path = tmp_path / "episode.csv"
    write_episode_csv(golden_episode(), path)
    meta, header, rows = read_episode_csv(path)
    want_meta, want_header, want_rows = read_episode_csv(GOLDEN_EPISODE)
    assert meta == want_meta
    assert meta["steps"] == "60" and len(rows) == 60
    assert header == want_header == list(CSV_COLUMNS)
    for name, got, want in zip(header, zip(*rows), zip(*want_rows)):
        if name == "t" or name.endswith("_flag"):
            assert got == want, name
        else:
            np.testing.assert_allclose(
                np.array(got, dtype=float), np.array(want, dtype=float),
                rtol=1e-12, atol=1e-6 if name == "residual_stat" else 0.0,
                equal_nan=True, err_msg=name)


def recorded_log(rng, n, shift_at=None) -> EpisodeLog:
    """An unscored log of n decision points: values around the synthetic
    bank's profile, fixes a few metres to tens of metres apart."""
    log = synthetic_log(n)
    log.q = -3.0 + 0.5 * rng.normal(size=n)
    if shift_at is not None:
        log.q[shift_at:] += 2.0  # a level shift the AE should flag
    log.est_pos = np.cumsum(rng.uniform(0.0, 20.0, size=(n, 3)), axis=0)
    log.residual_rms = rng.uniform(0.0, 8.0, size=n)
    return log


def scalar_scores(bank, log):
    """(flags, stats) of one log from the one-value-at-a-time oracles."""
    state = scalar_bocpd_init(bank.age_profile, bank.hazard)
    ph = ScalarPageHinkley(bank.ph_delta, bank.ph_lambda)
    residual = ScalarResidualThreshold(
        max(bank.residual_k_sigma * bank.residual_noise_sigma, 1e-6),
        bank.residual_jump_gate)
    rows = []
    for t, (q, pos, rms) in enumerate(zip(log.q.tolist(), log.est_pos,
                                          log.residual_rms.tolist()), start=1):
        state, l_hat = scalar_bocpd_update(state, q, prune=bank.prune)
        flag = t > bank.warmup and l_hat <= bank.tau
        rows.append((flag, float(l_hat), *ph.update(q),
                     *residual.update(pos, rms)))
    return (np.array([r[0::2] for r in rows], dtype=bool),
            np.array([r[1::2] for r in rows]))


class TestEpisodeDetectors:
    def test_score_matches_per_step_detectors(self, synthetic_bank):
        """One episode is the one-row case: the sequential tests equal the
        scalar oracles bit for bit; the AE column equals the per-window
        oracle to 1e-12, flags exactly."""
        window = synthetic_bank.ae.window
        rng = np.random.default_rng(12)
        log = recorded_log(rng, 4 * window, shift_at=2 * window)
        log.q[3 * window] = np.nan
        synthetic_bank.score([log])
        flags, stats = log.flags, log.stats
        assert flags.shape == stats.shape == (log.n_steps, len(DETECTOR_ORDER))
        ae = DETECTOR_ORDER.index("window_ae")
        want_flags, want_stats = scalar_scores(synthetic_bank, log)
        assert np.array_equal(flags[:, :ae], want_flags)
        assert stats[:, :ae].tobytes() == want_stats.tobytes()
        for k in range(log.n_steps):
            flag, stat = trailing_window_score(synthetic_bank.ae, log.q[: k + 1])
            assert flags[k, ae] == flag
            if np.isnan(stat):
                assert np.isnan(stats[k, ae])
            else:
                assert stats[k, ae] == pytest.approx(stat, rel=1e-12, abs=0.0)
        assert flags[:, ae].any() and flags[:, :ae].any()

    def test_stage_of_forty_matches_each_episode_alone(self, synthetic_bank):
        """Forty episodes ending at different ages, one with a NaN value,
        scored in one pass: flags, argmax run lengths, Page-Hinkley, the
        residual test and the AE equal each episode scored alone."""
        rng = np.random.default_rng(13)
        logs = [recorded_log(rng, int(n), shift_at=int(n) // 2 if k % 2 else None)
                for k, n in enumerate(rng.integers(20, 200, size=40))]
        logs[7].q[logs[7].n_steps // 3] = np.nan
        alone = [dataclasses.replace(log) for log in logs]
        synthetic_bank.score(logs)
        for log in alone:
            synthetic_bank.score([log])
        for log, single in zip(logs, alone):
            assert np.array_equal(log.flags, single.flags)
            assert log.stats.tobytes() == single.stats.tobytes()
            want_flags, want_stats = scalar_scores(synthetic_bank, log)
            assert np.array_equal(log.flags[:, :3], want_flags)
            assert log.stats[:, :3].tobytes() == want_stats.tobytes()
        assert np.isnan(logs[7].stats[-1, 1])  # Page-Hinkley keeps the NaN
        assert sum(log.flags[:, 0].any() for log in logs) > 5

    def test_lockstep_feeds_only_the_running_rows(self):
        streams = [np.arange(5.0), np.arange(10.0, 13.0), np.arange(20.0, 23.0),
                   np.array([30.0])]
        seen = []

        def update(values):
            seen.append(values.tolist())
            return (values * 2.0, values > 11.0)

        out = _lockstep(streams, update)
        assert seen == [[0.0, 10.0, 20.0, 30.0], [1.0, 11.0, 21.0],
                        [2.0, 12.0, 22.0], [3.0], [4.0]]
        for stream, (doubled, big) in zip(streams, out):
            assert doubled.tolist() == (stream * 2.0).tolist()
            assert big.tolist() == (stream > 11.0).tolist()

    def test_episode_detectors_drop_rows_that_end(self, synthetic_bank):
        dets = EpisodeDetectors(synthetic_bank, 3)
        l_hat, ph_flags, ph_stats = dets.update(np.array([-3.0, -3.1, -2.9]))
        assert l_hat.tolist() == [1, 1, 1]
        assert ph_flags.shape == ph_stats.shape == (3,)
        l_hat, _, ph_stats = dets.update(np.array([-3.0]))
        assert l_hat.shape == ph_stats.shape == (1,)
        assert dets.bocpd_state.weights.shape[0] == 1


class TestDetectorBankPersistence:
    def test_round_trip_preserves_verdicts(
        self, small_agent, mini_env, constellation, synthetic_bank, tmp_path
    ):
        paths = synthetic_bank.save(tmp_path)
        assert set(paths) == {"profile", "ae", "bank", "age_profile"}
        loaded = DetectorBank.load(tmp_path)
        a = play(
            small_agent, mini_env, None, synthetic_bank, 9,
            constellation=constellation, noise_sigma=2.0,
        )
        b = play(
            small_agent, mini_env, None, loaded, 9,
            constellation=constellation, noise_sigma=2.0,
        )
        assert np.array_equal(a.flags, b.flags)
        assert np.array_equal(a.stats, b.stats, equal_nan=True)

    def test_age_profile_round_trip_preserves_verdicts(
        self, small_agent, mini_env, constellation, synthetic_bank, tmp_path
    ):
        rng = np.random.default_rng(78)
        aged = dataclasses.replace(synthetic_bank, age_profile=fit_age_profile(
            [np.linspace(-4.0, -2.0, 60) + 0.3 * rng.normal(size=60)
             for _ in range(6)]
        ))
        paths = aged.save(tmp_path)
        assert set(paths) == {"profile", "ae", "bank", "age_profile"}
        doc = json.loads((tmp_path / "bank.json").read_text())
        assert doc["schema"] == "driftwatch-bank-v1"
        assert doc["age_profile_file"] == "age_profile.json"
        loaded = DetectorBank.load(tmp_path)
        assert loaded.age_profile == aged.age_profile
        a, b = (
            play(small_agent, mini_env, None, bank, 9,
                        constellation=constellation, noise_sigma=2.0)
            for bank in (aged, loaded)
        )
        assert np.array_equal(a.flags, b.flags)
        assert np.array_equal(a.stats, b.stats, equal_nan=True)

    def test_missing_entry_rejected(self, synthetic_bank, tmp_path):
        synthetic_bank.save(tmp_path)
        saved = json.loads((tmp_path / "bank.json").read_text())
        for key in saved.keys() - {"schema"}:
            doc = dict(saved)
            del doc[key]
            (tmp_path / "bank.json").write_text(json.dumps(doc))
            with pytest.raises(ConfigurationError,
                               match=f"{key}.*driftwatch profile"):
                DetectorBank.load(tmp_path)

    @pytest.mark.parametrize("value", ["six", None, [6]])
    def test_non_numeric_parameter_rejected(self, synthetic_bank, tmp_path,
                                            value):
        synthetic_bank.save(tmp_path)
        doc = json.loads((tmp_path / "bank.json").read_text())
        doc["tau"] = value
        (tmp_path / "bank.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="tau"):
            DetectorBank.load(tmp_path)

    @pytest.mark.parametrize("text", ["{not json", "[]"])
    def test_non_json_bank_rejected(self, tmp_path, text):
        (tmp_path / "bank.json").write_text(text)
        with pytest.raises(ConfigurationError):
            DetectorBank.load(tmp_path)

    def test_missing_bank_dir(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DetectorBank.load(tmp_path / "nope")

    def test_wrong_schema_rejected(self, synthetic_bank, tmp_path):
        synthetic_bank.save(tmp_path)
        doc = json.loads((tmp_path / "bank.json").read_text())
        doc["schema"] = "other"
        (tmp_path / "bank.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            DetectorBank.load(tmp_path)

    @pytest.mark.parametrize("name, key", [
        ("age_profile.json", "means"),
        ("age_profile.json", "noise_var"),
        ("profile.json", "mu0"),
    ])
    def test_document_missing_key_rejected(self, synthetic_bank, tmp_path,
                                           name, key):
        synthetic_bank.save(tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        del doc[key]
        (tmp_path / name).write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError,
                           match=f"{name} has no '{key}'.*driftwatch profile"):
            DetectorBank.load(tmp_path)

    @pytest.mark.parametrize("name", ["age_profile.json", "profile.json"])
    def test_deleted_document_rejected(self, synthetic_bank, tmp_path, name):
        synthetic_bank.save(tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(ConfigurationError,
                           match=f"{name}.*driftwatch profile"):
            DetectorBank.load(tmp_path)

    @pytest.mark.parametrize("text", [
        "{not json", "[]",
        '{"schema": "driftwatch-age-profile-v1", "means": ["x"]}',
    ])
    def test_unreadable_document_rejected(self, synthetic_bank, tmp_path,
                                          text):
        synthetic_bank.save(tmp_path)
        (tmp_path / "age_profile.json").write_text(text)
        with pytest.raises(ConfigurationError, match="age_profile.json"):
            DetectorBank.load(tmp_path)


@pytest.fixture(scope="module")
def pipeline(small_agent, mini_env, constellation):
    det_cfg = DetectorConfig(ae_window=16, ae_epochs=50)
    eval_cfg = EvalConfig(
        n_nominal=2,
        n_attacked=2,
        profile_episodes=20,
        attack_t_start=10,
        attack_drift_duration=5,
    )
    bank, diag = profile_pipeline(
        small_agent, mini_env, det_cfg, eval_cfg,
        constellation=constellation, noise_sigma=2.0, master_seed=11,
    )
    return bank, diag, det_cfg, eval_cfg


class TestPipelines:
    def test_profile_pipeline_fits_and_freezes(self, pipeline):
        bank, diag, det_cfg, eval_cfg = pipeline
        logs = diag["profile_logs"]
        assert len(logs) == eval_cfg.profile_episodes
        total = sum(log.n_steps for log in logs)
        assert bank.profile.n_samples == total
        assert 1 <= bank.tau <= det_cfg.bocpd_warmup
        assert len(diag["ae_curve"]) == det_cfg.ae_epochs
        assert bank.residual_jump_gate == pytest.approx(50.0)
        assert bank.ph_lambda == pytest.approx(50.0 * bank.profile.sigma0)

    def test_age_profile_fits_profile_streams_only(self, pipeline):
        bank, diag, _, eval_cfg = pipeline
        streams = [log.q for log in diag["profile_logs"]]
        assert all(log.attack is None for log in diag["profile_logs"])
        assert isinstance(bank.age_profile, AgeProfile)
        assert bank.age_profile == fit_age_profile(
            streams, source_episodes=tuple(range(eval_cfg.profile_episodes))
        )
        assert bank.age_profile.n_samples == bank.profile.n_samples

    def test_profile_pipeline_is_deterministic(
        self, pipeline, small_agent, mini_env, constellation
    ):
        bank, _, det_cfg, eval_cfg = pipeline
        bank2, _ = profile_pipeline(
            small_agent, mini_env, det_cfg, eval_cfg,
            constellation=constellation, noise_sigma=2.0, master_seed=11,
        )
        assert bank2.profile == bank.profile
        assert bank2.age_profile == bank.age_profile
        assert bank2.tau == bank.tau
        for w1, w2 in zip(bank.ae.net.parameters(),
                          bank2.ae.net.parameters()):
            assert np.array_equal(w1, w2)

    def test_evaluate_produces_metrics_and_logs(
        self, pipeline, small_agent, mini_env, constellation
    ):
        bank, _, _, eval_cfg = pipeline
        metrics, logs = evaluate(
            small_agent, mini_env, eval_cfg, bank,
            constellation=constellation, noise_sigma=2.0, master_seed=5,
        )
        assert len(logs) == eval_cfg.n_nominal + eval_cfg.n_attacked
        assert sum(log.attacked for log in logs) == eval_cfg.n_attacked
        for name in DETECTOR_ORDER:
            m = metrics[name]
            assert 0.0 <= m["accuracy"]["mean"] <= 1.0
            assert 0.0 <= m["false_positive_rate"]["mean"] <= 1.0
            assert 0.0 <= m["false_negative_rate"]["mean"] <= 1.0
        assert json.loads(json.dumps(metrics)) == metrics

    def test_fixed_threshold_skips_calibration(
        self, pipeline, small_agent, mini_env, constellation
    ):
        """calibrate_tau false freezes bocpd_tau as given and reports no
        calibration rate; the rest of the bank is fitted as before."""
        calibrated, _, det_cfg, eval_cfg = pipeline
        fixed_cfg = dataclasses.replace(det_cfg, calibrate_tau=False,
                                        bocpd_tau=det_cfg.bocpd_warmup + 7)
        bank, diag = profile_pipeline(
            small_agent, mini_env, fixed_cfg, eval_cfg,
            constellation=constellation, noise_sigma=2.0, master_seed=11,
        )
        assert bank.tau == fixed_cfg.bocpd_tau != calibrated.tau
        assert diag["tau"] == bank.tau
        assert np.isnan(diag["calibration_fp"])
        assert bank.profile == calibrated.profile
        assert bank.age_profile == calibrated.age_profile
        assert bank.ae.threshold == calibrated.ae.threshold

    def test_empty_evaluation_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            EvalConfig(n_nominal=0, n_attacked=0)


if __name__ == "__main__":
    GOLDEN_EPISODE.parent.mkdir(exist_ok=True)
    write_episode_csv(golden_episode(), GOLDEN_EPISODE)
    print(f"wrote {GOLDEN_EPISODE}")
