"""Episode loop, detector bank wiring, and metric definition tests."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from driftwatch import env as env_module
from driftwatch import harness
from driftwatch.config import (
    DetectorConfig,
    EnvConfig,
    EvalConfig,
    ExperimentConfig,
    GnssConfig,
    TrainConfig,
    from_json,
)
from driftwatch.ddpg import Agent
from driftwatch.detectors import (
    AgeProfile,
    NominalProfile,
    fit_age_profile,
    window_ae_train,
)
from driftwatch.errors import ConfigurationError
from driftwatch.harness import (
    CSV_COLUMNS,
    DETECTOR_ORDER,
    DetectorBank,
    EpisodeDetectors,
    EpisodeLog,
    _run_lengths,
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


def play(agent, cfg, attack, bank, seed) -> EpisodeLog:
    """One episode played alone (the one-row stage) with its per-step trace,
    as `driftwatch run` plays it, scored by `bank` if given."""
    [log] = run_episode(agent, cfg, [(attack, seed)], trace=True)
    if bank is not None:
        bank.score([log])
    return log


@pytest.fixture(scope="module")
def small_agent():
    return Agent(np.random.default_rng([0, 1]), TrainConfig(hidden=(16, 16)))


@pytest.fixture(scope="module")
def mini_cfg():
    """Short flights with the default receiver: the constellation of the
    default GnssConfig, at noise_sigma 2.0."""
    return ExperimentConfig(
        env=EnvConfig(goal_distance_range=(400.0, 500.0), max_steps=60))


@pytest.fixture(scope="module")
def synthetic_bank():
    return make_synthetic_bank()


# the pooled profile the synthetic bank's streams and scales come from
SYNTHETIC_PROFILE = NominalProfile(mu0=-3.0, sigma0_sq=0.25, n_samples=800)


def make_synthetic_bank() -> DetectorBank:
    profile = SYNTHETIC_PROFILE
    rng = np.random.default_rng(77)
    streams = [profile.mu0 + profile.sigma0 * rng.normal(size=100)
               for _ in range(8)]
    ae, _ = window_ae_train(streams, DetectorConfig(ae_window=16), 3)
    return DetectorBank(
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
        residual_threshold=6.0,
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
        else AttackConfig(t_start=onset, drift_duration=5,
                          target=(0.0, 0.0, 0.0))
    )
    return EpisodeLog(
        seed=seed,
        terminal_event="timeout",
        attack=attack,
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
    def test_unattacked_flights_log_no_attack_activity(
        self, small_agent, mini_cfg
    ):
        logs = run_episode(small_agent, mini_cfg,
                           [(None, seed) for seed in range(20)])
        assert [log.seed for log in logs] == list(range(20))
        for log in logs:
            assert not log.attacked and log.onset is None
            assert np.all(log.alpha == 0.0)
            assert log.n_steps <= mini_cfg.env.max_steps
            assert log.terminal_event in ("goal_reached", "timeout",
                                          "collision")

    def test_attacked_twin_flies_as_unattacked_until_onset(
        self, small_agent, mini_cfg
    ):
        """Each seed flown twice in one stage, attacked and with None: before
        onset the pair's fixes, RMS residuals and critic values are the same
        bits, and so are those of the None flights played as their own
        stage.  From onset on the attack is felt."""
        attack = AttackConfig(t_start=30, drift_duration=10,
                              target=(300.0, 200.0, 100.0))
        seeds, onset = range(20), attack.t_start
        twins = run_episode(small_agent, mini_cfg, [
            (a, seed) for seed in seeds for a in (attack, None)])
        alone = run_episode(small_agent, mini_cfg,
                            [(None, seed) for seed in seeds])
        felt = 0
        for attacked, nominal, other in zip(twins[::2], twins[1::2], alone):
            assert attacked.attacked and not nominal.attacked
            assert attacked.seed == nominal.seed == other.seed
            n = min(onset, attacked.n_steps, nominal.n_steps)
            for log in (nominal, other):
                for name in ("est_pos", "residual_rms", "q"):
                    assert (getattr(log, name)[:n].tobytes()
                            == getattr(attacked, name)[:n].tobytes()), name
            if min(attacked.n_steps, nominal.n_steps) > onset:
                felt += 1  # the onset's fix is spoofed: noiseless, at truth
                assert not np.array_equal(attacked.est_pos[onset],
                                          nominal.est_pos[onset])
        assert felt > len(seeds) // 2

    def test_attack_drags_estimate_to_target_not_truth(self, small_agent):
        attack = AttackConfig(t_start=100, drift_duration=50,
                              target=(0.0, 0.0, 0.0))
        log = play(small_agent, ExperimentConfig(), attack, None, 0)
        assert log.n_steps > 150
        assert np.linalg.norm(log.est_pos[150]) < 10.0
        assert np.linalg.norm(log.true_pos[150]) > 100.0
        # alpha column mirrors the attack schedule at every logged step
        for i in (0, 50, 99, 100, 125, 150, log.n_steps - 1):
            alpha = attack_alpha(i, attack)
            assert log.alpha[i] == (0.0 if alpha is None else alpha)

    def test_same_seed_gives_byte_identical_csv(
        self, small_agent, mini_cfg, tmp_path
    ):
        attack = AttackConfig(t_start=10, drift_duration=5,
                              target=(0.0, 0.0, 0.0))
        paths = []
        for k in range(2):
            log = play(small_agent, mini_cfg, attack, None, 42)
            p = tmp_path / f"run{k}.csv"
            write_episode_csv(log, p, "abc123")
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, small_agent, mini_cfg, tmp_path):
        log = play(small_agent, mini_cfg, None, None, 7)
        path = tmp_path / "episode.csv"
        write_episode_csv(log, path, "deadbeef")
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert len(meta) == 6
        assert meta[0] == "# schema: driftwatch-episode-v1"
        assert "# config_hash: deadbeef" in meta
        header = lines[len(meta)]
        assert header == ",".join(CSV_COLUMNS)
        assert len(lines) == len(meta) + 1 + log.n_steps

    def test_trace_kept_only_when_asked(self, small_agent, mini_cfg,
                                       synthetic_bank):
        """Without `trace` a log keeps what the detectors score, bit for bit
        what the traced log holds, and no per-step trace; until scored its
        flags read False and its statistics NaN."""
        attack = AttackConfig(t_start=10, drift_duration=15,
                              target=(300.0, 200.0, 100.0))
        episodes = [(attack if k % 2 else None, 20 + k) for k in range(4)]
        traced = run_episode(small_agent, mini_cfg, episodes, trace=True)
        bare = run_episode(small_agent, mini_cfg, episodes)
        for log, want in zip(bare, traced):
            n = want.n_steps
            assert log.n_steps == n and log.terminal_event == want.terminal_event
            assert want.true_pos.shape == want.action.shape == (n, 3)
            assert want.phi.shape == (n, 9) and want.rewards.shape == (n, 4)
            assert (log.true_pos, log.phi, log.action, log.rewards) == (None,) * 4
            for name in ("est_pos", "residual_rms", "q", "alpha"):
                assert (getattr(log, name).tobytes()
                        == getattr(want, name).tobytes()), name
            assert log.flags.shape == log.stats.shape == (n, len(DETECTOR_ORDER))
            assert not log.flags.any() and np.isnan(log.stats).all()
        synthetic_bank.score(bare)
        synthetic_bank.score(traced)
        for log, want in zip(bare, traced):
            assert log.flags.tobytes() == want.flags.tobytes()
            assert log.stats.tobytes() == want.stats.tobytes()

    def test_flights_record_only_what_their_logs_keep(
            self, small_agent, mini_cfg, monkeypatch):
        """An untraced flight records its fix position, RMS residual,
        observation and action, 16 columns a step; a traced one adds the
        true position and the reward breakdown, 23 in all."""
        widths = []
        real = harness._Flight.record

        def record(flight, row):
            widths.append(row.size)
            real(flight, row)

        monkeypatch.setattr(harness._Flight, "record", record)
        episodes = [(None, 30 + k) for k in range(3)]
        for trace, width in ((False, 16), (True, 23)):
            widths.clear()
            logs = run_episode(small_agent, mini_cfg, episodes, trace=trace)
            assert widths and set(widths) == {width}
            assert len(widths) == sum(log.n_steps for log in logs)

    def test_csv_needs_the_trace(self, small_agent, mini_cfg, tmp_path):
        [log] = run_episode(small_agent, mini_cfg, [(None, 7)])
        path = tmp_path / "episode.csv"
        with pytest.raises(ConfigurationError,
                           match="episode 7 was played without its per-step trace"):
            write_episode_csv(log, path, "h")
        assert not path.exists()

    def test_onset_zero_rejected(self):
        """The reset's fix is never spoofed, so no flight can be given an
        onset at t=0: the attack refuses it when it is built."""
        with pytest.raises(ConfigurationError,
                           match="t_start must be >= 1, got 0"):
            AttackConfig(t_start=0, drift_duration=5, target=(0.0, 0.0, 0.0))

    def test_detector_columns_populate(
        self, small_agent, mini_cfg, synthetic_bank
    ):
        log = play(small_agent, mini_cfg, None, synthetic_bank, 3)
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
        self, small_agent, mini_cfg, monkeypatch
    ):
        """Each fix of a rollout starts from its episode's previous fix,
        passed itself; only the reset's first fix starts from the truth.
        Each step is steered from the previous fix's position, bit for bit,
        never from the true position: the fleet controller, called once an
        age, reads each flight's believed position from its row."""
        real_solve, real_dynamics = env_module.solve_pvt, env_module.step_dynamics
        real_reset, real_step = harness.env_reset_full, harness.env_step
        real_steer = harness.steer_fleet
        episode_of = {}  # goal bytes -> seed
        # episode being stepped, its true state after the move, and the
        # (believed, true) positions the move started from
        now = {}
        steering = {}  # seed -> (believed row, true position) of this age
        ages = []  # flights the fleet controller steered, one entry an age
        solves = {}  # seed -> [(init, fix, true state, steering) or None]

        def reset(cfg, seed, *args):
            now.update(seed=seed, truth=None, steer=None)
            out = real_reset(cfg, seed, *args)
            episode_of[out[0].goal.tobytes()] = seed
            return out

        def steer_fleet(worlds, actions, believed, cfg):
            ages.append(len(worlds))
            for world, row in zip(worlds, np.array(believed)):
                steering[episode_of[world.goal.tobytes()]] = (
                    row, world.uav_pos_true)
            return real_steer(worlds, actions, believed, cfg)

        def step(world, *args, **kwargs):
            seed = episode_of[world.goal.tobytes()]
            now.update(seed=seed, truth=None, steer=steering.pop(seed))
            return real_step(world, *args, **kwargs)

        def dynamics(world, motion, cfg):
            world = real_dynamics(world, motion, cfg)
            now["truth"] = np.append(world.uav_pos_true, world.clock_bias_true)
            return world

        def solve(meas, cons, init=None):
            pvt = real_solve(meas, cons, init=init)
            solves.setdefault(now["seed"], []).append(
                (init, pvt, now["truth"], now["steer"]))
            now["steer"] = None
            return pvt

        monkeypatch.setattr(harness, "env_reset_full", reset)
        monkeypatch.setattr(harness, "steer_fleet", steer_fleet)
        monkeypatch.setattr(harness, "env_step", step)
        monkeypatch.setattr(env_module, "step_dynamics", dynamics)
        monkeypatch.setattr(env_module, "solve_pvt", solve)
        attack = AttackConfig(t_start=10, drift_duration=15,
                              target=(300.0, 200.0, 100.0))
        episodes = [(attack if seed % 2 else None, seed) for seed in range(6)]
        logs = run_episode(small_agent, mini_cfg, episodes)
        assert sorted(solves) == list(range(6))
        assert steering == {}  # every steered row was flown
        # one controller call an age, over the flights still flying
        assert ages == [sum(log.n_steps > t for log in logs)
                        for t in range(max(log.n_steps for log in logs))]
        for log in logs:
            calls = solves[log.seed]
            assert len(calls) == log.n_steps + 1  # the reset's, then one a step
            assert calls[0][2] is None and calls[0][3] is None  # the reset's
            for (_, previous, _, _), (init, _, truth, (believed, true_pos)) in zip(
                    calls, calls[1:]):
                assert init is previous
                assert not np.array_equal(init.x, truth)
                assert believed.tobytes() == previous.x[:3].tobytes()
                assert not np.array_equal(believed, true_pos)

    def test_flies_the_receiver_the_config_describes(self, small_agent,
                                                     mini_cfg):
        """The rollout reads its receiver from `cfg.gnss`: without noise
        every fix fits its pseudoranges to round-off, at the default noise
        none does, and another constellation layout moves the fixes."""
        episodes = [(None, seed) for seed in range(4)]

        def fly(**gnss):
            cfg = dataclasses.replace(mini_cfg, gnss=GnssConfig(**gnss))
            return run_episode(small_agent, cfg, episodes)

        noisy = fly()
        for log in fly(noise_sigma=0.0):
            assert log.residual_rms.max() < 1e-6
        for log in noisy:
            assert log.residual_rms.min() > 1e-6
        for log, moved in zip(noisy, fly(constellation_seed=8)):
            n = min(log.n_steps, moved.n_steps)
            assert not np.array_equal(log.est_pos[:n], moved.est_pos[:n])

    def test_lockstep_play_does_not_change_an_episode(
        self, small_agent, mini_cfg, synthetic_bank
    ):
        """A mixed stage, played in either order, gives every episode what
        the same seed gives alone, up to the batched actor's round-off."""
        attack = AttackConfig(t_start=10, drift_duration=15,
                              target=(300.0, 200.0, 100.0))
        episodes = [(attack if k % 3 == 0 else None, 50 + k) for k in range(12)]
        forward = run_episode(small_agent, mini_cfg, episodes, trace=True)
        backward = run_episode(small_agent, mini_cfg, episodes[::-1],
                               trace=True)[::-1]
        alone = [run_episode(small_agent, mini_cfg, [episode], trace=True)[0]
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
    agent = Agent(np.random.default_rng([0, 1]), TrainConfig(hidden=(16, 16)))
    attack = AttackConfig(t_start=20, drift_duration=20,
                          target=(600.0, 400.0, 150.0))
    return play(
        agent, ExperimentConfig(env=EnvConfig(max_steps=60)), attack,
        make_synthetic_bank(), 3,
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
    The `# attack:` line reads back as the flight's attack.
    """
    path = tmp_path / "episode.csv"
    log = golden_episode()
    write_episode_csv(log, path, "golden")
    meta, header, rows = read_episode_csv(path)
    want_meta, want_header, want_rows = read_episode_csv(GOLDEN_EPISODE)
    assert meta == want_meta
    assert from_json(AttackConfig, json.loads(meta["attack"])) == log.attack
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
    residual = ScalarResidualThreshold(bank.residual_threshold,
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

    def test_lockstep_feeds_only_the_running_rows(self, synthetic_bank,
                                                  monkeypatch):
        """Unsorted streams run longest first, ties in the order given, each
        row under its own stream's prior, so only the rows still running
        are fed; each stream's argmax run lengths come back in the order
        given, equal to that stream scored alone."""
        bank = synthetic_bank
        streams = [-3.0 + np.arange(3.0), np.array([-2.5]),
                   -3.5 + 0.5 * np.arange(5.0), -2.0 - np.arange(3.0)]
        priors = [dataclasses.replace(bank.age_profile,
                                      means=(-3.0 + 0.1 * k,))
                  for k in range(len(streams))]
        rows, fed = [], []

        class Spy(EpisodeDetectors):
            def __init__(self, row_priors, hazard, prune):
                rows.append(row_priors)
                super().__init__(row_priors, hazard, prune)

            def update(self, q):
                fed.append(q.tolist())
                return super().update(q)

        monkeypatch.setattr(harness, "EpisodeDetectors", Spy)
        out = _run_lengths(streams, priors, bank.hazard, bank.prune)
        order = [2, 0, 3, 1]
        assert len(rows) == 1
        assert all(a is priors[i] for a, i in zip(rows[0], order, strict=True))
        assert fed == [[streams[i][t] for i in order if streams[i].size > t]
                       for t in range(5)]
        assert [len(values) for values in fed] == [4, 3, 3, 1, 1]
        assert len(out) == len(streams)
        for stream, prior, hats in zip(streams, priors, out):
            alone = EpisodeDetectors([prior], bank.hazard, bank.prune)
            want = [alone.update(np.array([x]))[0] for x in stream]
            assert hats.tolist() == want

    def test_episode_detectors_drop_rows_that_end(self, synthetic_bank):
        bank = synthetic_bank
        dets = EpisodeDetectors([bank.age_profile] * 3, bank.hazard,
                                bank.prune)
        l_hat = dets.update(np.array([-3.0, -3.1, -2.9]))
        assert l_hat.tolist() == [1, 1, 1]
        l_hat = dets.update(np.array([-3.0]))
        assert l_hat.shape == (1,)
        assert dets.bocpd_state.weights.shape[0] == 1


BANK_NUMBERS = {"tau", "warmup", "hazard", "prune", "ph_delta", "ph_lambda",
                "residual_threshold", "residual_jump_gate"}
# keys of driftwatch-bank-v1 that the second schema dropped
FIRST_SCHEMA_KEYS = {"profile_file", "age_profile_file", "ae_file",
                     "residual_k_sigma", "residual_noise_sigma"}


def save_profile_output(bank, out):
    """What `driftwatch profile` writes: the bank, and beside it the pooled
    profile, its report, as profile.json."""
    bank.save(out)
    SYNTHETIC_PROFILE.save(out / "profile.json")


def load_document(out, name):
    """Read `name` back as its reader does: profile.json, which no stage
    reads, by `NominalProfile.load`; a bank file through the bank."""
    if name == "profile.json":
        return NominalProfile.load(out / name)
    return DetectorBank.load(out)


class TestDetectorBankPersistence:
    def test_round_trip_preserves_verdicts(
        self, small_agent, mini_cfg, synthetic_bank, tmp_path
    ):
        paths = synthetic_bank.save(tmp_path)
        assert set(paths) == {"ae", "bank", "age_profile"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ae.npz", "age_profile.json", "bank.json"]
        loaded = DetectorBank.load(tmp_path)
        assert {f.name for f in dataclasses.fields(loaded)} == (
            BANK_NUMBERS | {"age_profile", "ae"})
        a = play(small_agent, mini_cfg, None, synthetic_bank, 9)
        b = play(small_agent, mini_cfg, None, loaded, 9)
        assert np.array_equal(a.flags, b.flags)
        assert np.array_equal(a.stats, b.stats, equal_nan=True)

    def test_age_profile_round_trip_preserves_verdicts(
        self, small_agent, mini_cfg, synthetic_bank, tmp_path
    ):
        rng = np.random.default_rng(78)
        aged = dataclasses.replace(synthetic_bank, age_profile=fit_age_profile(
            [np.linspace(-4.0, -2.0, 60) + 0.3 * rng.normal(size=60)
             for _ in range(6)]
        ))
        paths = aged.save(tmp_path)
        assert set(paths) == {"ae", "bank", "age_profile"}
        doc = json.loads((tmp_path / "bank.json").read_text())
        assert doc["schema"] == "driftwatch-bank-v2"
        assert doc.keys() - {"schema"} == BANK_NUMBERS
        loaded = DetectorBank.load(tmp_path)
        assert loaded.age_profile == aged.age_profile
        a, b = (
            play(small_agent, mini_cfg, None, bank, 9)
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

    @pytest.mark.parametrize("name, key, value", [
        ("bank.json", "tau", 5.5),
        ("bank.json", "tau", True),
        ("bank.json", "hazard", "0.02"),
        ("bank.json", "profile_file", 3),
        ("bank.json", "ae_file", ["ae.npz"]),
        ("profile.json", "n_samples", 1000.5),
        ("age_profile.json", "source_episodes", [0, 1.5]),
        ("profile.json", "sigma0_sq", -1.0),
        # values out of the range a bank's tests can run with
        ("bank.json", "tau", 0),
        ("bank.json", "tau", -3),
        ("bank.json", "warmup", -7),
        ("bank.json", "hazard", 0.0),
        ("bank.json", "hazard", 2.0),
        ("bank.json", "prune", -1e-9),
        ("bank.json", "prune", 1e-3),
        ("bank.json", "prune", 0.5),
        ("bank.json", "ph_delta", -0.1),
        ("bank.json", "ph_lambda", 0.0),
        ("bank.json", "residual_k_sigma", 0.0),
        ("bank.json", "residual_noise_sigma", -1.0),
        ("bank.json", "residual_threshold", 0.0),
        ("bank.json", "residual_threshold", -1.0),
        ("bank.json", "residual_jump_gate", 0.0),
    ])
    def test_bad_entry_rejected(self, synthetic_bank, tmp_path, name, key,
                                value):
        """A value out of type or range is refused with its key named.  The
        keys of the first bank schema, its documents' file names and the
        residual test's k and noise, are refused as unknown keys, whatever
        they hold."""
        save_profile_output(synthetic_bank, tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        doc[key] = value
        (tmp_path / name).write_text(json.dumps(doc))
        named = (rf"unknown keys \['{key}'\]" if key in FIRST_SCHEMA_KEYS
                 else key)
        with pytest.raises(ConfigurationError,
                           match=rf"{name}: bad value \({named}.*driftwatch profile"):
            load_document(tmp_path, name)

    @pytest.mark.parametrize("name, key", [
        ("bank.json", "extra"),
        ("bank.json", "profile"),
        ("bank.json", "ae_file"),
        ("profile.json", "extra"),
        ("age_profile.json", "extra"),
    ])
    def test_unknown_key_rejected(self, synthetic_bank, tmp_path, name, key):
        save_profile_output(synthetic_bank, tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        doc[key] = 1
        (tmp_path / name).write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError,
                           match=rf"{name}: .*unknown keys \['{key}'\].*driftwatch profile"):
            load_document(tmp_path, name)

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
        save_profile_output(synthetic_bank, tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        del doc[key]
        (tmp_path / name).write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError,
                           match=f"{name} has no '{key}'.*driftwatch profile"):
            load_document(tmp_path, name)

    @pytest.mark.parametrize("name", ["age_profile.json"])
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
def pipeline(small_agent, mini_cfg):
    """The mini study, flown with `mini_cfg`'s env and receiver."""
    cfg = dataclasses.replace(
        mini_cfg,
        detectors=DetectorConfig(ae_window=16, ae_epochs=50),
        eval=EvalConfig(
            n_nominal=2,
            n_attacked=2,
            profile_episodes=20,
            attack_t_start=10,
            attack_drift_duration=5,
        ),
    )
    bank, diag = profile_pipeline(small_agent, cfg, 11)
    return bank, diag, cfg


class TestPipelines:
    def test_profile_pipeline_fits_and_freezes(self, pipeline):
        bank, diag, cfg = pipeline
        det_cfg, eval_cfg = cfg.detectors, cfg.eval
        logs = diag["profile_logs"]
        assert len(logs) == eval_cfg.profile_episodes
        total = sum(log.n_steps for log in logs)
        assert diag["profile"].n_samples == total
        assert 1 <= bank.tau <= det_cfg.bocpd_warmup
        assert len(diag["ae_curve"]) == det_cfg.ae_epochs
        assert bank.residual_jump_gate == pytest.approx(50.0)
        assert bank.ph_lambda == pytest.approx(50.0 * diag["profile"].sigma0)
        assert bank.residual_threshold == 3.0 * 2.0  # k_sigma x noise_sigma

    def test_residual_threshold_floor(self, pipeline, small_agent):
        """At zero receiver noise the residual threshold freezes at its
        1e-6 floor, so solver round-off does not flag."""
        _, _, cfg = pipeline
        quiet = dataclasses.replace(
            cfg, gnss=dataclasses.replace(cfg.gnss, noise_sigma=0.0))
        bank, _ = profile_pipeline(small_agent, quiet, 11)
        assert bank.residual_threshold == 1e-6

    def test_age_profile_fits_profile_streams_only(self, pipeline):
        bank, diag, cfg = pipeline
        eval_cfg = cfg.eval
        streams = [log.q for log in diag["profile_logs"]]
        assert all(log.attack is None for log in diag["profile_logs"])
        assert isinstance(bank.age_profile, AgeProfile)
        assert bank.age_profile == fit_age_profile(
            streams, source_episodes=tuple(range(eval_cfg.profile_episodes))
        )
        assert bank.age_profile.n_samples == diag["profile"].n_samples

    def test_profile_pipeline_is_deterministic(self, pipeline, small_agent):
        bank, diag, cfg = pipeline
        bank2, diag2 = profile_pipeline(small_agent, cfg, 11)
        assert diag2["profile"] == diag["profile"]
        assert bank2.age_profile == bank.age_profile
        assert bank2.tau == bank.tau
        assert np.array_equal(bank.ae.net.flat, bank2.ae.net.flat)

    def test_evaluate_produces_metrics_and_logs(self, pipeline, small_agent):
        bank, _, cfg = pipeline
        eval_cfg = cfg.eval
        metrics, logs = evaluate(small_agent, cfg, bank, 5)
        assert len(logs) == eval_cfg.n_nominal + eval_cfg.n_attacked
        assert sum(log.attacked for log in logs) == eval_cfg.n_attacked
        for name in DETECTOR_ORDER:
            m = metrics[name]
            assert 0.0 <= m["accuracy"]["mean"] <= 1.0
            assert 0.0 <= m["false_positive_rate"]["mean"] <= 1.0
            assert 0.0 <= m["false_negative_rate"]["mean"] <= 1.0
        assert json.loads(json.dumps(metrics)) == metrics

    def test_stage_logs_keep_no_trace(self, pipeline, small_agent):
        bank, diag, cfg = pipeline
        _, logs = evaluate(small_agent, cfg, bank, 5)
        for log in diag["profile_logs"] + logs:
            assert (log.true_pos, log.phi, log.action, log.rewards) == (None,) * 4
            n = log.n_steps
            assert log.est_pos.shape == (n, 3)
            assert log.residual_rms.shape == log.alpha.shape == (n,)

    def test_stage_logs_retain_few_bytes_a_step(self, small_agent):
        """A stage's logs keep the value stream, the fixes' positions and
        RMS residuals and the attack schedule: 48 bytes a step, and 84 once
        scored.  Each step's trace would add 152 (true position, observation,
        action, reward breakdown), so a traced log holds 200, and 236 once
        scored.  The bound is half of that, with room for the arrays' and
        the logs' own objects; it counts what freeing the logs gives back."""
        cfg = ExperimentConfig(
            detectors=DetectorConfig(ae_window=16, ae_epochs=5),
            eval=EvalConfig(n_nominal=4, n_attacked=4, profile_episodes=8,
                            attack_t_start=10, attack_drift_duration=5))

        def retained(stage):
            tracemalloc.start()
            try:
                logs = stage()
                steps = sum(log.n_steps for log in logs)
                held = tracemalloc.get_traced_memory()[0]
                del logs
                return (held - tracemalloc.get_traced_memory()[0]) / steps
            finally:
                tracemalloc.stop()

        bank, _ = profile_pipeline(small_agent, cfg, 11)
        per_step = {
            "profile": retained(lambda: profile_pipeline(
                small_agent, cfg, 11)[1].pop("profile_logs")),
            "eval": retained(lambda: evaluate(small_agent, cfg, bank, 5)[1]),
        }
        assert max(per_step.values()) < 236 / 2, per_step

    def test_calibration_scores_each_stream_as_if_alone(
        self, pipeline, small_agent, monkeypatch
    ):
        """The leave-one-out pass scores every profile stream in one
        lockstep pass; each stream's argmax run lengths equal that stream
        scored alone (one row) against the profile of the other streams."""
        _, diag, cfg = pipeline
        seen = []

        def capture(hats, warmup):
            seen.extend(hats)
            return calibrate(hats, warmup)

        calibrate = harness.calibrate_tau
        monkeypatch.setattr(harness, "calibrate_tau", capture)
        bank, _ = profile_pipeline(small_agent, cfg, 11)
        assert bank.tau == pipeline[0].tau
        streams = [log.q for log in diag["profile_logs"]]
        assert len({s.size for s in streams}) > 1
        assert len(seen) == len(streams)
        det = cfg.detectors
        for i, (stream, hats) in enumerate(zip(streams, seen)):
            prior = fit_age_profile(streams[:i] + streams[i + 1:])
            dets = EpisodeDetectors([prior], det.bocpd_hazard, det.bocpd_prune)
            alone = [dets.update(np.array([x]))[0] for x in stream.tolist()]
            assert hats.tolist() == alone

    def test_fixed_threshold_skips_calibration(self, pipeline, small_agent):
        """calibrate_tau false freezes bocpd_tau as given and reports no
        calibration rate; the rest of the bank is fitted as before."""
        calibrated, calibrated_diag, cfg = pipeline
        fixed_cfg = dataclasses.replace(
            cfg.detectors, calibrate_tau=False,
            bocpd_tau=cfg.detectors.bocpd_warmup + 7)
        bank, diag = profile_pipeline(
            small_agent, dataclasses.replace(cfg, detectors=fixed_cfg), 11)
        assert bank.tau == fixed_cfg.bocpd_tau != calibrated.tau
        assert np.isnan(diag["calibration_fp"])
        assert diag["profile"] == calibrated_diag["profile"]
        assert bank.age_profile == calibrated.age_profile
        assert bank.ae.threshold == calibrated.ae.threshold

    def test_empty_evaluation_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            EvalConfig(n_nominal=0, n_attacked=0)


if __name__ == "__main__":
    GOLDEN_EPISODE.parent.mkdir(exist_ok=True)
    write_episode_csv(golden_episode(), GOLDEN_EPISODE, "golden")
    print(f"wrote {GOLDEN_EPISODE}")
