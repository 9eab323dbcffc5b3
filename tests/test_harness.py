"""Episode loop, detector bank wiring, and metric definition tests."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from driftwatch.config import DetectorConfig, EnvConfig, EvalConfig
from driftwatch.ddpg import Agent
from driftwatch.detectors import (
    AgeProfile,
    NominalProfile,
    fit_age_profile,
    window_ae_score,
    window_ae_train,
)
from driftwatch.errors import ConfigurationError
from driftwatch.gnss import PvtSolution, ReceiverEstimate, make_constellation
from driftwatch.harness import (
    CSV_COLUMNS,
    DETECTOR_ORDER,
    DetectorBank,
    EpisodeDetectors,
    EpisodeLog,
    compute_metrics,
    evaluate,
    profile_pipeline,
    run_episode,
    write_episode_csv,
)
from driftwatch.spoofing import AttackConfig, attack_alpha


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
        for m in metrics.per_detector.values():
            assert m.accuracy_mean == 1.0 and m.accuracy_std == 0.0
            assert m.fpr_mean == 0.0
            assert m.fnr_episode_mean == 0.0 and m.fnr_step_mean == 0.0
            assert m.delay_mean == 0.0
            assert m.n_detected == m.n_attacked == 3
            assert m.n_nominal == 3

    def test_never_flag_detector(self):
        logs = [synthetic_log(500, onset=100) for _ in range(4)]
        logs += [synthetic_log(200) for _ in range(2)]
        metrics = compute_metrics(logs)
        for m in metrics.per_detector.values():
            assert m.fnr_episode_mean == 1.0
            assert m.fpr_mean == 0.0
            assert m.delay_mean is None and m.n_detected == 0
            assert m.accuracy_mean == pytest.approx(
                (4 * (100 / 500) + 2 * 1.0) / 6
            )

    def test_always_flag_detector(self):
        logs = [synthetic_log(500, onset=100, flag_rows=range(500))
                for _ in range(2)]
        logs += [synthetic_log(200, flag_rows=range(200)) for _ in range(2)]
        metrics = compute_metrics(logs)
        for m in metrics.per_detector.values():
            assert m.fpr_mean == 1.0
            assert m.fnr_episode_mean == 0.0
            assert m.delay_mean == 0.0
            assert m.accuracy_mean == pytest.approx(
                (2 * (400 / 500) + 2 * 0.0) / 4
            )

    def test_latched_scoring_forgives_gaps(self):
        # one raw flag at 120 latches through the rest of the episode
        log = synthetic_log(500, onset=100, flag_rows=[120])
        m = compute_metrics([log]).per_detector["bocpd"]
        assert m.accuracy_mean == pytest.approx((100 + 380) / 500)
        assert m.delay_mean == 20.0
        assert m.fnr_step_mean == pytest.approx(20 / 400)

    def test_pre_onset_flag_counts_against_fpr_not_delay(self):
        log = synthetic_log(500, onset=100, flag_rows=[50])
        m = compute_metrics([log]).per_detector["bocpd"]
        assert m.fpr_mean == pytest.approx(50 / 100)
        assert m.delay_mean == 0.0
        assert m.fnr_episode_mean == 0.0

    def test_requires_logs(self):
        with pytest.raises(ConfigurationError):
            compute_metrics([])


class TestRunEpisode:
    def test_disabled_attack_logs_no_attack_activity(
        self, small_agent, mini_env, constellation
    ):
        for seed in range(20):
            log = run_episode(
                small_agent, mini_env, AttackConfig(enabled=False), None,
                seed, constellation=constellation, noise_sigma=2.0,
            )
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
        log = run_episode(
            small_agent, EnvConfig(), attack, None, 0,
            constellation=constellation, noise_sigma=2.0,
        )
        assert log.n_steps > 150
        assert np.linalg.norm(log.est_pos[150]) < 10.0
        assert np.linalg.norm(log.true_pos[150]) > 100.0
        # alpha column mirrors the attack schedule at every logged step
        for i in (0, 50, 99, 100, 125, 150, log.n_steps - 1):
            phase = attack_alpha(int(log.t[i]), attack)
            expected = phase.alpha if phase.active else 0.0
            assert log.alpha[i] == expected

    def test_same_seed_gives_byte_identical_csv(
        self, small_agent, mini_env, constellation, tmp_path
    ):
        attack = AttackConfig(t_start=10, drift_duration=5, enabled=True)
        paths = []
        for k in range(2):
            log = run_episode(
                small_agent, mini_env, attack, None, 42,
                constellation=constellation, noise_sigma=2.0,
                config_hash="abc123",
            )
            p = tmp_path / f"run{k}.csv"
            write_episode_csv(log, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, small_agent, mini_env, constellation, tmp_path):
        log = run_episode(
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
            run_episode(
                small_agent, mini_env, bad, None, 1,
                constellation=constellation, noise_sigma=2.0,
            )

    def test_detector_columns_populate(
        self, small_agent, mini_env, constellation, synthetic_bank
    ):
        log = run_episode(
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


# One short attacked episode, committed as CSV.  Regenerate it, after a
# change that is meant to alter episodes, with `python tests/test_harness.py`.
GOLDEN_EPISODE = Path(__file__).parent / "data" / "golden_attacked_episode.csv"


def golden_episode() -> EpisodeLog:
    """Seeded untrained agent, the synthetic bank, 60 steps, onset at 20."""
    agent = Agent(np.random.default_rng([0, 1]), hidden=(16, 16))
    attack = AttackConfig(t_start=20, drift_duration=20,
                          target=(600.0, 400.0, 150.0), enabled=True)
    return run_episode(
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


class TestEpisodeDetectors:
    def test_ae_history_is_bounded_and_scores_as_full_history(
        self, synthetic_bank
    ):
        window = synthetic_bank.ae.window
        pvt = PvtSolution(estimate=ReceiverEstimate(np.zeros(3)), iterations=1,
                          final_residual_norm=0.0, converged=True,
                          residuals=np.zeros(8))
        qs = -3.0 + 0.5 * np.random.default_rng(12).normal(size=4 * window)
        qs[2 * window:] += 2.0  # a level shift the AE should flag
        dets = EpisodeDetectors(synthetic_bank)
        flagged = False
        for k, q in enumerate(qs):
            flags, stats = dets.update(pvt, float(q))
            assert len(dets.q_history) == min(k + 1, window)
            full = window_ae_score(synthetic_bank.ae, list(qs[: k + 1]))
            assert flags[3] == full.flag
            assert np.array_equal(stats[3], full.statistic, equal_nan=True)
            flagged |= bool(flags[3])
        assert flagged


class TestDetectorBankPersistence:
    def test_round_trip_preserves_verdicts(
        self, small_agent, mini_env, constellation, synthetic_bank, tmp_path
    ):
        paths = synthetic_bank.save(tmp_path)
        assert set(paths) == {"profile", "ae", "bank", "age_profile"}
        loaded = DetectorBank.load(tmp_path)
        a = run_episode(
            small_agent, mini_env, None, synthetic_bank, 9,
            constellation=constellation, noise_sigma=2.0,
        )
        b = run_episode(
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
            run_episode(small_agent, mini_env, None, bank, 9,
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
            m = metrics.per_detector[name]
            assert 0.0 <= m.accuracy_mean <= 1.0
            assert 0.0 <= m.fpr_mean <= 1.0
            assert 0.0 <= m.fnr_episode_mean <= 1.0
            doc = m.to_dict()
            assert json.loads(json.dumps(doc)) == doc

    def test_empty_evaluation_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            EvalConfig(n_nominal=0, n_attacked=0)


if __name__ == "__main__":
    GOLDEN_EPISODE.parent.mkdir(exist_ok=True)
    write_episode_csv(golden_episode(), GOLDEN_EPISODE)
    print(f"wrote {GOLDEN_EPISODE}")
