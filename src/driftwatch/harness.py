"""Experiment orchestration: episodes, detector bank, metrics, artifacts.

The episode loop is measurement-first: solve the fix, build the
observation, pick the action, score it with the critic, feed the
detectors, then advance the world.  Each logged row therefore describes
one decision point; the reward column is the return received for that
row's action.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import DetectorConfig, EnvConfig, EvalConfig
from .ddpg import _TAG_MEAS, Agent
from .detectors import (
    AgeProfile,
    NominalProfile,
    PageHinkley,
    ResidualThreshold,
    WindowAutoencoder,
    bocpd_flag,
    bocpd_init,
    bocpd_update,
    calibrate_tau,
    fit_age_profile,
    fit_nominal_profile,
    window_ae_score,
    window_ae_train,
)
from .env import TERM_NONE, env_reset_full, env_step
from .errors import ConfigurationError, InsufficientDataError
from .gnss import Constellation, PvtSolution
from .spoofing import AttackConfig, attack_alpha

EPISODE_SCHEMA = "driftwatch-episode-v1"
BANK_SCHEMA = "driftwatch-bank-v1"
METRICS_SCHEMA = "driftwatch-metrics-v1"

DETECTOR_ORDER = ("bocpd", "ph", "residual", "window_ae")

# rng stream tags, disjoint from the training-time tags
_TAG_PROFILE = 11
_TAG_EVAL_NOMINAL = 12
_TAG_EVAL_ATTACKED = 13
_TAG_AE_INIT = 14

CSV_COLUMNS = (
    ("t",)
    + ("true_x", "true_y", "true_z")
    + ("est_x", "est_y", "est_z")
    + tuple(f"phi_{i}" for i in range(9))
    + ("act_rho0", "act_sigma0", "act_theta")
    + ("r_collision", "r_threat", "r_goal", "r_total")
    + ("q", "attack_alpha")
    + tuple(
        name
        for det in DETECTOR_ORDER
        for name in (f"{det}_flag", f"{det}_stat")
    )
)


# artifact file of each document in a bank; every other field is a number
_BANK_FILES = {
    "profile": "profile.json",
    "age_profile": "age_profile.json",
    "ae": "ae.npz",
}
_NUMBER_TYPES = {"int": int, "float": float}


@dataclass(frozen=True)
class DetectorBank:
    """Frozen detector parameters; spawns fresh per-episode state.

    The changepoint detector runs on `age_profile`; `profile` is the pooled
    nominal profile, Page-Hinkley's scale.
    """

    profile: NominalProfile
    age_profile: AgeProfile
    tau: int
    warmup: int
    hazard: float
    prune: float
    ph_delta: float
    ph_lambda: float
    residual_k_sigma: float
    residual_noise_sigma: float
    residual_jump_gate: float
    ae: WindowAutoencoder

    @classmethod
    def _parameters(cls) -> list[tuple[str, type]]:
        """(name, type) of each scalar parameter, in field order."""
        return [(f.name, _NUMBER_TYPES[f.type]) for f in fields(cls)
                if f.name not in _BANK_FILES]

    def start_episode(self) -> "EpisodeDetectors":
        return EpisodeDetectors(self)

    def save(self, out_dir) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {name: out / file for name, file in _BANK_FILES.items()}
        for name, path in paths.items():
            getattr(self, name).save(path)
        doc = {"schema": BANK_SCHEMA}
        doc.update((name, getattr(self, name)) for name, _ in self._parameters())
        doc.update((f"{name}_file", file) for name, file in _BANK_FILES.items())
        paths["bank"] = out / "bank.json"
        with open(paths["bank"], "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return paths

    @classmethod
    def load(cls, bank_dir) -> "DetectorBank":
        bank_dir = Path(bank_dir)
        bank_path = bank_dir / "bank.json"
        if not bank_path.exists():
            raise ConfigurationError(f"no detector bank at {bank_path}")
        try:
            with open(bank_path) as fh:
                doc = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"{bank_path} is not JSON: {exc}")
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != BANK_SCHEMA:
            raise ConfigurationError(
                f"unexpected bank schema in {bank_path}: {schema!r}"
            )

        def entry(key: str, convert):
            if key not in doc:
                raise ConfigurationError(
                    f"{bank_path} has no {key!r} (rerun `driftwatch profile`)"
                )
            try:
                return convert(doc[key])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{bank_path}: bad {key!r} value {doc[key]!r}"
                )

        documents = {
            name: entry(f"{name}_file", str) for name in _BANK_FILES
        }
        params = {name: entry(name, kind) for name, kind in cls._parameters()}
        return cls(
            profile=NominalProfile.load(bank_dir / documents["profile"]),
            age_profile=AgeProfile.load(bank_dir / documents["age_profile"]),
            ae=WindowAutoencoder.load(bank_dir / documents["ae"]),
            **params,
        )


class EpisodeDetectors:
    """Mutable per-episode detector state, updated once per decision point."""

    def __init__(self, bank: DetectorBank):
        self.bank = bank
        self.bocpd_state = bocpd_init(bank.age_profile, bank.hazard)
        self.ph = PageHinkley(delta=bank.ph_delta, lam=bank.ph_lambda)
        self.residual = ResidualThreshold(
            k_sigma=bank.residual_k_sigma,
            noise_sigma=bank.residual_noise_sigma,
            jump_gate=bank.residual_jump_gate,
        )
        self.q_history: list[float] = []
        self.t = 0

    def update(self, pvt: PvtSolution, q: float) -> tuple[np.ndarray, np.ndarray]:
        """Feed one decision point to every detector; returns (flags, stats)."""
        bank = self.bank
        self.t += 1
        self.bocpd_state, l_hat = bocpd_update(
            self.bocpd_state, q, prune=bank.prune
        )
        v_bocpd = bocpd_flag(l_hat, self.t, bank.tau, bank.warmup)
        v_ph = self.ph.update(q)
        v_res = self.residual.update(pvt)
        # The AE scores only the trailing window, so keep no more of it.
        history = self.q_history
        history.append(q)
        if len(history) > bank.ae.window:
            del history[0]
        v_ae = window_ae_score(bank.ae, history)
        flags = np.array((v_bocpd.flag, v_ph.flag, v_res.flag, v_ae.flag),
                         dtype=bool)
        stats = np.array((v_bocpd.statistic, v_ph.statistic, v_res.statistic,
                          v_ae.statistic), dtype=float)
        return flags, stats


@dataclass
class EpisodeLog:
    """Column-oriented record of one episode, ready for CSV emission."""

    seed: int
    config_hash: str
    terminal_event: str
    attack: AttackConfig | None
    t: np.ndarray  # (n,) world time of each decision point
    true_pos: np.ndarray  # (n, 3)
    est_pos: np.ndarray  # (n, 3)
    phi: np.ndarray  # (n, 9)
    action: np.ndarray  # (n, 3)
    rewards: np.ndarray  # (n, 4): collision, threat, goal_seek, total
    q: np.ndarray  # (n,)
    alpha: np.ndarray  # (n,)
    flags: np.ndarray  # (n, len(DETECTOR_ORDER)) bool
    stats: np.ndarray  # (n, len(DETECTOR_ORDER)) float

    @property
    def n_steps(self) -> int:
        return int(self.t.size)

    @property
    def attacked(self) -> bool:
        return self.attack is not None and self.attack.enabled

    @property
    def onset(self) -> int | None:
        return self.attack.t_start if self.attacked else None


def run_episode(
    agent: Agent,
    env_cfg: EnvConfig,
    attack_cfg: AttackConfig | None,
    bank: DetectorBank | None,
    seed: int,
    *,
    constellation: Constellation,
    noise_sigma: float,
    config_hash: str = "",
) -> EpisodeLog:
    """Play one deterministic episode with the greedy policy.

    Row i records the decision point at world time t=i: the fix and
    observation there, the action and critic value chosen, detector
    verdicts for that fix, and the reward received for taking the action.
    """
    if attack_cfg is not None and attack_cfg.enabled and attack_cfg.t_start < 1:
        raise ConfigurationError("attack onset must be at t >= 1")
    meas_rng = np.random.default_rng([seed, _TAG_MEAS])
    world, obs, pvt = env_reset_full(env_cfg, seed, constellation, noise_sigma)
    nav = pvt.estimate.position
    detectors = bank.start_episode() if bank is not None else None
    n_det = len(DETECTOR_ORDER)

    cols: dict[str, list] = {k: [] for k in (
        "t", "true", "est", "phi", "action", "rewards", "q", "alpha",
        "flags", "stats",
    )}
    terminal = TERM_NONE
    while True:
        t = world.t
        action = agent.act(obs.phi)
        q = agent.q_value(obs.phi, action)
        if attack_cfg is not None:
            phase = attack_alpha(t, attack_cfg)
            alpha = phase.alpha if phase.active else 0.0
        else:
            alpha = 0.0
        if detectors is not None:
            flags, stats = detectors.update(pvt, q)
        else:
            flags = np.zeros(n_det, dtype=bool)
            stats = np.full(n_det, np.nan)

        # World, fix and observation are values, never written in place,
        # so their arrays are kept without a copy.
        cols["t"].append(t)
        cols["true"].append(world.uav_pos_true)
        cols["est"].append(pvt.estimate.position)
        cols["phi"].append(obs.phi)
        cols["action"].append((action.rho0, action.sigma0, action.theta))
        cols["q"].append(q)
        cols["alpha"].append(alpha)
        cols["flags"].append(flags)
        cols["stats"].append(stats)

        world, obs, rb, done, info = env_step(
            world, action, constellation, noise_sigma, attack_cfg,
            cfg=env_cfg, rng=meas_rng, nav_pos=nav,
        )
        cols["rewards"].append(
            [rb.collision, rb.threat, rb.goal_seek, rb.total]
        )
        pvt = info.pvt
        nav = pvt.estimate.position
        if done:
            terminal = rb.terminal_event
            break

    return EpisodeLog(
        seed=seed,
        config_hash=config_hash,
        terminal_event=terminal,
        attack=attack_cfg,
        t=np.array(cols["t"], dtype=int),
        true_pos=np.stack(cols["true"]),
        est_pos=np.stack(cols["est"]),
        phi=np.stack(cols["phi"]),
        action=np.array(cols["action"]),
        rewards=np.array(cols["rewards"]),
        q=np.array(cols["q"]),
        alpha=np.array(cols["alpha"]),
        flags=np.stack(cols["flags"]),
        stats=np.stack(cols["stats"]),
    )


def _fmt(x) -> str:
    """Shortest round-trip text of a float; every CSV artifact uses it."""
    return repr(float(x))


def write_episode_csv(log: EpisodeLog, path) -> None:
    """Stable-order CSV with # metadata header lines."""
    attack_doc = (
        "none"
        if log.attack is None
        else json.dumps(
            {
                "enabled": log.attack.enabled,
                "t_start": log.attack.t_start,
                "drift_duration": log.attack.drift_duration,
                "target": list(log.attack.target),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    lines = [
        f"# schema: {EPISODE_SCHEMA}",
        f"# seed: {log.seed}",
        f"# config_hash: {log.config_hash}",
        f"# terminal_event: {log.terminal_event}",
        f"# attack: {attack_doc}",
        f"# steps: {log.n_steps}",
        ",".join(CSV_COLUMNS),
    ]
    for i in range(log.n_steps):
        row = [str(int(log.t[i]))]
        row += [_fmt(v) for v in log.true_pos[i]]
        row += [_fmt(v) for v in log.est_pos[i]]
        row += [_fmt(v) for v in log.phi[i]]
        row += [_fmt(v) for v in log.action[i]]
        row += [_fmt(v) for v in log.rewards[i]]
        row += [_fmt(log.q[i]), _fmt(log.alpha[i])]
        for j in range(len(DETECTOR_ORDER)):
            row.append(str(int(log.flags[i, j])))
            row.append(_fmt(log.stats[i, j]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class DetectorMetrics:
    """Aggregated detection quality for one detector under latched scoring."""

    detector: str
    accuracy_mean: float
    accuracy_std: float
    fpr_mean: float
    fpr_std: float
    fnr_episode_mean: float
    fnr_episode_std: float
    fnr_step_mean: float
    fnr_step_std: float
    delay_mean: float | None  # over detected attacked episodes; None if none
    delay_std: float | None
    n_detected: int
    n_attacked: int
    n_nominal: int

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "accuracy": {"mean": self.accuracy_mean, "std": self.accuracy_std},
            "false_positive_rate": {"mean": self.fpr_mean, "std": self.fpr_std},
            "false_negative_rate": {
                "mean": self.fnr_episode_mean,
                "std": self.fnr_episode_std,
            },
            "step_miss_rate": {
                "mean": self.fnr_step_mean,
                "std": self.fnr_step_std,
            },
            "detection_delay": {"mean": self.delay_mean, "std": self.delay_std},
            "n_detected": self.n_detected,
            "n_attacked": self.n_attacked,
            "n_nominal": self.n_nominal,
        }


@dataclass(frozen=True)
class DetectionMetrics:
    per_detector: dict[str, DetectorMetrics]

    def to_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "detectors": {
                name: self.per_detector[name].to_dict()
                for name in DETECTOR_ORDER
                if name in self.per_detector
            },
        }


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    return float(arr.mean()), float(arr.std())


def compute_metrics(logs: list[EpisodeLog]) -> DetectionMetrics:
    """Latched scoring: a detector's first flag persists for the episode.

    Accuracy counts pre-onset unflagged and post-onset flagged steps;
    nominal episodes have no onset, so every step counts as pre-onset.
    The headline false-negative rate is the fraction of attacked episodes
    never flagged after onset; per-step miss rate is kept alongside.
    Delay is measured from onset to the first raw flag, clipped at zero,
    over detected episodes only.
    """
    if not logs:
        raise ConfigurationError("metrics need at least one episode")
    per_detector = {}
    for j, name in enumerate(DETECTOR_ORDER):
        acc, fpr, fnr_ep, fnr_step, delays = [], [], [], [], []
        n_attacked = n_nominal = 0
        for log in logs:
            raw = log.flags[:, j].astype(bool)
            latched = np.maximum.accumulate(raw)
            n = raw.size
            onset = log.onset
            if not log.attacked or onset >= n:
                n_nominal += 1
                acc.append(1.0 - latched.mean() if n else 1.0)
                fpr.append(latched.mean() if n else 0.0)
                continue
            n_attacked += 1
            pre = latched[:onset]
            post = latched[onset:]
            acc.append((np.sum(~pre) + np.sum(post)) / n)
            fpr.append(pre.mean() if pre.size else 0.0)
            fnr_step.append(1.0 - post.mean())
            missed = not bool(post.any())
            fnr_ep.append(1.0 if missed else 0.0)
            if not missed:
                first = int(np.argmax(raw))  # raw has a True by construction
                delays.append(max(0, first - onset))
        acc_m, acc_s = _mean_std(acc)
        fpr_m, fpr_s = _mean_std(fpr)
        fnr_ep_m, fnr_ep_s = _mean_std(fnr_ep)
        fnr_st_m, fnr_st_s = _mean_std(fnr_step)
        if delays:
            delay_m, delay_s = _mean_std(delays)
        else:
            delay_m = delay_s = None
        per_detector[name] = DetectorMetrics(
            detector=name,
            accuracy_mean=acc_m,
            accuracy_std=acc_s,
            fpr_mean=fpr_m,
            fpr_std=fpr_s,
            fnr_episode_mean=fnr_ep_m,
            fnr_episode_std=fnr_ep_s,
            fnr_step_mean=fnr_st_m,
            fnr_step_std=fnr_st_s,
            delay_mean=delay_m,
            delay_std=delay_s,
            n_detected=len(delays),
            n_attacked=n_attacked,
            n_nominal=n_nominal,
        )
    return DetectionMetrics(per_detector=per_detector)


def _stream_argmaxes(q_stream, prior: AgeProfile, hazard: float,
                     prune: float) -> list[int]:
    state = bocpd_init(prior, hazard)
    hats = []
    for x in q_stream:
        state, l_hat = bocpd_update(state, float(x), prune=prune)
        hats.append(l_hat)
    return hats


def profile_pipeline(
    agent: Agent,
    env_cfg: EnvConfig,
    det_cfg: DetectorConfig,
    eval_cfg: EvalConfig,
    *,
    constellation: Constellation,
    noise_sigma: float,
    master_seed: int,
    config_hash: str = "",
) -> tuple[DetectorBank, dict]:
    """Fit every detector on attack-free runs and freeze the thresholds.

    Returns the bank plus diagnostics (profile episode logs, AE training
    curve, calibration outcome).  Uses its own seed stream so profiling
    data never overlaps evaluation episodes.  The run-length threshold is
    calibrated leave-one-out: each profile stream is scored against an age
    profile fitted on the other streams, as an unseen flight would be.
    """
    seeds = [
        int(np.random.SeedSequence(
            [master_seed, _TAG_PROFILE, i]).generate_state(1)[0])
        for i in range(eval_cfg.profile_episodes)
    ]
    logs = [
        run_episode(
            agent, env_cfg, None, None, s,
            constellation=constellation, noise_sigma=noise_sigma,
            config_hash=config_hash,
        )
        for s in seeds
    ]
    q_streams = [log.q for log in logs]
    episodes = tuple(range(len(q_streams)))
    profile = fit_nominal_profile(q_streams, source_episodes=episodes)
    age_profile = fit_age_profile(q_streams, source_episodes=episodes)

    if det_cfg.calibrate_tau:
        if len(q_streams) < 3:
            raise InsufficientDataError(
                "leave-one-out tau calibration needs >= 3 profile episodes"
            )
        hats = [
            _stream_argmaxes(
                q, fit_age_profile(q_streams[:i] + q_streams[i + 1:]),
                det_cfg.bocpd_hazard, det_cfg.bocpd_prune,
            )
            for i, q in enumerate(q_streams)
        ]
        tau, achieved_fp = calibrate_tau(hats, warmup=det_cfg.bocpd_warmup)
    else:
        tau, achieved_fp = det_cfg.bocpd_tau, float("nan")

    ae_seed = int(np.random.SeedSequence(
        [master_seed, _TAG_AE_INIT]).generate_state(1)[0])
    ae, ae_curve = window_ae_train(
        q_streams,
        window=det_cfg.ae_window,
        bottleneck=det_cfg.ae_bottleneck,
        hidden=det_cfg.ae_hidden,
        epochs=det_cfg.ae_epochs,
        lr=det_cfg.ae_lr,
        threshold_stds=det_cfg.ae_threshold_stds,
        seed=ae_seed,
    )

    bank = DetectorBank(
        profile=profile,
        age_profile=age_profile,
        tau=tau,
        warmup=det_cfg.bocpd_warmup,
        hazard=det_cfg.bocpd_hazard,
        prune=det_cfg.bocpd_prune,
        ph_delta=det_cfg.ph_delta_scale * profile.sigma0,
        ph_lambda=det_cfg.ph_lambda_scale * profile.sigma0,
        residual_k_sigma=det_cfg.residual_k_sigma,
        residual_noise_sigma=noise_sigma,
        residual_jump_gate=(
            env_cfg.cruise_speed * env_cfg.dt * det_cfg.residual_jump_margin
        ),
        ae=ae,
    )
    diagnostics = {
        "profile_logs": logs,
        "ae_curve": ae_curve,
        "tau": tau,
        "calibration_fp": achieved_fp,
    }
    return bank, diagnostics


def evaluate(
    agent: Agent,
    env_cfg: EnvConfig,
    eval_cfg: EvalConfig,
    bank: DetectorBank,
    *,
    constellation: Constellation,
    noise_sigma: float,
    master_seed: int,
    config_hash: str = "",
) -> tuple[DetectionMetrics, list[EpisodeLog]]:
    """Score the frozen bank on fresh nominal and attacked episodes."""
    if eval_cfg.n_nominal + eval_cfg.n_attacked < 1:
        raise ConfigurationError("evaluation needs at least one episode")
    attack = AttackConfig(
        t_start=eval_cfg.attack_t_start,
        drift_duration=eval_cfg.attack_drift_duration,
        target=eval_cfg.attack_target,
        enabled=True,
    )
    logs = []
    for i in range(eval_cfg.n_nominal):
        seed = int(np.random.SeedSequence(
            [master_seed, _TAG_EVAL_NOMINAL, i]).generate_state(1)[0])
        logs.append(run_episode(
            agent, env_cfg, None, bank, seed,
            constellation=constellation, noise_sigma=noise_sigma,
            config_hash=config_hash,
        ))
    for i in range(eval_cfg.n_attacked):
        seed = int(np.random.SeedSequence(
            [master_seed, _TAG_EVAL_ATTACKED, i]).generate_state(1)[0])
        logs.append(run_episode(
            agent, env_cfg, attack, bank, seed,
            constellation=constellation, noise_sigma=noise_sigma,
            config_hash=config_hash,
        ))
    return compute_metrics(logs), logs
