"""Experiment orchestration: episodes, detector bank, metrics, artifacts.

A stage's episodes are played, then scored.  The rollout only flies, and
it flies every episode of the stage in lockstep: all are reset, then at
each age one policy call acts on the observations of the episodes still
flying, and each of them takes one world step, its fix solved from the
episode's previous fix.  Episodes share no state and no random stream,
so lockstep play changes no episode beyond the batched actor's
round-off.  Each episode records its fixes' positions and RMS residuals,
not the fixes, in 64-row chunks, and when it ends one critic forward
values every (observation, action) pair it recorded.  No verdict feeds
back into the controller, so the stage is scored after it is played:
the changepoint and Page-Hinkley tests step through the ages of every
episode in one lockstep pass, one row per episode still running, and the
residual test and one autoencoder forward score each episode's whole
record.  Each logged row describes one decision point; the reward column
is the return received for that row's action.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import DetectorConfig, EnvConfig, EvalConfig
from .ddpg import _TAG_MEAS, Agent, _derive_seed
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
from .env import env_reset_full, env_step
from .errors import ConfigurationError, InsufficientDataError
from .gnss import Constellation
from .spoofing import AttackConfig, attack_alpha

EPISODE_SCHEMA = "driftwatch-episode-v1"
BANK_SCHEMA = "driftwatch-bank-v1"

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

    def score(self, logs: list[EpisodeLog]) -> None:
        """Fill in the flags and statistics of a stage's recorded episodes.

        Columns follow DETECTOR_ORDER, one row per decision point.  The
        changepoint and Page-Hinkley tests score every episode in one
        lockstep pass over ages (`EpisodeDetectors`); the residual test and
        the AE score each episode's whole record.  A single episode is the
        one-row case of the same pass.
        """
        order = sorted(range(len(logs)), key=lambda i: -logs[i].n_steps)
        detectors = EpisodeDetectors(self, len(logs))
        passes = _lockstep([logs[i].q for i in order], detectors.update)
        residual = ResidualThreshold(
            k_sigma=self.residual_k_sigma,
            noise_sigma=self.residual_noise_sigma,
            jump_gate=self.residual_jump_gate,
        )
        for i, (l_hat, ph_flags, ph_stats) in zip(order, passes):
            log = logs[i]
            ages = np.arange(1, log.n_steps + 1)
            tests = (bocpd_flag(l_hat, ages, self.tau, self.warmup),
                     (ph_flags, ph_stats),
                     residual.score(log.est_pos, log.residual_rms),
                     window_ae_score(self.ae, log.q))
            log.flags = np.column_stack([flags for flags, _ in tests])
            log.stats = np.column_stack([stats for _, stats in tests])

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
    """Lockstep state of the recursive tests, changepoint and Page-Hinkley,
    over the episodes of a stage: one row per episode, all at one age."""

    def __init__(self, bank: DetectorBank, rows: int):
        self.prune = bank.prune
        self.bocpd_state = bocpd_init([bank.age_profile] * rows, bank.hazard)
        self.ph = PageHinkley(delta=bank.ph_delta, lam=bank.ph_lambda,
                              rows=rows)

    def update(self, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """Feed the next age to the first q.size rows; later rows have ended.

        Returns their argmax run lengths, Page-Hinkley flags and
        Page-Hinkley statistics.
        """
        self.bocpd_state, l_hat = bocpd_update(self.bocpd_state, q,
                                               prune=self.prune)
        return (l_hat, *self.ph.update(q))


def _lockstep(streams, update) -> list[list[np.ndarray]]:
    """Feed the streams to `update` together, one age at a time.

    The streams must be sorted longest first, so that those still running
    at an age are the first rows: `update(values)` gets their values at
    that age and returns a tuple of per-row arrays.  Returns each stream's
    outputs over its own ages.
    """
    lengths = [len(s) for s in streams]
    table = np.zeros((lengths[0], len(streams)))  # (age, row)
    for row, s in enumerate(streams):
        table[:lengths[row], row] = s
    running = len(streams)
    outputs = None
    for t, values in enumerate(table):
        while lengths[running - 1] <= t:
            running -= 1
        step = update(values[:running])
        if outputs is None:
            outputs = [np.empty(table.shape, dtype=a.dtype) for a in step]
        for out, a in zip(outputs, step):
            out[t, :running] = a
    return [[out[:n, row] for out in outputs] for row, n in enumerate(lengths)]


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
    residual_rms: np.ndarray  # (n,) RMS pseudorange residual of each fix
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


# columns of the record a flight keeps while it is played, in 64-row
# chunks: true position, fix position, RMS residual of the fix,
# observation, action, reward breakdown
_TRUE, _EST, _RMS, _PHI, _ACT, _REW = (
    slice(0, 3), slice(3, 6), 6, slice(7, 16), slice(16, 19), slice(19, 23))
_WIDTH = 23
_CHUNK = 64


class _Flight:
    """One episode of a stage in play: its world, last fix and observation,
    measurement stream, and the chunks its decision points are recorded in.
    `index` is the episode's place in the stage."""

    __slots__ = ("index", "seed", "attack", "rng", "world", "phi", "pvt",
                 "chunks", "n", "event")

    def __init__(self, index, seed, attack, world, phi, pvt):
        self.index, self.seed, self.attack = index, seed, attack
        self.rng = np.random.default_rng([seed, _TAG_MEAS])
        self.world, self.phi, self.pvt = world, phi, pvt
        self.chunks: list[np.ndarray] = []
        self.n = 0
        self.event = ""

    def record(self, row: np.ndarray) -> None:
        k = self.n % _CHUNK
        if k == 0:
            self.chunks.append(np.empty((_CHUNK, _WIDTH)))
        self.chunks[-1][k] = row
        self.n += 1

    def log(self, agent: Agent, config_hash: str) -> EpisodeLog:
        """The finished episode's log: its record, valued in one critic pass."""
        n = self.n
        last = n - _CHUNK * (len(self.chunks) - 1)
        rec = np.concatenate(self.chunks[:-1] + [self.chunks[-1][:last]])
        self.chunks = []
        phi, action = rec[:, _PHI], rec[:, _ACT]
        flags = np.zeros((n, len(DETECTOR_ORDER)), dtype=bool)
        alpha = np.zeros(n)
        if self.attack is not None:
            for t in range(n):
                alpha[t] = attack_alpha(t, self.attack) or 0.0
        return EpisodeLog(
            seed=self.seed,
            config_hash=config_hash,
            terminal_event=self.event,
            attack=self.attack,
            t=np.arange(n),
            true_pos=rec[:, _TRUE],
            est_pos=rec[:, _EST],
            residual_rms=rec[:, _RMS],
            phi=phi,
            action=action,
            rewards=rec[:, _REW],
            q=agent.q_value(phi, action),
            alpha=alpha,
            flags=flags,
            stats=np.full(flags.shape, np.nan),
        )


def run_episode(
    agent: Agent,
    env_cfg: EnvConfig,
    episodes: list[tuple[AttackConfig | None, int]],
    *,
    constellation: Constellation,
    noise_sigma: float,
    config_hash: str = "",
) -> list[EpisodeLog]:
    """Play a stage's episodes in lockstep with the greedy policy; value them.

    `episodes` lists each episode's (attack config or None, seed).  Every
    episode is reset first; then all of them advance together, one age at
    a time.  At each age one `Agent.act` call acts on the (B, 9)
    observations of the B episodes still flying, and each of them takes
    one `env_step`, its fix solved from the episode's previous fix
    (`pvt_init`); only the reset's fix starts from the truth.  An episode
    records the observation, the action, the fix's position and RMS
    residual, and the reward in chunks of 64 rows; when it ends, one critic
    forward values every recorded decision.  Episodes neither share state
    nor draw from a common stream, so each plays as it would alone, up to
    the round-off of the batched actor.  Returns one log per episode, in
    the order given, with flags False and statistics NaN for
    `DetectorBank.score`; a lone episode (`driftwatch run`) is B = 1.

    Row i records the decision point at world time t=i: the fix and
    observation there, the action and critic value chosen, and the reward
    received for taking the action.
    """
    for attack_cfg, _ in episodes:
        if (attack_cfg is not None and attack_cfg.enabled
                and attack_cfg.t_start < 1):
            raise ConfigurationError("attack onset must be at t >= 1")
    running = [
        _Flight(i, seed, attack_cfg,
                *env_reset_full(env_cfg, seed, constellation, noise_sigma))
        for i, (attack_cfg, seed) in enumerate(episodes)
    ]
    logs: list[EpisodeLog | None] = [None] * len(running)
    while running:
        rows = np.empty((len(running), _WIDTH))
        rows[:, _PHI] = [f.phi for f in running]
        rows[:, _ACT] = agent.act(rows[:, _PHI])
        rows[:, _TRUE] = [f.world.uav_pos_true for f in running]
        rows[:, _EST] = [f.pvt.x[:3] for f in running]
        rows[:, _RMS] = [ResidualThreshold.statistic(f.pvt) for f in running]
        rewards = []
        for f, action in zip(running, rows[:, _ACT]):
            f.world, f.phi, rb, done, f.pvt = env_step(
                f.world, action, constellation, noise_sigma,
                f.attack, cfg=env_cfg, rng=f.rng,
                nav_pos=f.pvt.x[:3], pvt_init=f.pvt.x,
            )
            rewards.append((rb.collision, rb.threat, rb.goal_seek, rb.total))
            if done:
                f.event = rb.terminal_event
        rows[:, _REW] = rewards
        for f, row in zip(running, rows):
            f.record(row)
            if f.event:
                logs[f.index] = f.log(agent, config_hash)
        running = [f for f in running if not f.event]
    return logs


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


def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"mean": 0.0, "std": 0.0}
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def compute_metrics(logs: list[EpisodeLog]) -> dict[str, dict]:
    """Latched scoring: a detector's first flag persists for the episode.

    Returns the `detectors` mapping of `summary.json`: one entry per
    detector in DETECTOR_ORDER, holding {"mean", "std"} of accuracy,
    false-positive rate, episode false-negative rate, per-step miss rate
    and detection delay (None when nothing was detected), plus the counts
    of detected, attacked and nominal episodes.

    Accuracy counts pre-onset unflagged and post-onset flagged steps;
    nominal episodes have no onset, so every step counts as pre-onset.
    The headline false-negative rate is the fraction of attacked episodes
    never flagged after onset; per-step miss rate is kept alongside.
    Delay is measured from onset to the first raw flag, clipped at zero,
    over detected episodes only.
    """
    if not logs:
        raise ConfigurationError("metrics need at least one episode")
    detectors = {}
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
        detectors[name] = {
            "detector": name,
            "accuracy": _mean_std(acc),
            "false_positive_rate": _mean_std(fpr),
            "false_negative_rate": _mean_std(fnr_ep),
            "step_miss_rate": _mean_std(fnr_step),
            "detection_delay": (_mean_std(delays) if delays
                                else {"mean": None, "std": None}),
            "n_detected": len(delays),
            "n_attacked": n_attacked,
            "n_nominal": n_nominal,
        }
    return detectors


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
    The held-out streams are scored in one lockstep pass, one prior per row.
    """
    seeds = [_derive_seed(master_seed, _TAG_PROFILE, i)
             for i in range(eval_cfg.profile_episodes)]
    logs = run_episode(
        agent, env_cfg, [(None, s) for s in seeds],
        constellation=constellation, noise_sigma=noise_sigma,
        config_hash=config_hash,
    )
    q_streams = [log.q for log in logs]
    episodes = tuple(range(len(q_streams)))
    profile = fit_nominal_profile(q_streams, source_episodes=episodes)
    age_profile = fit_age_profile(q_streams, source_episodes=episodes)

    if det_cfg.calibrate_tau:
        if len(q_streams) < 3:
            raise InsufficientDataError(
                "leave-one-out tau calibration needs >= 3 profile episodes"
            )
        order = sorted(range(len(q_streams)), key=lambda i: -q_streams[i].size)
        state = bocpd_init(
            [fit_age_profile(q_streams[:i] + q_streams[i + 1:]) for i in order],
            det_cfg.bocpd_hazard,
        )

        def advance(q):
            nonlocal state
            state, l_hat = bocpd_update(state, q, prune=det_cfg.bocpd_prune)
            return (l_hat,)

        hats = [l_hat for l_hat, in
                _lockstep([q_streams[i] for i in order], advance)]
        tau, achieved_fp = calibrate_tau(hats, warmup=det_cfg.bocpd_warmup)
    else:
        tau, achieved_fp = det_cfg.bocpd_tau, float("nan")

    ae, ae_curve = window_ae_train(
        q_streams,
        window=det_cfg.ae_window,
        bottleneck=det_cfg.ae_bottleneck,
        hidden=det_cfg.ae_hidden,
        epochs=det_cfg.ae_epochs,
        lr=det_cfg.ae_lr,
        threshold_stds=det_cfg.ae_threshold_stds,
        seed=_derive_seed(master_seed, _TAG_AE_INIT),
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
) -> tuple[dict[str, dict], list[EpisodeLog]]:
    """Score the frozen bank on fresh nominal and attacked episodes.

    Every episode is played in one lockstep rollout (`run_episode`); then
    one `DetectorBank.score` pass scores them all.
    """
    if eval_cfg.n_nominal + eval_cfg.n_attacked < 1:
        raise ConfigurationError("evaluation needs at least one episode")
    attack = AttackConfig(
        t_start=eval_cfg.attack_t_start,
        drift_duration=eval_cfg.attack_drift_duration,
        target=eval_cfg.attack_target,
        enabled=True,
    )
    episodes = [
        (attack_cfg, _derive_seed(master_seed, tag, i))
        for tag, count, attack_cfg in (
            (_TAG_EVAL_NOMINAL, eval_cfg.n_nominal, None),
            (_TAG_EVAL_ATTACKED, eval_cfg.n_attacked, attack),
        )
        for i in range(count)
    ]
    logs = run_episode(
        agent, env_cfg, episodes,
        constellation=constellation, noise_sigma=noise_sigma,
        config_hash=config_hash,
    )
    bank.score(logs)
    return compute_metrics(logs), logs
