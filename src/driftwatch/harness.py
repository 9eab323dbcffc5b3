"""Experiment orchestration: episodes, detector bank, metrics, artifacts.

A stage's episodes are played, then scored.  The rollout only flies, and
it flies every episode of the stage in lockstep: all are reset, then at
each age one policy call acts on the observations of the episodes still
flying, one controller call (`env.steer_fleet`) turns their actions and
previous fixes into commanded velocities, and each of them takes one
world step (`env.env_step`: the plant, then its own measurement and a fix
solved from the episode's previous fix).  Episodes share no state and no
random stream, and the fleet controller gives each row the bits of the
per-flight one, so lockstep play changes no episode beyond the batched
actor's round-off.  Each episode records its fixes' positions and RMS
residuals, not the fixes, in 64-row chunks, and when it ends one critic
forward values every (observation, action) pair it recorded.  Only
`driftwatch run`, whose CSV writes it, keeps the per-step trace past
that: true position, observation, action and reward.  A study stage's logs keep the
value stream, the fixes and the attack schedule, which is all it scores.
No verdict feeds back into the controller, so the stage is scored after
it is played: the changepoint test steps through the ages of every
episode in one lockstep pass, one row per episode still running, and
Page-Hinkley, the residual test and one autoencoder forward each score
one episode's whole record.  Each logged row describes one decision
point; the reward column is the return received for that row's action.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import (
    EvalConfig,
    ExperimentConfig,
    _at_least,
    _fmt,
    _positive,
    _write_chunks,
    canonical_json,
    check_bounds,
    from_json,
    read_document,
    to_json,
    write_json,
)
from .ddpg import _TAG_MEAS, Agent, _derive_seed
from .detectors import (
    RERUN_PROFILE,
    AgeProfile,
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
from .env import env_reset_full, env_step, steer_fleet
from .errors import ConfigurationError
from .gnss import constellation_from_config
from .spoofing import AttackConfig, attack_alpha

EPISODE_SCHEMA = "driftwatch-episode-v1"
BANK_SCHEMA = "driftwatch-bank-v2"

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


# file and type of each document of a bank, saved beside bank.json
_BANK_FILES = {
    "age_profile": ("age_profile.json", AgeProfile),
    "ae": ("ae.npz", WindowAutoencoder),
}


@dataclass(frozen=True)
class _BankParameters:
    """The scalar parameters of a detector bank, the numbers `bank.json` holds,
    range-checked where they enter: from `profile_pipeline` or the file."""

    tau: int
    warmup: int
    hazard: float
    prune: float
    ph_delta: float
    ph_lambda: float
    residual_threshold: float
    residual_jump_gate: float

    def __post_init__(self):
        check_bounds(tau=self.tau, warmup=self.warmup, hazard=self.hazard,
                     prune=self.prune)
        _at_least("ph_delta", self.ph_delta, 0)
        _positive("ph_lambda", self.ph_lambda)
        _positive("residual_threshold", self.residual_threshold)
        _positive("residual_jump_gate", self.residual_jump_gate)


@dataclass(frozen=True)
class DetectorBank(_BankParameters):
    """What a stage's scoring reads, frozen by `profile_pipeline`.

    `bank.json` holds the numbers; the changepoint detector's prior
    `age_profile` and the window autoencoder `ae` are saved beside it, at
    the names `_BANK_FILES` gives them.
    """

    age_profile: AgeProfile
    ae: WindowAutoencoder

    def score(self, logs: list[EpisodeLog]) -> None:
        """Fill in the flags and statistics of a stage's recorded episodes.

        Columns follow DETECTOR_ORDER, one row per decision point.  The
        changepoint test scores every episode in one lockstep pass over
        ages (`_run_lengths`), of which a single episode is the one-row
        case; Page-Hinkley, the residual test and the AE each score one
        episode's whole record.
        """
        hats = _run_lengths([log.q for log in logs],
                            [self.age_profile] * len(logs), self.hazard,
                            self.prune)
        for log, l_hat in zip(logs, hats):
            ages = np.arange(1, log.n_steps + 1)
            tests = (bocpd_flag(l_hat, ages, self.tau, self.warmup),
                     page_hinkley(log.q, self.ph_delta, self.ph_lambda),
                     residual_score(log.est_pos, log.residual_rms,
                                    self.residual_threshold,
                                    self.residual_jump_gate),
                     window_ae_score(self.ae, log.q))
            log.flags = np.column_stack([flags for flags, _ in tests])
            log.stats = np.column_stack([stats for _, stats in tests])

    def save(self, out_dir) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {name: out / file for name, (file, _) in _BANK_FILES.items()}
        for name, path in paths.items():
            getattr(self, name).save(path)
        doc = {f.name: getattr(self, f.name) for f in fields(_BankParameters)}
        paths["bank"] = out / "bank.json"
        write_json({"schema": BANK_SCHEMA, **doc}, paths["bank"])
        return paths

    @classmethod
    def load(cls, bank_dir) -> "DetectorBank":
        bank_dir = Path(bank_dir)
        bank_path = bank_dir / "bank.json"
        if not bank_path.exists():
            raise ConfigurationError(
                f"no detector bank at {bank_path} (run `driftwatch profile` first)"
            )
        numbers = read_document(bank_path, BANK_SCHEMA,
                                lambda doc: from_json(_BankParameters, doc),
                                RERUN_PROFILE)
        return cls(**vars(numbers), **{
            name: kind.load(bank_dir / file)
            for name, (file, kind) in _BANK_FILES.items()})


class EpisodeDetectors:
    """Lockstep run-length posteriors over the value streams of a stage: one
    row per stream, each with its own prior (AgeProfile), all at one age.
    A class of its own so that `perfbench/tracer.py` can time `update`."""

    def __init__(self, priors, hazard: float, prune: float):
        self.prune = prune
        self.bocpd_state = bocpd_init(priors, hazard)

    def update(self, q: np.ndarray) -> np.ndarray:
        """Feed the next age to the first q.size rows; later rows have ended.

        Returns their argmax run lengths.
        """
        self.bocpd_state, l_hat = bocpd_update(self.bocpd_state, q, self.prune)
        return l_hat


def _run_lengths(streams, priors, hazard: float,
                 prune: float) -> list[np.ndarray]:
    """Argmax run lengths of each value stream under its own prior (the
    AgeProfile at the same index), every stream in one `EpisodeDetectors`.

    The streams step through their ages together.  Rows run longest first,
    ties in the order given, so those still running at an age are the first
    rows and only they are fed.  Returns each stream's argmax run lengths
    over its own ages, in the order the streams are given.
    """
    order = sorted(range(len(streams)), key=lambda i: -len(streams[i]))
    detectors = EpisodeDetectors([priors[i] for i in order], hazard, prune)
    lengths = [len(streams[i]) for i in order]
    table = np.zeros((lengths[0], len(streams)))  # (age, row)
    for row, i in enumerate(order):
        table[:lengths[row], row] = streams[i]
    hats = np.empty(table.shape, dtype=int)
    running = len(streams)
    for t, values in enumerate(table):
        while lengths[running - 1] <= t:
            running -= 1
        hats[t, :running] = detectors.update(values[:running])
    row_of = {i: row for row, i in enumerate(order)}
    return [hats[:len(s), row_of[i]] for i, s in enumerate(streams)]


@dataclass
class EpisodeLog:
    """Column-oriented record of one episode.

    Row i is the decision point at world time t = i.  Every log holds what
    the detectors score: the value stream, the fixes and the attack
    schedule, then the flags and statistics.  The per-step trace (true
    position, observation, action, reward breakdown) is kept only when the
    episode was played with `run_episode(..., trace=True)`, as `driftwatch
    run` plays it for its CSV; the study stages' logs hold None there.
    """

    seed: int
    terminal_event: str
    attack: AttackConfig | None
    true_pos: np.ndarray | None  # (n, 3), trace
    est_pos: np.ndarray  # (n, 3)
    residual_rms: np.ndarray  # (n,) RMS pseudorange residual of each fix
    phi: np.ndarray | None  # (n, 9), trace
    action: np.ndarray | None  # (n, 3), trace
    # (n, 4), trace: collision, threat, goal_seek, total
    rewards: np.ndarray | None
    q: np.ndarray  # (n,)
    alpha: np.ndarray  # (n,)
    flags: np.ndarray  # (n, len(DETECTOR_ORDER)) bool
    stats: np.ndarray  # (n, len(DETECTOR_ORDER)) float

    @property
    def n_steps(self) -> int:
        return int(self.q.size)

    @property
    def attacked(self) -> bool:
        return self.attack is not None

    @property
    def onset(self) -> int | None:
        return self.attack.t_start if self.attacked else None


# columns of the record a flight keeps while it is played, in 64-row
# chunks: fix position, RMS residual of the fix, observation, action, then
# the trace's true position and reward breakdown, which only a traced
# flight records
_EST, _RMS, _PHI, _ACT, _TRUE, _REW = (
    slice(0, 3), 3, slice(4, 13), slice(13, 16), slice(16, 19), slice(19, 23))
_SCORED_WIDTH, _TRACE_WIDTH = _ACT.stop, _REW.stop
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
            self.chunks.append(np.empty((_CHUNK, row.size)))
        self.chunks[-1][k] = row
        self.n += 1

    def log(self, agent: Agent, trace: bool) -> EpisodeLog:
        """The finished episode's log: its record, valued in one critic pass.

        Without `trace` the log keeps copies of the fix columns alone, so
        the record is freed."""
        n = self.n
        last = n - _CHUNK * (len(self.chunks) - 1)
        rec = np.concatenate(self.chunks[:-1] + [self.chunks[-1][:last]])
        self.chunks = []
        phi, action = rec[:, _PHI], rec[:, _ACT]
        q = agent.q_value(phi, action)
        if trace:
            true_pos, rewards = rec[:, _TRUE], rec[:, _REW]
            est_pos, rms = rec[:, _EST], rec[:, _RMS]
        else:
            true_pos = phi = action = rewards = None
            est_pos, rms = rec[:, _EST].copy(), rec[:, _RMS].copy()
        alpha = np.zeros(n)
        if self.attack is not None:
            for t in range(n):
                alpha[t] = attack_alpha(t, self.attack) or 0.0
        # read-only views of one value, which DetectorBank.score replaces
        shape = (n, len(DETECTOR_ORDER))
        return EpisodeLog(
            seed=self.seed,
            terminal_event=self.event,
            attack=self.attack,
            true_pos=true_pos,
            est_pos=est_pos,
            residual_rms=rms,
            phi=phi,
            action=action,
            rewards=rewards,
            q=q,
            alpha=alpha,
            flags=np.broadcast_to(False, shape),
            stats=np.broadcast_to(np.nan, shape),
        )


def run_episode(
    agent: Agent,
    cfg: ExperimentConfig,
    episodes: list[tuple[AttackConfig | None, int]],
    trace: bool = False,
) -> list[EpisodeLog]:
    """Play a stage's episodes in lockstep with the greedy policy; value them.

    Reads the env and gnss sections of `cfg`: the receiver flies the
    constellation `cfg.gnss` lays out, at its noise.  `episodes` lists each
    episode's (attack config or None, seed).  Every episode is reset first;
    then all of them advance together, one age at a time.  At each age one
    `Agent.act` call acts on the (B, 9) observations of the B episodes still
    flying, and one `steer_fleet` call steers all B from their previous
    fixes' positions, row for row the bits `env.steer` gives one flight.
    Then each of them takes one `env_step` with its commanded velocity, its
    fix solved from the episode's previous fix (passed itself as
    `pvt_init`, so a repeated spoofed epoch is not solved again); only the
    reset's fix starts from the truth.  An episode records the observation,
    the action, the fix's position and RMS residual in chunks of 64 rows;
    when it ends, one critic forward values every recorded decision.
    Episodes neither share state nor draw from a common stream, so each
    plays as it would alone, up to the round-off of the batched actor.
    Returns one log per episode, in the order given, with flags False and
    statistics NaN, read-only, for `DetectorBank.score`; a lone episode
    (`driftwatch run`) is B = 1.

    `trace` keeps each log's per-step trace: true positions, observations,
    actions and reward breakdowns.  Its two callers need different records:
    `driftwatch run` asks for the trace, since its CSV writes it, so its
    flights also record the true position and the reward breakdown (23
    columns a step, where an untraced flight records 16).
    `profile_pipeline` and `evaluate` keep only what they score (the value
    stream, the fixes and the attack schedule): 48 bytes a step until it
    is scored, where a traced log holds 200.

    Row i records the decision point at world time t=i: the fix and
    observation there, the action and critic value chosen, and the reward
    received for taking the action.
    """
    env_cfg, noise_sigma = cfg.env, cfg.gnss.noise_sigma
    constellation = constellation_from_config(cfg.gnss)
    running = [
        _Flight(i, seed, attack_cfg,
                *env_reset_full(env_cfg, seed, constellation, noise_sigma))
        for i, (attack_cfg, seed) in enumerate(episodes)
    ]
    logs: list[EpisodeLog | None] = [None] * len(running)
    width = _TRACE_WIDTH if trace else _SCORED_WIDTH
    while running:
        rows = np.empty((len(running), width))
        rows[:, _PHI] = [f.phi for f in running]
        rows[:, _ACT] = agent.act(rows[:, _PHI])
        rows[:, _EST] = [f.pvt.x[:3] for f in running]
        rows[:, _RMS] = [fix_rms(f.pvt) for f in running]
        if trace:
            rows[:, _TRUE] = [f.world.uav_pos_true for f in running]
        motions = steer_fleet([f.world for f in running], rows[:, _ACT],
                              rows[:, _EST], env_cfg)
        for f, row, motion in zip(running, rows, motions.tolist()):
            f.world, f.phi, rb, done, f.pvt = env_step(
                f.world, motion, constellation, noise_sigma,
                f.attack, cfg=env_cfg, rng=f.rng, pvt_init=f.pvt,
            )
            if trace:
                row[_REW] = (rb.collision, rb.threat, rb.goal_seek, rb.total)
            f.record(row)
            if done:
                f.event = rb.terminal_event
                logs[f.index] = f.log(agent, trace)
        running = [f for f in running if not f.event]
    return logs


def write_episode_csv(log: EpisodeLog, path, config_hash: str) -> None:
    """Stable-order CSV with # metadata header lines, written row by row;
    `config_hash` names the config the episode was played with.  The log
    must hold its per-step trace (`run_episode(..., trace=True)`)."""
    if log.true_pos is None:
        raise ConfigurationError(
            f"episode {log.seed} was played without its per-step trace; "
            "play it with run_episode(..., trace=True) to write its CSV")
    attack_doc = "none" if log.attack is None else canonical_json(to_json(log.attack))
    header = "\n".join([
        f"# schema: {EPISODE_SCHEMA}",
        f"# seed: {log.seed}",
        f"# config_hash: {config_hash}",
        f"# terminal_event: {log.terminal_event}",
        f"# attack: {attack_doc}",
        f"# steps: {log.n_steps}",
        ",".join(CSV_COLUMNS),
    ])

    def lines():
        yield header + "\n"
        for i in range(log.n_steps):
            row = [str(i)]
            for part in (log.true_pos, log.est_pos, log.phi, log.action,
                         log.rewards):
                row += map(_fmt, part[i].tolist())
            row += [_fmt(log.q[i]), _fmt(log.alpha[i])]
            for flag, stat in zip(log.flags[i].tolist(), log.stats[i].tolist()):
                row += [str(int(flag)), _fmt(stat)]
            yield ",".join(row) + "\n"

    _write_chunks(path, lines())


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
    cfg: ExperimentConfig,
    master_seed: int,
) -> tuple[DetectorBank, dict]:
    """Fit every detector on attack-free runs and freeze the thresholds.

    Reads the env, gnss, detectors and eval sections of `cfg`.  Returns
    the bank plus diagnostics: the profile episode logs, without their
    per-step trace; the pooled profile, Page-Hinkley's scale, which
    `driftwatch profile` reports as `profile.json`; the AE training curve;
    the calibration outcome.  Uses its own seed stream so profiling data
    never overlaps evaluation episodes.  The run-length threshold is
    calibrated leave-one-out: each profile stream is scored against an age
    profile fitted on the other streams, as an unseen flight would be.
    The held-out streams are scored in one lockstep pass (`_run_lengths`),
    one prior per stream, as `DetectorBank.score` scores a stage.
    """
    det_cfg = cfg.detectors
    seeds = [_derive_seed(master_seed, _TAG_PROFILE, i)
             for i in range(cfg.eval.profile_episodes)]
    logs = run_episode(agent, cfg, [(None, s) for s in seeds])
    q_streams = [log.q for log in logs]
    episodes = tuple(range(len(q_streams)))
    profile = fit_nominal_profile(q_streams, source_episodes=episodes)
    age_profile = fit_age_profile(q_streams, source_episodes=episodes)

    if det_cfg.calibrate_tau:
        held_out = [fit_age_profile(q_streams[:i] + q_streams[i + 1:])
                    for i in range(len(q_streams))]
        hats = _run_lengths(q_streams, held_out, det_cfg.bocpd_hazard,
                            det_cfg.bocpd_prune)
        tau, achieved_fp = calibrate_tau(hats, warmup=det_cfg.bocpd_warmup)
    else:
        tau, achieved_fp = det_cfg.bocpd_tau, float("nan")

    ae, ae_curve = window_ae_train(q_streams, det_cfg,
                                   _derive_seed(master_seed, _TAG_AE_INIT))

    bank = DetectorBank(
        age_profile=age_profile,
        tau=tau,
        warmup=det_cfg.bocpd_warmup,
        hazard=det_cfg.bocpd_hazard,
        prune=det_cfg.bocpd_prune,
        ph_delta=det_cfg.ph_delta_scale * profile.sigma0,
        ph_lambda=det_cfg.ph_lambda_scale * profile.sigma0,
        # absolute floor so zero-noise configs do not flag solver round-off
        residual_threshold=max(det_cfg.residual_k_sigma * cfg.gnss.noise_sigma,
                               1e-6),
        residual_jump_gate=(
            cfg.env.cruise_speed * cfg.env.dt * det_cfg.residual_jump_margin
        ),
        ae=ae,
    )
    diagnostics = {
        "profile_logs": logs,
        "profile": profile,
        "ae_curve": ae_curve,
        "calibration_fp": achieved_fp,
    }
    return bank, diagnostics


def eval_attack(eval_cfg: EvalConfig) -> AttackConfig:
    """The configured drift attack."""
    return AttackConfig(eval_cfg.attack_t_start, eval_cfg.attack_drift_duration,
                        eval_cfg.attack_target)


def evaluate(
    agent: Agent,
    cfg: ExperimentConfig,
    bank: DetectorBank,
    master_seed: int,
) -> tuple[dict[str, dict], list[EpisodeLog]]:
    """Score the frozen bank on fresh nominal and attacked episodes.

    Reads the env, gnss and eval sections of `cfg`.  Every episode is
    played in one lockstep rollout (`run_episode`), its per-step trace not
    kept; then one `DetectorBank.score` pass scores them all.
    """
    eval_cfg = cfg.eval
    episodes = [
        (attack_cfg, _derive_seed(master_seed, tag, i))
        for tag, count, attack_cfg in (
            (_TAG_EVAL_NOMINAL, eval_cfg.n_nominal, None),
            (_TAG_EVAL_ATTACKED, eval_cfg.n_attacked, eval_attack(eval_cfg)),
        )
        for i in range(count)
    ]
    logs = run_episode(agent, cfg, episodes)
    bank.score(logs)
    return compute_metrics(logs), logs
