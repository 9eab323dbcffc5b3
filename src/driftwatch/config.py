"""Experiment configuration and the codecs of the text artifacts: typed
JSON, float text and the chunked file writer.

Every tunable lives here, and only here, with its default pinned: code
that reads a tunable takes its section (`train`, `profile_pipeline` and
`evaluate` take the whole ExperimentConfig), so no function repeats a
default.  The JSON schema is versioned and unknown keys are rejected so
stale config files fail loudly instead of silently running defaults.

`to_json` and `from_json` map a dataclass to and from a JSON object by its
fields' resolved annotations: nested dataclasses are objects, tuples are
lists, and a value of the wrong type, or a float that is NaN or infinite,
is rejected with its key named.  The config and both profiles are
`_JsonDocument`s, read as the bank is by `read_document`, which names the
file in every fault.  Every JSON and CSV artifact is written by
`_write_chunks`, and every CSV float as `_fmt`'s shortest round-trip text.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigurationError

CONFIG_SCHEMA = "driftwatch-config-v1"


def _check_range(name: str, rng: tuple, lo_ok=None) -> None:
    if len(rng) != 2 or rng[0] > rng[1]:
        raise ConfigurationError(f"{name} must be (lo, hi) with lo <= hi, got {rng}")
    if lo_ok is not None and rng[0] < lo_ok:
        raise ConfigurationError(f"{name} lower bound must be >= {lo_ok}, got {rng}")


def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def _at_least(name: str, value: int, lo: int) -> None:
    if value < lo:
        raise ConfigurationError(f"{name} must be >= {lo}, got {value}")


def _check_seed(name: str, seed: int) -> None:
    """numpy's generators take only seeds >= 0."""
    if seed < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class GnssConfig:
    """Constellation layout and receiver noise."""

    n_sats: int = 8
    radius: float = 2.0e7
    constellation_seed: int = 7
    min_separation_deg: float = 10.0
    noise_sigma: float = 2.0

    def __post_init__(self):
        if self.n_sats < 4:
            raise ConfigurationError(f"n_sats must be >= 4, got {self.n_sats}")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        _check_seed("constellation_seed", self.constellation_seed)


@dataclass(frozen=True)
class EnvConfig:
    """Airspace, kinematics, obstacle placement, and episode termination."""

    bounds: tuple[float, float, float] = (1000.0, 1000.0, 300.0)
    dt: float = 1.0
    cruise_speed: float = 10.0
    climb_rate_limit: float = 3.0
    heading_rate_limit_deg: float = 30.0
    goal_threshold: float = 10.0
    threat_margin: float = 0.4
    obstacle_radius: float = 30.0
    obstacle_speed_range: tuple[float, float] = (0.5, 2.5)
    obstacle_path_frac_range: tuple[float, float] = (0.3, 0.6)
    obstacle_offset_range: tuple[float, float] = (45.0, 100.0)
    goal_distance_range: tuple[float, float] = (1250.0, 1430.0)
    clock_bias_range: tuple[float, float] = (-100.0, 100.0)
    max_steps: int = 500

    def __post_init__(self):
        for name in ("dt", "cruise_speed", "climb_rate_limit",
                     "heading_rate_limit_deg", "goal_threshold",
                     "threat_margin", "obstacle_radius"):
            _positive(name, getattr(self, name))
        if any(b <= 0 for b in self.bounds):
            raise ConfigurationError(f"bounds must be positive, got {self.bounds}")
        _check_range("obstacle_speed_range", self.obstacle_speed_range, lo_ok=0.0)
        _check_range("obstacle_path_frac_range", self.obstacle_path_frac_range, 0.0)
        _check_range("obstacle_offset_range", self.obstacle_offset_range, lo_ok=0.0)
        _check_range("goal_distance_range", self.goal_distance_range, lo_ok=1.0)
        _check_range("clock_bias_range", self.clock_bias_range)
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        diag = sum(b * b for b in self.bounds) ** 0.5
        if self.goal_distance_range[0] > diag:
            raise ConfigurationError(
                f"goal_distance_range {self.goal_distance_range} cannot fit in "
                f"a box with diagonal {diag:.1f}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """DDPG hyperparameters and the episode curriculum used during training.

    Training mixes short obstacle-heavy episodes (dense reward signal,
    real crash risk) with long cruise episodes matching the evaluation
    distribution, in proportion ``curriculum_short_frac``.
    """

    episodes: int = 200
    warmup_episodes: int = 30
    batch_size: int = 64
    gamma: float = 0.99
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    tau: float = 0.005
    buffer_capacity: int = 1_000_000
    noise_start: float = 0.3
    noise_end: float = 0.1
    hidden: tuple[int, int] = (64, 64)
    obs_scales: tuple[float, ...] = (1000.0,) * 6 + (10.0,) * 3
    curriculum_short_frac: float = 0.7
    short_goal_distance_range: tuple[float, float] = (250.0, 500.0)
    short_path_frac_range: tuple[float, float] = (0.45, 0.7)
    short_offset_range: tuple[float, float] = (0.0, 50.0)
    long_goal_distance_range: tuple[float, float] = (1000.0, 1430.0)
    long_offset_range: tuple[float, float] = (60.0, 100.0)

    def __post_init__(self):
        if self.episodes < 1 or self.warmup_episodes < 0:
            raise ConfigurationError("episodes >= 1 and warmup_episodes >= 0 required")
        if self.warmup_episodes >= self.episodes:
            raise ConfigurationError("warmup_episodes must be < episodes")
        _at_least("batch_size", self.batch_size, 1)
        if self.buffer_capacity < self.batch_size:
            # the buffer would never hold a batch, so no update would run
            raise ConfigurationError(
                f"buffer_capacity must be >= batch_size ({self.batch_size}), "
                f"got {self.buffer_capacity}")
        if any(size < 1 for size in self.hidden):
            raise ConfigurationError(f"hidden sizes must be >= 1, got {self.hidden}")
        for name in ("noise_start", "noise_end"):
            # Agent.act skips noise at a scale <= 0, so a negative one
            # would train without exploration noise and say nothing
            _at_least(name, getattr(self, name), 0)
        _positive("actor_lr", self.actor_lr)
        _positive("critic_lr", self.critic_lr)
        if not 0 < self.gamma <= 1:
            raise ConfigurationError(f"gamma must be in (0,1], got {self.gamma}")
        if not 0 < self.tau <= 1:
            raise ConfigurationError(f"tau must be in (0,1], got {self.tau}")
        if not 0 <= self.curriculum_short_frac <= 1:
            raise ConfigurationError("curriculum_short_frac must be in [0,1]")
        if len(self.obs_scales) != 9 or any(s <= 0 for s in self.obs_scales):
            raise ConfigurationError("obs_scales must be 9 positive values")
        _check_range("short_goal_distance_range", self.short_goal_distance_range, 1.0)
        _check_range("short_path_frac_range", self.short_path_frac_range, 0.0)
        _check_range("short_offset_range", self.short_offset_range, 0.0)
        _check_range("long_goal_distance_range", self.long_goal_distance_range, 1.0)
        _check_range("long_offset_range", self.long_offset_range, 0.0)


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for the changepoint detector and the three baselines."""

    # hazard and warmup tuned on nominal runs of the reference pipeline:
    # 0.022 is the largest hazard whose calibrated tau keeps the nominal
    # false-flag episode rate at zero while detecting 18/20 drift attacks;
    # warmup 50 masks the steep early-episode value climb that otherwise
    # produces a single spurious run-length dip around step 20-50
    bocpd_hazard: float = 0.022
    bocpd_tau: int = 5
    bocpd_warmup: int = 50
    bocpd_prune: float = 1e-8
    calibrate_tau: bool = True
    ph_delta_scale: float = 0.005
    ph_lambda_scale: float = 50.0
    residual_k_sigma: float = 3.0
    residual_jump_margin: float = 5.0
    ae_window: int = 32
    ae_bottleneck: int = 4
    ae_hidden: int = 16
    ae_epochs: int = 200
    ae_lr: float = 1e-3
    ae_threshold_stds: float = 3.0

    def __post_init__(self):
        if not 0 < self.bocpd_hazard < 1:
            raise ConfigurationError(
                f"bocpd_hazard must be in (0,1), got {self.bocpd_hazard}"
            )
        if self.bocpd_tau < 1 or self.bocpd_warmup < 0:
            raise ConfigurationError("bocpd_tau >= 1 and bocpd_warmup >= 0 required")
        if not 0 <= self.bocpd_prune < 1e-3:
            raise ConfigurationError("bocpd_prune must be in [0, 1e-3)")
        for name in ("ph_delta_scale", "ph_lambda_scale", "residual_k_sigma",
                     "residual_jump_margin", "ae_lr", "ae_threshold_stds"):
            _positive(name, getattr(self, name))
        for name, lo in (("ae_window", 4), ("ae_bottleneck", 1),
                         ("ae_hidden", 1), ("ae_epochs", 1)):
            _at_least(name, getattr(self, name), lo)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation episode counts and the default attack."""

    n_nominal: int = 20
    n_attacked: int = 20
    profile_episodes: int = 20
    attack_t_start: int = 100
    attack_drift_duration: int = 50
    attack_target: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _at_least("n_nominal", self.n_nominal, 0)
        _at_least("n_attacked", self.n_attacked, 0)
        if self.n_nominal + self.n_attacked < 1:
            raise ConfigurationError("need at least one evaluation episode")
        # the same-age profile pools at least two value streams
        _at_least("profile_episodes", self.profile_episodes, 2)
        if self.attack_t_start < 1:
            # the reset's fix is never spoofed
            raise ConfigurationError(
                f"attack_t_start must be >= 1, got {self.attack_t_start}")
        if self.attack_drift_duration < 1:
            raise ConfigurationError("attack_drift_duration must be >= 1")


@functools.cache
def _json_fields(cls) -> dict[str, tuple[Any, bool]]:
    """(resolved annotation, required) of each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is dataclasses.MISSING
                 and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    }


def to_json(obj):
    """JSON form of a dataclass: nested dataclasses as objects, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {name: to_json(getattr(obj, name)) for name in _json_fields(type(obj))}
    if isinstance(obj, tuple):
        return [to_json(value) for value in obj]
    return obj


def from_json(cls, doc, where: str = ""):
    """Build dataclass `cls` from a JSON object, checking every value's type.

    Unknown keys are a ValueError and wrongly typed values a TypeError, each
    naming the key below `where`; a missing key takes the field's default or
    raises KeyError(name).  A NaN or infinite float, which JSON as Python
    reads it allows, and values that `cls` itself rejects are a ValueError
    too.  Numbers are kept as given, so an int in a float field stays an
    int.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{where or cls.__name__} must be an object, got {doc!r}")
    fields = _json_fields(cls)
    unknown = sorted(where + key for key in doc.keys() - fields.keys())
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    kwargs = {}
    for name, (kind, required) in fields.items():
        if name in doc:
            kwargs[name] = _decode(kind, doc[name], where + name)
        elif required:
            raise KeyError(where + name)
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ValueError(f"{where[:-1]}: {exc}" if where else str(exc)) from None


def _decode(kind, value, key: str):
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value, key + ".")
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        variadic = items[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or (
                not variadic and len(value) != len(items)):
            size = "" if variadic else f" of {len(items)} values"
            raise TypeError(f"{key} must be a list{size}, got {value!r}")
        if variadic:
            items = items[:1] * len(value)
        return tuple(_decode(item, v, f"{key}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _fmt(x) -> str:
    """Shortest round-trip text of a float; every CSV artifact uses it."""
    return repr(float(x))


def _write_chunks(path, chunks) -> None:
    """Write each chunk of text to `path` as it is produced, so no artifact
    is held whole in memory; an OSError is raised again naming the file."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def write_json(doc: dict, path) -> None:
    """Write `doc` as sorted JSON indented by 2, ending in a newline."""
    _write_chunks(path, [json.dumps(doc, indent=2, sort_keys=True), "\n"])


def read_document(path, schema: str, read, hint: str = ""):
    """`read(doc)` of the JSON object at `path`, its schema checked and dropped.

    A file that cannot be read as UTF-8 JSON, a wrong schema, and a missing
    key or a bad value that `read` raises as KeyError, TypeError or
    ValueError, are each a ConfigurationError naming the file and ending in
    `hint`, the rerun that rewrites it if any.
    """
    hint = f" {hint}" if hint else ""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path} as UTF-8 JSON: {exc}{hint}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} is not a JSON object{hint}")
    if doc.get("schema") != schema:
        raise ConfigurationError(
            f"{path} has schema {doc.get('schema')!r}, expected {schema!r}{hint}"
        )
    try:
        return read({key: value for key, value in doc.items() if key != "schema"})
    except KeyError as exc:
        raise ConfigurationError(f"{path} has no {exc.args[0]!r}{hint}")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: bad value ({exc}){hint}")


class _JsonDocument:
    """A dataclass kept as one JSON document: its fields plus "schema": SCHEMA.
    A bad file's error ends in HINT, the rerun that rewrites it if any."""

    SCHEMA = ""
    HINT = ""

    def to_dict(self) -> dict:
        return {"schema": self.SCHEMA, **to_json(self)}

    def save(self, path) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path):
        return read_document(path, cls.SCHEMA, lambda doc: from_json(cls, doc),
                             cls.HINT)


@dataclass(frozen=True)
class ExperimentConfig(_JsonDocument):
    """Top-level config: one object drives train, profile, run, and eval."""

    SCHEMA = CONFIG_SCHEMA

    master_seed: int = 0
    gnss: GnssConfig = field(default_factory=GnssConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        _check_seed("master_seed", self.master_seed)
        if self.detectors.calibrate_tau and self.eval.profile_episodes < 3:
            # each held-out stream is scored on a profile of the others
            raise ConfigurationError(
                "eval.profile_episodes must be >= 3 when detectors.calibrate_tau"
                f" is true (leave-one-out tau calibration), got"
                f" {self.eval.profile_episodes}")


def load_config(path) -> ExperimentConfig:
    """`ExperimentConfig.load`, under the name perfbench/worker.py imports."""
    return ExperimentConfig.load(path)


def canonical_json(doc: dict) -> str:
    """Canonical serialization used for hashing: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(canonical_json(cfg.to_dict()).encode("utf-8"))
    return digest.hexdigest()
