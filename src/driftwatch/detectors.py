"""Online detectors over the critic value stream, plus an exhaustive oracle.

The main detector maintains a run-length posterior with a constant hazard
and a known-variance Gaussian predictive.  Its prior is the same-age
nominal value model (`AgeProfile`): at each decision index t the recursion
sees the value's deviation from the mean nominal value at the same age,
each segment has an unknown level with a Gaussian prior centred on that
mean, and its observations scatter around the level with a variance that
scales with the same-age spread.  Baselines: a one-sided Page-Hinkley test
scaled by the pooled profile (`NominalProfile`), pseudorange-residual
thresholding with a kinematic jump gate, and a fixed-window autoencoder
scored by reconstruction error.
"""

from __future__ import annotations

import json
import math
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    CorruptCheckpointError,
    InsufficientDataError,
)
from .gnss import PvtSolution
from .nets import Adam, Mlp

PROFILE_SCHEMA = "driftwatch-profile-v1"
AGE_PROFILE_SCHEMA = "driftwatch-age-profile-v1"
AE_SCHEMA = "driftwatch-ae-v1"

# Variance floor keeps predictives proper on near-constant nominal streams.
_VAR_FLOOR_SCALE = 1e-6
_UNDERFLOW_LIMIT = 1e-300


class _JsonDocument:
    """Saves and loads through to_dict/from_dict as sorted, indented JSON."""

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """Read a saved document; a missing or malformed file is a ConfigurationError."""
        rerun = "(rerun `driftwatch profile`)"
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read {path}: {exc} {rerun}")
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path} is not a JSON object {rerun}")
        try:
            return cls.from_dict(doc)
        except KeyError as exc:
            raise ConfigurationError(f"{path} has no {exc.args[0]!r} {rerun}")
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: bad value ({exc}) {rerun}")


@dataclass(frozen=True)
class NominalProfile(_JsonDocument):
    """Pooled attack-free value statistics, one mean for every age.

    Saved as `profile.json`; Page-Hinkley's drift and threshold scale with
    its sigma0.
    """

    mu0: float
    sigma0_sq: float
    n_samples: int
    source_episodes: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.sigma0_sq > 0:
            raise ConfigurationError("sigma0_sq must be > 0")
        if self.n_samples < 100:
            raise ConfigurationError("profile needs n_samples >= 100")

    @property
    def sigma0(self) -> float:
        return float(np.sqrt(self.sigma0_sq))

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "mu0": self.mu0,
            "sigma0_sq": self.sigma0_sq,
            "n_samples": self.n_samples,
            "source_episodes": list(self.source_episodes),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NominalProfile":
        if doc.get("schema") != PROFILE_SCHEMA:
            raise ConfigurationError(
                f"unexpected profile schema: {doc.get('schema')!r}"
            )
        return cls(
            mu0=float(doc["mu0"]),
            sigma0_sq=float(doc["sigma0_sq"]),
            n_samples=int(doc["n_samples"]),
            source_episodes=tuple(int(e) for e in doc.get("source_episodes", ())),
        )


@dataclass(frozen=True)
class AgeProfile(_JsonDocument):
    """Same-age nominal value statistics: the changepoint detector's prior.

    Age is the decision-point index within an episode.  `means[t]` and
    `variances[t]` are the mean and population variance of the attack-free
    values at age t, over the profile episodes still running there.  The
    horizon is the number of ages covered; past it the last age's
    statistics are held, so a flight that outlasts the profile is compared
    with the oldest healthy flights seen.

    The recursion sees q - means[t].  A segment's level has prior variance
    `level_var`, the pooled variance of those deviations.  Observations
    scatter around the level with variance variances[t] * noise_var /
    level_var: the within-episode share of the same-age spread.
    """

    means: tuple[float, ...]
    variances: tuple[float, ...]
    noise_var: float
    level_var: float
    n_samples: int
    source_episodes: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.means) < 1 or len(self.means) != len(self.variances):
            raise ConfigurationError(
                "age profile needs equal-length, non-empty means and variances"
            )
        stats = np.array(self.means + self.variances)
        if not np.all(np.isfinite(stats)):
            raise ConfigurationError("age profile statistics must be finite")
        if min(self.variances) <= 0:
            raise ConfigurationError("age profile variances must be > 0")
        if not (self.noise_var > 0 and self.level_var > 0):
            raise ConfigurationError("noise_var and level_var must be > 0")

    @property
    def horizon(self) -> int:
        return len(self.means)

    @property
    def prior_count(self) -> float:
        """Noise variance over level-prior variance."""
        return self.noise_var / self.level_var

    def observation(self, t: int, q: float) -> tuple[float, float]:
        """Deviation from the same-age mean and its relative noise variance."""
        i = min(t, len(self.means) - 1)
        return q - self.means[i], self.variances[i] / self.level_var

    def to_dict(self) -> dict:
        return {
            "schema": AGE_PROFILE_SCHEMA,
            "means": list(self.means),
            "variances": list(self.variances),
            "noise_var": self.noise_var,
            "level_var": self.level_var,
            "n_samples": self.n_samples,
            "source_episodes": list(self.source_episodes),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AgeProfile":
        if doc.get("schema") != AGE_PROFILE_SCHEMA:
            raise ConfigurationError(
                f"unexpected age profile schema: {doc.get('schema')!r}"
            )
        return cls(
            means=tuple(float(x) for x in doc["means"]),
            variances=tuple(float(x) for x in doc["variances"]),
            noise_var=float(doc["noise_var"]),
            level_var=float(doc["level_var"]),
            n_samples=int(doc["n_samples"]),
            source_episodes=tuple(int(e) for e in doc.get("source_episodes", ())),
        )


def fit_nominal_profile(
    nominal_q_streams, source_episodes: tuple[int, ...] = ()
) -> NominalProfile:
    """Pooled mean and population variance over attack-free value streams.

    One mean and one variance for every age.  Page-Hinkley's drift and
    threshold scale with this sigma0.  The changepoint detector's prior is
    `fit_age_profile`, because the value climbs steadily through a healthy
    flight and the pooled variance mostly measures that climb.
    """
    streams = [np.asarray(s, dtype=float) for s in nominal_q_streams]
    if any(s.ndim != 1 for s in streams):
        raise ConfigurationError("each stream must be one-dimensional")
    pooled = np.concatenate(streams) if streams else np.array([])
    if pooled.size < 100:
        raise InsufficientDataError(
            f"need >= 100 nominal samples, got {pooled.size}"
        )
    if not np.all(np.isfinite(pooled)):
        raise ConfigurationError("nominal streams contain non-finite values")
    mu0 = float(pooled.mean())
    var = float(pooled.var())
    floored = max(var, _VAR_FLOOR_SCALE * (1.0 + mu0 * mu0))
    return NominalProfile(
        mu0=mu0,
        sigma0_sq=floored,
        n_samples=int(pooled.size),
        source_episodes=tuple(source_episodes),
    )


def fit_age_profile(
    nominal_q_streams, source_episodes: tuple[int, ...] = ()
) -> AgeProfile:
    """Per-age value statistics over attack-free value streams.

    Ages run up to the horizon: the last age at which at least half of the
    streams (and at least two) are still running.  Deviations from the
    same-age mean below the horizon split into a between-episode part B
    (each stream's mean deviation) and a within-episode part W; their sum
    is the level prior variance and W the noise variance.  Variances are
    floored like the pooled profile's.
    """
    streams = [np.asarray(s, dtype=float) for s in nominal_q_streams]
    if any(s.ndim != 1 for s in streams):
        raise ConfigurationError("each stream must be one-dimensional")
    if not all(np.all(np.isfinite(s)) for s in streams):
        raise ConfigurationError("nominal streams contain non-finite values")
    lengths = sorted((s.size for s in streams), reverse=True)
    need = max(2, -(-len(streams) // 2))
    horizon = lengths[need - 1] if len(streams) >= need else 0
    if horizon < 1:
        raise InsufficientDataError(
            f"age profile needs >= {need} streams running at age 0, "
            f"got lengths {lengths}"
        )
    table = np.full((len(streams), horizon), np.nan)
    for row, s in zip(table, streams):
        row[:min(s.size, horizon)] = s[:horizon]
    means = np.nanmean(table, axis=0)
    dev = table - means
    floor = _VAR_FLOOR_SCALE * (1.0 + float(np.max(means * means)))
    variances = np.maximum(np.nanmean(dev * dev, axis=0), floor)
    seen = ~np.isnan(dev)
    counts = seen.sum(axis=1)
    offsets = np.nansum(dev, axis=1) / np.maximum(counts, 1)
    within = np.where(seen, dev - offsets[:, None], 0.0)
    n = int(counts.sum())
    noise_var = float(np.sum(within * within)) / n
    between = float(np.sum(counts * offsets * offsets)) / n
    return AgeProfile(
        means=tuple(float(x) for x in means),
        variances=tuple(float(x) for x in variances),
        noise_var=max(noise_var, floor),
        level_var=max(noise_var + between, floor),
        n_samples=int(sum(lengths)),
        source_episodes=tuple(source_episodes),
    )


def _gauss_pdf(x: float, mean: float, var: float) -> float:
    return float(np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var))


@dataclass
class BocpdState:
    """Run-length posteriors of B streams at the same age, one row each.

    Each row carries its own sparse support, pruned and compacted to the
    left: row b holds `size[b]` run lengths, ascending, and the (B, S)
    arrays are padded past them with zero weight.  Each row also carries
    its own prior, padded to the longest horizon by holding the last age.
    `t` counts observations so far, which is also the age of the next one.
    `underflow_resets` counts resets over every row.
    """

    run_lengths: np.ndarray  # (B, S) int
    weights: np.ndarray  # (B, S) posterior over run_lengths, normalized per row
    seg_means: np.ndarray  # (B, S) posterior mean of each segment's level
    seg_counts: np.ndarray  # (B, S) level precision in units of 1 / noise variance
    size: np.ndarray  # (B,) support size of each row
    age_means: np.ndarray  # (B, H) same-age mean of each row's prior
    age_vars: np.ndarray  # (B, H) relative noise variance: variances / level_var
    noise_var: np.ndarray  # (B,)
    prior_count: np.ndarray  # (B,)
    hazard: float
    t: int = 0
    underflow_resets: int = 0


def bocpd_init(priors, hazard: float) -> BocpdState:
    """Fresh posteriors, one row per prior in `priors` (AgeProfiles)."""
    if not 0.0 < hazard < 1.0:
        raise ConfigurationError(f"hazard must be in (0,1), got {hazard}")
    priors = list(priors)
    if not priors:
        raise ConfigurationError("bocpd_init needs at least one prior")
    horizon = max(p.horizon for p in priors)

    def held(values):
        return values + values[-1:] * (horizon - len(values))

    level_var = np.array([p.level_var for p in priors])
    prior_count = np.array([p.prior_count for p in priors])
    rows = len(priors)
    return BocpdState(
        run_lengths=np.zeros((rows, 1), dtype=int),
        weights=np.ones((rows, 1)),
        seg_means=np.zeros((rows, 1)),
        seg_counts=prior_count[:, None].copy(),
        size=np.ones(rows, dtype=int),
        age_means=np.array([held(p.means) for p in priors]),
        age_vars=np.array([held(p.variances) for p in priors]) / level_var[:, None],
        noise_var=np.array([p.noise_var for p in priors]),
        prior_count=prior_count,
        hazard=hazard,
    )


def bocpd_update(
    state: BocpdState, q: np.ndarray, prune: float = 1e-8
) -> tuple[BocpdState, np.ndarray]:
    """Advance every running row by one value; returns their argmax run lengths.

    `q` holds the value at age state.t of each of the first q.size rows;
    rows past q.size have ended and are dropped.  Each row's same-age prior
    turns its value into a deviation x from the same-age mean, with
    relative noise variance w.  Growth weights get the (1-H) branch, the
    changepoint entry pools the H branch across all of the row's segments;
    the new segment starts at level 0 (the same-age mean) with the prior's
    count and does not absorb x until it grows.  A row whose posterior
    underflows resets to the prior, with a warning.  Pruning drops run
    lengths below `prune` (never a row's argmax) and compacts each row to
    the left.

    Every operation is elementwise except the sums over a row's support,
    which the padding of the other rows regroups: a row agrees with the
    same stream scored alone to round-off, and bit for bit when B is 1.
    """
    rows = q.size
    row_index = np.arange(rows)
    h = state.hazard
    age = min(state.t, state.age_means.shape[1] - 1)
    x = q - state.age_means[:rows, age]
    w = state.age_vars[:rows, age]
    prior_count = state.prior_count[:rows]
    old_weights = state.weights[:rows]
    old_means = state.seg_means[:rows]
    old_counts = state.seg_counts[:rows]
    pred_var = state.noise_var[:rows, None] * (w[:, None] + 1.0 / old_counts)
    d = x[:, None] - old_means
    pred = np.exp(-0.5 * (d * d) / pred_var) / np.sqrt(2.0 * np.pi * pred_var)

    # column 0 is the changepoint, column 1 + i the growth of state column i
    n = old_means.shape[1] + 1
    unnormalized = np.empty((rows, n))
    np.multiply(old_weights * (1.0 - h), pred, out=unnormalized[:, 1:])
    np.add.reduce(old_weights * h * pred, axis=1, out=unnormalized[:, 0])
    size = state.size[:rows] + 1

    # max < limit is all(... < limit), NaN included: neither resets.
    underflow = unnormalized.max(axis=1) < _UNDERFLOW_LIMIT
    resets = int(np.count_nonzero(underflow))
    if resets:
        warnings.warn(
            f"run-length posterior underflowed in {resets} of {rows} rows; "
            "resetting them to the prior",
            RuntimeWarning,
            stacklevel=2,
        )
        unnormalized[underflow] = 0.0
        unnormalized[underflow, 0] = 1.0
        size[underflow] = 1

    run_lengths = np.empty((rows, n), dtype=int)
    run_lengths[:, 0] = 0
    np.add(state.run_lengths[:rows], 1, out=run_lengths[:, 1:])
    seg_counts = np.empty((rows, n))
    seg_counts[:, 0] = prior_count
    np.add(old_counts, (1.0 / w)[:, None], out=seg_counts[:, 1:])
    seg_means = np.empty((rows, n))
    seg_means[:, 0] = 0.0
    np.divide(old_means * old_counts + (x / w)[:, None], seg_counts[:, 1:],
              out=seg_means[:, 1:])
    weights = unnormalized / np.add.reduce(unnormalized, axis=1, keepdims=True)

    if prune > 0.0:
        keep = weights >= prune
        keep[row_index, weights.argmax(axis=1)] = True
        size = np.count_nonzero(keep, axis=1)
        width = int(size.max())
        # flat source index of each kept entry, and where it lands: its
        # rank among the kept entries of its row, in a row of `width`
        source = np.flatnonzero(keep)
        target = np.arange(source.size) + np.repeat(
            np.arange(0, rows * width, width) - (np.cumsum(size) - size), size)

        def compact(values, fill):
            out = np.full(rows * width, fill, dtype=values.dtype)
            out[target] = values.ravel()[source]
            return out.reshape(rows, width)

        run_lengths = compact(run_lengths, 0)
        seg_means = compact(seg_means, 0.0)
        seg_counts = compact(seg_counts, 1.0)
        weights = compact(weights, 0.0)
        weights /= np.add.reduce(weights, axis=1, keepdims=True)
    else:
        width = size.max()
        run_lengths = run_lengths[:, :width]
        seg_means = seg_means[:, :width]
        seg_counts = seg_counts[:, :width]
        weights = weights[:, :width]

    new_state = BocpdState(
        run_lengths=run_lengths,
        weights=weights,
        seg_means=seg_means,
        seg_counts=seg_counts,
        size=size,
        age_means=state.age_means[:rows],
        age_vars=state.age_vars[:rows],
        noise_var=state.noise_var[:rows],
        prior_count=prior_count,
        hazard=h,
        t=state.t + 1,
        underflow_resets=state.underflow_resets + resets,
    )
    l_hat = run_lengths[row_index, weights.argmax(axis=1)]
    return new_state, l_hat


def bocpd_flag(l_hat, t, tau: int, warmup: int):
    """(flags, statistics): a short argmax run length after the warmup flags.

    `l_hat` and the age count `t` may be arrays of equal shape.
    """
    return (t > warmup) & (l_hat <= tau), np.asarray(l_hat, dtype=float)


def bocpd_posterior_dense(state: BocpdState) -> np.ndarray:
    """Posteriors as a dense (B, t+1) array over run lengths 0..t (testing helper)."""
    dense = np.zeros((state.size.size, state.t + 1))
    for row, n in enumerate(state.size.tolist()):
        dense[row, state.run_lengths[row, :n]] = state.weights[row, :n]
    return dense


def bocpd_oracle(q_stream, profile: AgeProfile,
                 hazard: float, max_len: int = 64) -> list[np.ndarray]:
    """Run-length posteriors computed by direct summation, for validation.

    For every step, each possible last-changepoint time contributes the
    product of its segment's predictive densities, recomputed from the raw
    data with no carried state.  Shared sufficient statistics collapse the
    exponential number of changepoint placements to O(T^2) segment terms.
    O(T^3) time, so the length is capped.  Observation k is taken at age
    k, whichever segment it falls in.
    """
    q = [float(x) for x in q_stream]
    t_max = len(q)
    if t_max > max_len:
        raise ConfigurationError(
            f"oracle supports streams up to {max_len}, got {t_max}"
        )
    if not 0.0 < hazard < 1.0:
        raise ConfigurationError(f"hazard must be in (0,1), got {hazard}")
    s2, h = profile.noise_var, hazard
    obs = [profile.observation(k, x) for k, x in enumerate(q)]

    def segment_product(start: int, end: int) -> float:
        """Product of predictives for q[start:end] as one fresh segment."""
        prod = 1.0
        mean, count = 0.0, profile.prior_count
        for x, w in obs[start:end]:
            prod *= _gauss_pdf(x, mean, s2 * (w + 1.0 / count))
            mean = (mean * count + x / w) / (count + 1.0 / w)
            count += 1.0 / w
        return prod

    # cp_weight[s]: unnormalized weight of being freshly reset after s steps
    cp_weight = np.zeros(t_max + 1)
    cp_weight[0] = 1.0
    for s in range(1, t_max + 1):
        total = 0.0
        for s0 in range(s):
            total += (cp_weight[s0] * (1.0 - h) ** (s - 1 - s0)
                      * segment_product(s0, s))
        cp_weight[s] = h * total

    posteriors = []
    for s in range(1, t_max + 1):
        joint = np.zeros(s + 1)
        joint[0] = cp_weight[s]
        for l in range(1, s + 1):
            joint[l] = (cp_weight[s - l] * (1.0 - h) ** l
                        * segment_product(s - l, s))
        posteriors.append(joint / joint.sum())
    return posteriors


def calibrate_tau(
    l_hat_streams,
    warmup: int,
    fp_budget: float = 0.05,
    tau_grid=range(1, 13),
) -> tuple[int, float]:
    """Largest flag threshold whose nominal false-flag episode rate fits budget.

    Streams are per-episode argmax run-length sequences from attack-free
    runs; an episode counts as a false positive when any post-warmup step
    would flag.  Returns (tau, achieved rate).
    """
    streams = [np.asarray(s) for s in l_hat_streams]
    if not streams:
        raise InsufficientDataError("tau calibration needs at least one stream")
    rates = []
    for tau in sorted(tau_grid):
        fp = sum(
            bool(np.any((np.arange(1, len(s) + 1) > warmup) & (s <= tau)))
            for s in streams
        )
        rates.append((int(tau), fp / len(streams)))
    fitting = [r for r in rates if r[1] <= fp_budget]
    return fitting[-1] if fitting else rates[0]


class PageHinkley:
    """One-sided (downward) Page-Hinkley tests over `rows` streams in lockstep."""

    def __init__(self, delta: float, lam: float, rows: int = 1):
        if delta < 0 or lam <= 0:
            raise ConfigurationError("delta must be >= 0 and lambda > 0")
        self.delta = delta
        self.lam = lam
        self.n = 0
        self.mean = np.zeros(rows)
        self.m = np.zeros(rows)
        self.m_min = np.zeros(rows)

    def update(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flags, statistics) after one value for each of the first x.size rows.

        Rows past x.size have ended and keep their last state.  The
        statistic is PH's excursion.
        """
        rows = x.size
        mean, m, m_min = self.mean[:rows], self.m[:rows], self.m_min[:rows]
        self.n += 1
        mean += (x - mean) / self.n
        m += mean - x - self.delta
        np.minimum(m_min, m, out=m_min)
        ph = m - m_min
        return ph > self.lam, ph


class ResidualThreshold:
    """Residual-norm test plus a kinematic jump gate on the implied position."""

    def __init__(self, k_sigma: float, noise_sigma: float, jump_gate: float):
        if k_sigma <= 0 or noise_sigma < 0 or jump_gate <= 0:
            raise ConfigurationError("invalid residual detector parameters")
        # absolute floor so zero-noise configs do not flag solver round-off
        self.threshold = max(k_sigma * noise_sigma, 1e-6)
        self.jump_gate = jump_gate

    @staticmethod
    def statistic(pvt: PvtSolution) -> float:
        """RMS pseudorange residual of one fix: the test's statistic."""
        return pvt.final_residual_norm / math.sqrt(len(pvt.residuals))

    def score(
        self, positions: np.ndarray, rms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(flags, statistics) of an episode's fixes, from their (n, 3)
        positions and (n,) RMS residuals.

        The test keeps no state but the previous position, so it scores the
        whole episode at once.  The first fix has no jump reference.
        """
        step = np.diff(positions, axis=0)
        jump = np.zeros(len(rms))
        jump[1:] = np.sqrt(np.add.reduce(step * step, axis=1))  # np.linalg.norm's
        return (rms > self.threshold) | (jump > self.jump_gate), rms


@dataclass
class WindowAutoencoder:
    """Fixed-window reconstruction model with a frozen flag threshold."""

    net: Mlp
    window: int
    mean: float
    std: float
    threshold: float

    def save(self, path) -> None:
        arrays = {
            "schema": np.array(AE_SCHEMA),
            "window": np.array(self.window),
            "mean": np.array(self.mean),
            "std": np.array(self.std),
            "threshold": np.array(self.threshold),
            "sizes": np.array(self.net.layer_sizes),
            "acts": np.array(self.net.activations),
            **self.net.to_arrays(),
        }
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "WindowAutoencoder":
        try:
            data = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise CorruptCheckpointError(f"cannot read AE model {path}: {exc}")
        try:
            if "schema" not in data or str(data["schema"]) != AE_SCHEMA:
                raise CorruptCheckpointError(f"not a {AE_SCHEMA} file: {path}")
            return cls(
                net=Mlp.from_arrays(data, data["sizes"], data["acts"]),
                window=int(data["window"]),
                mean=float(data["mean"]),
                std=float(data["std"]),
                threshold=float(data["threshold"]),
            )
        except KeyError as exc:
            raise CorruptCheckpointError(f"AE model {path} is missing {exc}")
        finally:
            data.close()


def window_ae_train(
    nominal_q_streams,
    window: int = 32,
    bottleneck: int = 4,
    hidden: int = 16,
    epochs: int = 200,
    lr: float = 1e-3,
    threshold_stds: float = 3.0,
    seed: int = 0,
) -> tuple[WindowAutoencoder, list[float]]:
    """Train the reconstruction model on nominal sliding windows.

    Full-batch Adam on standardized windows; the flag threshold freezes at
    mean + threshold_stds * std of the training reconstruction errors.
    Returns the model and the per-epoch loss curve.
    """
    streams = [np.asarray(s, dtype=float) for s in nominal_q_streams]
    windows = [sliding_window_view(s, window) for s in streams if len(s) >= window]
    count = sum(len(w) for w in windows)
    if count < 500:
        raise InsufficientDataError(f"need >= 500 training windows, got {count}")
    x_raw = np.concatenate(windows)
    mu = float(x_raw.mean())
    sd = float(max(x_raw.std(), 1e-6))
    x = (x_raw - mu) / sd

    rng = np.random.default_rng(seed)
    net = Mlp(
        [window, hidden, bottleneck, hidden, window],
        ["relu", "linear", "relu", "linear"],
        rng,
    )
    opt = Adam(net.flat, lr)
    curve = []
    for _ in range(epochs):
        recon = net.forward(x)
        err = recon - x
        curve.append(float(np.mean(err**2)))
        _, grad = net.backward(2.0 * err / err.size, input_grad=False)
        opt.step(grad)

    recon = net.forward(x)
    per_window = np.mean((recon - x) ** 2, axis=1)
    threshold = float(per_window.mean() + threshold_stds * per_window.std())
    model = WindowAutoencoder(net=net, window=window, mean=mu, std=sd,
                              threshold=threshold)
    return model, curve


def window_ae_score(
    model: WindowAutoencoder, values
) -> tuple[np.ndarray, np.ndarray]:
    """(flags, reconstruction errors) of every trailing window of a stream.

    Entry i scores values[i - window + 1 : i + 1]; all full windows go
    through one AE forward.  While the first window fills, the error is
    NaN and there is no flag.
    """
    vals = np.asarray(values, dtype=float)
    errors = np.full(vals.size, np.nan)
    if vals.size >= model.window:
        x = (sliding_window_view(vals, model.window) - model.mean) / model.std
        d = model.net.forward(x, cache=False) - x
        # per-row np.mean: pairwise sum over each window, then divide
        errors[model.window - 1:] = np.add.reduce(d * d, axis=1) / model.window
    return errors > model.threshold, errors
