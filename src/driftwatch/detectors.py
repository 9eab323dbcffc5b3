"""Online detectors over the critic value stream.

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

Each baseline is a function of one episode's record that returns (flags,
statistics).  Only the run-length posterior keeps rows, so that a stage's
streams can step through their ages together (`bocpd_update`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import (DetectorConfig, _at_least, _JsonDocument, _positive,
                     _within, check_bounds)
from .errors import ConfigurationError, InsufficientDataError
from .gnss import PvtSolution
from .nets import Adam, Mlp, load_npz, save_npz

PROFILE_SCHEMA = "driftwatch-profile-v1"
AGE_PROFILE_SCHEMA = "driftwatch-age-profile-v1"
AE_SCHEMA = "driftwatch-ae-v1"

# Variance floor keeps predictives proper on near-constant nominal streams.
_VAR_FLOOR_SCALE = 1e-6
_UNDERFLOW_LIMIT = 1e-300
# A pooled profile is fitted from, and holds, at least this many values.
_MIN_PROFILE_SAMPLES = 100

# tau calibration: the nominal false-flag episode rate allowed, and the
# run-length thresholds tried
_FP_BUDGET = 0.05
_TAU_GRID = range(1, 13)


RERUN_PROFILE = "(rerun `driftwatch profile`)"


@dataclass(frozen=True)
class NominalProfile(_JsonDocument):
    """Pooled attack-free value statistics, one mean for every age.

    Saved as `profile.json`; Page-Hinkley's drift and threshold scale with
    its sigma0.
    """

    SCHEMA = PROFILE_SCHEMA
    HINT = RERUN_PROFILE

    mu0: float
    sigma0_sq: float
    n_samples: int
    source_episodes: tuple[int, ...] = ()

    def __post_init__(self):
        _positive("sigma0_sq", self.sigma0_sq)
        _at_least("n_samples", self.n_samples, _MIN_PROFILE_SAMPLES)

    @property
    def sigma0(self) -> float:
        return float(np.sqrt(self.sigma0_sq))


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

    SCHEMA = AGE_PROFILE_SCHEMA
    HINT = RERUN_PROFILE

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


def _nominal_streams(nominal_q_streams) -> list[np.ndarray]:
    """The attack-free value streams as float arrays, each 1-D and finite."""
    streams = [np.asarray(s, dtype=float) for s in nominal_q_streams]
    if any(s.ndim != 1 for s in streams):
        raise ConfigurationError("each stream must be one-dimensional")
    if not all(np.isfinite(s).all() for s in streams):
        raise ConfigurationError("nominal streams contain non-finite values")
    return streams


def fit_nominal_profile(
    nominal_q_streams, source_episodes: tuple[int, ...] = ()
) -> NominalProfile:
    """Pooled mean and population variance over attack-free value streams.

    One mean and one variance for every age.  Page-Hinkley's drift and
    threshold scale with this sigma0.  The changepoint detector's prior is
    `fit_age_profile`, because the value climbs steadily through a healthy
    flight and the pooled variance mostly measures that climb.
    """
    streams = _nominal_streams(nominal_q_streams)
    pooled = np.concatenate(streams) if streams else np.array([])
    if pooled.size < _MIN_PROFILE_SAMPLES:
        raise InsufficientDataError(
            f"need >= {_MIN_PROFILE_SAMPLES} nominal samples, got {pooled.size}"
        )
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
    streams = _nominal_streams(nominal_q_streams)
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
    check_bounds(hazard=hazard)
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


def _joint(weights, means, counts, x, w, noise_var, h) -> np.ndarray:
    """(rows, 1 + support) joint weights of each run length and the value.

    Column 0 is the changepoint, column 1 + i the growth of state column i.
    The Gaussian predictive of value x under segment i is
    exp(-0.5 d^2 / v) / sqrt(2 pi v), with d = x - means[i] and variance
    v = noise_var (w + 1 / counts[i]).  Its (rows, support) temporaries are
    worked on in place, each operation on the operands the textbook
    expression gives it (IEEE * and + commute), and freed on return.
    """
    pred_var = np.divide(1.0, counts)
    pred_var += w[:, None]
    pred_var *= noise_var[:, None]
    pred = np.subtract(x[:, None], means)
    pred *= pred
    pred *= -0.5
    pred /= pred_var
    np.exp(pred, out=pred)
    pred_var *= 2.0 * np.pi
    np.sqrt(pred_var, out=pred_var)
    pred /= pred_var

    joint = np.empty((len(x), means.shape[1] + 1))
    growth = np.multiply(weights, 1.0 - h, out=joint[:, 1:])
    growth *= pred
    changepoint = np.multiply(weights, h, out=pred_var)
    changepoint *= pred
    np.add.reduce(changepoint, axis=1, out=joint[:, 0])
    return joint


def bocpd_update(
    state: BocpdState, q: np.ndarray, prune: float
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
    old_means = state.seg_means[:rows]
    old_counts = state.seg_counts[:rows]
    unnormalized = _joint(state.weights[:rows], old_means, old_counts, x, w,
                          state.noise_var[:rows], h)
    n = unnormalized.shape[1]
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
    grown = np.multiply(old_means, old_counts, out=seg_means[:, 1:])
    grown += (x / w)[:, None]
    grown /= seg_counts[:, 1:]
    weights = unnormalized
    weights /= np.add.reduce(unnormalized, axis=1, keepdims=True)

    if prune > 0.0:
        keep = weights >= prune
        keep[row_index, weights.argmax(axis=1)] = True
        size = np.count_nonzero(keep, axis=1)
        # boolean indexing runs in row-major order, so each row's kept
        # entries land in its first `size` slots, in order
        slots = np.arange(size.max()) < size[:, None]

        def compact(values, fill):
            out = np.full(slots.shape, fill, dtype=values.dtype)
            out[slots] = values[keep]
            return out

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


def calibrate_tau(l_hat_streams, warmup: int) -> tuple[int, float]:
    """Largest flag threshold in _TAU_GRID whose nominal false-flag episode
    rate fits _FP_BUDGET, or the smallest when none does.

    Streams are per-episode argmax run-length sequences from attack-free
    runs; an episode counts as a false positive when `bocpd_flag` would
    flag any of its steps.  Returns (tau, achieved rate).
    """
    streams = [np.asarray(s) for s in l_hat_streams]
    if not streams:
        raise InsufficientDataError("tau calibration needs at least one stream")
    rates = []
    for tau in _TAU_GRID:
        fp = sum(
            bool(bocpd_flag(s, np.arange(1, len(s) + 1), tau, warmup)[0].any())
            for s in streams
        )
        rates.append((tau, fp / len(streams)))
    fitting = [r for r in rates if r[1] <= _FP_BUDGET]
    return fitting[-1] if fitting else rates[0]


def page_hinkley(values, delta: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(flags, statistics) of a one-sided (downward) Page-Hinkley test over
    one stream; the statistic is PH's excursion, flagged past `lam`.

    The recursion runs on Python floats, the same IEEE arithmetic as a
    float64 array's.  A NaN value leaves the statistic NaN from there on.
    """
    ph = np.empty(len(values))
    mean = m = m_min = 0.0
    for n, x in enumerate(np.asarray(values, dtype=float).tolist(), start=1):
        mean += (x - mean) / n
        m += mean - x - delta
        m_min = min(m_min, m)
        ph[n - 1] = m - m_min
    return ph > lam, ph


def fix_rms(pvt: PvtSolution) -> float:
    """RMS pseudorange residual of one fix: the residual test's statistic."""
    return pvt.final_residual_norm / math.sqrt(len(pvt.residuals))


def residual_score(
    positions: np.ndarray, rms: np.ndarray, threshold: float,
    jump_gate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(flags, statistics) of the residual-norm test plus a kinematic jump
    gate over an episode's fixes, from their (n, 3) positions and (n,) RMS
    residuals: an RMS above `threshold` or a jump above `jump_gate` flags.

    The test keeps no state but the previous position, so it scores the
    whole episode at once.  The first fix has no jump reference.
    """
    step = np.diff(positions, axis=0)
    jump = np.zeros(len(rms))
    jump[1:] = np.sqrt(np.add.reduce(step * step, axis=1))  # np.linalg.norm's
    return (rms > threshold) | (jump > jump_gate), rms


@dataclass
class WindowAutoencoder:
    """Fixed-window reconstruction model with a frozen flag threshold."""

    net: Mlp
    window: int
    mean: float
    std: float
    threshold: float

    def save(self, path) -> None:
        header = {"window": self.window, "mean": self.mean, "std": self.std,
                  "threshold": self.threshold, "sizes": self.net.layer_sizes,
                  "acts": self.net.activations}
        save_npz(path, AE_SCHEMA, header, {"": self.net})

    @classmethod
    def load(cls, path) -> "WindowAutoencoder":
        return load_npz(path, AE_SCHEMA, "AE model", cls._read)

    @classmethod
    def _read(cls, data) -> "WindowAutoencoder":
        net = Mlp.from_arrays(data, data["sizes"], data["acts"])
        window = int(data["window"])
        if net.layer_sizes[0] != window or net.layer_sizes[-1] != window:
            raise ValueError(
                f"window {window} does not match layer sizes {net.layer_sizes}"
            )
        mean, std, threshold = (float(data[k]) for k in ("mean", "std", "threshold"))
        _within("mean", mean, -math.inf, math.inf, "()")
        _within("std", std, 0, math.inf, "()")
        _within("threshold", threshold, 0, math.inf, "[)")  # errors are >= 0
        return cls(net=net, window=window, mean=mean, std=std, threshold=threshold)


def _window_errors(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each standardized window, a row
    of `x`: the fresh reconstruction's error is squared in place, then each
    row is summed pairwise and divided by the window, as np.mean(axis=1)."""
    d = net.forward(x, cache=False)
    d -= x
    np.multiply(d, d, out=d)
    return np.add.reduce(d, axis=1) / x.shape[1]


def window_ae_train(
    nominal_q_streams, cfg: DetectorConfig, seed: int
) -> tuple[WindowAutoencoder, list[float]]:
    """Train the reconstruction model on nominal sliding windows.

    Full-batch Adam on standardized windows, shaped and run by the `ae_*`
    fields of `cfg`; the flag threshold freezes at mean + ae_threshold_stds
    * std of the training reconstruction errors.  Returns the model, whose
    net keeps no training buffers, and the per-epoch loss curve.
    """
    window, hidden = cfg.ae_window, cfg.ae_hidden
    streams = _nominal_streams(nominal_q_streams)
    windows = [sliding_window_view(s, window) for s in streams if len(s) >= window]
    count = sum(len(w) for w in windows)
    if count < 500:
        raise InsufficientDataError(f"need >= 500 training windows, got {count}")
    x = np.concatenate(windows)
    mu = float(x.mean())
    sd = float(max(x.std(), 1e-6))
    x -= mu
    x /= sd

    net = Mlp([window, hidden, cfg.ae_bottleneck, hidden, window],
              ["relu", "linear", "relu", "linear"], np.random.default_rng(seed))
    opt = Adam(net.flat, cfg.ae_lr)
    # err = recon - x, then dL/drecon = 2 err / err.size in place.  The
    # squared error for the loss overwrites the cached reconstruction: the
    # last layer is linear, so `backward` never reads its output.  Same
    # operations as the out-of-place forms, and np.mean is add.reduce / size.
    err = np.empty_like(x)
    curve = []
    for _ in range(cfg.ae_epochs):
        recon = net.forward(x)
        np.subtract(recon, x, out=err)
        np.multiply(err, err, out=recon)
        curve.append(float(np.add.reduce(recon, axis=None) / recon.size))
        err *= 2.0
        err /= err.size
        _, grad = net.backward(err, input_grad=False)
        opt.step(grad)

    del err, recon  # free the training buffers first
    net = net.copy()
    per_window = _window_errors(net, x)
    threshold = float(per_window.mean() + cfg.ae_threshold_stds * per_window.std())
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
        errors[model.window - 1:] = _window_errors(model.net, x)
    return errors > model.threshold, errors
