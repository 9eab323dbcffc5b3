"""Host-speed probe that corrects stage times for a shared, drifting CPU.

On a shared 2-vCPU host the CPU speed drifts by 20-40% over seconds to
minutes, and the drift slows code by an amount that depends on its
instruction mix.  The probe is therefore a frozen copy of the program's
per-step hot path as it stood when this benchmark was written: simulate
pseudoranges, run a Gauss-Newton fix through validated frozen dataclasses,
assemble the observation.  The host slows it as it slows the program, and
program changes never move it, because it imports nothing from driftwatch.

`Sampler` times the probe every PERIOD_S from a SIGALRM interval timer.
Python runs the handler between the program's bytecodes, so sampling
covers every stage without hooking any driftwatch call site.  A traced
chain samples at span starts instead (`attach`), so that no span is cut
by a probe.  `Sampler.seconds` removes the probe's own time from an
interval and scales each stretch between samples by REF_S over the median
of the nearest five probe times.  The result is the interval's length at
the reference host speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
REF_S = 1.3e-3  # probe time on an unloaded reference host

_rng = np.random.default_rng(7)
_dirs = _rng.normal(size=(8, 3))
_dirs[:, 2] = np.abs(_dirs[:, 2]) + 0.3
_SATS = 2.0e7 * _dirs / np.linalg.norm(_dirs, axis=1, keepdims=True)
_TRUTH = np.array([420.0, 515.0, 120.0])
_OBSTACLE = np.array([600.0, 640.0, 130.0])
_GOAL = np.array([980.0, 900.0, 150.0])


@dataclass(frozen=True)
class _Estimate:
    position: np.ndarray
    clock_bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, [self.clock_bias]])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "_Estimate":
        v = np.asarray(v, dtype=float)
        return cls(position=v[:3], clock_bias=float(v[3]))


@dataclass(frozen=True)
class _Fix:
    estimate: _Estimate
    iterations: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class _Observation:
    phi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=float)
        if arr.shape != (9,) or not np.all(np.isfinite(arr)):
            raise ValueError("phi must be a finite 9-vector")
        object.__setattr__(self, "phi", arr)


def _predicted(est: _Estimate) -> np.ndarray:
    return np.linalg.norm(_SATS - est.position, axis=1) + est.clock_bias


def _solve(meas: np.ndarray, est: _Estimate) -> _Fix:
    for iterations in range(1, 21):
        delta = meas - _predicted(est)
        sep = est.position - _SATS
        ranges = np.linalg.norm(sep, axis=1)
        h = np.hstack([sep / ranges[:, None], np.ones((len(_SATS), 1))])
        normal = h.T @ h
        if np.linalg.cond(normal) > 1e12:
            raise ValueError("singular geometry")
        correction = np.linalg.solve(normal, h.T @ delta)
        est = _Estimate.from_vector(est.as_vector() + correction)
        if float(np.linalg.norm(correction)) < 1e-4:
            break
    residual = meas - _predicted(est)
    return _Fix(est, iterations, float(np.linalg.norm(residual)), True)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n >= 1e-12 else np.zeros_like(v)


def probe(rng: np.random.Generator) -> _Observation:
    """Six measure-solve-observe cycles of the frozen hot path."""
    truth = _Estimate(_TRUTH, 30.0)
    for _ in range(6):
        meas = _predicted(truth) + rng.normal(0.0, 2.0, size=len(_SATS))
        fix = _solve(meas, truth)
        est = fix.estimate.position
        rel = _OBSTACLE - est
        obs = _Observation(np.concatenate([
            (np.linalg.norm(rel) - 30.0) * _unit(rel), _GOAL - est, np.ones(3),
        ]))
    return obs


class Sampler:
    """Times the probe while the program runs and rescales intervals."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.last_end = time.perf_counter()
        self.tracer = None

    def sample(self) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe(self.rng)
        end = time.perf_counter()
        if gc_was_enabled:
            gc.enable()
        self.samples.append((start, end - start))
        self.last_end = end
        if self.tracer is not None:
            self.tracer.paused += time.perf_counter() - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last_end >= PERIOD_S:
            self.sample()

    def attach(self, tracer) -> None:
        """Sample at span starts, keeping probe time out of the spans."""
        self.tracer = tracer
        tracer.before_call = self.maybe_sample

    def start(self) -> None:
        """Sample every PERIOD_S of wall time from a SIGALRM timer."""
        busy = False

        def on_alarm(signum, frame):
            nonlocal busy
            if not busy:  # a late alarm must not nest a probe in a probe
                busy = True
                try:
                    self.sample()
                finally:
                    busy = False

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def seconds(self, t0: float, t1: float) -> dict:
        """Interval [t0, t1): probe count, program seconds, and program
        seconds at the reference host speed (unscaled without samples)."""
        inside = [(s, d) for s, d in self.samples if t0 <= s < t1]
        durations = [d for _, d in inside]
        program = (t1 - t0) - sum(durations)
        if not inside:
            return {"cal_n": 0, "program_s": program, "scaled_s": program}
        scaled, prev = 0.0, t0
        for i, (start, duration) in enumerate(inside):
            local = statistics.median(durations[max(0, i - 2):i + 3])
            scaled += (start - prev) * REF_S / local
            prev = start + duration
        scaled += (t1 - prev) * REF_S / statistics.median(durations[-5:])
        return {"cal_n": len(inside), "program_s": program, "scaled_s": scaled}
