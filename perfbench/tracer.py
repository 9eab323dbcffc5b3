"""Span tracer that wraps driftwatch functions where their callers look them up.

The package is measured from outside: each wrapped attribute (a module
global such as `driftwatch.env.solve_pvt`, or a method such as
`Agent.act`) is replaced by a shim that records one span per call.  A span
holds its name, start, end, parent span and trace id (the seed of the
episode being played).  Spans stay in memory and are written out once the
traced stage is over.  A span's self time is its duration minus the time
its direct children cover.

`before_call`, when set, runs at every span start; the host-speed sampler
uses it to probe the host from inside a traced chain.  Time it adds to
`paused` is taken out of every span that contains it.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _batch_suffix(args) -> str:
    rows = _rows(args[1])
    return ".b1" if rows == 1 else ".b64" if rows == 64 else ".bother"


def _support_suffix(args) -> str:
    support = args[0].weights.size
    return ".le64" if support <= 64 else ".le256" if support <= 256 else ".gt256"


class Tracer:
    """Records spans into flat arrays; `install` patches the call sites."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.trace_id = 0
        self.before_call = None
        self.paused = 0.0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, suffix=None, after=None, trace_arg=None):
        """Return a shim around `fn` that records a span named `name`.

        `suffix(args)` refines the name per call (batch or support bucket),
        `after(tracer, args, result)` records counters from the call, and
        `trace_arg` is the index of the positional argument that becomes
        the trace id.
        """
        tracer = self
        stack = self._stack
        base_id = self._id(name)

        def traced(*args, **kwargs):
            if tracer.before_call is not None:
                tracer.before_call()
            nid = tracer._id(name + suffix(args)) if suffix else base_id
            if trace_arg is not None:
                tracer.trace_id = int(args[trace_arg])
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.trace.append(tracer.trace_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter() - tracer.paused)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter() - tracer.paused
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites) -> None:
        """Patch each (owner, attribute, span name, options) call site."""
        for owner, attr, name, opts in sites:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **opts)))
            else:
                setattr(owner, attr, self.wrap(name, raw, **opts))

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "trace": np.frombuffer(self.trace, dtype=np.int64),
            "start": start,
            "end": end,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez_compressed(fh, names=np.array(self.names), **self.spans())

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds per span name."""
        sp = self.spans()
        n = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=n)
        total = np.bincount(sp["name_id"], weights=sp["end"] - sp["start"], minlength=n)
        own = np.bincount(sp["name_id"], weights=sp["self"], minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def _after_solve(tracer, args, pvt):
    tracer.counters["gnss.solve_pvt.iters"] += pvt.iterations
    tracer.counters["gnss.solve_pvt.nonconverged"] += not pvt.converged


def _after_step(tracer, args, out):
    if out[3]:  # done: count the episode's terminal event
        tracer.counters["terminal." + out[2].terminal_event] += 1


def _after_bocpd(tracer, args, result):
    state = args[0]
    tracer.counters["detectors.bocpd_update.support"] += state.weights.size
    tracer.counters["detectors.bocpd_update.underflow_resets"] += (
        result[0].underflow_resets - state.underflow_resets
    )


def _after_report(tracer, args, paths):
    tracer.counters["report.bytes_written"] += sum(p.stat().st_size for p in paths.values())


def call_sites():
    """Every wrapped call site, named after the layer it measures."""
    from driftwatch import cli, ddpg, env, harness, nets

    none = {}
    return [
        (env, "solve_pvt", "gnss.solve_pvt", {"after": _after_solve}),
        (env, "measure_pseudoranges", "gnss.measure_pseudoranges", none),
        (env, "spoof_pseudoranges", "spoofing.spoof_pseudoranges", none),
        (env, "step_dynamics", "env.step_dynamics", none),
        (harness, "env_step", "env.env_step", {"after": _after_step}),
        (ddpg, "env_step", "env.env_step", {"after": _after_step}),
        (harness, "env_reset_full", "env.env_reset_full", {"trace_arg": 1}),
        (env, "env_reset_full", "env.env_reset_full", {"trace_arg": 1}),
        (nets.Mlp, "forward", "nets.Mlp.forward", {"suffix": _batch_suffix}),
        (nets.Mlp, "backward", "nets.Mlp.backward", {"suffix": _batch_suffix}),
        (nets.Adam, "step", "nets.Adam.step", none),
        (ddpg.Agent, "act", "ddpg.Agent.act", none),
        (ddpg.Agent, "q_value", "ddpg.Agent.q_value", none),
        (ddpg, "train_step", "ddpg.train_step", none),
        (ddpg.ReplayBuffer, "sample", "ddpg.ReplayBuffer.sample", none),
        (cli, "train", "ddpg.train", none),
        (cli, "load_checkpoint", "ddpg.load_checkpoint", none),
        (harness, "bocpd_update", "detectors.bocpd_update",
         {"suffix": _support_suffix, "after": _after_bocpd}),
        (harness, "window_ae_score", "detectors.window_ae_score", none),
        (harness, "window_ae_train", "detectors.window_ae_train", none),
        (harness, "calibrate_tau", "detectors.calibrate_tau", none),
        (harness.EpisodeDetectors, "update", "harness.EpisodeDetectors.update", none),
        (harness, "run_episode", "harness.run_episode", none),
        (harness, "compute_metrics", "harness.compute_metrics", none),
        (harness.DetectorBank, "load", "harness.DetectorBank.load", none),
        (harness.DetectorBank, "save", "harness.DetectorBank.save", none),
        (cli, "profile_pipeline", "harness.profile_pipeline", none),
        (cli, "evaluate", "harness.evaluate", none),
        (cli, "emit_report", "report.emit_report", {"after": _after_report}),
        (cli, "main", "cli.main", none),
    ]


def merge(summaries, counter_sets):
    """Sum span summaries and counters over several traced chains."""
    spans: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for summary in summaries:
        for name, row in summary.items():
            for key in row:
                spans[name][key] += row[key]
    counters: dict[str, float] = defaultdict(float)
    for counter_set in counter_sets:
        for name, value in counter_set.items():
            counters[name] += value
    return dict(spans), dict(counters)


def aggregate(spans, name) -> dict[str, float]:
    """Calls and seconds of span `name` and its buckets (`name.b1`, ...)."""
    rows = [row for key, row in spans.items()
            if key == name or key.startswith(name + ".")]
    return {k: sum(row[k] for row in rows) for k in ("calls", "s", "self_s")}


def layer_metrics(spans, counters) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from merged span summaries.

    `.us`/`.ms`/`.s` are inclusive time per call, `.self_*` exclude wrapped
    children; a layer with no calls reports 0 time.  Bucketed spans
    (`.b1`, `.le64`, ...) count towards their base name.
    """

    def agg(name):
        return aggregate(spans, name)

    def per_call(name, scale, key="s"):
        row = agg(name)
        return scale * row[key] / row["calls"] if row["calls"] else 0.0

    def calls(name):
        return float(agg(name)["calls"])

    def mean_counter(counter, name):
        n = calls(name)
        return counters.get(counter, 0.0) / n if n else 0.0

    run_episode_steps = calls("env.env_step") if calls("harness.run_episode") else 0.0
    us, ms, count = "us", "ms", "count"
    return {
        "gnss.solve_pvt.us": (per_call("gnss.solve_pvt", 1e6, "self_s"), us),
        "gnss.solve_pvt.calls": (calls("gnss.solve_pvt"), count),
        "gnss.solve_pvt.iters": (mean_counter("gnss.solve_pvt.iters", "gnss.solve_pvt"), count),
        "gnss.solve_pvt.nonconverged": (counters.get("gnss.solve_pvt.nonconverged", 0.0), count),
        "gnss.measure_pseudoranges.us": (per_call("gnss.measure_pseudoranges", 1e6), us),
        "spoofing.spoof_pseudoranges.us": (per_call("spoofing.spoof_pseudoranges", 1e6), us),
        "spoofing.spoof_pseudoranges.calls": (calls("spoofing.spoof_pseudoranges"), count),
        "env.step_dynamics.us": (per_call("env.step_dynamics", 1e6), us),
        "env.env_step.self_us": (per_call("env.env_step", 1e6, "self_s"), us),
        "env.env_step.calls": (calls("env.env_step"), count),
        "env.env_reset_full.us": (per_call("env.env_reset_full", 1e6), us),
        "nets.Mlp.forward.b1_us": (per_call("nets.Mlp.forward.b1", 1e6), us),
        "nets.Mlp.forward.b64_us": (per_call("nets.Mlp.forward.b64", 1e6), us),
        "nets.Mlp.backward.b64_us": (per_call("nets.Mlp.backward.b64", 1e6), us),
        "nets.Adam.step.us": (per_call("nets.Adam.step", 1e6), us),
        "ddpg.Agent.act.us": (per_call("ddpg.Agent.act", 1e6), us),
        "ddpg.Agent.q_value.us": (per_call("ddpg.Agent.q_value", 1e6), us),
        "ddpg.train_step.us": (per_call("ddpg.train_step", 1e6), us),
        "ddpg.train_step.calls": (calls("ddpg.train_step"), count),
        "ddpg.ReplayBuffer.sample.us": (per_call("ddpg.ReplayBuffer.sample", 1e6), us),
        "ddpg.load_checkpoint.ms": (per_call("ddpg.load_checkpoint", 1e3), ms),
        "detectors.bocpd_update.us": (per_call("detectors.bocpd_update", 1e6), us),
        "detectors.bocpd_update.us_support_le64": (per_call("detectors.bocpd_update.le64", 1e6), us),
        "detectors.bocpd_update.us_support_le256": (per_call("detectors.bocpd_update.le256", 1e6), us),
        "detectors.bocpd_update.us_support_gt256": (per_call("detectors.bocpd_update.gt256", 1e6), us),
        "detectors.bocpd_update.support": (
            mean_counter("detectors.bocpd_update.support", "detectors.bocpd_update"), count),
        "detectors.bocpd_update.underflow_resets": (
            counters.get("detectors.bocpd_update.underflow_resets", 0.0), count),
        "detectors.window_ae_score.us": (per_call("detectors.window_ae_score", 1e6), us),
        "detectors.window_ae_train.s": (per_call("detectors.window_ae_train", 1.0), "s"),
        "detectors.calibrate_tau.ms": (per_call("detectors.calibrate_tau", 1e3), ms),
        "harness.EpisodeDetectors.update.self_us": (
            per_call("harness.EpisodeDetectors.update", 1e6, "self_s"), us),
        "harness.run_episode.self_us_per_step": (
            1e6 * agg("harness.run_episode")["self_s"] / run_episode_steps
            if run_episode_steps else 0.0, us),
        "harness.compute_metrics.ms": (per_call("harness.compute_metrics", 1e3), ms),
        "harness.DetectorBank.load.ms": (per_call("harness.DetectorBank.load", 1e3), ms),
        "harness.DetectorBank.save.ms": (per_call("harness.DetectorBank.save", 1e3), ms),
        "report.emit_report.ms": (per_call("report.emit_report", 1e3), ms),
        "report.bytes_written": (counters.get("report.bytes_written", 0.0), "bytes"),
        "cli.main.self_ms": (per_call("cli.main", 1e3, "self_s"), ms),
    }
