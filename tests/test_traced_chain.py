"""A traced train -> profile -> eval chain calls every layer the benchmark needs.

The benchmark's traced run fails when a layer it lists records no call,
or when `env_step` does not run once per step the outputs show.  This
runs a tiny chain through `cli.main` under the benchmark's own tracer
(`perfbench/tracer.py` and `perfbench/workloads.py`, imported read-only)
and makes the same checks, so a call site that moves away from where the
tracer wraps it fails here first.  The tracer's patches are undone
afterwards.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftwatch import cli
from driftwatch.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer, workloads


def tiny_config(workloads):
    """The benchmark's train config, where no episode can end before
    `max_steps` (see workloads.py), shrunk to a few seconds' work."""
    base = ExperimentConfig.load(workloads.CONFIGS / "train.json")
    return dataclasses.replace(
        base,
        train=dataclasses.replace(base.train, episodes=3, warmup_episodes=1,
                                  batch_size=16, hidden=(16, 16)),
        detectors=dataclasses.replace(base.detectors, ae_window=8,
                                      ae_epochs=20, bocpd_warmup=5),
        eval=dataclasses.replace(base.eval, profile_episodes=40, n_nominal=2,
                                 n_attacked=2, attack_t_start=8,
                                 attack_drift_duration=5),
    )


@pytest.fixture(scope="module")
def traced_chain(perfbench, tmp_path_factory):
    tracer_mod, workloads = perfbench
    tmp = tmp_path_factory.mktemp("traced")
    cfg = tiny_config(workloads)
    cfg.save(tmp / "tiny.json")
    out = tmp / "out"
    sites = tracer_mod.call_sites()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in sites]
    tracer = tracer_mod.Tracer()
    tracer.install(sites)
    rcs, ends = [], {}
    try:
        # looked up on the module, where the tracer wraps it
        for command in ("train", "profile", "eval"):
            rcs.append(cli.main([command, "--config", str(tmp / "tiny.json"),
                                 "--seed", "2", "--out", str(out)]))
            ends[command] = len(tracer.start)
    finally:
        for owner, attr, raw in originals:
            setattr(owner, attr, raw)
    assert rcs == [0, 0, 0]
    stages = {"train": (0, ends["train"]),
              "profile": (ends["train"], ends["profile"]),
              "eval": (ends["profile"], ends["eval"])}
    return cfg, out, tracer, originals, stages


def span_calls(tracer, first, stop):
    """Calls per span name among the spans recorded from index first to
    stop, shaped like `Tracer.summary()` for `aggregate`."""
    ids = tracer.spans()["name_id"][first:stop]
    calls = np.bincount(ids, minlength=len(tracer.names))
    return {name: {"calls": int(calls[i]), "s": 0.0, "self_s": 0.0}
            for i, name in enumerate(tracer.names)}


def test_tracer_patches_are_undone(traced_chain):
    for owner, attr, raw in traced_chain[3]:
        assert owner.__dict__[attr] is raw, attr


def test_every_benchmark_layer_records_a_call(perfbench, traced_chain):
    """Each workload's layers, on the spans of that workload's own commands:
    the study layers on `profile` and `eval` only, so that the training
    stage's calls cannot stand in for a study that bypasses a layer."""
    tracer_mod, workloads = perfbench
    _, _, tracer, _, stages = traced_chain
    train = span_calls(tracer, *stages["train"])
    study = span_calls(tracer, stages["profile"][0], stages["eval"][1])
    for workload, spans in (("train", train), ("study_default", study),
                            ("study_nominal", study)):
        silent = [layer for layer in workloads.WORKLOADS[workload]["layers"]
                  if not tracer_mod.aggregate(spans, layer)["calls"]]
        assert silent == [], workload


def test_study_stages_act_once_per_age(perfbench, traced_chain):
    """A study stage plays its episodes in lockstep: one `Agent.act` call
    per age.  Every episode of the tiny config times out at `max_steps`."""
    tracer_mod, _ = perfbench
    cfg, _, tracer, _, stages = traced_chain
    for command in ("profile", "eval"):
        spans = span_calls(tracer, *stages[command])
        assert tracer_mod.aggregate(spans, "harness.run_episode")["calls"] == 1
        assert (tracer_mod.aggregate(spans, "ddpg.Agent.act")["calls"]
                == cfg.env.max_steps), command


def test_env_step_runs_once_per_step_the_outputs_show(perfbench,
                                                      traced_chain):
    tracer_mod, _ = perfbench
    cfg, out, tracer, _, _ = traced_chain
    train_eps = len((out / "training_curve.csv").read_text().splitlines()) - 1
    profile_steps = json.loads((out / "profile.json").read_text())["n_samples"]
    eval_steps = len((out / "q_traces.csv").read_text().splitlines()) - 1
    episodes = (cfg.train.episodes + cfg.eval.profile_episodes
                + cfg.eval.n_nominal + cfg.eval.n_attacked)
    # every episode times out, so training played episodes x max_steps
    assert train_eps == cfg.train.episodes
    ended = {k: v for k, v in tracer.counters.items() if k.startswith("terminal.")}
    assert ended == {"terminal.timeout": episodes}
    steps = train_eps * cfg.env.max_steps + profile_steps + eval_steps
    calls = tracer_mod.aggregate(tracer.summary(), "env.env_step")["calls"]
    assert calls == steps
