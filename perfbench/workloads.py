"""Workload table shared by run.py and its worker processes.

Each workload is two `driftwatch` CLI stages, a prep stage then a main
stage, each run on a pinned config (loaded through `load_config`, so
unknown keys are rejected exactly as for users).  Stages on the same
config share an output directory, as `profile` and `eval` must.  The
study workloads score the committed seed-0 checkpoint so they do not move
when training numerics move.

The train configs stop every episode at `max_steps` = 20 with only long
cruise episodes: the goal is at least 1000 m away, and the obstacle
starts at least 450 m along the path and at most 100 m off it, so at
least 350 m from the vehicle's start even after it is clipped into the
bounds.  In 20 steps the vehicle moves at most 200 m and the obstacle at
most 50 m, so no episode can reach the goal or the obstacle first.  A
training stage therefore plays exactly episodes x max_steps env steps
whatever the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
CONFIGS = BENCH_DIR / "configs"

TERMINAL_EVENTS = ("goal_reached", "collision", "timeout")

# Layers every traced chain of the workload must call at least once; a
# refactor that moves a call site away from where the tracer wraps it then
# fails loudly instead of zeroing a per-layer metric.
_COMMON_LAYERS = (
    "cli.main",
    "gnss.solve_pvt",
    "gnss.measure_pseudoranges",
    "env.step_dynamics",
    "env.env_step",
    "env.env_reset_full",
    "nets.Mlp.forward",
    "nets.Mlp.backward",
    "nets.Adam.step",
    "ddpg.Agent.act",
)
_STUDY_LAYERS = _COMMON_LAYERS + (
    "ddpg.Agent.q_value",
    "ddpg.load_checkpoint",
    "detectors.bocpd_update",
    "detectors.window_ae_score",
    "detectors.window_ae_train",
    "detectors.calibrate_tau",
    "harness.EpisodeDetectors.update",
    "harness.run_episode",
    "harness.compute_metrics",
    "harness.DetectorBank.load",
    "harness.DetectorBank.save",
    "report.emit_report",
)

# stages: (name, CLI command, config file), the prep stage first
WORKLOADS = {
    "train": {
        "stages": (("explore", "train", "train_explore.json"),
                   ("train", "train", "train.json")),
        "checkpoint": False,
        "layers": _COMMON_LAYERS + ("ddpg.train_step", "ddpg.ReplayBuffer.sample"),
    },
    "study_default": {
        "stages": (("profile", "profile", "study_default.json"),
                   ("eval", "eval", "study_default.json")),
        "checkpoint": True,
        "layers": _STUDY_LAYERS + ("spoofing.spoof_pseudoranges",),
    },
    "study_nominal": {
        "stages": (("profile", "profile", "study_nominal.json"),
                   ("eval", "eval", "study_nominal.json")),
        "checkpoint": True,
        "layers": _STUDY_LAYERS,
    },
}


def stage_out(out: Path, config: str) -> Path:
    """Output directory of a stage: one per config within a chain."""
    return out / Path(config).stem


def checkpoint_pin() -> dict:
    """The committed checkpoint's path, sha256 and regenerate command."""
    pin = json.loads(PINS.read_text())["checkpoint"]
    return {**pin, "path": BENCH_DIR / pin["file"]}
