"""driftwatch benchmark: time the CLI stages end to end, or trace their layers.

Run from the repository root:

    python3 perfbench/run.py --workload study_default --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and configs/), each a prep stage then a main stage:
  train          `driftwatch train`: 100 exploration-only episodes, then
                 130 episodes (30 warmup) with updates, all cut at 20 steps
  study_default  `profile` then `eval` on the shipped eval set, pinned checkpoint
  study_nominal  `profile` then `eval` on 80 nominal episodes, no attack

Every chain of stages runs in its own fresh worker process with BLAS and
OpenMP pinned to one thread, so `setup_s` and `peak_rss_mb` belong to that
workload.  run.py keeps starting chains (at least two) until
`--seconds` is spent and reports medians over chains; a few extra
set-up-only processes sharpen the `setup_s` median.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates an
untraced chain with a traced one and prints the per-layer metrics plus
`trace.overhead_s` (traced minus untraced stage time); spans are written
to `.perfbench-work/spans-<workload>-seed<seed>-<n>.npz`.

Step and episode counts come from the stages' outputs: profile.json's
sample count, q_traces.csv's rows, and for training the episode count
times `max_steps`, since every training episode of the pinned configs
times out.  Outputs are checked on every chain: every stage returns 0 and
leaves the configured number of episodes; summary.json has the v1 schema
and finite metrics; every eval episode fits in `max_steps`; and all chains
of a run produce byte-identical artifacts.  A traced chain also checks
that env_step ran once per counted step, that every episode ended in
goal_reached, collision or timeout, and that every layer the workload
needs was called.  A failed check or a failed worker prints
`"correct": false` and exits 1.  The last stdout line is the JSON result;
the line before it (`record ...`) carries the stage timings, detection
quality, artifact digests and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BENCH_DIR,
    CONFIGS,
    ROOT,
    SRC,
    TERMINAL_EVENTS,
    WORKLOADS,
    checkpoint_pin,
    stage_out,
)

WORK = ROOT / ".perfbench-work"
MIN_CHAINS = 2
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # a hung worker is killed so the run still ends in time
BLAS_THREADS = 1
ARTIFACTS = ("summary.json", "q_traces.csv", "bank.json", "training_curve.csv",
             "checkpoint.npz")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(workload: str, seed: int, out: Path, env, timeout: float, *extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def _expected_episodes(command: str, config: str) -> int:
    doc = _config(config)
    if command == "train":
        return doc["train"]["episodes"]
    ev = doc["eval"]
    return ev["profile_episodes"] if command == "profile" else ev["n_nominal"] + ev["n_attacked"]


def _finite_numbers(doc, where="summary") -> list[str]:
    """Paths of values that are not finite numbers; a null detection delay is allowed."""
    bad = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if value is None and key in ("mean", "std") and where.endswith("detection_delay"):
                continue
            bad += _finite_numbers(value, f"{where}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            bad += _finite_numbers(value, f"{where}[{i}]")
    elif isinstance(doc, (bool, str)):
        pass
    elif not isinstance(doc, (int, float)) or not math.isfinite(doc):
        bad.append(where)
    return bad


def _stage_counts(command: str, config: str, out: Path) -> tuple[int, int, list[str]]:
    """(episodes, env steps, problems) of a finished stage, from its outputs."""
    doc = _config(config)
    if command == "train":
        rows = (out / "training_curve.csv").read_text().splitlines()[1:]
        problems = []
        if not all(math.isfinite(float(v)) for r in rows for v in r.split(",")):
            problems.append("training curve has non-finite values")
        # every training episode of the pinned configs times out (workloads.py)
        return len(rows), len(rows) * doc["env"]["max_steps"], problems
    if command == "profile":
        profile = json.loads((out / "profile.json").read_text())
        return len(profile["source_episodes"]), profile["n_samples"], []

    rows = (out / "q_traces.csv").read_text().splitlines()[1:]
    lengths: dict[str, int] = {}
    for row in rows:
        episode = row[:row.index(",", row.index(",") + 1)]  # scenario,episode_seed
        lengths[episode] = lengths.get(episode, 0) + 1
    problems = []
    if max(lengths.values(), default=0) > doc["env"]["max_steps"]:
        problems.append(f"an eval episode ran past max_steps={doc['env']['max_steps']}")
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("schema") != "driftwatch-summary-v1":
        problems.append(f"summary schema {summary.get('schema')!r}")
    if summary.get("n_episodes") != len(lengths):
        problems.append(f"summary counts {summary.get('n_episodes')} episodes, "
                        f"q_traces.csv {len(lengths)}")
    problems += [f"non-finite {p}" for p in _finite_numbers(summary)]
    return len(lengths), len(rows), problems


def _check_chain(workload: str, chain: dict, out: Path) -> tuple[dict, int, list[str]]:
    """Output checks for one chain: (per-stage counts, episodes completed,
    problems)."""
    counts, completed, problems = {}, 0, []
    for name, command, config in WORKLOADS[workload]["stages"]:
        stage = chain["stages"].get(name)
        if stage is None:
            problems.append(f"stage {name} did not run")
            continue
        if stage["rc"] != 0:
            problems.append(f"stage {name} returned {stage['rc']}")
            continue
        expected = _expected_episodes(command, config)
        try:
            episodes, steps, found = _stage_counts(command, config, stage_out(out, config))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"stage {name} left unreadable outputs: {exc!r}")
            continue
        problems += [f"stage {name}: {p}" for p in found]
        if episodes != expected:
            problems.append(f"stage {name} left {episodes} episodes, {expected} expected")
        completed += min(episodes, expected)
        counts[name] = {"episodes": episodes, "steps": steps}
    return counts, completed, problems


def _check_traced(workload: str, chain: dict) -> list[str]:
    """Checks a traced chain adds: env_step once per counted step, a
    terminal event for every episode, and a call to every expected layer."""
    from tracer import aggregate

    problems = []
    for layer in WORKLOADS[workload]["layers"]:
        if not aggregate(chain["layers"], layer)["calls"]:
            problems.append(f"traced layer {layer} recorded zero calls")
    steps = sum(c["steps"] for c in chain["counts"].values())
    episodes = sum(c["episodes"] for c in chain["counts"].values())
    calls = aggregate(chain["layers"], "env.env_step")["calls"]
    if calls != steps:
        problems.append(f"env_step ran {calls} times, outputs show {steps} steps")
    ended = {k.removeprefix("terminal."): v for k, v in chain["counters"].items()
             if k.startswith("terminal.")}
    odd = sorted(set(ended) - set(TERMINAL_EVENTS))
    if odd:
        problems.append(f"episodes ended in {odd}")
    if sum(ended.values()) != episodes:
        problems.append(f"{sum(ended.values())} episodes ended, outputs show {episodes}")
    return problems


def _digests(out: Path) -> dict[str, str]:
    return {f"{d.name}/{name}": _sha256(d / name)
            for d in sorted(out.iterdir()) for name in ARTIFACTS if (d / name).exists()}


def _quality(workload: str, out: Path) -> dict:
    """Detection quality (studies) or final training return, for the record."""
    _, command, config = WORKLOADS[workload]["stages"][-1]
    main = stage_out(out, config)
    if command == "eval":
        bocpd = json.loads((main / "summary.json").read_text())["detectors"]["bocpd"]
        return {
            "bocpd_delay_steps": bocpd["detection_delay"]["mean"],
            "bocpd_fpr": bocpd["false_positive_rate"]["mean"],
            "bocpd_miss_rate": bocpd["false_negative_rate"]["mean"],
            "bocpd_accuracy": bocpd["accuracy"]["mean"],
        }
    rows = (main / "training_curve.csv").read_text().splitlines()[1:]
    returns = [float(r.split(",")[1]) for r in rows]
    return {"train_return_final10": statistics.fmean(returns[-10:])}


def _seconds(part: dict, scaled: bool) -> float:
    """Seconds of a stage without the probe's own time, at the reference
    host speed if `scaled` (see calibration.py)."""
    return part["scaled_s"] if scaled else part["program_s"]


def _headline(workload: str, chain: dict, scaled: bool = True) -> dict[str, float]:
    """End-to-end figures of one chain, named alike for every workload."""
    (prep, *_), (main, *_) = WORKLOADS[workload]["stages"]
    stages, counts = chain["stages"], chain["counts"]
    return {
        "wall_s": sum(_seconds(part, scaled) for part in stages.values()),
        "steps_per_s": counts[main]["steps"] / _seconds(stages[main], scaled),
        "prep_steps_per_s": counts[prep]["steps"] / _seconds(stages[prep], scaled),
        "peak_rss_mb": chain["maxrss_mb"],
    }


def _stage_seconds(chain: dict, scaled: bool = True) -> dict[str, float]:
    return {f"{name}_s": _seconds(part, scaled) for name, part in chain["stages"].items()}


def _median_of(rows: list[dict]) -> dict[str, float]:
    """Median of each key over dicts with the same keys."""
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def _setup_s(result: dict, scaled: bool = True) -> float:
    return result["setup_scaled_s"] if scaled else result["setup_s"]


def _environment() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        sha = proc.stdout.strip() or sha
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        started: float):
    env = _worker_env()
    expected = sum(_expected_episodes(command, config)
                   for _, command, config in WORKLOADS[workload]["stages"])
    deadline = time.monotonic() + seconds
    hard_stop = started + RUN_LIMIT_S
    chains, traced, setups, problems, digests = [], [], [], [], []
    completed = 0
    started_chains = 0

    def spawn(out, *extra):
        try:
            return _spawn(workload, seed, out, env, hard_stop - time.monotonic(), *extra)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"worker failed: {exc}")
            return None

    def chain(trace_path=None):
        nonlocal completed, started_chains
        out = work / f"chain{started_chains}"
        started_chains += 1
        result = spawn(out, *(["--trace", str(trace_path)] if trace_path else []))
        if result is None:
            return None
        result["counts"], done, found = _check_chain(workload, result, out)
        completed += done
        problems.extend(found)
        if trace_path and not found:
            problems.extend(_check_traced(workload, result))
        digests.append(_digests(out))
        result["out"] = out
        return result

    while not problems:
        untraced = chain()
        if untraced is None:
            break
        chains.append(untraced)
        last = untraced["wall_s"]
        if trace:
            spans = WORK / f"spans-{workload}-seed{seed}-{len(traced)}.npz"
            result = chain(spans)
            if result is None:
                break
            traced.append(result)
            last += result["wall_s"]
        elif len(chains) == 1:
            setups += [r for _ in range(SETUP_PROBES) if (r := spawn(work, "--setup-only"))]
        enough = len(chains) >= MIN_CHAINS or trace
        now = time.monotonic()
        if (enough and now + last > deadline) or now + last > hard_stop:
            break

    if any(d != digests[0] for d in digests):
        problems.append("artifacts differ between chains of the same seed")
    attempted = expected * max(started_chains, 1)
    record = {
        "workload": workload,
        "seed": seed,
        "chains": len(chains),
        "traced_chains": len(traced),
        "failed_episode_frac": 1.0 - completed / attempted,
        "digests": digests[0] if digests else {},
        "checkpoint_sha256": checkpoint_pin()["sha256"],
        "environment": _environment(),
        "problems": problems,
    }
    if problems:  # a stage may have aborted: report no timings
        return {}, record, attempted, attempted - completed

    setups += chains + traced
    heads = _median_of([_headline(workload, c) for c in chains])
    record.update(
        setups=len(setups),
        stages={**_median_of([_stage_seconds(c) for c in chains]),
                **{f"{k}_steps": v["steps"] for k, v in chains[0]["counts"].items()}},
        raw={"setup_s": statistics.median(_setup_s(r, scaled=False) for r in setups),
             **_median_of([_stage_seconds(c, scaled=False) for c in chains])},
        host_speed=statistics.median(p["program_s"] / p["scaled_s"]
                                     for c in chains for p in c["stages"].values()),
        quality=_quality(workload, chains[0]["out"]),
    )

    if trace:
        from tracer import layer_metrics, merge

        spans, counters = merge([c["layers"] for c in traced],
                                [c["counters"] for c in traced])
        metrics = layer_metrics(spans, counters)
        traced_wall = _median_of([_headline(workload, c) for c in traced])["wall_s"]
        metrics["trace.overhead_s"] = (traced_wall - heads["wall_s"], "s")
        record["trace"] = {
            "untraced_wall_s": heads["wall_s"],
            "traced_wall_s": traced_wall,
            "traced_raw_wall_s": _median_of(
                [_headline(workload, c, scaled=False) for c in traced])["wall_s"],
            "self_sum_s": sum(v["self_s"] for v in spans.values()) / len(traced),
            "self_s": {k: v["self_s"] for k, v in sorted(spans.items()) if v["calls"]},
        }
    else:
        metrics = {
            "setup_s": (statistics.median(_setup_s(r) for r in setups), "s"),
            "steps_per_s": (heads["steps_per_s"], "1/s"),
            "prep_steps_per_s": (heads["prep_steps_per_s"], "1/s"),
            "peak_rss_mb": (heads["peak_rss_mb"], "MB"),
        }
    return metrics, record, attempted, attempted - completed


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "driftwatch" / "__init__.py").is_file():
        print(f"error: no driftwatch sources under {SRC}", file=sys.stderr)
        return 2
    pin = checkpoint_pin()
    if not pin["path"].is_file() or _sha256(pin["path"]) != pin["sha256"]:
        print(f"error: {pin['path']} does not match its pinned sha256",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, record, attempted, failed = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (prep, *_), (main_stage, *_) = WORKLOADS[args.workload]["stages"]
    notes = {"steps_per_s": f"{main_stage} stage", "prep_steps_per_s": f"{prep} stage"}
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit:<8} {notes.get(name, '')}")
    for name, value in {**record.get("stages", {}), **record.get("quality", {})}.items():
        print(f"{name:<45} {value!r:>14}")
    print(f"{'failed_episode_frac':<45} {record['failed_episode_frac']:>14.6g} fraction")
    if "trace" in record:
        t = record["trace"]
        print(f"trace: stages take {t['untraced_wall_s']:.3f} s untraced and "
              f"{t['traced_wall_s']:.3f} s traced at reference host speed; "
              f"span self times sum to {t['self_sum_s']:.3f} s of "
              f"{t['traced_raw_wall_s']:.3f} s measured per traced chain")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
