"""Command-line workflows: train, profile, run, eval.

Exit codes: 0 success, 1 validation problem (bad flags, missing or
malformed inputs), 2 runtime failure (errors raised mid-computation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_hash
from .ddpg import load_checkpoint, save_checkpoint, train
from .errors import ConfigurationError, CorruptCheckpointError, DriftwatchError
from .harness import (
    DETECTOR_ORDER,
    DetectorBank,
    eval_attack,
    evaluate,
    profile_pipeline,
    run_episode,
    write_episode_csv,
)
from .report import emit_report, write_training_curve_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """A master seed: numpy's generators take only integers >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="driftwatch",
        description=(
            "Spoofing-detection workbench: train a navigation agent, "
            "profile its value stream, and score detectors on drift attacks."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, description=summary)
        p.add_argument("--config", type=Path, default=None,
                       help="experiment config JSON (defaults built in)")
        p.add_argument("--seed", type=_seed, default=None,
                       help="master seed (default: config master_seed)")
        p.add_argument("--out", type=Path, default=Path("results"),
                       help="artifact directory (default: results)")
        return p

    add_command("train", "train the agent; writes checkpoint + training curve")
    p_profile = add_command(
        "profile",
        "fit the nominal profile and freeze detector thresholds "
        "from attack-free runs",
    )
    p_profile.add_argument("--checkpoint", type=Path, default=None,
                           help="agent checkpoint (default: OUT/checkpoint.npz)")
    p_run = add_command("run", "play one fully logged episode")
    p_run.add_argument("--checkpoint", type=Path, default=None,
                       help="agent checkpoint (default: OUT/checkpoint.npz)")
    p_run.add_argument("--attack", action="store_true",
                       help="enable the configured drift attack")
    p_eval = add_command(
        "eval", "run the nominal + attacked comparison and emit the report"
    )
    p_eval.add_argument("--checkpoint", type=Path, default=None,
                        help="agent checkpoint (default: OUT/checkpoint.npz)")
    return parser


def _load_agent(checkpoint: Path | None, out: Path):
    path = checkpoint if checkpoint is not None else out / "checkpoint.npz"
    if not Path(path).exists():
        raise ConfigurationError(
            f"checkpoint not found: {path} (run `driftwatch train` first)"
        )
    return load_checkpoint(path)


def _cmd_train(cfg: ExperimentConfig, seed: int, out: Path) -> int:
    agent, history = train(cfg, seed)
    ckpt = out / "checkpoint.npz"
    save_checkpoint(agent, ckpt)
    write_training_curve_csv(history, out / "training_curve.csv")
    tail = history[-10:]
    print(f"trained {len(history)} episodes; "
          f"mean return over final {len(tail)}: {np.mean(tail):.3f}")
    print(f"checkpoint: {ckpt}")
    return 0


def _cmd_profile(cfg: ExperimentConfig, seed: int, out: Path, args) -> int:
    agent = _load_agent(args.checkpoint, out)
    bank, diag = profile_pipeline(agent, cfg, seed)
    bank.save(out)
    profile = diag["profile"]
    profile.save(out / "profile.json")
    print(f"nominal profile: mu0={profile.mu0!r} "
          f"sigma0={profile.sigma0!r} n={profile.n_samples}")
    age = bank.age_profile
    print(f"same-age profile: horizon={age.horizon} "
          f"noise_var={age.noise_var!r} level_var={age.level_var!r}")
    print(f"frozen run-length threshold: {bank.tau} "
          f"(nominal false-flag episode rate {diag['calibration_fp']!r})")
    print(f"detector bank: {out / 'bank.json'}")
    return 0


def _cmd_run(cfg: ExperimentConfig, seed: int, out: Path, args) -> int:
    agent = _load_agent(args.checkpoint, out)
    bank = DetectorBank.load(out) if (out / "bank.json").exists() else None
    attack = eval_attack(cfg.eval) if args.attack else None
    [log] = run_episode(agent, cfg, [(attack, seed)], trace=True)
    if bank is not None:
        bank.score([log])
    suffix = "_attacked" if args.attack else ""
    path = out / f"episode_{seed}{suffix}.csv"
    write_episode_csv(log, path, config_hash(cfg))
    detectors_note = "" if bank is not None else " (no detector bank attached)"
    print(f"{log.terminal_event} after {log.n_steps} steps{detectors_note}")
    print(f"log: {path}")
    return 0


def _cmd_eval(cfg: ExperimentConfig, seed: int, out: Path, args) -> int:
    agent = _load_agent(args.checkpoint, out)
    bank = DetectorBank.load(out)
    metrics, logs = evaluate(agent, cfg, bank, seed)
    paths = emit_report(metrics, logs, out, config_hash=config_hash(cfg),
                        master_seed=seed)
    for name in DETECTOR_ORDER:
        m = metrics[name]
        acc, delay = m["accuracy"], m["detection_delay"]["mean"]
        delay = "never" if delay is None else f"{delay:.1f}"
        print(f"{name:<10} accuracy {acc['mean']:.3f}±{acc['std']:.3f}"
              f"  fpr {m['false_positive_rate']['mean']:.3f}"
              f"  fnr {m['false_negative_rate']['mean']:.3f}  delay {delay}")
    print(f"report: {paths['summary']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = (ExperimentConfig() if args.config is None
               else ExperimentConfig.load(args.config))
        seed = args.seed if args.seed is not None else cfg.master_seed
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"--out {out}: {exc.strerror}")
        if args.command == "train":
            return _cmd_train(cfg, seed, out)
        if args.command == "profile":
            return _cmd_profile(cfg, seed, out, args)
        if args.command == "run":
            return _cmd_run(cfg, seed, out, args)
        return _cmd_eval(cfg, seed, out, args)
    except (ConfigurationError, CorruptCheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DriftwatchError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
