"""Detection quality and criterion 8 across master seeds, on one agent.

For each master seed, profiles the detector bank on fresh attack-free
flights and scores it on fresh nominal and drift-attacked flights, as
`driftwatch profile` then `driftwatch eval` would.  Prints each
detector's accuracy, false-positive rate, episode false-negative rate and
mean detection delay, then which of criterion 8's five clauses hold for
the changepoint detector.  The agent is the committed seed-0 checkpoint
by default, so training numerics do not move the table.  About 7 s per
seed on one core.

    python demos/06_seed_sweep.py                 # master seeds 0-9
    python demos/06_seed_sweep.py --seeds 10 20   # master seeds 10-19
    python demos/06_seed_sweep.py --checkpoint OUT/checkpoint.npz
"""

import argparse
from pathlib import Path

from driftwatch.config import ExperimentConfig
from driftwatch.ddpg import load_checkpoint
from driftwatch.harness import DETECTOR_ORDER, evaluate, profile_pipeline

ROOT = Path(__file__).resolve().parent.parent

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seeds", type=int, nargs=2, default=(0, 10),
                    metavar=("FIRST", "STOP"),
                    help="master seeds FIRST..STOP-1 (default: 0 10)")
parser.add_argument("--checkpoint", type=Path,
                    default=ROOT / "perfbench" / "data" / "checkpoint-seed0.npz")
parser.add_argument("--config", type=Path, default=None,
                    help="experiment config JSON (default: built-in)")
args = parser.parse_args()

cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
agent = load_checkpoint(args.checkpoint)


def criterion_8(per: dict) -> dict[str, bool]:
    """Criterion 8's clauses, as tests/test_acceptance.py checks them."""
    m = per["bocpd"]
    acc = m["accuracy"]["mean"]
    delay = m["detection_delay"]["mean"]
    return {
        "acc>=0.9": acc >= 0.9,
        "acc>=base": acc >= max(v["accuracy"]["mean"]
                                for k, v in per.items() if k != "bocpd"),
        "fpr<=0.1": m["false_positive_rate"]["mean"] <= 0.1,
        "fnr<=0.1": m["false_negative_rate"]["mean"] <= 0.1,
        "delay<=25": delay is not None and delay <= 25.0,
    }


print(f"checkpoint {args.checkpoint}")
print(f"{'seed':>4} {'detector':>10} {'acc':>6} {'fpr':>6} {'fnr':>6}"
      f" {'delay':>6}  criterion 8")
passed = 0
for seed in range(*args.seeds):
    bank, _ = profile_pipeline(agent, cfg, seed)
    per, _ = evaluate(agent, cfg, bank, seed)
    failed = [name for name, ok in criterion_8(per).items() if not ok]
    passed += not failed
    verdict = f"tau {bank.tau}, " + (
        "fail: " + ", ".join(failed) if failed else "PASS")
    for name in DETECTOR_ORDER:
        m = per[name]
        delay = m["detection_delay"]["mean"]
        delay = "-" if delay is None else f"{delay:.1f}"
        print(f"{seed:>4} {name:>10} {m['accuracy']['mean']:>6.3f}"
              f" {m['false_positive_rate']['mean']:>6.3f}"
              f" {m['false_negative_rate']['mean']:>6.3f} {delay:>6}"
              + (f"  {verdict}" if name == "bocpd" else ""))
print(f"criterion 8 holds on {passed} of {len(range(*args.seeds))} seeds")
