"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 0-9 [--write]

For every workload it runs `run.py` once per seed (untraced), then once
traced on the first seed, and prints per figure the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and
the sample count.  `--write` stores the result as perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}")
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "n": len(values)}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)

    doc = {"seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units = {}
        records = []
        for seed in seeds:
            result, record = _run(workload, seed, 0)
            records.append(record)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            extra = {**record["stages"], **record["quality"],
                     **{f"raw.{k}": v for k, v in record["raw"].items()},
                     "host_speed": record["host_speed"]}
            for name, value in extra.items():
                if value is not None:
                    values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        _, traced = _run(workload, seeds[0], 1)
        entry = {
            "chains_per_run": [r["chains"] for r in records],
            "metrics": {name: {**_stats(v), "unit": units.get(name)}
                        for name, v in values.items()},
            "digests": {"seed": seeds[0], **records[0]["digests"]},
            "trace": {"seed": seeds[0], **{
                k: traced["trace"][k] for k in ("untraced_wall_s", "traced_wall_s")}},
        }
        doc["workloads"][workload] = entry
        doc["environment"] = records[-1]["environment"]
        print(f"\n{workload}: {'figure':<32} {'median':>12} {'q1':>12} {'q3':>12} spread")
        for name, s in entry["metrics"].items():
            print(f"{'':<{len(workload) + 2}}{name:<32} {s['median']:>12.5g} "
                  f"{s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:.4f}")
        print(flush=True)
    if args.write:
        path = BENCH_DIR / "baseline.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
