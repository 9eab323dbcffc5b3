"""One benchmark chain in a fresh process: set up, then run the CLI stages.

Usage (started by run.py, one process per chain):

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --t0 T
                                [--trace SPANS.npz] [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, imports, config,
constellation and checkpoint load.  The last stdout line is one JSON
object with the chain's set-up time, each stage's return code and
seconds (raw and at the reference host speed, see calibration.py), the
peak RSS and, traced, the span summary.

The worker hooks nothing in an untraced chain: run.py takes step and
episode counts from the stages' outputs, so they hold however the program
organises its calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibration import REF_S, Sampler
from workloads import CONFIGS, SRC, WORKLOADS, checkpoint_pin, stage_out

SETUP_SAMPLES = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    # set-up: what a user's process does before its first stage
    sys.path.insert(0, str(SRC))
    from driftwatch import cli
    from driftwatch.config import load_config
    from driftwatch.ddpg import load_checkpoint
    from driftwatch.gnss import make_constellation

    if not cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"driftwatch imported from {cli.__file__}, not {SRC}")
    gnss = load_config(CONFIGS / spec["stages"][0][2]).gnss
    make_constellation(gnss.n_sats, gnss.radius, gnss.constellation_seed,
                       gnss.min_separation_deg)
    ckpt = checkpoint_pin()["path"]
    if spec["checkpoint"]:
        load_checkpoint(ckpt)
    setup_s = time.monotonic() - args.t0

    sampler = Sampler()
    sampler.sample()  # warm-up
    sampler.samples.clear()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    speed = statistics.median(d for _, d in sampler.samples) / REF_S
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s / speed}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, call_sites

        tracer = Tracer()
        tracer.install(call_sites())
        sampler.attach(tracer)
    else:
        sampler.start()

    spans = []
    try:
        for name, command, config in spec["stages"]:
            argv = [command, "--config", str(CONFIGS / config), "--seed", str(args.seed),
                    "--out", str(stage_out(Path(args.out), config))]
            if spec["checkpoint"]:
                argv += ["--checkpoint", str(ckpt)]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            spans.append((name, rc, t0, time.perf_counter()))
            if rc != 0:
                break
    finally:
        sampler.stop()

    result.update(
        stages={name: {"rc": rc, "s": t1 - t0, **sampler.seconds(t0, t1)}
                for name, rc, t0, t1 in spans},
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
