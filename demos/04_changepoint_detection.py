"""Run-length posteriors on a drifting stream.

A conjugate Gaussian changepoint tracker maintains a posterior over
"how many steps since the last regime change".  Under nominal data the
argmax run length grows one per step; after a change it collapses,
because short run lengths explain the recent observations better.

The stream here imitates the quantity the detector consumes in the
full pipeline: a noisy score whose mean sags once an attack starts
dragging the vehicle away from where its value estimate thinks it is.
"""

import numpy as np

from driftwatch.detectors import (
    AgeProfile,
    bocpd_flag,
    bocpd_init,
    bocpd_update,
    page_hinkley,
)

rng = np.random.default_rng(5)

# unit noise around a mean of 0 at every age; a segment's level has the
# same prior variance as the noise
profile = AgeProfile(means=(0.0,), variances=(1.0,), noise_var=1.0,
                     level_var=1.0, n_samples=500)
n, change_at = 120, 60
shift = -3.0
stream = rng.normal(0.0, 1.0, size=n)
stream[change_at:] += shift

print(f"stream: {n} steps of unit noise, mean shifts by {shift} sigma"
      f" at t={change_at}\n")

# one stream is a batch of one row
state = bocpd_init([profile], hazard=0.02)
tau, warmup = 5, 10
first_flag = None
trace = []
for t, x in enumerate(stream):
    state, l_hat = bocpd_update(state, np.array([x]), prune=1e-8)
    flag, _ = bocpd_flag(l_hat[0], t, tau=tau, warmup=warmup)
    if flag and first_flag is None:
        first_flag = t
    trace.append(int(l_hat[0]))

print(f"  {'t':>4}  {'argmax run length':>17}  ")
for t in range(40, 80, 2):
    bar = "#" * min(trace[t], 60)
    mark = "  <- change" if t == change_at else (
        "  <- first flag" if t == first_flag else "")
    print(f"  {t:>4}  {trace[t]:>17}  {bar}{mark}")
print(f"\nflag rule: argmax run length <= {tau} after warmup {warmup};"
      f" first flag at t={first_flag}"
      f" ({first_flag - change_at} steps after the change)")


def noise(trials: int) -> np.ndarray:
    """Fresh unit noise, one row per trial."""
    return np.array([np.random.default_rng([17, trial]).normal(0.0, 1.0, size=n)
                     for trial in range(trials)])


def first_hits(flags: np.ndarray) -> list:
    """Per row, the first flagged step at or after the change, else None."""
    late = flags[:, change_at:]
    return [change_at + int(row.argmax()) if row.any() else None
            for row in late]


def report_delays(hits) -> tuple[str, int]:
    delays = [hit - change_at for hit in hits if hit is not None]
    mean = f"{np.mean(delays):.1f}" if delays else "-"
    return mean, len(hits) - len(delays)


# Sensitivity: small shifts take longer to overwhelm the prior. Each
# entry averages over fresh noise, the 20 runs scored as one batch; a dash
# means no flag within the run.
print("\ndetection delay vs shift size (20 runs each, same rule)")
print(f"  {'shift (sigma)':>13}  {'mean delay':>10}  {'missed':>6}")
for size in (1.0, 2.0, 3.0, 4.0, 6.0):
    runs = noise(20)
    runs[:, change_at:] -= size
    st = bocpd_init([profile] * len(runs), hazard=0.02)
    flags = np.zeros(runs.shape, dtype=bool)
    for t in range(n):
        st, l_hat = bocpd_update(st, runs[:, t], prune=1e-8)
        flags[:, t] = bocpd_flag(l_hat, t, tau=tau, warmup=warmup)[0]
    mean, missed = report_delays(first_hits(flags))
    print(f"  {size:>13.1f}  {mean:>10}  {missed:>6}")

# Page-Hinkley on the same streams for contrast: a cumulative test
# with no posterior, cheaper but blind to anything below its drift
# allowance and slower on gradual onsets.
print("\nPage-Hinkley (delta=0.5, lambda=8) on the same 3-sigma streams")
runs = noise(20)
runs[:, change_at:] -= 3.0
flags = np.array([page_hinkley(run, delta=0.5, lam=8.0)[0] for run in runs])
mean, missed = report_delays(first_hits(flags))
print(f"  mean delay {mean}, missed {missed}/20")
