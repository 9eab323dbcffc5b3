"""Full pipeline: train, profile, evaluate, compare detectors.

Runs the whole stack at default settings: train the navigation policy,
fit the detector bank on attack-free episodes, then score every
detector on fresh nominal and drift-attacked episodes.  Takes about
half a minute on one core.

The four detectors watch different signals:

  bocpd      run-length posterior over the critic's value score
  ph         Page-Hinkley cumulative test over the same score
  residual   pseudorange residual threshold plus a fix-jump gate
  window_ae  autoencoder reconstruction error over windows of the same score

The drift attack is built to beat the residual check (fabricated
measurements are self-consistent) and to move slowly enough that any
single step looks plausible.  What it cannot hide is that the value
score of the believed state detaches from how nominal episodes of the
same age behave.
"""

import time

import numpy as np

from driftwatch.config import ExperimentConfig
from driftwatch.ddpg import train
from driftwatch.harness import DETECTOR_ORDER, evaluate, profile_pipeline

cfg = ExperimentConfig()

t0 = time.perf_counter()
agent, history = train(cfg, cfg.master_seed)
print(f"trained {cfg.train.episodes} episodes in"
      f" {time.perf_counter() - t0:.1f}s;"
      f" return went {np.mean(history[:20]):.1f} (first 20)"
      f" -> {np.mean(history[-20:]):.1f} (last 20)")

t0 = time.perf_counter()
bank, diag = profile_pipeline(agent, cfg, cfg.master_seed)
profile = diag["profile"]
print(f"profiled {cfg.eval.profile_episodes} nominal episodes in"
      f" {time.perf_counter() - t0:.1f}s; value score baseline"
      f" mu0={profile.mu0:.2f} sigma0={profile.sigma0:.2f},"
      f" same-age horizon {bank.age_profile.horizon} steps,"
      f" calibrated tau={bank.tau}")

t0 = time.perf_counter()
metrics, logs = evaluate(agent, cfg, bank, cfg.master_seed)
n_nom = sum(not log.attacked for log in logs)
n_att = len(logs) - n_nom
print(f"evaluated {n_nom} nominal + {n_att} attacked episodes in"
      f" {time.perf_counter() - t0:.1f}s\n")

print(f"  {'detector':>10}  {'accuracy':>8}  {'fpr':>6}  {'fnr':>6}"
      f"  {'mean delay':>10}  {'detected':>8}")
for name in DETECTOR_ORDER:
    m = metrics[name]
    delay = m["detection_delay"]["mean"]
    delay = "-" if delay is None else f"{delay:.1f}"
    print(f"  {name:>10}  {m['accuracy']['mean']:>8.3f}"
          f"  {m['false_positive_rate']['mean']:>6.3f}"
          f"  {m['false_negative_rate']['mean']:>6.2f}  {delay:>10}"
          f"  {m['n_detected']:>5}/{n_att}")

# Per-episode view for the value-score tracker: when each attacked
# episode was first flagged relative to its onset.
bocpd_col = DETECTOR_ORDER.index("bocpd")
print("\nfirst bocpd flag per attacked episode (onset at"
      f" t={cfg.eval.attack_t_start}):")
firsts = []
for log in logs:
    if not log.attacked:
        continue
    hits = np.flatnonzero(log.flags[:, bocpd_col])
    firsts.append("-" if hits.size == 0 else str(int(hits[0])))
print("  " + " ".join(firsts))

both = [name for name in DETECTOR_ORDER
        if metrics[name]["false_positive_rate"]["mean"] <= 0.1
        and metrics[name]["false_negative_rate"]["mean"] <= 0.1]
print("\nquiet on nominal traffic and reliable against the drift"
      "\n(false-positive and false-negative rates both <= 0.1): "
      + (", ".join(both) if both else "none"))
