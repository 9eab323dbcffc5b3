"""Position/clock solve from pseudoranges.

Walks through the receiver-side least-squares fix: build a satellite
constellation, fabricate pseudoranges for a known receiver state, and
recover position and clock bias by Gauss-Newton iteration.  Shows how
measurement noise and satellite count move the answer.
"""

import numpy as np

from driftwatch.config import GnssConfig
from driftwatch.gnss import (
    Constellation,
    constellation_from_config,
    measure_pseudoranges,
    predicted_pseudoranges,
    solve_pvt,
)

rng = np.random.default_rng(42)

constellation = constellation_from_config(GnssConfig())
truth_pos = np.array([420.0, 615.0, 180.0])
truth_bias = 37.5

print("constellation: 8 satellites on a 20,000 km upper hemisphere")
print(f"true receiver position {truth_pos} m, clock bias {truth_bias} m\n")

# Noise-free solve: the geometry is mild, convergence is quadratic.
clean = predicted_pseudoranges(truth_pos, truth_bias, constellation)
sol = solve_pvt(clean, constellation)
err = np.linalg.norm(sol.x[:3] - truth_pos)
print("noise-free solve")
print(f"  iterations        {sol.iterations}")
print(f"  position error    {err:.2e} m")
print(f"  clock bias error  {abs(sol.x[3] - truth_bias):.2e} m")

print("\nnoisy solves (20 trials each)")
print(f"  {'sigma (m)':>10}  {'rms pos error (m)':>18}  {'rms bias error (m)':>18}")
for sigma in (0.5, 2.0, 8.0):
    pos_errs, bias_errs = [], []
    for _ in range(20):
        meas = measure_pseudoranges(truth_pos, truth_bias, constellation,
                                    sigma, rng)
        s = solve_pvt(meas, constellation)
        pos_errs.append(np.sum((s.x[:3] - truth_pos) ** 2))
        bias_errs.append((s.x[3] - truth_bias) ** 2)
    print(f"  {sigma:>10.1f}  {np.sqrt(np.mean(pos_errs)):>18.2f}"
          f"  {np.sqrt(np.mean(bias_errs)):>18.2f}")

# Dropping satellites degrades the geometry; four is the bare minimum
# for the four unknowns and amplifies the same 2 m noise noticeably.
print("\nsatellite count vs accuracy (sigma = 2 m, 20 trials)")
print(f"  {'n sats':>7}  {'rms pos error (m)':>18}")
for n in (8, 6, 5, 4):
    sub = Constellation(constellation.positions[:n])
    sub_truth_ranges = predicted_pseudoranges(truth_pos, truth_bias, sub)
    errs = []
    for _ in range(20):
        noisy = sub_truth_ranges + rng.normal(0.0, 2.0, size=n)
        s = solve_pvt(noisy, sub)
        errs.append(np.sum((s.x[:3] - truth_pos) ** 2))
    print(f"  {n:>7}  {np.sqrt(np.mean(errs)):>18.2f}")

print("\nthe solver starts from the origin by default; any start in the"
      "\noperating volume converges to the same fix at these geometries")
