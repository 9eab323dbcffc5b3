"""Anatomy of a drift-evasive spoofing attack.

Two copies of the same episode run side by side from the same seed.
One receives honest pseudoranges, the other gets a fabricated set that
interpolates the implied position from the live truth toward a fixed
target over 50 steps.  The controller in both copies steers by its own
GNSS fix, so the spoofed copy is physically dragged off course by its
own compensation.

The fabricated measurements are exactly consistent with the implied
position (same clock bias, zero extra noise), which is what makes the
attack invisible to innovation-style residual checks: the solver sees
a perfectly coherent world that just happens to be slowly wrong.
"""

import numpy as np

from driftwatch.config import ExperimentConfig
from driftwatch.env import env_reset_full, env_step, steer
from driftwatch.gnss import constellation_from_config
from driftwatch.spoofing import AttackConfig, attack_alpha

cfg = ExperimentConfig()
constellation = constellation_from_config(cfg.gnss)

attack = AttackConfig(t_start=40, drift_duration=50,
                      target=(500.0, 500.0, 50.0), enabled=True)
action = np.array([1.5, 1.5, 0.0])  # rho0, sigma0, theta
seed = 11

runs = {}
for label, spoof in (("honest", None), ("spoofed", attack)):
    rng = np.random.default_rng([seed, 77])
    world, phi, pvt = env_reset_full(cfg.env, seed, constellation,
                                     cfg.gnss.noise_sigma)
    rows = []
    for t in range(1, 121):
        motion = steer(world, action, pvt.x[:3], cfg.env)  # steered by the fix
        world, phi, rb, done, pvt = env_step(
            world, motion, constellation, cfg.gnss.noise_sigma, spoof,
            cfg=cfg.env, rng=rng, pvt_init=pvt.x)
        alpha = (attack_alpha(t, attack) or 0.0) if spoof else 0.0
        rows.append((t, alpha, world.uav_pos_true.copy(),
                     pvt.x[:3].copy(),
                     float(np.linalg.norm(pvt.residuals))))
        if done:
            break
    runs[label] = rows

print("same seed, same controller, same noise draws; attack ramps over"
      f"\nsteps {attack.t_start}..{attack.t_start + attack.drift_duration}"
      f" toward {attack.target}\n")
print(f"  {'t':>4} {'alpha':>6} {'fix vs truth (m)':>17}"
      f" {'truth diverted (m)':>19} {'residual norm (m)':>18}")
for i in range(9, len(runs["spoofed"]), 10):
    t, alpha, true_s, est_s, resid = runs["spoofed"][i]
    true_h = runs["honest"][i][2]
    fix_gap = np.linalg.norm(est_s - true_s)
    divert = np.linalg.norm(true_s - true_h)
    print(f"  {t:>4} {alpha:>6.2f} {fix_gap:>17.1f} {divert:>19.1f}"
          f" {resid:>18.2f}")

honest_resid = [r[4] for r in runs["honest"]]
spoof_resid = [r[4] for r in runs["spoofed"][attack.t_start:]]
print(f"\nresidual norms: honest mean {np.mean(honest_resid):.2f} m,"
      f" spoofed post-onset mean {np.mean(spoof_resid):.2f} m")
print("the fabricated set is exactly self-consistent, so the residuals"
      "\ncollapse to zero; a gate keyed to large residuals sees nothing"
      "\nwhile the vehicle flies itself off course")

# Contrast: an abrupt teleport of the implied position is loud. The fix
# jumps a few hundred meters in one step, which any jump gate catches.
abrupt = AttackConfig(t_start=40, drift_duration=1,
                      target=(500.0, 500.0, 50.0), enabled=True)
rng = np.random.default_rng([seed, 77])
world, phi, pvt = env_reset_full(cfg.env, seed, constellation,
                                 cfg.gnss.noise_sigma)
prev_fix = pvt.x[:3].copy()
jump_at_onset = None
for t in range(1, 46):
    world, phi, rb, done, pvt = env_step(
        world, steer(world, action, pvt.x[:3], cfg.env), constellation,
        cfg.gnss.noise_sigma, abrupt, cfg=cfg.env, rng=rng, pvt_init=pvt.x)
    step_jump = np.linalg.norm(pvt.x[:3] - prev_fix)
    prev_fix = pvt.x[:3].copy()
    if t == abrupt.t_start + 1:
        jump_at_onset = step_jump
print(f"\nabrupt variant: fix jumps {jump_at_onset:.0f} m in a single step"
      f" at onset (cruise is {cfg.env.cruise_speed:.0f} m/s)")
print("drifting slowly is what buys the attacker stealth")
