"""Obstacle avoidance with modulation matrices.

The controller never plans a path.  Each step it takes the straight
attraction velocity toward the goal and multiplies it by
(I + M_rep + M_tan): the repulsive matrix cancels the velocity
component pointing into the obstacle, the tangential matrix redirects
it sideways.  Three scalars shape the field, and they are all a policy
has to choose:

  rho0    repulsion range (bigger = starts dodging earlier)
  sigma0  tangential range
  theta   which tangent direction to slide along

First part: what the matrices do to a head-on velocity at shrinking
distance.  Second part: a full episode flown with fixed gains.
"""

import numpy as np

from driftwatch.config import ExperimentConfig
from driftwatch.env import env_reset, modulation_matrix, steer, step_dynamics
from driftwatch.gnss import constellation_from_config

rho0, sigma0, theta = 1.5, 1.5, 0.0
action = np.array([rho0, sigma0, theta])
obstacle = np.array([0.0, 0.0, 0.0])
radius = 60.0

print("head-on approach, obstacle radius 60 m, rho0 = sigma0 = 1.5")
print(f"  {'distance (m)':>13}  {'gamma':>6}  {'w_rep':>6}  modulated velocity (m/s)")
for dist in (300.0, 180.0, 120.0, 90.0, 70.0, 61.0):
    pos = np.array([dist, 0.0, 0.0])
    v = np.array([-10.0, 0.0, 0.0])  # straight at the center
    out = modulation_matrix(pos, obstacle, radius, action) @ v
    gamma = (dist / radius) ** 2
    w_rep = 1.0 if gamma <= 1.0 else np.exp((1.0 - gamma) / rho0)
    print(f"  {dist:>13.0f}  {gamma:>6.1f}  {w_rep:>6.3f}"
          f"  [{out[0]:>7.2f} {out[1]:>7.2f} {out[2]:>7.2f}]")
print("  far away the field is transparent; at the surface the inward"
      "\n  component is fully cancelled and re-aimed along the tangent\n")

# One episode with the same fixed gains. No learning involved; this is
# the environment the policy will later be trained in.
cfg = ExperimentConfig()
constellation = constellation_from_config(cfg.gnss)
world, phi = env_reset(cfg.env, 3, constellation, cfg.gnss.noise_sigma)

start_goal_dist = np.linalg.norm(world.goal - world.uav_pos_true)
print(f"episode: start {np.round(world.uav_pos_true)} m,"
      f" goal {np.round(world.goal)} m ({start_goal_dist:.0f} m apart)")
print(f"moving obstacle: radius {cfg.env.obstacle_radius:.0f} m at"
      f" {np.round(world.obstacle_pos)} m,"
      f" velocity {np.round(world.obstacle_vel, 1)} m/s\n")

min_clear = np.inf
print(f"  {'t':>4}  {'goal dist (m)':>13}  {'obstacle clearance (m)':>22}")
t = 0
while True:
    # steered by the truth: no receiver in this loop
    motion = steer(world, action, world.uav_pos_true, cfg.env)
    world = step_dynamics(world, motion, cfg.env)
    t = world.t
    goal_dist = np.linalg.norm(world.goal - world.uav_pos_true)
    clear = (np.linalg.norm(world.uav_pos_true - world.obstacle_pos)
             - cfg.env.obstacle_radius)
    min_clear = min(min_clear, clear)
    if t % 20 == 0 or goal_dist < cfg.env.goal_threshold:
        print(f"  {t:>4}  {goal_dist:>13.1f}  {clear:>22.1f}")
    if goal_dist < cfg.env.goal_threshold:
        print(f"\ngoal reached at t={t},"
              f" closest obstacle approach {min_clear:.1f} m")
        break
    if t >= cfg.env.max_steps:
        print(f"\ntimed out at t={t}, {goal_dist:.0f} m short,"
              f" closest approach {min_clear:.1f} m")
        break

print("\nfixed mid-range gains handle this draw; the learned policy picks"
      "\nrho0/sigma0/theta per situation, which matters on geometries where"
      "\nthe obstacle crosses the direct path more aggressively")
