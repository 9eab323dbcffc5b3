"""UAV navigation MDP: flow-field dynamics, observations, reward, stepping.

The controller never sees the true position.  Dynamics advance the truth,
measurements come from the truth (or a spoofer), the observation is built
from the least-squares estimate, and the reward is bookkept from truth
geometry only.  Episode state is a value; every transition returns a new
WorldState.  All else travels as plain arrays: the action (rho0, sigma0,
theta), the 9-vector observation phi, and the fix `PvtSolution.x`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import EnvConfig
from .errors import ConfigurationError, DegenerateGeometryError, NotConvergedError
from .gnss import Constellation, PvtSolution, measure_pseudoranges, solve_pvt
from .spoofing import AttackConfig, attack_alpha, spoof_position, spoof_pseudoranges

TERM_NONE = "none"
TERM_COLLISION = "collision"
TERM_GOAL = "goal_reached"
TERM_TIMEOUT = "timeout"

ACTION_LOW = np.array([0.1, 0.1, -np.pi])
ACTION_HIGH = np.array([3.0, 3.0, np.pi])

_Z = np.array([0.0, 0.0, 1.0])
_X = np.array([1.0, 0.0, 0.0])
_I3 = np.eye(3)


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D vector, computed as np.linalg.norm does."""
    return math.sqrt(v.dot(v))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors with np.cross's products and differences."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _finite(v: np.ndarray) -> bool:
    """np.isfinite(v).all() for a short 1-D float vector, one float at a time."""
    return all(map(math.isfinite, v.tolist()))


def clip_action(raw: np.ndarray) -> np.ndarray:
    """(..., 3) actions clamped to the bounds as np.clip would, NaN included,
    without np.clip's per-call overhead."""
    return np.minimum(np.maximum(raw, ACTION_LOW), ACTION_HIGH)


def unit(v: np.ndarray) -> np.ndarray:
    """Normalized vector, or zeros when the norm is negligible."""
    v = np.asarray(v, dtype=float)
    n = _norm(v)
    if n < 1e-12:
        return np.zeros_like(v)
    return v / n


# the vectors of a WorldState that change from one step to the next
_MOVING = ("uav_pos_true", "uav_vel", "obstacle_pos", "obstacle_vel")


@dataclass(frozen=True)
class WorldState:
    """Ground truth of one episode at one step.

    Its vectors are validated, read-only copies of the arrays it was built
    from, so the next step's state can share goal and start unchecked.
    """

    uav_pos_true: np.ndarray
    uav_vel: np.ndarray
    obstacle_pos: np.ndarray
    obstacle_vel: np.ndarray
    obstacle_radius: float
    goal: np.ndarray
    start: np.ndarray
    clock_bias_true: float
    t: int
    dt: float

    def __post_init__(self):
        for name in _MOVING + ("goal", "start"):
            self._freeze(name, np.array(getattr(self, name), dtype=float))
        if not self.obstacle_radius > 0:
            raise ConfigurationError("obstacle_radius must be > 0")
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0")

    def _freeze(self, name: str, arr: np.ndarray) -> None:
        """Check that `arr` is a finite 3-vector, make it read-only, store it."""
        if arr.shape != (3,) or not _finite(arr):
            raise ConfigurationError(f"{name} must be a finite 3-vector")
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)

    def _advance(self, *moving: np.ndarray) -> "WorldState":
        """The state one step later, with fresh float arrays for the vectors
        in _MOVING.  Those are checked and frozen in place; goal, start,
        the radius, the clock bias and dt carry over as already checked."""
        nxt = object.__new__(WorldState)
        nxt.__dict__.update(self.__dict__, t=self.t + 1)
        for name, arr in zip(_MOVING, moving):
            nxt._freeze(name, arr)
        return nxt


@dataclass(frozen=True)
class RewardBreakdown:
    collision: float
    threat: float
    goal_seek: float
    total: float
    terminal_event: str


def _rodrigues(v: np.ndarray, axis_unit: np.ndarray, angle: float) -> np.ndarray:
    """Rotate v about a unit axis by angle."""
    c, s = np.cos(angle), np.sin(angle)
    return (v * c + _cross(axis_unit, v) * s
            + axis_unit * (axis_unit @ v) * (1.0 - c))


def flow_field_matrices(
    uav_pos: np.ndarray,
    obstacle_pos: np.ndarray,
    obstacle_radius: float,
    action: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Repulsive and tangential modulation matrices around a spherical obstacle.

    The obstacle distance field is Gamma = (||P - P_obs|| / r_obs)^2 with
    outward normal n = grad Gamma.  The repulsive matrix cancels the motion
    component along n (fully at the surface, exponentially weaker with
    distance); the tangential matrix redirects that component along a
    tangent chosen by rotating a reference tangent about n by theta.
    ``action`` is the in-bounds (rho0, sigma0, theta).
    """
    rho0, sigma0, theta = np.asarray(action, dtype=float).tolist()
    uav_pos = np.asarray(uav_pos, dtype=float)
    obstacle_pos = np.asarray(obstacle_pos, dtype=float)
    sep = uav_pos - obstacle_pos
    dist = _norm(sep)
    if dist < 1e-6:
        raise DegenerateGeometryError("UAV coincides with the obstacle center")
    gamma = (dist / obstacle_radius) ** 2
    n = 2.0 * sep / obstacle_radius**2
    n_hat = sep / dist

    ref = _cross(n_hat, _Z)
    ref_norm = _norm(ref)
    if ref_norm < 1e-9:
        ref = _X  # normal is vertical; any horizontal direction works
    else:
        ref = ref / ref_norm
    tangent = _rodrigues(ref, n_hat, theta)

    # Saturated inside the unit level set, exponentially decaying outside.
    w_rep = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / rho0))
    w_tan = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / sigma0))

    m_rep = -w_rep * (n[:, None] * n) / (n @ n)
    m_tan = w_tan * (tangent[:, None] * n) / (_norm(tangent) * _norm(n))
    return m_rep, m_tan


def _clamp_motion(
    v_new: np.ndarray,
    v_prev: np.ndarray,
    speed: float,
    climb_rate_limit: float,
    heading_rate_limit_deg: float,
) -> np.ndarray:
    """Apply climb-rate, per-step heading, and total-speed limits."""
    v = np.asarray(v_new, dtype=float).copy()
    v[2] = min(max(v[2], -climb_rate_limit), climb_rate_limit)

    h_prev = np.asarray(v_prev, dtype=float)[:2]
    h_new = v[:2]
    if _norm(h_prev) > 1e-9 and _norm(h_new) > 1e-9:
        ang_prev = np.arctan2(h_prev[1], h_prev[0])
        ang_new = np.arctan2(h_new[1], h_new[0])
        dang = (ang_new - ang_prev + np.pi) % (2.0 * np.pi) - np.pi
        limit = np.deg2rad(heading_rate_limit_deg)
        if abs(dang) > limit:
            ang = ang_prev + np.sign(dang) * limit
            mag = _norm(h_new)
            v[0] = mag * np.cos(ang)
            v[1] = mag * np.sin(ang)

    total = _norm(v)
    if total > speed:
        v = v * (speed / total)
    return v


def step_dynamics(
    world: WorldState,
    action: np.ndarray,
    speed: float,
    nav_pos: np.ndarray | None = None,
    *,
    climb_rate_limit: float = 3.0,
    heading_rate_limit_deg: float = 30.0,
    bounds: tuple[float, float, float] = (1000.0, 1000.0, 300.0),
) -> WorldState:
    """Advance the truth one step under the flow-field controller.

    ``nav_pos`` is the position the controller believes it is at; it
    defaults to the truth, and the episode harness passes the previous
    GNSS estimate so that spoofed fixes steer the real vehicle.
    """
    believed = world.uav_pos_true if nav_pos is None else np.asarray(nav_pos, float)
    attract = speed * unit(world.goal - believed)
    m_rep, m_tan = flow_field_matrices(
        believed, world.obstacle_pos, world.obstacle_radius, action
    )
    rel = attract - world.obstacle_vel
    motion = (_I3 + m_rep + m_tan) @ rel + world.obstacle_vel
    motion = _clamp_motion(motion, world.uav_vel, speed,
                           climb_rate_limit, heading_rate_limit_deg)
    new_pos = world.uav_pos_true + world.dt * motion

    obs_pos = world.obstacle_pos + world.dt * world.obstacle_vel
    obs_vel = world.obstacle_vel.copy()
    for i, hi in enumerate(bounds):
        if obs_pos[i] < 0.0:
            obs_pos[i] = -obs_pos[i]
            obs_vel[i] = -obs_vel[i]
        elif obs_pos[i] > hi:
            obs_pos[i] = 2.0 * hi - obs_pos[i]
            obs_vel[i] = -obs_vel[i]

    return world._advance(new_pos, motion, obs_pos, obs_vel)


def threat_vector(
    est_pos: np.ndarray, obstacle_pos: np.ndarray, obstacle_radius: float
) -> np.ndarray:
    """Signed surface-clearance scalar along the obstacle direction."""
    p_rel = np.asarray(obstacle_pos, float) - np.asarray(est_pos, float)
    clearance = _norm(p_rel) - obstacle_radius
    return clearance * unit(p_rel)


def build_observation(pvt: PvtSolution, world: WorldState) -> np.ndarray:
    """The finite 9-vector phi the policy sees, from the fix's position."""
    if not pvt.converged:
        raise NotConvergedError(
            f"position solution did not converge "
            f"(residual norm {pvt.final_residual_norm:.3g})"
        )
    est = pvt.x[:3]
    phi = np.concatenate([
        threat_vector(est, world.obstacle_pos, world.obstacle_radius),
        world.goal - est,
        world.obstacle_vel,
    ])
    if not _finite(phi):
        raise ConfigurationError("phi must be a finite 9-vector")
    return phi


def reward(
    world_next: WorldState,
    xi: float = 0.4,
    goal_threshold: float = 10.0,
) -> RewardBreakdown:
    """Reward of the state just entered, from truth geometry only."""
    p = world_next.uav_pos_true
    r_obs = world_next.obstacle_radius
    d = _norm(world_next.obstacle_pos - p)

    r_coll = 0.0
    r_thr = 0.0
    if d <= r_obs:
        r_coll = -1.0 + (d - r_obs) / r_obs
    elif d < r_obs + xi:
        r_thr = -0.3 + (d - (r_obs + xi)) / (r_obs + xi)

    dist_goal = _norm(world_next.goal - p)
    reached = dist_goal <= goal_threshold
    denom = max(_norm(world_next.goal - world_next.start), 1e-9)
    r_goal = -dist_goal / denom + (3.0 if reached else 0.0)

    if d <= r_obs:
        event = TERM_COLLISION
    elif reached:
        event = TERM_GOAL
    else:
        event = TERM_NONE
    return RewardBreakdown(
        collision=r_coll,
        threat=r_thr,
        goal_seek=r_goal,
        total=r_coll + r_thr + r_goal,
        terminal_event=event,
    )


def _sample_start_goal(
    cfg: EnvConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample a start/goal pair with the configured separation.

    The displacement direction is rejection-sampled until it fits inside
    the airspace box; the start is then uniform over the positions that
    keep both endpoints in bounds.
    """
    bounds = np.array(cfg.bounds)
    lo, hi = cfg.goal_distance_range
    for _ in range(100_000):
        d = rng.uniform(lo, hi)
        direction = rng.normal(size=3)
        norm = _norm(direction)
        if norm < 1e-9:
            continue
        delta = d * direction / norm
        if np.any(np.abs(delta) >= bounds):
            continue
        room = bounds - np.abs(delta)
        base = rng.uniform(np.zeros(3), room)
        start = np.where(delta >= 0, base, base - delta)
        return start, start + delta
    raise ConfigurationError(
        f"no start/goal pair with separation in {cfg.goal_distance_range} "
        f"fits inside bounds {cfg.bounds}"
    )


def _place_obstacle(
    cfg: EnvConfig, start: np.ndarray, goal: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Obstacle center near the start-goal segment, with a random velocity."""
    frac = rng.uniform(*cfg.obstacle_path_frac_range)
    offset_mag = rng.uniform(*cfg.obstacle_offset_range)
    axis = unit(goal - start)
    perp = rng.normal(size=3)
    perp = perp - (perp @ axis) * axis
    n = _norm(perp)
    if n < 1e-9:
        perp = np.array([axis[1], -axis[0], 0.0])
        n = _norm(perp)
    perp = perp / n
    center = start + frac * (goal - start) + offset_mag * perp
    center = np.clip(center, 0.0, np.array(cfg.bounds))

    speed = rng.uniform(*cfg.obstacle_speed_range)
    vel = speed * unit(rng.normal(size=3))
    return center, vel


def env_reset_full(
    cfg: EnvConfig,
    seed: int,
    constellation: Constellation,
    noise_sigma: float = 0.0,
) -> tuple[WorldState, np.ndarray, PvtSolution]:
    """Sample a fresh episode deterministically: (world, phi, initial fix)."""
    rng = np.random.default_rng([seed, 0x5EED])
    start, goal = _sample_start_goal(cfg, rng)
    obstacle_pos, obstacle_vel = _place_obstacle(cfg, start, goal, rng)
    world = WorldState(
        uav_pos_true=start,
        uav_vel=np.zeros(3),
        obstacle_pos=obstacle_pos,
        obstacle_vel=obstacle_vel,
        obstacle_radius=cfg.obstacle_radius,
        goal=goal,
        start=start,
        clock_bias_true=float(rng.uniform(*cfg.clock_bias_range)),
        t=0,
        dt=cfg.dt,
    )
    pos, bias = world.uav_pos_true, world.clock_bias_true
    meas = measure_pseudoranges(pos, bias, constellation, noise_sigma, rng)
    pvt = solve_pvt(meas, constellation, init=np.append(pos, bias))
    return world, build_observation(pvt, world), pvt


def env_reset(
    cfg: EnvConfig,
    seed: int,
    constellation: Constellation,
    noise_sigma: float = 0.0,
) -> tuple[WorldState, np.ndarray]:
    """Sample a fresh episode deterministically from the seed: (world, phi)."""
    world, phi, _ = env_reset_full(cfg, seed, constellation, noise_sigma)
    return world, phi


def env_step(
    world: WorldState,
    action: np.ndarray,
    constellation: Constellation,
    noise_sigma: float,
    spoof: AttackConfig | None = None,
    *,
    cfg: EnvConfig,
    rng: np.random.Generator | None = None,
    nav_pos: np.ndarray | None = None,
    pvt_init: np.ndarray | None = None,
) -> tuple[WorldState, np.ndarray, RewardBreakdown, bool, PvtSolution]:
    """One full cycle: move, measure (or get spoofed), solve, observe, score.

    ``action`` is an in-bounds (rho0, sigma0, theta).  Returns (next
    world, phi, reward, done, fix), where the fix is the PvtSolution the
    9-vector phi was built from.  ``nav_pos`` feeds the controller's
    believed position to the dynamics; ``pvt_init``, an (x, y, z, bias)
    vector, is where the solver starts.  The study rollouts
    (`harness.run_episode`) pass the episode's previous fix, so a study fix
    never starts from the truth.  Training passes nothing and the solver
    falls back to the truth, which any in-range initialization converges
    to at these geometries; moving training off it would change the pinned
    checkpoint.  From onset on the pseudoranges are spoofed, noiseless.
    """
    if noise_sigma > 0 and rng is None:
        raise ConfigurationError("noise_sigma > 0 requires an rng")

    world_next = step_dynamics(
        world,
        action,
        cfg.cruise_speed,
        nav_pos=nav_pos,
        climb_rate_limit=cfg.climb_rate_limit,
        heading_rate_limit_deg=cfg.heading_rate_limit_deg,
        bounds=cfg.bounds,
    )

    pos, bias = world_next.uav_pos_true, world_next.clock_bias_true
    alpha = attack_alpha(world_next.t, spoof) if spoof is not None else None
    if alpha is None:
        meas = measure_pseudoranges(pos, bias, constellation, noise_sigma, rng)
    else:
        implied = spoof_position(pos, alpha, spoof)
        meas = spoof_pseudoranges(implied, bias, constellation)

    init = pvt_init if pvt_init is not None else np.append(pos, bias)
    pvt = solve_pvt(meas, constellation, init=init)
    phi = build_observation(pvt, world_next)

    rb = reward(world_next, xi=cfg.threat_margin, goal_threshold=cfg.goal_threshold)
    done = rb.terminal_event in (TERM_COLLISION, TERM_GOAL)
    if not done and world_next.t >= cfg.max_steps:
        rb = dataclasses.replace(rb, terminal_event=TERM_TIMEOUT)
        done = True

    return world_next, phi, rb, done, pvt
