"""UAV navigation MDP: flow-field dynamics, observations, reward, stepping.

The controller never sees the true position.  Dynamics advance the truth,
measurements come from the truth (or a spoofer), the observation is built
from the least-squares estimate, and the reward is bookkept from truth
geometry only.  Episode state is a value; every transition returns a new
WorldState.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import EnvConfig
from .errors import ConfigurationError, DegenerateGeometryError, NotConvergedError
from .gnss import (
    Constellation,
    PvtSolution,
    ReceiverEstimate,
    measure_pseudoranges,
    solve_pvt,
)
from .spoofing import AttackConfig, attack_alpha, spoof_position, spoof_pseudoranges

TERM_NONE = "none"
TERM_COLLISION = "collision"
TERM_GOAL = "goal_reached"
TERM_TIMEOUT = "timeout"

ACTION_LOW = np.array([0.1, 0.1, -np.pi])
ACTION_HIGH = np.array([3.0, 3.0, np.pi])
_ACTION_BOUNDS = (ACTION_LOW.tolist(), ACTION_HIGH.tolist())

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


def unit(v: np.ndarray) -> np.ndarray:
    """Normalized vector, or zeros when the norm is negligible."""
    v = np.asarray(v, dtype=float)
    n = _norm(v)
    if n < 1e-12:
        return np.zeros_like(v)
    return v / n


@dataclass(frozen=True)
class WorldState:
    """Ground truth of one episode at one step."""

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
        for name in ("uav_pos_true", "uav_vel", "obstacle_pos", "obstacle_vel",
                     "goal", "start"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,) or not _finite(arr):
                raise ConfigurationError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, arr)
        if not self.obstacle_radius > 0:
            raise ConfigurationError("obstacle_radius must be > 0")
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0")


@dataclass(frozen=True)
class ActionVec:
    """Navigation control parameters, clamped to bounds on construction."""

    rho0: float
    sigma0: float
    theta: float

    def __post_init__(self):
        # min(max(v, lo), hi) gives np.clip's result, NaN included
        (lo0, lo1, lo2), (hi0, hi1, hi2) = _ACTION_BOUNDS
        object.__setattr__(self, "rho0", min(max(float(self.rho0), lo0), hi0))
        object.__setattr__(self, "sigma0", min(max(float(self.sigma0), lo1), hi1))
        object.__setattr__(self, "theta", min(max(float(self.theta), lo2), hi2))

    def as_array(self) -> np.ndarray:
        return np.array([self.rho0, self.sigma0, self.theta])

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ActionVec":
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class Observation:
    """What the policy sees: threat geometry, goal offset, obstacle velocity."""

    phi: np.ndarray  # shape (9,)

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=float)
        if arr.shape != (9,) or not _finite(arr):
            raise ConfigurationError("phi must be a finite 9-vector")
        object.__setattr__(self, "phi", arr)


@dataclass(frozen=True)
class RewardBreakdown:
    collision: float
    threat: float
    goal_seek: float
    total: float
    terminal_event: str


@dataclass(frozen=True)
class StepInfo:
    """Side-channel outputs of env_step needed for logging and detection."""

    pvt: PvtSolution
    attack_active: bool
    attack_alpha: float


def _rodrigues(v: np.ndarray, axis_unit: np.ndarray, angle: float) -> np.ndarray:
    """Rotate v about a unit axis by angle."""
    c, s = np.cos(angle), np.sin(angle)
    return (v * c + _cross(axis_unit, v) * s
            + axis_unit * (axis_unit @ v) * (1.0 - c))


def flow_field_matrices(
    uav_pos: np.ndarray,
    obstacle_pos: np.ndarray,
    obstacle_radius: float,
    action: ActionVec,
) -> tuple[np.ndarray, np.ndarray]:
    """Repulsive and tangential modulation matrices around a spherical obstacle.

    The obstacle distance field is Gamma = (||P - P_obs|| / r_obs)^2 with
    outward normal n = grad Gamma.  The repulsive matrix cancels the motion
    component along n (fully at the surface, exponentially weaker with
    distance); the tangential matrix redirects that component along a
    tangent chosen by rotating a reference tangent about n by theta.
    """
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
    tangent = _rodrigues(ref, n_hat, action.theta)

    # Saturated inside the unit level set, exponentially decaying outside.
    w_rep = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / action.rho0))
    w_tan = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / action.sigma0))

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
    action: ActionVec,
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

    return WorldState(
        uav_pos_true=new_pos,
        uav_vel=motion,
        obstacle_pos=obs_pos,
        obstacle_vel=obs_vel,
        obstacle_radius=world.obstacle_radius,
        goal=world.goal,
        start=world.start,
        clock_bias_true=world.clock_bias_true,
        t=world.t + 1,
        dt=world.dt,
    )


def threat_vector(
    est_pos: np.ndarray, obstacle_pos: np.ndarray, obstacle_radius: float
) -> np.ndarray:
    """Signed surface-clearance scalar along the obstacle direction."""
    p_rel = np.asarray(obstacle_pos, float) - np.asarray(est_pos, float)
    clearance = _norm(p_rel) - obstacle_radius
    return clearance * unit(p_rel)


def build_observation(pvt: PvtSolution, world: WorldState) -> Observation:
    """Assemble the 9-vector observation from the estimated position."""
    if not pvt.converged:
        raise NotConvergedError(
            f"position solution did not converge "
            f"(residual norm {pvt.final_residual_norm:.3g})"
        )
    est = pvt.estimate.position
    phi = np.concatenate([
        threat_vector(est, world.obstacle_pos, world.obstacle_radius),
        world.goal - est,
        world.obstacle_vel,
    ])
    return Observation(phi=phi)


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
) -> tuple[WorldState, Observation, PvtSolution]:
    """Sample a fresh episode deterministically, exposing the initial fix."""
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
    truth = ReceiverEstimate(world.uav_pos_true, world.clock_bias_true)
    meas = measure_pseudoranges(truth, constellation, noise_sigma, rng)
    pvt = solve_pvt(meas, constellation, init=truth)
    return world, build_observation(pvt, world), pvt


def env_reset(
    cfg: EnvConfig,
    seed: int,
    constellation: Constellation,
    noise_sigma: float = 0.0,
) -> tuple[WorldState, Observation]:
    """Sample a fresh episode deterministically from the seed."""
    world, obs, _ = env_reset_full(cfg, seed, constellation, noise_sigma)
    return world, obs


def env_step(
    world: WorldState,
    action: ActionVec,
    constellation: Constellation,
    noise_sigma: float,
    spoof: AttackConfig | None = None,
    *,
    cfg: EnvConfig,
    rng: np.random.Generator | None = None,
    nav_pos: np.ndarray | None = None,
    pvt_init: ReceiverEstimate | None = None,
) -> tuple[WorldState, Observation, RewardBreakdown, bool, StepInfo]:
    """One full cycle: move, measure (or get spoofed), solve, observe, score.

    ``nav_pos`` feeds the controller's believed position to the dynamics;
    ``pvt_init`` warm-starts the solver (falls back to the truth, which
    any in-range initialization converges to at these geometries).
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

    truth = ReceiverEstimate(world_next.uav_pos_true, world_next.clock_bias_true)
    phase = attack_alpha(world_next.t, spoof) if spoof is not None else None
    if phase is not None and phase.active:
        implied = spoof_position(world_next.uav_pos_true, phase, spoof)
        meas = spoof_pseudoranges(implied, world_next.clock_bias_true, constellation)
    else:
        meas = measure_pseudoranges(truth, constellation, noise_sigma,
                                    rng or np.random.default_rng(0))

    init = pvt_init if pvt_init is not None else truth
    pvt = solve_pvt(meas, constellation, init=init)
    obs = build_observation(pvt, world_next)

    rb = reward(world_next, xi=cfg.threat_margin, goal_threshold=cfg.goal_threshold)
    done = rb.terminal_event in (TERM_COLLISION, TERM_GOAL)
    if not done and world_next.t >= cfg.max_steps:
        rb = dataclasses.replace(rb, terminal_event=TERM_TIMEOUT)
        done = True

    info = StepInfo(
        pvt=pvt,
        attack_active=bool(phase.active) if phase is not None else False,
        attack_alpha=float(phase.alpha) if phase is not None else 0.0,
    )
    return world_next, obs, rb, done, info
