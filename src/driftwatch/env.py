"""UAV navigation MDP: flow-field dynamics, observations, reward, stepping.

The controller never sees the true position.  Dynamics advance the truth,
steered from the position the controller believes, which every caller
passes (there is no fallback to the truth); measurements come from the
truth (or a spoofer), the observation is built from the least-squares
estimate, and the reward is bookkept from truth geometry only.  The
dynamics and the reward read their limits from the EnvConfig they are
given, and a reset takes the receiver noise it measures with.  Episode
state is a value; every transition returns a new WorldState.  All else
travels as plain arrays: the action (rho0, sigma0, theta), the 9-vector
observation phi, and the fix `PvtSolution.x`.

A step works on Python floats wherever the arithmetic is element-wise:
IEEE +, -, *, /, comparisons and sqrt round the same on a Python float as
on a numpy element, without numpy's per-call cost on 3-element arrays.
numpy stays wherever the bits come from a kernel Python does not
reproduce: every dot product and norm (OpenBLAS's `ddot`, a chain of fused
multiply-adds), the 3x3 matrix-vector product, and `exp`, `cos`, `sin`
and `arctan2` (numpy's float64 routines, which can differ from libm's).
The flow field's entries are formed as floats once: `modulation_matrix`
adds the repulsive and the tangential entries to the identity entry by
entry, (I + M_rep) + M_tan as numpy would, into the one matrix the
step's matrix-vector product reads.  A step validates the new state
once, and `|goal - start|` is computed once per episode, when its
WorldState is built.  The next state and the reward breakdown are built
without the frozen dataclasses' per-field `__init__`; both stay frozen,
and the breakdown names the terminal event, timeout included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

_Z = (0.0, 0.0, 1.0)
_X = (1.0, 0.0, 0.0)
_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # I, row-major


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D vector, computed as np.linalg.norm does."""
    return math.sqrt(v.dot(v))


def _cross(a, b) -> tuple[float, float, float]:
    """Cross product of two float 3-tuples with np.cross's products and
    differences."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


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
    `goal_span` is |goal - start|, computed when the state is built (also
    by `dataclasses.replace`) and carried over by every step.
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
    goal_span: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _MOVING + ("goal", "start"):
            self._freeze(name, np.array(getattr(self, name), dtype=float))
        if not self.obstacle_radius > 0:
            raise ConfigurationError("obstacle_radius must be > 0")
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0")
        object.__setattr__(self, "goal_span", _norm(self.goal - self.start))

    def _freeze(self, name: str, arr: np.ndarray) -> None:
        """Check that `arr` is a finite 3-vector, make it read-only, store it."""
        if arr.shape != (3,) or not _finite(arr):
            raise ConfigurationError(f"{name} must be a finite 3-vector")
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)

    def _advance(self, moving: list[float]) -> "WorldState":
        """The state one step later.  `moving` holds the 12 floats of the
        vectors in _MOVING, in order; they are checked once and become the
        read-only rows of one array.  Goal, start, the goal span, the
        radius, the clock bias and dt carry over as already checked."""
        if not all(map(math.isfinite, moving)):
            bad = next(k for k in range(4)
                       if not all(map(math.isfinite, moving[3 * k:3 * k + 3])))
            raise ConfigurationError(f"{_MOVING[bad]} must be a finite 3-vector")
        flat = np.array(moving)
        flat.flags.writeable = False
        rows = flat.reshape(4, 3)
        nxt = object.__new__(WorldState)
        nxt.__dict__.update(self.__dict__, t=self.t + 1, uav_pos_true=rows[0],
                            uav_vel=rows[1], obstacle_pos=rows[2],
                            obstacle_vel=rows[3])
        return nxt


@dataclass(frozen=True)
class RewardBreakdown:
    collision: float
    threat: float
    goal_seek: float
    total: float
    terminal_event: str


def _rodrigues(v, axis_unit, angle: float) -> tuple[float, float, float]:
    """Rotate the float 3-tuple v about a unit axis by angle."""
    c, s = float(np.cos(angle)), float(np.sin(angle))
    dv = float(np.array(axis_unit).dot(np.array(v)))
    (v0, v1, v2), (a0, a1, a2) = v, axis_unit
    k0, k1, k2 = _cross(axis_unit, v)
    return (v0 * c + k0 * s + a0 * dv * (1.0 - c),
            v1 * c + k1 * s + a1 * dv * (1.0 - c),
            v2 * c + k2 * s + a2 * dv * (1.0 - c))


def modulation_matrix(
    uav_pos: np.ndarray,
    obstacle_pos: np.ndarray,
    obstacle_radius: float,
    action: np.ndarray,
) -> np.ndarray:
    """I + M_rep + M_tan, the flow field around a spherical obstacle.

    The obstacle distance field is Gamma = (||P - P_obs|| / r_obs)^2 with
    outward normal n = grad Gamma.  The repulsive matrix M_rep cancels the
    motion component along n (fully at the surface, exponentially weaker
    with distance); the tangential matrix M_tan redirects that component
    along a tangent chosen by rotating a reference tangent about n by
    theta.  ``action`` is the in-bounds (rho0, sigma0, theta).  Each entry
    is summed as numpy sums the three matrices, (I + M_rep) + M_tan.
    """
    rho0, sigma0, theta = np.asarray(action, dtype=float).tolist()
    sep = np.asarray(uav_pos, dtype=float) - np.asarray(obstacle_pos, dtype=float)
    dist = _norm(sep)
    if dist < 1e-6:
        raise DegenerateGeometryError("UAV coincides with the obstacle center")
    gamma = (dist / obstacle_radius) ** 2
    r2 = obstacle_radius**2
    s0, s1, s2 = sep.tolist()
    n = (2.0 * s0 / r2, 2.0 * s1 / r2, 2.0 * s2 / r2)
    n_hat = (s0 / dist, s1 / dist, s2 / dist)

    ref = _cross(n_hat, _Z)
    ref_norm = _norm(np.array(ref))
    if ref_norm < 1e-9:
        ref = _X  # normal is vertical; any horizontal direction works
    else:
        ref = (ref[0] / ref_norm, ref[1] / ref_norm, ref[2] / ref_norm)
    tangent = _rodrigues(ref, n_hat, theta)

    # Saturated inside the unit level set, exponentially decaying outside.
    w_rep = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / rho0))
    w_tan = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / sigma0))

    n_arr = np.array(n)
    nn = float(n_arr.dot(n_arr))  # n @ n, the square of _norm(n)
    scale = _norm(np.array(tangent)) * math.sqrt(nn)
    rep = [-w_rep * (ni * nj) / nn for ni in n for nj in n]
    tan = [w_tan * (ti * nj) / scale for ti in tangent for nj in n]
    return np.array([(e + r) + t for e, r, t in zip(_EYE, rep, tan)]).reshape(3, 3)


def _clamp_motion(
    v: list[float], v_prev: np.ndarray, cfg: EnvConfig
) -> tuple[float, float, float]:
    """Apply cfg's climb-rate, per-step heading, and total-speed limits to
    the float velocity v, given the previous velocity v_prev."""
    v0, v1, v2 = v
    climb = cfg.climb_rate_limit
    v2 = min(max(v2, -climb), climb)

    h_prev = v_prev[:2]
    if _norm(h_prev) > 1e-9:
        mag = _norm(np.array((v0, v1)))
        if mag > 1e-9:
            p0, p1 = h_prev.tolist()
            ang_prev = float(np.arctan2(p1, p0))
            ang_new = float(np.arctan2(v1, v0))
            dang = (ang_new - ang_prev + math.pi) % (2.0 * math.pi) - math.pi
            limit = math.radians(cfg.heading_rate_limit_deg)  # np.deg2rad's product
            if abs(dang) > limit:
                ang = ang_prev + float(np.sign(dang)) * limit
                v0 = mag * float(np.cos(ang))
                v1 = mag * float(np.sin(ang))

    speed = cfg.cruise_speed
    total = _norm(np.array((v0, v1, v2)))
    if total > speed:
        k = speed / total
        return v0 * k, v1 * k, v2 * k
    return v0, v1, v2


def step_dynamics(
    world: WorldState, action: np.ndarray, nav_pos: np.ndarray, cfg: EnvConfig
) -> WorldState:
    """Advance the truth one step under the flow-field controller.

    ``nav_pos`` is the position the controller believes it is at: the
    previous GNSS fix, so that spoofed fixes steer the real vehicle.  The
    speed, climb and heading-rate limits and the airspace bounds are
    ``cfg``'s.
    """
    speed = cfg.cruise_speed
    believed = np.asarray(nav_pos, float)
    to_goal = world.goal - believed
    goal_dist = _norm(to_goal)
    if goal_dist < 1e-12:
        attract = (speed * 0.0,) * 3  # unit() of a negligible vector is zero
    else:
        attract = [speed * (ti / goal_dist) for ti in to_goal.tolist()]
    modulation = modulation_matrix(
        believed, world.obstacle_pos, world.obstacle_radius, action
    )
    obs_vel = world.obstacle_vel.tolist()
    rel = np.array([a - o for a, o in zip(attract, obs_vel)])
    flow = modulation.dot(rel).tolist()  # the dgemv that `@` runs
    motion = _clamp_motion([f + o for f, o in zip(flow, obs_vel)],
                           world.uav_vel, cfg)

    dt = world.dt
    new_pos = [p + dt * m for p, m in zip(world.uav_pos_true.tolist(), motion)]
    obs_pos = [o + dt * v for o, v in zip(world.obstacle_pos.tolist(), obs_vel)]
    for i, hi in enumerate(cfg.bounds):
        hi = float(hi)
        if obs_pos[i] < 0.0:
            obs_pos[i] = -obs_pos[i]
            obs_vel[i] = -obs_vel[i]
        elif obs_pos[i] > hi:
            obs_pos[i] = 2.0 * hi - obs_pos[i]
            obs_vel[i] = -obs_vel[i]
    return world._advance([*new_pos, *motion, *obs_pos, *obs_vel])


def build_observation(pvt: PvtSolution, world: WorldState) -> np.ndarray:
    """The finite 9-vector phi the policy sees, from the fix's position:
    the signed surface clearance along the unit direction from the fix to
    the obstacle, the goal minus the fix, and the obstacle's velocity."""
    if not pvt.converged:
        raise NotConvergedError(
            f"position solution did not converge "
            f"(residual norm {pvt.final_residual_norm:.3g})"
        )
    est = pvt.x[:3]
    p_rel = world.obstacle_pos - est
    dist = _norm(p_rel)
    clearance = dist - world.obstacle_radius
    if dist < 1e-12:
        phi = [clearance * 0.0] * 3  # unit() of a negligible vector is zero
    else:
        phi = [clearance * (p / dist) for p in p_rel.tolist()]
    phi += [g - e for g, e in zip(world.goal.tolist(), est.tolist())]
    phi += world.obstacle_vel.tolist()
    if not all(map(math.isfinite, phi)):
        raise ConfigurationError("phi must be a finite 9-vector")
    return np.array(phi)


def reward(world_next: WorldState, cfg: EnvConfig) -> RewardBreakdown:
    """Reward of the state just entered, from truth geometry only.

    The threat zone is ``cfg.threat_margin`` wide, and the goal counts as
    reached within ``cfg.goal_threshold``.  The terminal event is a
    collision, else the goal, else a timeout once ``cfg.max_steps`` steps
    are taken.
    """
    xi = cfg.threat_margin
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
    reached = dist_goal <= cfg.goal_threshold
    denom = max(world_next.goal_span, 1e-9)
    r_goal = -dist_goal / denom + (3.0 if reached else 0.0)

    if d <= r_obs:
        event = TERM_COLLISION
    elif reached:
        event = TERM_GOAL
    elif world_next.t >= cfg.max_steps:
        event = TERM_TIMEOUT
    else:
        event = TERM_NONE
    # built as WorldState._advance builds a state, without the frozen
    # __init__'s per-field object.__setattr__
    rb = object.__new__(RewardBreakdown)
    rb.__dict__.update(collision=r_coll, threat=r_thr, goal_seek=r_goal,
                       total=r_coll + r_thr + r_goal, terminal_event=event)
    return rb


def _sample_start_goal(
    cfg: EnvConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample a start/goal pair with the configured separation.

    The displacement direction is rejection-sampled until it fits inside
    the airspace box; the start is then uniform over the positions that
    keep both endpoints in bounds.
    """
    bx, by, bz = box = [float(b) for b in cfg.bounds]
    lo, hi = cfg.goal_distance_range
    for _ in range(100_000):
        d = rng.uniform(lo, hi)
        direction = rng.normal(size=3)
        norm = _norm(direction)
        if norm < 1e-9:
            continue
        x, y, z = direction.tolist()
        dx, dy, dz = d * x / norm, d * y / norm, d * z / norm
        if abs(dx) >= bx or abs(dy) >= by or abs(dz) >= bz:
            continue
        delta = np.array((dx, dy, dz))
        room = np.array(box) - np.abs(delta)
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
    noise_sigma: float,
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
    noise_sigma: float,
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
    nav_pos: np.ndarray,
    rng: np.random.Generator | None = None,
    pvt_init: np.ndarray | PvtSolution | None = None,
) -> tuple[WorldState, np.ndarray, RewardBreakdown, bool, PvtSolution]:
    """One full cycle: move, measure (or get spoofed), solve, observe, score.

    ``action`` is an in-bounds (rho0, sigma0, theta).  Returns (next
    world, phi, reward, done, fix), where the fix is the PvtSolution the
    9-vector phi was built from.  ``nav_pos``, the controller's believed
    position (the previous fix's), steers the dynamics; ``pvt_init``, an
    (x, y, z, bias) vector or an earlier fix (see `gnss.solve_pvt`), is
    where the solver starts.  The study rollouts (`harness.run_episode`)
    pass the episode's previous fix itself, so a study fix never starts
    from the truth, and a spoofed epoch that repeats the last one is not
    solved again.  Training passes no ``pvt_init`` and the solver starts
    from the truth, which any in-range initialization converges to at
    these geometries; moving training off it would change the pinned
    checkpoint.  From onset on the pseudoranges are spoofed, noiseless.
    """
    if noise_sigma > 0 and rng is None:
        raise ConfigurationError("noise_sigma > 0 requires an rng")

    world_next = step_dynamics(world, action, nav_pos, cfg)

    pos, bias = world_next.uav_pos_true, world_next.clock_bias_true
    alpha = attack_alpha(world_next.t, spoof) if spoof is not None else None
    if alpha is None:
        meas = measure_pseudoranges(pos, bias, constellation, noise_sigma, rng)
    else:
        implied = spoof_position(pos, alpha, spoof)
        meas = spoof_pseudoranges(implied, bias, constellation)

    init = pvt_init if pvt_init is not None else np.array([*pos.tolist(), bias])
    pvt = solve_pvt(meas, constellation, init=init)
    phi = build_observation(pvt, world_next)

    rb = reward(world_next, cfg)
    return world_next, phi, rb, rb.terminal_event != TERM_NONE, pvt
