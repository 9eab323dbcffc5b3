"""Tests for the flow-field MDP: dynamics, observation, reward, stepping."""

import dataclasses

import numpy as np
import pytest

from driftwatch.config import EnvConfig, GnssConfig, TrainConfig
from driftwatch.env import (
    ACTION_HIGH,
    ACTION_LOW,
    TERM_COLLISION,
    TERM_GOAL,
    TERM_NONE,
    TERM_TIMEOUT,
    RewardBreakdown,
    WorldState,
    _sample_start_goal,
    build_observation,
    clip_action,
    env_reset,
    env_step,
    modulation_matrix,
    reward,
    steer,
    steer_fleet,
    step_dynamics,
    unit,
)
from driftwatch.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    NotConvergedError,
)
from driftwatch.gnss import PvtSolution, constellation_from_config
from driftwatch.spoofing import AttackConfig


ENV = EnvConfig()


@pytest.fixture(scope="module")
def cons():
    return constellation_from_config(GnssConfig())


def steered(world, a, cfg=ENV):
    """The controller's motion for action a, steered by the truth."""
    return steer(world, a, world.uav_pos_true, cfg)


def fly(world, a, cfg=ENV):
    """One dynamics step steered by the truth, under cfg's limits."""
    return step_dynamics(world, steered(world, a, cfg), cfg)


def make_world(**overrides) -> WorldState:
    base = dict(
        uav_pos_true=np.array([0.0, 0.0, 100.0]),
        uav_vel=np.zeros(3),
        obstacle_pos=np.array([500.0, 0.0, 100.0]),
        obstacle_vel=np.zeros(3),
        goal=np.array([1000.0, 0.0, 100.0]),
        start=np.array([0.0, 0.0, 100.0]),
        clock_bias_true=0.0,
        t=0,
    )
    base.update(overrides)
    return WorldState(**base)


def exact_pvt(position, bias=0.0) -> PvtSolution:
    return PvtSolution(x=np.append(position, bias), iterations=1,
                       final_residual_norm=0.0, converged=True,
                       residuals=np.zeros(8))


def action(rho0, sigma0, theta) -> np.ndarray:
    return np.array([rho0, sigma0, theta], dtype=float)


def test_action_clamping():
    a = clip_action(action(5.0, 0.01, 7.0))
    assert a[0] == 3.0
    assert a[1] == 0.1
    assert np.isclose(a[2], np.pi)
    np.testing.assert_array_equal(clip_action(action(1.2, 2.5, -0.7)),
                                  [1.2, 2.5, -0.7])
    assert clip_action(action(0.5, 0.5, 0.0)).tolist() == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("values", [
    (1.2, 2.5, -0.7), (0.1, 3.0, np.pi), (-0.0, 0.0, -0.0), (1e-300, 2.0, 1.0),
    (5.0, 0.01, 7.0), (-4.0, 99.0, -3.5), (np.inf, -np.inf, np.inf),
    (np.nan, 1.0, 0.0), (1.0, np.nan, np.nan), (np.nan, np.inf, -np.inf),
])
def test_action_clamp_matches_np_clip(values):
    """Finite, out-of-bounds and NaN components clamp as np.clip would."""
    got = clip_action(np.array(values))
    expected = np.clip(list(values), ACTION_LOW, ACTION_HIGH)
    assert got.tobytes() == expected.tobytes()
    assert got.dtype == np.float64 and got.shape == (3,)


@pytest.mark.parametrize("rows", [1, 200])
def test_clip_action_matches_np_clip_row_by_row(rows):
    """A (B, 3) batch of in-range, out-of-range, NaN and +-inf rows clamps
    as np.clip clamps it, bit for bit."""
    rng = np.random.default_rng(rows)
    raw = rng.uniform(-10.0, 10.0, size=(rows, 3))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
    mask = rng.uniform(size=raw.shape) < 0.3
    raw[mask] = rng.choice(special, size=int(mask.sum()))
    if rows == 1:
        raw[0] = (np.nan, np.inf, -np.inf)
    got = clip_action(raw)
    assert got.shape == (rows, 3)
    assert got.tobytes() == np.clip(raw, ACTION_LOW, ACTION_HIGH).tobytes()
    inside = rng.uniform(ACTION_LOW, ACTION_HIGH, size=(rows, 3))
    assert clip_action(inside).tobytes() == inside.tobytes()


def test_flow_field_vanishes_far_away():
    """Far away the field is the identity, and so is the oracle's sum."""
    a = action(1.0, 1.0, 0.0)
    pos = np.array([1e6, 0.0, 0.0])
    assert np.array_equal(modulation_matrix(pos, np.zeros(3), 30.0, a),
                          np.eye(3))
    m_rep, m_tan = reference_flow_field_matrices(pos, np.zeros(3), 30.0, a)
    assert np.linalg.norm(m_rep) < 1e-6
    assert np.linalg.norm(m_tan) < 1e-6


def test_flow_field_cancels_normal_at_surface():
    """At the obstacle surface the repulsive part removes the full normal,
    and the tangential part re-aims it at the same length."""
    a = action(1.0, 1.0, 0.0)
    pos = np.array([30.0, 0.0, 0.0])
    n = 2.0 * pos / 30.0**2
    m_rep, _ = reference_flow_field_matrices(pos, np.zeros(3), 30.0, a)
    np.testing.assert_allclose(m_rep @ n, -n, atol=1e-12)
    assert np.isclose(np.linalg.norm(m_rep @ n), np.linalg.norm(n))
    out = modulation_matrix(pos, np.zeros(3), 30.0, a) @ n
    assert abs(out @ n) < 1e-12
    assert np.isclose(np.linalg.norm(out), np.linalg.norm(n))


def test_flow_field_matrix_properties_sweep():
    """M_rep symmetric NSD, M_tan maps the normal into the tangent plane:
    properties of the oracle `modulation_matrix` sums bit for bit (see
    test_step_dynamics_matches_reference_bit_for_bit)."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        pos = rng.uniform(-200, 200, size=3)
        center = rng.uniform(-200, 200, size=3)
        if np.linalg.norm(pos - center) < 1.0:
            continue
        a = action(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                   rng.uniform(-np.pi, np.pi))
        m_rep, m_tan = reference_flow_field_matrices(pos, center, 30.0, a)
        np.testing.assert_allclose(m_rep, m_rep.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(m_rep)
        assert eigs.max() < 1e-12
        n = pos - center
        out = m_tan @ n
        assert abs(out @ n) < 1e-6 * max(np.linalg.norm(out) * np.linalg.norm(n), 1.0)


def test_flow_field_theta_rotates_tangent():
    pos = np.array([100.0, 0.0, 0.0])
    outs = []
    for theta in (0.0, np.pi / 2):
        m = modulation_matrix(pos, np.zeros(3), 60.0, action(1.0, 1.0, theta))
        # the normal is +x: below the diagonal, column 0 is M_tan's alone
        outs.append(unit(m[1:, 0]))
    # rotating the tangent reference by 90 degrees about +x swaps its direction
    assert abs(outs[0] @ outs[1]) < 1e-9


def test_flow_field_degenerate():
    with pytest.raises(DegenerateGeometryError):
        modulation_matrix(np.zeros(3), np.zeros(3), 10.0, action(1, 1, 0))


def test_straight_line_step_without_obstacle():
    world = make_world(obstacle_pos=np.array([1e9, 1e9, 1e9]))
    nxt = fly(world, action(1.0, 1.0, 0.0))
    expected = world.uav_pos_true + 1.0 * 10.0 * unit(world.goal - world.uav_pos_true)
    np.testing.assert_allclose(nxt.uav_pos_true, expected, atol=1e-9)
    assert nxt.t == 1


def test_uav_at_goal_stays_put():
    world = make_world(
        uav_pos_true=np.array([1000.0, 0.0, 100.0]),
        obstacle_pos=np.array([1e9, 1e9, 1e9]),
    )
    nxt = fly(world, action(1.0, 1.0, 0.0))
    np.testing.assert_array_equal(nxt.uav_pos_true, world.uav_pos_true)


def test_goal_distance_strictly_decreases_without_obstacle():
    world = make_world(obstacle_pos=np.array([1e9, 1e9, 1e9]),
                       goal=np.array([400.0, 300.0, 120.0]))
    prev = np.linalg.norm(world.goal - world.uav_pos_true)
    for _ in range(200):
        world = fly(world, action(1.0, 1.0, 0.0))
        d = np.linalg.norm(world.goal - world.uav_pos_true)
        if prev <= 10.0:
            break
        assert d < prev
        prev = d


def test_obstacle_avoidance_action_grid():
    """A blocking static obstacle is never hit under any fixed action."""
    for rho0 in (0.1, 1.0, 3.0):
        for sigma0 in (0.1, 1.0, 3.0):
            for theta in (-np.pi / 2, 0.0, np.pi / 2):
                world = make_world()
                min_d = np.inf
                for _ in range(150):
                    world = fly(world, action(rho0, sigma0, theta))
                    min_d = min(min_d, np.linalg.norm(
                        world.uav_pos_true - world.obstacle_pos))
                assert min_d > 0.0


def test_climb_rate_clamp():
    world = make_world(goal=np.array([0.0, 0.0, 1000.0]),
                       obstacle_pos=np.array([1e9, 1e9, 1e9]))
    nxt = fly(world, action(1, 1, 0), EnvConfig(climb_rate_limit=3.0))
    assert nxt.uav_vel[2] <= 3.0 + 1e-12
    assert np.isclose(nxt.uav_pos_true[2] - world.uav_pos_true[2], 3.0)


def test_heading_rate_clamp():
    """A goal directly behind cannot be turned to in one step."""
    world = make_world(
        uav_vel=np.array([10.0, 0.0, 0.0]),
        goal=np.array([-1000.0, 1.0, 100.0]),
        obstacle_pos=np.array([1e9, 1e9, 1e9]),
    )
    nxt = fly(world, action(1, 1, 0), EnvConfig(heading_rate_limit_deg=30.0))
    h_prev = world.uav_vel[:2]
    h_new = nxt.uav_vel[:2]
    cosang = (h_prev @ h_new) / (np.linalg.norm(h_prev) * np.linalg.norm(h_new))
    assert np.isclose(np.rad2deg(np.arccos(np.clip(cosang, -1, 1))), 30.0)


def test_speed_never_exceeds_commanded():
    rng = np.random.default_rng(5)
    world = make_world(obstacle_vel=np.array([2.0, 1.0, 0.0]))
    for _ in range(100):
        a = action(rng.uniform(0.1, 3), rng.uniform(0.1, 3),
                   rng.uniform(-np.pi, np.pi))
        world = fly(world, a)
        assert np.linalg.norm(world.uav_vel) <= 10.0 + 1e-9


def test_obstacle_reflects_at_bounds():
    world = make_world(
        obstacle_pos=np.array([998.0, 500.0, 100.0]),
        obstacle_vel=np.array([5.0, 0.0, 0.0]),
    )
    nxt = fly(world, action(1, 1, 0), EnvConfig(bounds=(1000.0, 1000.0, 300.0)))
    assert np.isclose(nxt.obstacle_pos[0], 997.0)
    assert nxt.obstacle_vel[0] == -5.0


def test_threat_vector_matches_literal_formula():
    """Cross-check phi's threat vector, its first three entries, against the
    raw expression."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        est = rng.uniform(-300, 300, size=3)
        center = rng.uniform(-300, 300, size=3)
        r_obs = rng.uniform(5.0, 60.0)
        if np.linalg.norm(center - est) < 1e-6:
            continue
        world = make_world(obstacle_pos=center)
        cfg = EnvConfig(obstacle_radius=r_obs)
        got = build_observation(exact_pvt(est), world, cfg)[:3]
        p_rel = center - est
        u = p_rel / np.linalg.norm(p_rel)
        scalar = p_rel @ (p_rel - r_obs * u) / np.linalg.norm(p_rel)
        np.testing.assert_allclose(got, scalar * u, atol=1e-9)


def test_threat_vector_worked_example():
    world = make_world(obstacle_pos=np.array([60.0, 0.0, 0.0]))
    got = build_observation(exact_pvt(np.zeros(3)), world, ENV)[:3]
    np.testing.assert_allclose(got, np.array([30.0, 0.0, 0.0]), atol=1e-12)


def test_observation_layout():
    world = make_world(obstacle_vel=np.array([1.0, -2.0, 0.5]))
    est_pos = np.array([10.0, 5.0, 95.0])
    obs = build_observation(exact_pvt(est_pos), world, ENV)
    assert obs.shape == (9,)
    p_rel = world.obstacle_pos - est_pos
    dist = np.linalg.norm(p_rel)
    np.testing.assert_allclose(obs[:3], (dist - ENV.obstacle_radius) * p_rel / dist)
    np.testing.assert_allclose(obs[3:6], world.goal - est_pos)
    np.testing.assert_allclose(obs[6:9], world.obstacle_vel)


def test_observation_zero_blocks():
    world = make_world()
    obs = build_observation(exact_pvt(world.goal), world, ENV)
    np.testing.assert_array_equal(obs[3:6], np.zeros(3))
    np.testing.assert_array_equal(obs[6:9], np.zeros(3))


def test_observation_rejects_nonconverged():
    world = make_world()
    bad = dataclasses.replace(exact_pvt(np.zeros(3)), converged=False)
    with pytest.raises(NotConvergedError):
        build_observation(bad, world, ENV)


def test_reward_collision_boundaries():
    world = make_world(uav_pos_true=np.array([530.0, 0.0, 100.0]))  # d = r_obs
    rb = reward(world, ENV)
    assert np.isclose(rb.collision, -1.0)
    assert rb.terminal_event == TERM_COLLISION
    world0 = make_world(uav_pos_true=np.array([500.0, 0.0, 100.0]))  # d = 0
    assert np.isclose(reward(world0, ENV).collision, -2.0)


def test_reward_threat_zone_boundary_limit():
    r_obs, xi = 30.0, 0.4
    d = r_obs + xi - 1e-9
    world = make_world(uav_pos_true=np.array([500.0 - d, 0.0, 100.0]))
    rb = reward(world, EnvConfig(threat_margin=xi))
    assert abs(rb.threat - (-0.3)) < 1e-6
    assert rb.collision == 0.0
    # just outside the zone the term switches off
    outside = make_world(uav_pos_true=np.array([500.0 - r_obs - xi - 1e-6, 0.0,
                                                100.0]))
    assert reward(outside, EnvConfig(threat_margin=xi)).threat == 0.0


def test_reward_goal_terms():
    world = make_world(uav_pos_true=make_world().goal)
    rb = reward(world, ENV)
    assert np.isclose(rb.goal_seek, 3.0)
    assert rb.terminal_event == TERM_GOAL
    stuck = make_world()  # back at the start, far from goal and obstacle
    rb0 = reward(stuck, ENV)
    assert np.isclose(rb0.total, -1.0)
    assert rb0.terminal_event == TERM_NONE


def test_reward_collision_priority_over_goal():
    world = make_world(
        uav_pos_true=np.array([995.0, 0.0, 100.0]),
        obstacle_pos=np.array([1000.0, 0.0, 100.0]),
        goal=np.array([1000.0, 0.0, 100.0]),
    )
    rb = reward(world, ENV)
    assert rb.terminal_event == TERM_COLLISION


def test_reward_reports_the_timeout():
    """At t >= max_steps a step that neither collides nor reaches the goal
    times out; a collision or the goal still takes precedence."""
    cfg = EnvConfig(max_steps=5)
    assert reward(make_world(t=4), cfg).terminal_event == TERM_NONE
    for t in (5, 6):
        assert reward(make_world(t=t), cfg).terminal_event == TERM_TIMEOUT
    hit = make_world(t=5, uav_pos_true=np.array([500.0, 0.0, 100.0]))
    assert reward(hit, cfg).terminal_event == TERM_COLLISION
    home = make_world(t=5, uav_pos_true=make_world().goal)
    assert reward(home, cfg).terminal_event == TERM_GOAL


def test_step_records_behave_as_constructed(cons):
    """The fix and reward breakdown of a step carry exactly the fields the
    constructors set, refuse assignment, and go through
    dataclasses.replace."""
    world, _ = env_reset(ENV, seed=4, constellation=cons, noise_sigma=0.0)
    _, _, rb, _, fix = env_step(world, steered(world, action(1.0, 1.0, 0.0)),
                                cons, 0.0, cfg=ENV)
    for record in (fix, rb):
        cls = type(record)
        built = cls(**{f.name: getattr(record, f.name)
                       for f in dataclasses.fields(cls)})
        assert list(vars(record)) == list(vars(built))
        for name, value in vars(built).items():
            assert getattr(record, name) is value, name
        assert repr(record) == repr(built)
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    assert rb == RewardBreakdown(**vars(rb))
    moved = dataclasses.replace(rb, terminal_event=TERM_TIMEOUT)
    assert (moved.terminal_event, moved.total) == (TERM_TIMEOUT, rb.total)
    assert rb.terminal_event == TERM_NONE
    retold = dataclasses.replace(fix, converged=False)
    assert retold.x is fix.x and not retold.converged and fix.converged
    with pytest.raises(NotConvergedError):
        build_observation(retold, world, ENV)


def test_reward_total_is_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        world = make_world(uav_pos_true=rng.uniform(0, 1000, size=3))
        rb = reward(world, ENV)
        assert np.isclose(rb.total, rb.collision + rb.threat + rb.goal_seek)


def test_env_reset_determinism(cons):
    cfg = EnvConfig()
    w1, o1 = env_reset(cfg, seed=9, constellation=cons, noise_sigma=2.0)
    w2, o2 = env_reset(cfg, seed=9, constellation=cons, noise_sigma=2.0)
    np.testing.assert_array_equal(w1.uav_pos_true, w2.uav_pos_true)
    np.testing.assert_array_equal(w1.obstacle_vel, w2.obstacle_vel)
    np.testing.assert_array_equal(o1, o2)
    w3, _ = env_reset(cfg, seed=10, constellation=cons, noise_sigma=2.0)
    assert not np.allclose(w1.uav_pos_true, w3.uav_pos_true)


def point_segment_distance(p, a, b):
    ab = b - a
    s = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + s * ab))


def test_env_reset_sampling_properties(cons):
    cfg = EnvConfig()
    box = np.array(cfg.bounds)
    for seed in range(1000):
        rng_world, _ = env_reset(cfg, seed, cons, noise_sigma=0.0)
        assert np.all(rng_world.start >= 0) and np.all(rng_world.start <= box)
        assert np.all(rng_world.goal >= 0) and np.all(rng_world.goal <= box)
        d = np.linalg.norm(rng_world.goal - rng_world.start)
        assert cfg.goal_distance_range[0] <= d <= cfg.goal_distance_range[1]
        seg_d = point_segment_distance(rng_world.obstacle_pos, rng_world.start,
                                       rng_world.goal)
        assert seg_d <= 100.0 + 1e-9
        s = np.linalg.norm(rng_world.obstacle_vel)
        assert cfg.obstacle_speed_range[0] - 1e-9 <= s
        assert s <= cfg.obstacle_speed_range[1] + 1e-9
        b = rng_world.clock_bias_true
        assert cfg.clock_bias_range[0] <= b <= cfg.clock_bias_range[1]


def test_env_reset_impossible_separation():
    with pytest.raises(ConfigurationError):
        EnvConfig(goal_distance_range=(2000.0, 2100.0))


def test_env_step_estimate_matches_truth_without_noise(cons):
    cfg = EnvConfig()
    world, _ = env_reset(cfg, seed=3, constellation=cons, noise_sigma=0.0)
    world2, obs, rb, done, pvt = env_step(
        world, steered(world, action(1.0, 1.0, 0.0), cfg), cons,
        noise_sigma=0.0, cfg=cfg,
    )
    assert not done
    assert np.linalg.norm(pvt.x[:3] - world2.uav_pos_true) < 1e-6
    rebuilt = build_observation(exact_pvt(world2.uav_pos_true), world2, cfg)
    np.testing.assert_allclose(obs, rebuilt, atol=1e-5)


def test_env_step_timeout(cons):
    cfg = EnvConfig(max_steps=3)
    world, _ = env_reset(cfg, seed=3, constellation=cons, noise_sigma=0.0)
    a = action(1.0, 1.0, 0.0)
    for expected_done in (False, False, True):
        world, _, rb, done, _ = env_step(world, steered(world, a, cfg), cons,
                                         0.0, cfg=cfg)
        assert done == expected_done
    assert rb.terminal_event == TERM_TIMEOUT


def test_env_step_spoof_pulls_estimate_to_target(cons):
    cfg = EnvConfig()
    attack = AttackConfig(t_start=1, drift_duration=1, target=(0.0, 0.0, 0.0),
                          enabled=True)
    world, _ = env_reset(cfg, seed=4, constellation=cons, noise_sigma=0.0)
    for _ in range(2):  # onset at t=1, on the target from t=2
        world, obs, rb, done, _ = env_step(
            world, steered(world, action(1.0, 1.0, 0.0), cfg), cons, 0.0,
            attack, cfg=cfg)
    est = world.goal - obs[3:6]
    assert np.linalg.norm(est) < 1e-3
    assert np.linalg.norm(world.uav_pos_true) > 100.0


def test_env_step_reward_immune_to_spoofing(cons):
    """Same true trajectory, spoofed observations: rewards must not move."""
    cfg = EnvConfig()
    attack = AttackConfig(t_start=2, drift_duration=5, target=(0.0, 0.0, 0.0),
                          enabled=True)
    a = action(1.2, 0.8, 0.3)

    world_a, _ = env_reset(cfg, seed=11, constellation=cons, noise_sigma=0.0)
    world_b, _ = env_reset(cfg, seed=11, constellation=cons, noise_sigma=0.0)
    phi_diverged = False
    for _ in range(10):
        world_a, obs_a, rb_a, done_a, _ = env_step(
            world_a, steered(world_a, a, cfg), cons, 0.0, None, cfg=cfg)
        world_b, obs_b, rb_b, done_b, _ = env_step(
            world_b, steered(world_b, a, cfg), cons, 0.0, attack, cfg=cfg)
        np.testing.assert_array_equal(world_a.uav_pos_true, world_b.uav_pos_true)
        assert rb_a == rb_b
        assert done_a == done_b
        if not np.allclose(obs_a, obs_b):
            phi_diverged = True
    assert phi_diverged


def test_env_step_noise_requires_rng(cons):
    cfg = EnvConfig()
    world, _ = env_reset(cfg, seed=3, constellation=cons, noise_sigma=0.0)
    with pytest.raises(ConfigurationError):
        env_step(world, steered(world, action(1, 1, 0), cfg), cons,
                 noise_sigma=2.0, cfg=cfg)


def test_env_step_bit_reproducible(cons):
    cfg = EnvConfig()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        world, _ = env_reset(cfg, seed=13, constellation=cons, noise_sigma=2.0)
        track = []
        for _ in range(5):
            world, obs, rb, done, _ = env_step(
                world, steered(world, action(1, 1, 0), cfg), cons, 2.0,
                cfg=cfg, rng=rng)
            track.append((world.uav_pos_true.tobytes(), obs.tobytes(), rb.total))
        runs.append(track)
    assert runs[0] == runs[1]


def test_observation_rejects_a_non_finite_fix():
    """The observation is a finite 9-vector: a fix with a NaN or infinite
    coordinate raises instead of reaching the policy."""
    world = make_world()
    assert build_observation(exact_pvt(np.zeros(3)), world, ENV).shape == (9,)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConfigurationError, match="finite 9-vector"):
            build_observation(exact_pvt(np.full(3, np.nan)), world, ENV)
        for bad in (np.nan, np.inf, -np.inf):
            position = np.zeros(3)
            position[1] = bad
            with pytest.raises(ConfigurationError, match="finite 9-vector"):
                build_observation(exact_pvt(position), world, ENV)


# Reference dynamics: `step_dynamics` as first written, with `np.cross`,
# `np.linalg.norm`, `np.outer`, `np.clip` and `dataclasses.replace`.  The
# dynamics must reproduce it bit for bit.

def reference_flow_field_matrices(uav_pos, obstacle_pos, obstacle_radius, action):
    sep = uav_pos - obstacle_pos
    dist = np.linalg.norm(sep)
    gamma = (dist / obstacle_radius) ** 2
    n = 2.0 * sep / obstacle_radius**2
    n_hat = sep / dist
    ref = np.cross(n_hat, np.array([0.0, 0.0, 1.0]))
    ref_norm = np.linalg.norm(ref)
    if ref_norm < 1e-9:
        ref = np.array([1.0, 0.0, 0.0])
    else:
        ref = ref / ref_norm
    rho0, sigma0, theta = action
    c, s = np.cos(theta), np.sin(theta)
    tangent = (ref * c + np.cross(n_hat, ref) * s
               + n_hat * (n_hat @ ref) * (1.0 - c))
    w_rep = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / rho0))
    w_tan = 1.0 if gamma <= 1.0 else float(np.exp((1.0 - gamma) / sigma0))
    m_rep = -w_rep * np.outer(n, n) / (n @ n)
    m_tan = w_tan * np.outer(tangent, n) / (np.linalg.norm(tangent)
                                            * np.linalg.norm(n))
    return m_rep, m_tan


def reference_clamp_motion(v_new, v_prev, speed, climb, heading_deg):
    v = v_new.copy()
    v[2] = np.clip(v[2], -climb, climb)
    h_prev = v_prev[:2]
    h_new = v[:2]
    if np.linalg.norm(h_prev) > 1e-9 and np.linalg.norm(h_new) > 1e-9:
        ang_prev = np.arctan2(h_prev[1], h_prev[0])
        ang_new = np.arctan2(h_new[1], h_new[0])
        dang = (ang_new - ang_prev + np.pi) % (2.0 * np.pi) - np.pi
        limit = np.deg2rad(heading_deg)
        if abs(dang) > limit:
            ang = ang_prev + np.sign(dang) * limit
            mag = np.linalg.norm(h_new)
            v[0] = mag * np.cos(ang)
            v[1] = mag * np.sin(ang)
    total = np.linalg.norm(v)
    if total > speed:
        v = v * (speed / total)
    return v


def reference_step_dynamics(world, action, believed, cfg):
    speed = cfg.cruise_speed
    to_goal = world.goal - believed
    norm = np.linalg.norm(to_goal)
    attract = speed * (np.zeros(3) if norm < 1e-12 else to_goal / norm)
    m_rep, m_tan = reference_flow_field_matrices(
        believed, world.obstacle_pos, cfg.obstacle_radius, action
    )
    rel = attract - world.obstacle_vel
    motion = (np.eye(3) + m_rep + m_tan) @ rel + world.obstacle_vel
    motion = reference_clamp_motion(motion, world.uav_vel, speed,
                                    cfg.climb_rate_limit,
                                    cfg.heading_rate_limit_deg)
    obs_pos = world.obstacle_pos + cfg.dt * world.obstacle_vel
    obs_vel = world.obstacle_vel.copy()
    for i, hi in enumerate(cfg.bounds):
        if obs_pos[i] < 0.0:
            obs_pos[i] = -obs_pos[i]
            obs_vel[i] = -obs_vel[i]
        elif obs_pos[i] > hi:
            obs_pos[i] = 2.0 * hi - obs_pos[i]
            obs_vel[i] = -obs_vel[i]
    return dataclasses.replace(
        world, uav_pos_true=world.uav_pos_true + cfg.dt * motion,
        uav_vel=motion, obstacle_pos=obs_pos, obstacle_vel=obs_vel,
        t=world.t + 1,
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_world(rng, k):
    """Worlds near an obstacle, some straight above it, some turning hard,
    each with the EnvConfig that fixes its obstacle's radius and its dt."""
    bounds = np.array([1000.0, 1000.0, 300.0])
    obstacle = rng.uniform([0.0, 0.0, 0.0], bounds)
    offset = rng.normal(size=3) * rng.choice([5.0, 40.0, 200.0])
    if k % 10 == 0:
        offset[:2] = 0.0  # normal is vertical: the reference tangent is x
    uav = obstacle + offset
    goal = rng.uniform([0.0, 0.0, 0.0], bounds)
    if k % 7 == 0:
        goal = uav.copy()  # at the goal: no attraction
    vel = rng.normal(size=3) * rng.choice([0.0, 1.0, 8.0])
    if k % 4 == 0:
        vel = -8.0 * (goal - uav) / max(np.linalg.norm(goal - uav), 1.0)
    obstacle_vel = rng.normal(size=3) * rng.choice([0.0, 2.5, 40.0])
    radius = rng.uniform(10.0, 60.0)
    world = make_world(
        uav_pos_true=uav, uav_vel=vel, obstacle_pos=obstacle,
        obstacle_vel=obstacle_vel, goal=goal, t=int(rng.integers(0, 400)),
    )
    cfg = EnvConfig(obstacle_radius=radius, dt=rng.choice([0.5, 1.0]))
    a = action(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
               rng.uniform(-np.pi, np.pi))
    nav_pos = uav.copy() if k % 3 == 0 else uav + rng.normal(size=3) * 20.0
    return world, a, nav_pos, cfg


def same_state(got, ref) -> bool:
    """Every vector of two states equal bit for bit, and t and the bias."""
    return all(same_bits(getattr(got, name), getattr(ref, name))
               for name in ("uav_pos_true", "uav_vel", "obstacle_pos",
                            "obstacle_vel", "goal", "start")) and (
        (got.t, got.clock_bias_true) == (ref.t, ref.clock_bias_true))


def test_step_dynamics_matches_reference_bit_for_bit():
    """Both controller forms, each followed by the plant, reproduce the
    reference step bit for bit: the per-flight form on every case, the
    fleet form on each case alone (B = 1) and on every case at once under
    one config per call, in the given and in a shuffled row order.  The
    cases hold vertical normals, flights at the goal, hard turns, the
    speed clamp and obstacles that bounce off the bounds."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(300):
        world, action, nav_pos, cfg = random_world(rng, k)
        ref_rep, ref_tan = reference_flow_field_matrices(
            nav_pos, world.obstacle_pos, cfg.obstacle_radius, action)
        assert same_bits(modulation_matrix(nav_pos, world.obstacle_pos,
                                           cfg.obstacle_radius, action),
                         np.eye(3) + ref_rep + ref_tan)
        cfg = dataclasses.replace(
            cfg, cruise_speed=float(rng.choice([5.0, 10.0])))
        motion = steer(world, action, nav_pos, cfg)
        [alone] = steer_fleet([world], action[None], nav_pos[None], cfg).tolist()
        assert same_bits(alone, motion)
        ref = reference_step_dynamics(world, action, nav_pos, cfg)
        assert same_state(step_dynamics(world, motion, cfg), ref)
        cases.append((world, action, nav_pos, cfg))

    worlds, actions, believed, cfgs = (list(c) for c in zip(*cases))
    actions, believed = np.array(actions), np.array(believed)
    order = rng.permutation(len(cases))
    for cfg in cfgs[::60]:
        motions = steer_fleet(worlds, actions, believed, cfg)
        shuffled = steer_fleet([worlds[i] for i in order], actions[order],
                               believed[order], cfg)
        assert same_bits(shuffled, motions[order])
        for world, a, b, motion in zip(worlds, actions, believed,
                                       motions.tolist()):
            assert same_bits(motion, steer(world, a, b, cfg))
            assert same_state(step_dynamics(world, motion, cfg),
                              reference_step_dynamics(world, a, b, cfg))

    # a believed position on the obstacle's center is refused in any row
    believed[17] = worlds[17].obstacle_pos
    with pytest.raises(DegenerateGeometryError,
                       match="UAV coincides with the obstacle center"):
        steer_fleet(worlds, actions, believed, cfgs[0])


def test_reward_and_threat_match_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    for k in range(200):
        world, _, _, cfg = random_world(rng, k)
        r_obs = cfg.obstacle_radius
        est = world.uav_pos_true + rng.normal(size=3) * 3.0
        p_rel = world.obstacle_pos - est
        dist = np.linalg.norm(p_rel)
        expected = (dist - r_obs) * (p_rel / dist)
        assert same_bits(build_observation(exact_pvt(est), world, cfg)[:3],
                         expected)
        rb = reward(world, cfg)
        d = float(np.linalg.norm(world.obstacle_pos - world.uav_pos_true))
        dist_goal = float(np.linalg.norm(world.goal - world.uav_pos_true))
        denom = max(float(np.linalg.norm(world.goal - world.start)), 1e-9)
        assert rb.goal_seek == -dist_goal / denom + (3.0 if dist_goal <= 10.0
                                                     else 0.0)
        assert rb.collision == (-1.0 + (d - r_obs) / r_obs
                                if d <= r_obs else 0.0)


@pytest.mark.parametrize("field", ["uav_pos_true", "uav_vel", "obstacle_pos",
                                   "obstacle_vel", "goal", "start"])
@pytest.mark.parametrize("bad", [
    np.array([1.0, np.nan, 0.0]),
    np.array([np.inf, 0.0, 0.0]),
    np.zeros(2),
    np.zeros((3, 1)),
    np.zeros(4),
])
def test_world_state_rejects_bad_vectors(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        make_world(**{field: bad})


def test_world_vectors_are_read_only_and_carried_over():
    """Construction freezes validated copies; a step shares goal and start
    with the state before it instead of checking them again."""
    goal = np.array([1000.0, 0.0, 100.0])
    world = make_world(goal=goal)
    goal[0] = 5.0  # the caller's array is not the world's
    assert world.goal[0] == 1000.0
    for name in ("uav_pos_true", "uav_vel", "obstacle_pos", "obstacle_vel",
                 "goal", "start"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(world, name)[0] = 1.0
    nxt = fly(world, action(1.0, 1.0, 0.0))
    assert nxt.goal is world.goal and nxt.start is world.start
    assert nxt.goal_span == world.goal_span
    assert nxt.t == world.t + 1
    with pytest.raises(ValueError, match="read-only"):
        nxt.uav_pos_true[0] = 1.0


@pytest.mark.parametrize("index", range(12))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_non_finite_moving_vector(index, bad):
    """A step checks its 12 new floats at once and names the vector that
    holds the bad one."""
    world = make_world()
    moving = [float(k) for k in range(12)]
    moving[index] = bad
    name = ("uav_pos_true", "uav_vel", "obstacle_pos", "obstacle_vel")[index // 3]
    with pytest.raises(ConfigurationError, match=f"{name} must be a finite"):
        world._advance(moving)


def test_non_finite_believed_position_fails_the_step():
    """A NaN believed position commands a NaN motion in either controller
    form, and the plant refuses the state it would enter."""
    world, a = make_world(), action(1.0, 1.0, 0.0)
    believed = np.array([np.nan, 0.0, 100.0])
    with np.errstate(invalid="ignore"):
        motions = (steer(world, a, believed, ENV),
                   steer_fleet([world], a[None], believed[None], ENV)[0])
    for motion in motions:
        with pytest.raises(ConfigurationError, match="uav_pos_true"):
            step_dynamics(world, motion, ENV)


def test_goal_span_follows_goal_and_start():
    """|goal - start| is computed when a state is built, as np.linalg.norm
    computes it, and again when `dataclasses.replace` moves either end."""
    world = make_world(start=np.array([0.0, 0.0, 100.0]))
    assert world.goal_span == np.linalg.norm(world.goal - world.start) == 1000.0
    moved = dataclasses.replace(world, goal=np.array([3.0, 4.0, 100.0]))
    assert moved.goal_span == 5.0
    moved = dataclasses.replace(moved, start=np.array([3.0, 4.0, 112.0]))
    assert moved.goal_span == 12.0
    assert reward(moved, ENV).goal_seek == -5.0 / 12.0 + 3.0  # 5 m off the goal


def test_sequential_episodes_each_score_their_own_goal_span(cons):
    """Training plays one episode after another, and an episode's states
    are dropped before the next begins, so object ids get reused: every
    reward must still divide by its own episode's |goal - start|."""
    train = TrainConfig()
    spans = set()
    for seed in range(40):
        cfg = dataclasses.replace(EnvConfig(), max_steps=6, goal_distance_range=(
            train.short_goal_distance_range, train.long_goal_distance_range
        )[seed % 2])
        world, _ = env_reset(cfg, seed, cons, noise_sigma=0.0)
        span = float(np.linalg.norm(world.goal - world.start))
        spans.add(span)
        done = False
        while not done:
            world, _, rb, done, _ = env_step(
                world, steered(world, action(1.0, 1.0, 0.0), cfg), cons, 0.0,
                cfg=cfg)
            dist_goal = np.linalg.norm(world.goal - world.uav_pos_true)
            assert world.goal_span == span
            assert rb.goal_seek == -dist_goal / span + (
                3.0 if dist_goal <= cfg.goal_threshold else 0.0)
    assert len(spans) == 40


def reference_sample_start_goal(cfg, rng):
    """`env._sample_start_goal` as first written, with numpy throughout."""
    bounds = np.array(cfg.bounds)
    lo, hi = cfg.goal_distance_range
    for _ in range(100_000):
        d = rng.uniform(lo, hi)
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        if norm < 1e-9:
            continue
        delta = d * direction / norm
        if np.any(np.abs(delta) >= bounds):
            continue
        room = bounds - np.abs(delta)
        base = rng.uniform(np.zeros(3), room)
        start = np.where(delta >= 0, base, base - delta)
        return start, start + delta
    raise AssertionError("no start/goal pair")


@pytest.mark.parametrize("distances", ["default", "short", "long"])
def test_start_goal_sampling_matches_reference(distances):
    """Same draws, same starts and goals bit for bit, and the stream left
    where the reference leaves it, over the default range and both
    curriculum ranges."""
    train = TrainConfig()
    cfg = EnvConfig()
    if distances != "default":
        cfg = dataclasses.replace(cfg, goal_distance_range=getattr(
            train, f"{distances}_goal_distance_range"))
    for seed in range(300):
        rng, ref_rng = (np.random.default_rng([seed, 0x5EED]) for _ in range(2))
        got = _sample_start_goal(cfg, rng)
        ref = reference_sample_start_goal(cfg, ref_rng)
        assert all(same_bits(g, r) for g, r in zip(got, ref))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
