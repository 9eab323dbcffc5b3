"""Tests for the drift attack schedule and geometry-consistent injection."""

import numpy as np
import pytest

from driftwatch.config import EnvConfig, GnssConfig
from driftwatch.env import env_reset_full, env_step, steer
from driftwatch.errors import ConfigurationError
from driftwatch.gnss import (
    constellation_from_config,
    measure_pseudoranges,
    solve_pvt,
)
from driftwatch.spoofing import (
    AttackConfig,
    attack_alpha,
    spoof_position,
    spoof_pseudoranges,
)


@pytest.fixture(scope="module")
def cons():
    return constellation_from_config(GnssConfig())


def test_alpha_schedule_endpoints():
    cfg = AttackConfig(t_start=100, drift_duration=50, target=(0.0, 0.0, 0.0))
    assert attack_alpha(99, cfg) is None  # off: measured honestly
    for t, alpha in ((100, 0.0), (125, 0.5), (150, 1.0), (10_000, 1.0)):
        assert type(attack_alpha(t, cfg)) is float
        assert attack_alpha(t, cfg) == alpha


def test_alpha_is_monotone_nondecreasing():
    cfg = AttackConfig(t_start=7, drift_duration=13, target=(0.0, 0.0, 0.0))
    alphas = [attack_alpha(t, cfg) for t in range(60)]
    assert alphas[:7] == [None] * 7
    ramp = alphas[7:]
    assert all(b >= a for a, b in zip(ramp, ramp[1:]))
    assert min(ramp) == 0.0 and max(ramp) == 1.0


def test_abrupt_attack_is_one_step_ramp():
    """drift_duration=1 jumps to the target a single step after onset."""
    cfg = AttackConfig(t_start=5, drift_duration=1, target=(0.0, 0.0, 0.0))
    assert attack_alpha(5, cfg) == 0.0
    assert attack_alpha(6, cfg) == 1.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AttackConfig(t_start=100, drift_duration=0, target=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        AttackConfig(t_start=-1, drift_duration=50, target=(0.0, 0.0, 0.0))


def test_spoof_position_interpolates():
    cfg = AttackConfig(t_start=100, drift_duration=50, target=(0.0, 0.0, 0.0))
    true_pos = np.array([100.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        spoof_position(true_pos, 0.0, cfg), true_pos
    )
    np.testing.assert_array_equal(
        spoof_position(true_pos, 1.0, cfg), np.zeros(3)
    )
    np.testing.assert_allclose(
        spoof_position(true_pos, 0.25, cfg),
        np.array([75.0, 0.0, 0.0]),
    )


def test_spoof_position_inactive_passthrough():
    """Weight 0, the onset step, implies the true position bit for bit."""
    cfg = AttackConfig(t_start=100, drift_duration=50, target=(1.0, 2.0, 3.0))
    p = np.array([-4.0, 5.0, 6.0])
    assert spoof_position(p, 0.0, cfg).tobytes() == p.tobytes()


def test_spoofed_set_equals_clean_measurement_at_truth(cons):
    """With spoof_pos = truth the fabricated set matches the noiseless model."""
    position, bias = np.array([220.0, -80.0, 140.0]), 31.0
    legit = measure_pseudoranges(position, bias, cons, 0.0,
                                 np.random.default_rng(0))
    spoofed = spoof_pseudoranges(position, bias, cons)
    np.testing.assert_array_equal(spoofed, legit)


def test_solver_recovers_spoofed_position(cons):
    rng = np.random.default_rng(9)
    for _ in range(10):
        pos = rng.uniform(-800, 800, size=3)
        bias = rng.uniform(-100, 100)
        meas = spoof_pseudoranges(pos, bias, cons)
        sol = solve_pvt(meas, cons)
        assert sol.converged
        assert np.linalg.norm(sol.x[:3] - pos) < 1e-6
        assert abs(sol.x[3] - bias) < 1e-6


def test_spoofed_residuals_below_legit_noisy_residuals(cons):
    """The attack is invisible to residual thresholds at matched noise."""
    position = np.array([300.0, 120.0, 90.0])
    rng = np.random.default_rng(17)
    legit_norms = []
    for _ in range(50):
        meas = measure_pseudoranges(position, -20.0, cons, 2.0, rng)
        legit_norms.append(solve_pvt(meas, cons).final_residual_norm)
    spoofed = spoof_pseudoranges(np.array([500.0, -200.0, 60.0]), -20.0, cons)
    spoof_norm = solve_pvt(spoofed, cons).final_residual_norm
    assert spoof_norm <= min(legit_norms)
    assert spoof_norm < 1e-6


def test_onset_step_spoofs_with_weight_zero(cons):
    """At t_start the weight is 0.0 but the step is spoofed: the fabricated
    set sits at the truth, noiseless, and nothing is drawn from the rng."""
    env_cfg = EnvConfig()
    attack = AttackConfig(t_start=3, drift_duration=10,
                          target=(0.0, 0.0, 0.0))
    rng = np.random.default_rng(4)
    world, phi, pvt = env_reset_full(env_cfg, 8, cons, 2.0)
    for t in range(1, 5):
        state = rng.bit_generator.state
        world, phi, _, _, pvt = env_step(
            world, steer(world, np.array([1.0, 1.0, 0.0]), pvt.x[:3], env_cfg),
            cons, 2.0, attack, cfg=env_cfg, rng=rng, pvt_init=pvt.x)
        spoofed = (rng.bit_generator.state == state)
        assert spoofed == (t >= 3)
        if t == 3:
            assert pvt.final_residual_norm < 1e-6
            truth = np.append(world.uav_pos_true, world.clock_bias_true)
            np.testing.assert_allclose(pvt.x, truth, rtol=0, atol=1e-6)
