"""Tests for the drift attack schedule and geometry-consistent injection."""

import numpy as np
import pytest

from driftwatch.errors import ConfigurationError
from driftwatch.gnss import (
    ReceiverEstimate,
    make_constellation,
    measure_pseudoranges,
    solve_pvt,
)
from driftwatch.spoofing import (
    AttackConfig,
    AttackPhase,
    attack_alpha,
    spoof_position,
    spoof_pseudoranges,
)


@pytest.fixture(scope="module")
def cons():
    return make_constellation(n_sats=8, seed=7)


def test_alpha_schedule_endpoints():
    cfg = AttackConfig(t_start=100, drift_duration=50, enabled=True)
    assert attack_alpha(99, cfg) == AttackPhase(0.0, False)
    assert attack_alpha(100, cfg) == AttackPhase(0.0, True)
    assert attack_alpha(125, cfg) == AttackPhase(0.5, True)
    assert attack_alpha(150, cfg) == AttackPhase(1.0, True)
    assert attack_alpha(10_000, cfg) == AttackPhase(1.0, True)


def test_alpha_zero_when_disabled():
    cfg = AttackConfig(t_start=0, drift_duration=10, enabled=False)
    for t in range(50):
        phase = attack_alpha(t, cfg)
        assert phase.alpha == 0.0 and not phase.active


def test_alpha_is_monotone_nondecreasing():
    cfg = AttackConfig(t_start=7, drift_duration=13, enabled=True)
    alphas = [attack_alpha(t, cfg).alpha for t in range(60)]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))
    assert min(alphas) == 0.0 and max(alphas) == 1.0


def test_abrupt_attack_is_one_step_ramp():
    """drift_duration=1 jumps to the target a single step after onset."""
    cfg = AttackConfig(t_start=5, drift_duration=1, enabled=True)
    assert attack_alpha(5, cfg).alpha == 0.0
    assert attack_alpha(6, cfg).alpha == 1.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AttackConfig(drift_duration=0)
    with pytest.raises(ConfigurationError):
        AttackConfig(t_start=-1)


def test_spoof_position_interpolates():
    cfg = AttackConfig(target=(0.0, 0.0, 0.0), enabled=True)
    true_pos = np.array([100.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        spoof_position(true_pos, AttackPhase(0.0, True), cfg), true_pos
    )
    np.testing.assert_array_equal(
        spoof_position(true_pos, AttackPhase(1.0, True), cfg), np.zeros(3)
    )
    np.testing.assert_allclose(
        spoof_position(true_pos, AttackPhase(0.25, True), cfg),
        np.array([75.0, 0.0, 0.0]),
    )


def test_spoof_position_inactive_passthrough():
    cfg = AttackConfig(target=(1.0, 2.0, 3.0), enabled=True)
    p = np.array([-4.0, 5.0, 6.0])
    np.testing.assert_array_equal(spoof_position(p, AttackPhase(0.0, False), cfg), p)


def test_spoofed_set_equals_clean_measurement_at_truth(cons):
    """With spoof_pos = truth the fabricated set matches the noiseless model."""
    truth = ReceiverEstimate(np.array([220.0, -80.0, 140.0]), 31.0)
    legit = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    spoofed = spoof_pseudoranges(truth.position, truth.clock_bias, cons)
    np.testing.assert_array_equal(spoofed, legit)


def test_solver_recovers_spoofed_position(cons):
    rng = np.random.default_rng(9)
    for _ in range(10):
        pos = rng.uniform(-800, 800, size=3)
        bias = rng.uniform(-100, 100)
        meas = spoof_pseudoranges(pos, bias, cons)
        sol = solve_pvt(meas, cons)
        assert sol.converged
        assert np.linalg.norm(sol.estimate.position - pos) < 1e-6
        assert abs(sol.estimate.clock_bias - bias) < 1e-6


def test_spoofed_residuals_below_legit_noisy_residuals(cons):
    """The attack is invisible to residual thresholds at matched noise."""
    truth = ReceiverEstimate(np.array([300.0, 120.0, 90.0]), -20.0)
    rng = np.random.default_rng(17)
    legit_norms = []
    for _ in range(50):
        meas = measure_pseudoranges(truth, cons, 2.0, rng)
        legit_norms.append(solve_pvt(meas, cons).final_residual_norm)
    spoofed = spoof_pseudoranges(np.array([500.0, -200.0, 60.0]), -20.0, cons)
    spoof_norm = solve_pvt(spoofed, cons).final_residual_norm
    assert spoof_norm <= min(legit_norms)
    assert spoof_norm < 1e-6


def test_disabled_attack_leaves_measurement_path_untouched(cons):
    """End-to-end: with enabled=False the measured set is bit-identical."""
    cfg = AttackConfig(enabled=False)
    truth = ReceiverEstimate(np.array([50.0, 60.0, 70.0]), 5.0)
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    baseline = measure_pseudoranges(truth, cons, 2.0, rng_a)
    phase = attack_alpha(200, cfg)
    pos = spoof_position(truth.position, phase, cfg)
    np.testing.assert_array_equal(pos, truth.position)
    routed = measure_pseudoranges(ReceiverEstimate(pos, truth.clock_bias), cons, 2.0,
                                  rng_b)
    np.testing.assert_array_equal(routed, baseline)
