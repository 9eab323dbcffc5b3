"""Tests for pseudorange modeling and the iterative PVT solver."""

import numpy as np
import pytest

from driftwatch.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)
from driftwatch.gnss import (
    Constellation,
    PseudorangeSet,
    ReceiverEstimate,
    Satellite,
    jacobian,
    ls_step,
    make_constellation,
    measure_pseudoranges,
    predicted_pseudoranges,
    residuals,
    solve_pvt,
)


@pytest.fixture(scope="module")
def cons():
    return make_constellation(n_sats=8, seed=7)


def test_constellation_geometry(cons):
    pos = cons.positions
    assert pos.shape == (8, 3)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=1), 2.0e7, rtol=1e-12)
    assert np.all(pos[:, 2] > 0), "satellites must sit above the horizon"
    # pairwise angular separation >= 10 deg
    unit = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    gram = unit @ unit.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < np.cos(np.deg2rad(10.0)) + 1e-12


def test_constellation_determinism_and_seed_sensitivity():
    a = make_constellation(n_sats=6, seed=3)
    b = make_constellation(n_sats=6, seed=3)
    c = make_constellation(n_sats=6, seed=4)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert not np.allclose(a.positions, c.positions)


def test_constellation_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        make_constellation(n_sats=3)
    with pytest.raises(ConfigurationError):
        make_constellation(radius=5.0e6)


def test_pseudorange_model_includes_bias(cons):
    """Modeled pseudorange is geometric range plus the clock bias in meters."""
    est = ReceiverEstimate(np.array([10.0, 20.0, 30.0]), clock_bias=17.0)
    rho = predicted_pseudoranges(est, cons)
    ranges = np.linalg.norm(cons.positions - est.position, axis=1)
    np.testing.assert_allclose(rho, ranges + 17.0, rtol=0, atol=1e-9)


def test_measurement_noise_statistics(cons):
    truth = ReceiverEstimate(np.zeros(3), 0.0)
    rng = np.random.default_rng(11)
    draws = np.stack(
        [measure_pseudoranges(truth, cons, 2.0, rng).values for _ in range(4000)]
    )
    clean = predicted_pseudoranges(truth, cons)
    noise = draws - clean
    assert abs(noise.mean()) < 0.05
    assert abs(noise.std() - 2.0) < 0.05


def test_zero_noise_measurement_is_exact(cons):
    truth = ReceiverEstimate(np.array([5.0, -3.0, 12.0]), 8.0)
    meas = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(meas.values, predicted_pseudoranges(truth, cons))


def test_jacobian_against_central_differences(cons):
    """Analytic Jacobian must match finite differences of the range model.

    With ranges near 2e7 m a 1 m step keeps the second-order error far
    below the tolerance.
    """
    est = ReceiverEstimate(np.array([120.0, -340.0, 77.0]), 12.5)
    analytic = jacobian(est, cons)
    fd = np.zeros_like(analytic)
    h = 1.0
    v0 = est.as_vector()
    for j in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += h
        vm[j] -= h
        fp = predicted_pseudoranges(ReceiverEstimate.from_vector(vp), cons)
        fm = predicted_pseudoranges(ReceiverEstimate.from_vector(vm), cons)
        fd[:, j] = (fp - fm) / (2 * h)
    rel = np.abs(fd - analytic).max() / np.abs(analytic).max()
    assert rel < 1e-6


def test_jacobian_rows_are_unit_vectors_plus_one(cons):
    est = ReceiverEstimate(np.array([1.0, 2.0, 3.0]), 0.0)
    h = jacobian(est, cons)
    np.testing.assert_allclose(np.linalg.norm(h[:, :3], axis=1), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(h[:, 3], np.ones(len(cons)))


def test_jacobian_degenerate_at_satellite(cons):
    est = ReceiverEstimate(cons.positions[0].copy(), 0.0)
    with pytest.raises(DegenerateGeometryError):
        jacobian(est, cons)


def test_ls_step_matches_direct_solve_at_four_sats():
    """With exactly 4 satellites the Gauss-Newton step solves H d = r directly."""
    cons4 = make_constellation(n_sats=4, seed=5)
    truth = ReceiverEstimate(np.array([100.0, 50.0, 20.0]), 30.0)
    meas = measure_pseudoranges(truth, cons4, 0.0, np.random.default_rng(0))
    est = ReceiverEstimate(np.array([90.0, 60.0, 10.0]), 25.0)
    stepped, _ = ls_step(est, meas, cons4)
    h = jacobian(est, cons4)
    delta = residuals(est, meas, cons4)
    expected = est.as_vector() + np.linalg.solve(h, delta)
    np.testing.assert_allclose(stepped.as_vector(), expected, rtol=0, atol=1e-9)


def test_singular_geometry_raises():
    # all satellites stacked in one spot: rank-1 geometry
    sats = tuple(Satellite(i, np.array([0.0, 0.0, 2.0e7])) for i in range(4))
    cons_bad = Constellation(sats)
    meas = PseudorangeSet(np.full(4, 2.0e7))
    with pytest.raises(SingularGeometryError):
        ls_step(ReceiverEstimate(np.zeros(3)), meas, cons_bad)


def test_solve_recovers_truth_without_noise(cons):
    rng = np.random.default_rng(21)
    for _ in range(20):
        truth = ReceiverEstimate(rng.uniform(-500, 500, size=3), rng.uniform(-100, 100))
        meas = measure_pseudoranges(truth, cons, 0.0, rng)
        sol = solve_pvt(meas, cons)
        assert sol.converged
        assert np.linalg.norm(sol.estimate.position - truth.position) < 1e-6
        assert abs(sol.estimate.clock_bias - truth.clock_bias) < 1e-6
        assert sol.final_residual_norm < 1e-6


def test_solve_from_truth_converges_immediately(cons):
    """Starting at the exact solution, the first correction is already ~0."""
    truth = ReceiverEstimate(np.array([250.0, -100.0, 300.0]), 42.0)
    meas = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    sol = solve_pvt(meas, cons, init=truth)
    assert sol.converged
    assert sol.iterations == 1


def test_solve_cold_start_iteration_count(cons):
    truth = ReceiverEstimate(np.array([400.0, 400.0, 100.0]), -50.0)
    meas = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    sol = solve_pvt(meas, cons)
    assert sol.converged
    assert sol.iterations <= 4


def test_bias_and_geometry_separate(cons):
    """Adding a constant to every pseudorange moves only the clock bias."""
    truth = ReceiverEstimate(np.array([33.0, -7.0, 150.0]), 0.0)
    meas = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    shifted = PseudorangeSet(meas.values + 123.0)
    sol0 = solve_pvt(meas, cons)
    sol1 = solve_pvt(shifted, cons)
    np.testing.assert_allclose(
        sol1.estimate.position, sol0.estimate.position, rtol=0, atol=1e-6
    )
    assert np.isclose(sol1.estimate.clock_bias, sol0.estimate.clock_bias + 123.0,
                      rtol=0, atol=1e-6)


def test_noise_does_not_bias_the_solution(cons):
    truth = ReceiverEstimate(np.array([250.0, -100.0, 300.0]), 42.0)
    rng = np.random.default_rng(3)
    deltas = np.zeros((10_000, 3))
    for k in range(10_000):
        meas = measure_pseudoranges(truth, cons, 2.0, rng)
        sol = solve_pvt(meas, cons, init=truth)
        deltas[k] = sol.estimate.position - truth.position
    assert np.all(np.abs(deltas.mean(axis=0)) < 0.1)


def test_position_rmse_regression(cons):
    """Frozen accuracy baseline: sigma=2 m noise over 1000 random receivers."""
    rng = np.random.default_rng(42)
    errs = np.zeros(1000)
    for k in range(1000):
        truth = ReceiverEstimate(
            rng.uniform(-500, 500, size=3) + np.array([0.0, 0.0, 200.0]),
            rng.uniform(-100, 100),
        )
        meas = measure_pseudoranges(truth, cons, 2.0, rng)
        sol = solve_pvt(meas, cons)
        errs[k] = np.linalg.norm(sol.estimate.position - truth.position)
    rmse = float(np.sqrt(np.mean(errs**2)))
    assert 1.0 < rmse < 8.0, "noise amplification far outside expected envelope"
    assert np.isclose(rmse, 3.608811206824008, rtol=1e-9)


def test_solve_requires_four_measurements(cons):
    with pytest.raises(ConfigurationError):
        solve_pvt(PseudorangeSet(np.zeros(3)), cons)


def test_residuals_length_mismatch(cons):
    with pytest.raises(ConfigurationError):
        residuals(ReceiverEstimate(np.zeros(3)), PseudorangeSet(np.zeros(5)), cons)


def test_estimate_vector_round_trip():
    est = ReceiverEstimate(np.array([1.0, 2.0, 3.0]), 4.0)
    again = ReceiverEstimate.from_vector(est.as_vector())
    np.testing.assert_array_equal(again.position, est.position)
    assert again.clock_bias == est.clock_bias
