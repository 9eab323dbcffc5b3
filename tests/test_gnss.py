"""Tests for pseudorange modeling and the iterative PVT solver."""

import numpy as np
import pytest

from driftwatch.config import GnssConfig
from driftwatch.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)
from driftwatch.gnss import (
    Constellation,
    ReceiverEstimate,
    _check_rank,
    _well_conditioned,
    make_constellation,
    measure_pseudoranges,
    predicted_pseudoranges,
    solve_pvt,
)
from driftwatch.spoofing import spoof_pseudoranges
from gnss_oracles import jacobian, ls_step, residuals


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
        [measure_pseudoranges(truth, cons, 2.0, rng) for _ in range(4000)]
    )
    clean = predicted_pseudoranges(truth, cons)
    noise = draws - clean
    assert abs(noise.mean()) < 0.05
    assert abs(noise.std() - 2.0) < 0.05


def test_zero_noise_measurement_is_exact(cons):
    truth = ReceiverEstimate(np.array([5.0, -3.0, 12.0]), 8.0)
    meas = measure_pseudoranges(truth, cons, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(meas, predicted_pseudoranges(truth, cons))


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
    meas = measure_pseudoranges(ReceiverEstimate(np.zeros(3)), cons, 0.0, None)
    with pytest.raises(DegenerateGeometryError):
        solve_pvt(meas, cons, init=est)


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
    cons_bad = Constellation(np.tile([0.0, 0.0, 2.0e7], (4, 1)))
    meas = np.full(4, 2.0e7)
    with pytest.raises(SingularGeometryError):
        ls_step(ReceiverEstimate(np.zeros(3)), meas, cons_bad)
    with pytest.raises(SingularGeometryError):
        solve_pvt(meas, cons_bad)


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
    shifted = meas + 123.0
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
        solve_pvt(np.zeros(3), cons)


def test_residuals_length_mismatch(cons):
    with pytest.raises(ConfigurationError):
        residuals(ReceiverEstimate(np.zeros(3)), np.zeros(5), cons)
    with pytest.raises(ConfigurationError):
        solve_pvt(np.zeros(5), cons)


def test_estimate_vector_round_trip():
    est = ReceiverEstimate(np.array([1.0, 2.0, 3.0]), 4.0)
    again = ReceiverEstimate.from_vector(est.as_vector())
    np.testing.assert_array_equal(again.position, est.position)
    assert again.clock_bias == est.clock_bias


# Reference solver: the Gauss-Newton loop as first written, one
# ReceiverEstimate per iteration, `np.linalg.norm` for the ranges and
# `np.linalg.cond` for the rank guard.  The solver must reproduce it bit for
# bit.

def reference_predicted(est, positions):
    return np.linalg.norm(positions - est.position, axis=1) + est.clock_bias


def reference_ls_step(est, measurements, positions):
    delta = measurements - reference_predicted(est, positions)
    sep = est.position - positions
    ranges = np.linalg.norm(sep, axis=1)
    if np.any(ranges < 1.0):
        raise DegenerateGeometryError("receiver estimate coincides with a satellite")
    h = np.hstack([sep / ranges[:, None], np.ones((len(positions), 1))])
    normal = h.T @ h
    if np.linalg.cond(normal) > 1e12:
        raise SingularGeometryError("satellite geometry is rank deficient")
    correction = np.linalg.solve(normal, h.T @ delta)
    new_est = ReceiverEstimate.from_vector(est.as_vector() + correction)
    return new_est, float(np.linalg.norm(correction))


def reference_solve_pvt(measurements, positions, init=None, tol=1e-4,
                        max_iter=20):
    est = init if init is not None else ReceiverEstimate(np.zeros(3), 0.0)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        est, step_norm = reference_ls_step(est, measurements, positions)
        if step_norm < tol:
            converged = True
            break
    final = measurements - reference_predicted(est, positions)
    return est, iterations, float(np.linalg.norm(final)), converged, final


def assert_same_solution(sol, ref):
    est, iterations, norm, converged, final = ref
    assert np.array_equal(sol.estimate.position, est.position)
    assert sol.estimate.clock_bias == est.clock_bias
    assert sol.iterations == iterations
    assert sol.final_residual_norm == norm
    assert sol.converged == converged
    assert np.array_equal(sol.residuals, final)


def random_receiver(rng):
    return ReceiverEstimate(rng.uniform([0.0, 0.0, 0.0], [1000.0, 1000.0, 300.0]),
                            rng.uniform(-100.0, 100.0))


@pytest.mark.parametrize("n_sats, seed", [(8, 7), (4, 5), (11, 2)])
def test_solve_matches_reference_bit_for_bit(n_sats, seed):
    """Noisy and noiseless epochs, from the origin, the truth and a nearby fix."""
    cons_k = make_constellation(n_sats=n_sats, seed=seed)
    positions = cons_k.positions
    rng = np.random.default_rng([n_sats, seed])
    for k in range(200):
        truth = random_receiver(rng)
        sigma = (0.0, 2.0, 25.0)[k % 3]
        meas = measure_pseudoranges(truth, cons_k, sigma, rng)
        nearby = ReceiverEstimate(truth.position + rng.normal(0.0, 30.0, size=3),
                                  truth.clock_bias + rng.normal(0.0, 10.0))
        for init in (None, truth, nearby):
            assert_same_solution(solve_pvt(meas, cons_k, init=init),
                                 reference_solve_pvt(meas, positions, init=init))
        step, step_norm = ls_step(nearby, meas, cons_k)
        ref_step, ref_norm = reference_ls_step(nearby, meas, positions)
        assert np.array_equal(step.as_vector(), ref_step.as_vector())
        assert step_norm == ref_norm


def test_spoofed_solve_matches_reference_bit_for_bit(cons):
    rng = np.random.default_rng(99)
    positions = cons.positions
    target = np.array([900.0, 100.0, 50.0])
    for k in range(200):
        truth = random_receiver(rng)
        alpha = rng.uniform(0.0, 1.0)
        implied = (1.0 - alpha) * truth.position + alpha * target
        meas = spoof_pseudoranges(implied, truth.clock_bias, cons)
        assert np.array_equal(
            meas,
            np.linalg.norm(positions - implied, axis=1) + truth.clock_bias,
        )
        for init in (None, truth):
            assert_same_solution(solve_pvt(meas, cons, init=init),
                                 reference_solve_pvt(meas, positions, init=init))


def test_predicted_pseudoranges_and_jacobian_match_reference(cons):
    rng = np.random.default_rng(5)
    positions = cons.positions
    for _ in range(200):
        est = random_receiver(rng)
        assert np.array_equal(predicted_pseudoranges(est, cons),
                              reference_predicted(est, positions))
        sep = est.position - positions
        expected = np.hstack([sep / np.linalg.norm(sep, axis=1)[:, None],
                              np.ones((len(cons), 1))])
        assert np.array_equal(jacobian(est, cons), expected)


def test_lapack_gufunc_equals_linalg_solve_bit_for_bit():
    """The solver calls the gufunc behind `np.linalg.solve` directly; on
    well-conditioned 4x4 normal matrices both give the same bits, so a numpy
    upgrade that changes either path fails here."""
    from numpy.linalg._umath_linalg import solve1

    rng = np.random.default_rng(4)
    for _ in range(1000):
        h = np.ones((int(rng.integers(4, 12)), 4))
        h[:, :3] = rng.normal(size=(len(h), 3))
        h[:, :3] /= np.linalg.norm(h[:, :3], axis=1)[:, None]
        normal = h.T @ h
        if np.linalg.cond(normal) > 1e8:
            normal += np.eye(4)
        rhs = rng.normal(0.0, 100.0, size=4)
        got = solve1(normal, rhs, signature="dd->d")
        assert got.tobytes() == np.linalg.solve(normal, rhs).tobytes()


def test_positions_are_stacked_once_and_read_only(cons):
    source = np.array(cons.positions)
    copy = Constellation(source)
    assert np.array_equal(copy.positions, source)
    assert not np.shares_memory(copy.positions, source)
    assert source.flags.writeable
    assert copy.positions is copy.positions
    assert len(copy) == len(source)
    assert not cons.positions.flags.writeable
    with pytest.raises(ValueError):
        cons.positions[0, 0] = 0.0



# Rank guard oracle: the SVD test alone, as every Gauss-Newton step ran it
# before the trace/determinant bound let well-conditioned matrices skip it.

def svd_guard(normal):
    s = np.linalg.svd(normal, compute_uv=False).tolist()
    if not (s[-1] > 0.0 and s[0] / s[-1] <= 1e12):
        raise SingularGeometryError("satellite geometry is rank deficient")


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the solver error it raised."""
    try:
        return fn(*args, **kwargs)
    except (SingularGeometryError, DegenerateGeometryError,
            np.linalg.LinAlgError) as exc:
        return type(exc)


def normal_with_cond(rng, n_rows, cond):
    """H^T H for a random (n_rows, 4) H whose normal matrix has cond `cond`.

    Half the spectra are geometric; the other half have one small
    eigenvalue under three of similar size, where tr^4 / det comes closest
    to the condition number.
    """
    u, _ = np.linalg.qr(rng.normal(size=(n_rows, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if rng.uniform() < 0.5:
        eig = np.geomspace(1.0, 1.0 / cond, 4)
    else:
        eig = np.array([1.0, *rng.uniform(0.2, 1.0, size=2), 1.0 / cond])
    h = (u * np.sqrt(eig * rng.uniform(0.5, 9.0))) @ v.T
    return h.T @ h


def test_rank_guard_matches_svd_guard_on_random_normal_matrices():
    rng = np.random.default_rng(2024)
    seen = {(None, True): 0, (None, False): 0, (SingularGeometryError, False): 0}
    for k in range(3000):
        # log-uniform over 1e0..1e16, then a dense band around the 1e12 gate
        exponent = rng.uniform(0.0, 16.0) if k % 2 else rng.uniform(11.0, 13.0)
        normal = normal_with_cond(rng, int(rng.integers(4, 13)), 10.0**exponent)
        expected = outcome(svd_guard, normal)
        assert outcome(_check_rank, normal) is expected
        seen[expected, _well_conditioned(normal.tolist())] += 1
    # rejected, accepted by the bound, and accepted only by the SVD
    assert min(seen.values()) > 200


@pytest.mark.parametrize("normal", [
    np.full((4, 4), np.nan),
    np.where(np.eye(4) > 0, np.nan, 0.0),
    np.diag([np.inf, 1.0, 1.0, 1.0]),
    np.full((4, 4), np.inf),
    np.eye(4) * 1e300,
    np.eye(4) * 1e80,
    np.zeros((4, 4)),
    np.diag([1.0, 1.0, 1.0, 0.0]),
], ids=["nan", "nan-diagonal", "inf-diagonal", "inf", "det-overflow",
        "tr4-overflow", "zero", "rank-3"])
def test_rank_guard_non_finite_and_extreme_entries(normal):
    """These skip the bound and meet the SVD guard: NaN still raises LinAlgError."""
    assert not _well_conditioned(normal.tolist())
    assert outcome(_check_rank, normal) is outcome(svd_guard, normal)


def near_coplanar(rng, n_sats, tilt):
    """Satellites whose directions all sit near one cone around the z axis.

    The lines of sight from the origin then lie close to one circle, which
    leaves the normal matrix nearly singular; `tilt` sets how close.
    """
    az = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_sats))
    z = 0.5 + tilt * rng.normal(size=n_sats)
    r_xy = np.sqrt(1.0 - z * z)
    dirs = np.stack([r_xy * np.cos(az), r_xy * np.sin(az), z], axis=1)
    return Constellation(2.0e7 * dirs)


def test_solver_raises_on_exactly_the_svd_guards_inputs():
    """ls_step and solve_pvt against the SVD-guarded reference loop.

    Near-coplanar constellations span normal-matrix condition numbers of
    about 1e9 to 1e14, around the 1e12 gate.
    """
    rng = np.random.default_rng(31)
    raised = passed = 0
    conds = []
    start = ReceiverEstimate(np.zeros(3))
    for _ in range(400):
        cons_k = near_coplanar(rng, int(rng.integers(4, 9)),
                               10.0 ** rng.uniform(-7.5, -4.0))
        positions = cons_k.positions
        h = jacobian(start, cons_k)
        conds.append(np.linalg.cond(h.T @ h))
        truth = ReceiverEstimate(rng.normal(0.0, 50.0, size=3),
                                 rng.uniform(-50.0, 50.0))
        meas = spoof_pseudoranges(truth.position, truth.clock_bias, cons_k)
        got = outcome(ls_step, start, meas, cons_k)
        ref = outcome(reference_ls_step, start, meas, positions)
        if ref is SingularGeometryError:
            assert got is ref
            raised += 1
        else:
            assert np.array_equal(got[0].as_vector(), ref[0].as_vector())
            assert got[1] == ref[1]
            passed += 1
        for init in (None, truth):
            got = outcome(solve_pvt, meas, cons_k, init=init)
            ref = outcome(reference_solve_pvt, meas, positions, init=init)
            if isinstance(ref, type):
                assert got is ref
            else:
                assert_same_solution(got, ref)
    assert raised > 50 and passed > 50
    assert min(conds) < 1e10 and max(conds) > 1e13


def test_non_finite_correction_raises_linalg_error(cons, monkeypatch):
    """A correction the solve could not make finite raises, as
    `np.linalg.solve` would on a matrix it finds singular."""
    import driftwatch.gnss as gnss

    monkeypatch.setattr(gnss, "solve1",
                        lambda a, b, signature: np.full(4, np.nan))
    truth = ReceiverEstimate(np.array([100.0, 200.0, 50.0]), 5.0)
    meas = measure_pseudoranges(truth, cons, 0.0, None)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_pvt(meas, cons)


def test_duplicated_satellite_rank_guard():
    """Four satellites with one twice: rank deficient; five with one twice: not."""
    base = make_constellation(n_sats=4, seed=3).positions
    truth = ReceiverEstimate(np.array([100.0, 200.0, 50.0]), 5.0)
    start = ReceiverEstimate(np.zeros(3))
    cons_bad = Constellation(np.vstack([base[:3], base[0]]))
    meas = spoof_pseudoranges(truth.position, truth.clock_bias, cons_bad)
    assert outcome(reference_ls_step, start, meas,
                   cons_bad.positions) is SingularGeometryError
    assert outcome(ls_step, start, meas, cons_bad) is SingularGeometryError
    assert outcome(solve_pvt, meas, cons_bad) is SingularGeometryError
    cons_ok = Constellation(np.vstack([base, base[0]]))
    meas = spoof_pseudoranges(truth.position, truth.clock_bias, cons_ok)
    assert_same_solution(solve_pvt(meas, cons_ok),
                         reference_solve_pvt(meas, cons_ok.positions))


def test_nan_estimate_still_raises_linalg_error(cons):
    meas = measure_pseudoranges(ReceiverEstimate(np.zeros(3)), cons, 0.0, None)
    start = ReceiverEstimate(np.array([np.nan, 0.0, 0.0]))
    assert outcome(reference_ls_step, start, meas,
                   cons.positions) is np.linalg.LinAlgError
    assert outcome(ls_step, start, meas, cons) is np.linalg.LinAlgError
    assert outcome(solve_pvt, meas, cons, init=start) is np.linalg.LinAlgError


def test_default_constellation_never_needs_the_svd(monkeypatch):
    """Every normal matrix of the default geometry passes the cheap bound."""
    g = GnssConfig()
    default = make_constellation(g.n_sats, g.radius, g.constellation_seed,
                                 g.min_separation_deg)
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(300):
        truth = random_receiver(rng)
        meas = measure_pseudoranges(truth, default, g.noise_sigma, rng)
        target = rng.uniform([0.0, 0.0, 0.0], [1000.0, 1000.0, 300.0])
        spoofed = spoof_pseudoranges(target, truth.clock_bias, default)
        cases += [(meas, None), (meas, truth), (spoofed, truth)]
    expected = [reference_solve_pvt(m, default.positions, init=i)
                for m, i in cases]

    def no_svd(*args, **kwargs):
        raise AssertionError("the rank guard ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for (m, i), ref in zip(cases, expected):
        assert_same_solution(solve_pvt(m, default, init=i), ref)
