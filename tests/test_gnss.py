"""Tests for pseudorange modeling and the iterative PVT solver."""

import numpy as np
import pytest

from driftwatch import gnss
from driftwatch.config import GnssConfig
from driftwatch.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularGeometryError,
)
from driftwatch.gnss import (
    Constellation,
    PvtSolution,
    _check_rank,
    _line_of_sight,
    _well_conditioned,
    constellation_from_config,
    make_constellation,
    measure_pseudoranges,
    predicted_pseudoranges,
    solve_pvt,
)
from driftwatch.spoofing import spoof_pseudoranges
from gnss_oracles import jacobian, ls_step, residuals


@pytest.fixture(scope="module")
def cons():
    return constellation_from_config(GnssConfig())


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
    a = make_constellation(6, 2.0e7, 3, 10.0)
    b = make_constellation(6, 2.0e7, 3, 10.0)
    c = make_constellation(6, 2.0e7, 4, 10.0)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert not np.allclose(a.positions, c.positions)


def test_constellation_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        make_constellation(3, 2.0e7, 0, 10.0)
    with pytest.raises(ConfigurationError):
        make_constellation(8, 5.0e6, 0, 10.0)


def test_pseudorange_model_includes_bias(cons):
    """Modeled pseudorange is geometric range plus the clock bias in meters."""
    position = np.array([10.0, 20.0, 30.0])
    rho = predicted_pseudoranges(position, 17.0, cons)
    ranges = np.linalg.norm(cons.positions - position, axis=1)
    np.testing.assert_allclose(rho, ranges + 17.0, rtol=0, atol=1e-9)


def test_measurement_noise_statistics(cons):
    rng = np.random.default_rng(11)
    draws = np.stack(
        [measure_pseudoranges(np.zeros(3), 0.0, cons, 2.0, rng)
         for _ in range(4000)]
    )
    clean = predicted_pseudoranges(np.zeros(3), 0.0, cons)
    noise = draws - clean
    assert abs(noise.mean()) < 0.05
    assert abs(noise.std() - 2.0) < 0.05


def test_zero_noise_measurement_is_exact(cons):
    position = np.array([5.0, -3.0, 12.0])
    meas = measure_pseudoranges(position, 8.0, cons, 0.0,
                                np.random.default_rng(0))
    np.testing.assert_array_equal(meas,
                                  predicted_pseudoranges(position, 8.0, cons))


def test_jacobian_against_central_differences(cons):
    """Analytic Jacobian must match finite differences of the range model.

    With ranges near 2e7 m a 1 m step keeps the second-order error far
    below the tolerance.
    """
    v0 = np.array([120.0, -340.0, 77.0, 12.5])
    analytic = jacobian(v0, cons)
    fd = np.zeros_like(analytic)
    h = 1.0
    for j in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += h
        vm[j] -= h
        fp = predicted_pseudoranges(vp[:3], vp[3], cons)
        fm = predicted_pseudoranges(vm[:3], vm[3], cons)
        fd[:, j] = (fp - fm) / (2 * h)
    rel = np.abs(fd - analytic).max() / np.abs(analytic).max()
    assert rel < 1e-6


def test_jacobian_rows_are_unit_vectors_plus_one(cons):
    h = jacobian(np.array([1.0, 2.0, 3.0, 0.0]), cons)
    np.testing.assert_allclose(np.linalg.norm(h[:, :3], axis=1), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(h[:, 3], np.ones(len(cons)))


def test_jacobian_degenerate_at_satellite(cons):
    est = np.append(cons.positions[0], 0.0)
    with pytest.raises(DegenerateGeometryError):
        jacobian(est, cons)
    meas = measure_pseudoranges(np.zeros(3), 0.0, cons, 0.0, None)
    with pytest.raises(DegenerateGeometryError):
        solve_pvt(meas, cons, init=est)


def test_ls_step_matches_direct_solve_at_four_sats():
    """With exactly 4 satellites the Gauss-Newton step solves H d = r directly."""
    cons4 = make_constellation(4, 2.0e7, 5, 10.0)
    meas = measure_pseudoranges(np.array([100.0, 50.0, 20.0]), 30.0, cons4, 0.0,
                                np.random.default_rng(0))
    est = np.array([90.0, 60.0, 10.0, 25.0])
    stepped, _ = ls_step(est, meas, cons4)
    h = jacobian(est, cons4)
    delta = residuals(est, meas, cons4)
    expected = est + np.linalg.solve(h, delta)
    np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-9)


def test_singular_geometry_raises():
    # all satellites stacked in one spot: rank-1 geometry
    cons_bad = Constellation(np.tile([0.0, 0.0, 2.0e7], (4, 1)))
    meas = np.full(4, 2.0e7)
    with pytest.raises(SingularGeometryError):
        ls_step(np.zeros(4), meas, cons_bad)
    with pytest.raises(SingularGeometryError):
        solve_pvt(meas, cons_bad)


def test_solve_recovers_truth_without_noise(cons):
    rng = np.random.default_rng(21)
    for _ in range(20):
        position, bias = rng.uniform(-500, 500, size=3), rng.uniform(-100, 100)
        meas = measure_pseudoranges(position, bias, cons, 0.0, rng)
        sol = solve_pvt(meas, cons)
        assert sol.converged
        assert np.linalg.norm(sol.x[:3] - position) < 1e-6
        assert abs(sol.x[3] - bias) < 1e-6
        assert sol.final_residual_norm < 1e-6


def test_solve_from_truth_converges_immediately(cons):
    """Starting at the exact solution, the first correction is already ~0."""
    truth = np.array([250.0, -100.0, 300.0, 42.0])
    meas = measure_pseudoranges(truth[:3], truth[3], cons, 0.0,
                                np.random.default_rng(0))
    sol = solve_pvt(meas, cons, init=truth)
    assert sol.converged
    assert sol.iterations == 1


def test_solve_cold_start_iteration_count(cons):
    meas = measure_pseudoranges(np.array([400.0, 400.0, 100.0]), -50.0, cons,
                                0.0, np.random.default_rng(0))
    sol = solve_pvt(meas, cons)
    assert sol.converged
    assert sol.iterations <= 4


def test_bias_and_geometry_separate(cons):
    """Adding a constant to every pseudorange moves only the clock bias."""
    meas = measure_pseudoranges(np.array([33.0, -7.0, 150.0]), 0.0, cons, 0.0,
                                np.random.default_rng(0))
    shifted = meas + 123.0
    sol0 = solve_pvt(meas, cons)
    sol1 = solve_pvt(shifted, cons)
    np.testing.assert_allclose(sol1.x[:3], sol0.x[:3], rtol=0, atol=1e-6)
    assert np.isclose(sol1.x[3], sol0.x[3] + 123.0, rtol=0, atol=1e-6)


def test_noise_does_not_bias_the_solution(cons):
    truth = np.array([250.0, -100.0, 300.0, 42.0])
    rng = np.random.default_rng(3)
    deltas = np.zeros((10_000, 3))
    for k in range(10_000):
        meas = measure_pseudoranges(truth[:3], truth[3], cons, 2.0, rng)
        sol = solve_pvt(meas, cons, init=truth)
        deltas[k] = sol.x[:3] - truth[:3]
    assert np.all(np.abs(deltas.mean(axis=0)) < 0.1)


def test_position_rmse_regression(cons):
    """Frozen accuracy baseline: sigma=2 m noise over 1000 random receivers."""
    rng = np.random.default_rng(42)
    errs = np.zeros(1000)
    for k in range(1000):
        position = rng.uniform(-500, 500, size=3) + np.array([0.0, 0.0, 200.0])
        meas = measure_pseudoranges(position, rng.uniform(-100, 100), cons, 2.0,
                                    rng)
        sol = solve_pvt(meas, cons)
        errs[k] = np.linalg.norm(sol.x[:3] - position)
    rmse = float(np.sqrt(np.mean(errs**2)))
    assert 1.0 < rmse < 8.0, "noise amplification far outside expected envelope"
    assert np.isclose(rmse, 3.608811206824008, rtol=1e-9)


def test_solve_requires_four_measurements(cons):
    with pytest.raises(ConfigurationError):
        solve_pvt(np.zeros(3), cons)


def test_residuals_length_mismatch(cons):
    with pytest.raises(ConfigurationError):
        residuals(np.zeros(4), np.zeros(5), cons)
    with pytest.raises(ConfigurationError):
        solve_pvt(np.zeros(5), cons)


def test_estimate_vector_round_trip(cons):
    """A fix's (x, y, z, bias) vector goes back in as the next init: the
    solver copies it, never writes it, and stops at once on the same set."""
    meas = measure_pseudoranges(np.array([1.0, 2.0, 3.0]), 4.0, cons, 0.0, None)
    init = np.array([1.0, 2.0, 3.0, 4.0])
    sol = solve_pvt(meas, cons, init=init)
    assert sol.x.shape == (4,) and not np.shares_memory(sol.x, init)
    np.testing.assert_array_equal(init, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(sol.x, init, rtol=0, atol=1e-6)
    again = solve_pvt(meas, cons, init=sol.x)
    assert again.iterations == 1 and not np.shares_memory(again.x, sol.x)
    np.testing.assert_allclose(again.x, sol.x, rtol=0, atol=1e-9)


# Reference solver: the Gauss-Newton loop as first written, a new state
# vector per iteration, `np.linalg.norm` for the ranges and
# `np.linalg.cond` for the rank guard.  The solver must reproduce it bit for
# bit.

def reference_predicted(x, positions):
    return np.linalg.norm(positions - x[:3], axis=1) + x[3]


def reference_ls_step(x, measurements, positions):
    delta = measurements - reference_predicted(x, positions)
    sep = x[:3] - positions
    ranges = np.linalg.norm(sep, axis=1)
    if np.any(ranges < 1.0):
        raise DegenerateGeometryError("receiver estimate coincides with a satellite")
    h = np.hstack([sep / ranges[:, None], np.ones((len(positions), 1))])
    normal = h.T @ h
    if np.linalg.cond(normal) > 1e12:
        raise SingularGeometryError("satellite geometry is rank deficient")
    correction = np.linalg.solve(normal, h.T @ delta)
    return x + correction, float(np.linalg.norm(correction))


def reference_solve_pvt(measurements, positions, init=None, tol=1e-4,
                        max_iter=20):
    x = init if init is not None else np.zeros(4)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x, step_norm = reference_ls_step(x, measurements, positions)
        if step_norm < tol:
            converged = True
            break
    final = measurements - reference_predicted(x, positions)
    return x, iterations, float(np.linalg.norm(final)), converged, final


def assert_same_solution(sol, ref):
    x, iterations, norm, converged, final = ref
    assert np.array_equal(sol.x[:3], x[:3])
    assert sol.x[3] == x[3]
    assert sol.iterations == iterations
    assert sol.final_residual_norm == norm
    assert sol.converged == converged
    assert np.array_equal(sol.residuals, final)


def random_receiver(rng):
    """(x, y, z, clock bias) of a receiver in the airspace."""
    return np.append(rng.uniform([0.0, 0.0, 0.0], [1000.0, 1000.0, 300.0]),
                     rng.uniform(-100.0, 100.0))


@pytest.mark.parametrize("n_sats, seed", [(8, 7), (4, 5), (11, 2)])
def test_solve_matches_reference_bit_for_bit(n_sats, seed):
    """Noisy and noiseless epochs, from the origin, the truth and a nearby fix."""
    cons_k = make_constellation(n_sats, 2.0e7, seed, 10.0)
    positions = cons_k.positions
    rng = np.random.default_rng([n_sats, seed])
    for k in range(200):
        truth = random_receiver(rng)
        sigma = (0.0, 2.0, 25.0)[k % 3]
        meas = measure_pseudoranges(truth[:3], truth[3], cons_k, sigma, rng)
        nearby = np.append(truth[:3] + rng.normal(0.0, 30.0, size=3),
                           truth[3] + rng.normal(0.0, 10.0))
        for init in (None, truth, nearby):
            assert_same_solution(solve_pvt(meas, cons_k, init=init),
                                 reference_solve_pvt(meas, positions, init=init))
        step, step_norm = ls_step(nearby, meas, cons_k)
        ref_step, ref_norm = reference_ls_step(nearby, meas, positions)
        assert np.array_equal(step, ref_step)
        assert step_norm == ref_norm


def test_spoofed_solve_matches_reference_bit_for_bit(cons):
    rng = np.random.default_rng(99)
    positions = cons.positions
    target = np.array([900.0, 100.0, 50.0])
    for k in range(200):
        truth = random_receiver(rng)
        alpha = rng.uniform(0.0, 1.0)
        implied = (1.0 - alpha) * truth[:3] + alpha * target
        meas = spoof_pseudoranges(implied, truth[3], cons)
        assert np.array_equal(
            meas,
            np.linalg.norm(positions - implied, axis=1) + truth[3],
        )
        for init in (None, truth):
            assert_same_solution(solve_pvt(meas, cons, init=init),
                                 reference_solve_pvt(meas, positions, init=init))


def test_interleaved_constellations_match_reference_bit_for_bit():
    """Each constellation fills its own Jacobian buffer: solves that take
    turns on an 8- and a 5-satellite constellation each give the reference
    solve's result."""
    eight = make_constellation(8, 2.0e7, 3, 10.0)
    five = make_constellation(5, 2.0e7, 4, 10.0)
    rng = np.random.default_rng(408)
    fixes = {}
    for k in range(120):
        constellation = (eight, five)[k % 2]
        truth = random_receiver(rng)
        meas = measure_pseudoranges(truth[:3], truth[3], constellation, 2.0, rng)
        init = fixes.get(len(constellation))
        start = None if init is None else init.x.copy()
        fix = solve_pvt(meas, constellation, init=init)
        assert_same_solution(
            fix, reference_solve_pvt(meas, constellation.positions, init=start))
        fixes[len(constellation)] = fix


def test_predicted_pseudoranges_and_jacobian_match_reference(cons):
    rng = np.random.default_rng(5)
    positions = cons.positions
    for _ in range(200):
        est = random_receiver(rng)
        assert np.array_equal(predicted_pseudoranges(est[:3], est[3], cons),
                              reference_predicted(est, positions))
        sep = est[:3] - positions
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
    start = np.zeros(4)
    for _ in range(400):
        cons_k = near_coplanar(rng, int(rng.integers(4, 9)),
                               10.0 ** rng.uniform(-7.5, -4.0))
        positions = cons_k.positions
        h = jacobian(start, cons_k)
        conds.append(np.linalg.cond(h.T @ h))
        truth = np.append(rng.normal(0.0, 50.0, size=3), rng.uniform(-50.0, 50.0))
        meas = spoof_pseudoranges(truth[:3], truth[3], cons_k)
        got = outcome(ls_step, start, meas, cons_k)
        ref = outcome(reference_ls_step, start, meas, positions)
        if ref is SingularGeometryError:
            assert got is ref
            raised += 1
        else:
            assert np.array_equal(got[0], ref[0])
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
    meas = measure_pseudoranges(np.array([100.0, 200.0, 50.0]), 5.0, cons, 0.0,
                                None)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_pvt(meas, cons)


def test_duplicated_satellite_rank_guard():
    """Four satellites with one twice: rank deficient; five with one twice: not."""
    base = make_constellation(4, 2.0e7, 3, 10.0).positions
    position, bias = np.array([100.0, 200.0, 50.0]), 5.0
    start = np.zeros(4)
    cons_bad = Constellation(np.vstack([base[:3], base[0]]))
    meas = spoof_pseudoranges(position, bias, cons_bad)
    assert outcome(reference_ls_step, start, meas,
                   cons_bad.positions) is SingularGeometryError
    assert outcome(ls_step, start, meas, cons_bad) is SingularGeometryError
    assert outcome(solve_pvt, meas, cons_bad) is SingularGeometryError
    cons_ok = Constellation(np.vstack([base, base[0]]))
    meas = spoof_pseudoranges(position, bias, cons_ok)
    assert_same_solution(solve_pvt(meas, cons_ok),
                         reference_solve_pvt(meas, cons_ok.positions))


def test_nan_estimate_still_raises_linalg_error(cons):
    meas = measure_pseudoranges(np.zeros(3), 0.0, cons, 0.0, None)
    start = np.array([np.nan, 0.0, 0.0, 0.0])
    assert outcome(reference_ls_step, start, meas,
                   cons.positions) is np.linalg.LinAlgError
    assert outcome(ls_step, start, meas, cons) is np.linalg.LinAlgError
    assert outcome(solve_pvt, meas, cons, init=start) is np.linalg.LinAlgError


def test_default_constellation_never_needs_the_svd(monkeypatch):
    """Every normal matrix of the default geometry passes the cheap bound."""
    g = GnssConfig()
    default = constellation_from_config(g)
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(300):
        truth = random_receiver(rng)
        meas = measure_pseudoranges(truth[:3], truth[3], default, g.noise_sigma,
                                    rng)
        target = rng.uniform([0.0, 0.0, 0.0], [1000.0, 1000.0, 300.0])
        spoofed = spoof_pseudoranges(target, truth[3], default)
        cases += [(meas, None), (meas, truth), (spoofed, truth)]
    expected = [reference_solve_pvt(m, default.positions, init=i)
                for m, i in cases]

    def no_svd(*args, **kwargs):
        raise AssertionError("the rank guard ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for (m, i), ref in zip(cases, expected):
        assert_same_solution(solve_pvt(m, default, init=i), ref)


# Warm starts from a fix.  A solve started from an earlier fix must give
# bit for bit what the same solve started from that fix's vector gives.  The
# solver may return the earlier fix itself only when it is stationary and
# was solved from bitwise-equal measurements with the same constellation;
# otherwise it iterates from the fix's vector.


def same_fix(sol, ref) -> bool:
    return (sol.x.tobytes() == ref.x.tobytes()
            and sol.iterations == ref.iterations
            and sol.final_residual_norm == ref.final_residual_norm
            and sol.converged == ref.converged
            and sol.residuals.tobytes() == ref.residuals.tobytes())


def from_vector(meas, constellation, fix):
    """The full solve from the fix's (x, y, z, bias) vector."""
    return solve_pvt(meas, constellation, init=fix.x.copy())


def stationary_fixes(cons, n_epochs=40):
    """(spoofed measurements, stationary fix) pairs: each noiseless epoch is
    re-solved from its last fix, as a rollout does after the drift ramp,
    until the fix stops moving; epochs that do not settle within 40 solves
    are left out."""
    rng = np.random.default_rng(404)
    found = []
    for _ in range(n_epochs):
        truth = random_receiver(rng)
        target = rng.uniform([0.0, 0.0, 0.0], [1000.0, 1000.0, 300.0])
        meas = spoof_pseudoranges(target, truth[3], cons)
        fix = solve_pvt(meas, cons, init=truth)
        for _ in range(40):
            if fix.stationary:
                found.append((meas, fix))
                break
            fix = solve_pvt(meas, cons, init=fix)
    assert len(found) >= n_epochs // 4
    return found


def test_fix_records_what_it_was_solved_from(cons):
    meas = measure_pseudoranges(np.array([10.0, 20.0, 30.0]), 5.0, cons, 2.0,
                                np.random.default_rng(1))
    init = np.array([12.0, 18.0, 33.0, 0.0])
    fix = solve_pvt(meas, cons, init=init)
    assert fix.measurements == meas.tobytes()
    assert not fix.stationary  # it moved from init
    assert fix.solved_on is cons.positions
    sep, ranges = fix.line_of_sight
    want_sep, want_ranges = _line_of_sight(fix.x[:3], cons.positions)
    assert sep.tobytes() == want_sep.tobytes()
    assert ranges.tobytes() == want_ranges.tobytes()
    assert fix.residuals.tobytes() == (meas - (ranges + fix.x[3])).tobytes()
    for arr in (fix.x, fix.residuals, sep, ranges):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def count_lines_of_sight(monkeypatch):
    """A list that gains one entry per line of sight the solver computes."""
    calls = []
    real = gnss._line_of_sight

    def counted(position, positions):
        calls.append(position)
        return real(position, positions)

    monkeypatch.setattr(gnss, "_line_of_sight", counted)
    return calls


def test_rollout_warm_starts_match_the_vector_solve(cons, monkeypatch):
    """A moving receiver's noisy epochs, each solved from the last fix as
    a rollout solves them: every warm start, from the solved fix, from the
    same fix built by hand and from a fix solved on another constellation,
    gives bit for bit the solve from that fix's vector.  Only the solved
    fix hands over its line of sight, so that solve computes one line of
    sight per iteration and the others one more."""
    other = make_constellation(8, 2.0e7, 8, 10.0)
    rng = np.random.default_rng(407)
    truth = random_receiver(rng)
    fix = solve_pvt(measure_pseudoranges(truth[:3], truth[3], cons, 2.0, rng),
                    cons, init=truth)
    for _ in range(60):
        truth[:3] += rng.normal(0.0, 10.0, size=3)
        meas = measure_pseudoranges(truth[:3], truth[3], cons, 2.0, rng)
        hand = PvtSolution(x=fix.x.copy(), iterations=fix.iterations,
                           final_residual_norm=fix.final_residual_norm,
                           converged=True, residuals=fix.residuals.copy())
        elsewhere = solve_pvt(meas, other, init=fix)
        for init, handed_over in ((fix, True), (hand, False),
                                  (elsewhere, False)):
            calls = count_lines_of_sight(monkeypatch)
            got = solve_pvt(meas, cons, init=init)
            monkeypatch.undo()
            assert same_fix(got, from_vector(meas, cons, init))
            assert len(calls) == got.iterations + (not handed_over)
        fix = solve_pvt(meas, cons, init=fix)


def test_repeated_spoofed_epoch_returns_the_stationary_fix(cons):
    for meas, fix in stationary_fixes(cons):
        full = from_vector(meas, cons, fix)
        assert full.x.tobytes() == fix.x.tobytes() and full.stationary
        again = solve_pvt(meas.copy(), cons, init=fix)
        assert again is fix
        assert same_fix(again, full)


def test_equal_measurements_from_a_moving_fix_iterate(cons):
    rng = np.random.default_rng(405)
    for k in range(60):
        truth = random_receiver(rng)
        meas = measure_pseudoranges(truth[:3], truth[3], cons,
                                    (0.0, 2.0)[k % 2], rng)
        moved = solve_pvt(meas, cons, init=None if k % 3 else truth)
        if moved.stationary:
            continue
        again = solve_pvt(meas, cons, init=moved)
        assert again is not moved
        assert same_fix(again, from_vector(meas, cons, moved))


def test_changed_measurements_iterate(cons):
    rng = np.random.default_rng(406)
    for meas, fix in stationary_fixes(cons):
        ulp = meas.copy()
        ulp[3] = np.nextafter(ulp[3], np.inf)
        noisy = meas + rng.normal(0.0, 2.0, size=len(meas))
        for changed in (ulp, noisy, meas + 50.0):
            got = solve_pvt(changed, cons, init=fix)
            assert got is not fix
            assert same_fix(got, from_vector(changed, cons, fix))


def test_fix_from_another_constellation_is_not_reused(cons):
    twin = Constellation(cons.positions)  # equal positions, another object
    other = make_constellation(8, 2.0e7, 8, 10.0)
    for meas, fix in stationary_fixes(cons, n_epochs=12):
        for constellation in (twin, other):
            got = solve_pvt(meas, constellation, init=fix)
            assert got is not fix
            assert same_fix(got, from_vector(meas, constellation, fix))
        hand = PvtSolution(x=fix.x.copy(), iterations=fix.iterations,
                           final_residual_norm=fix.final_residual_norm,
                           converged=True, residuals=fix.residuals.copy())
        got = solve_pvt(meas, cons, init=hand)
        assert got is not hand and same_fix(got, from_vector(meas, cons, fix))
