import numpy as np
import pytest

import fraclab as fl
from fraclab.errors import DomainError, EigenvalueError, SupportError
from fraclab.forward import local_term, system_matrix


def test_zero_data_zero_solution(s1, s1_op, s1_q0):
    geom, spec = s1
    f0 = fl.make_grid_function(geom, np.zeros(spec.n_super), "w")
    sol = fl.solve_forward(s1_op, s1_q0, f0)
    assert np.all(sol.u.values == 0.0)


def test_forward_residual(s1, s1_solution):
    assert s1_solution.residual < 1e-10


def test_forward_support(s1, s1_solution):
    geom, spec = s1
    outside = ~fl.support_mask(geom, "omega_w")
    assert np.all(s1_solution.u.values[outside] == 0.0)


def test_forward_window_values_imposed(s1, s1_f, s1_solution):
    geom, spec = s1
    wmask = fl.support_mask(geom, "w")
    assert np.array_equal(s1_solution.u.values[wmask], s1_f.values[wmask])


def test_forward_rejects_bad_data_support(s1, s1_op, s1_q0):
    geom, spec = s1
    f_bad = fl.sample_profile(geom, fl.bump_profile(0.0, 0.5), "omega",
                              mode="average")
    with pytest.raises(SupportError):
        fl.solve_forward(s1_op, s1_q0, f_bad)


def test_forward_overflowing_data_norm_raises(s1, s1_op, s1_q0, s1_f):
    # the norm of the right-hand side overflows: a named error, never a
    # nan residual
    huge = fl.make_grid_function(s1[0], s1_f.values * 1e300, "w")
    with pytest.raises(DomainError, match="overflows"):
        fl.solve_forward(s1_op, s1_q0, huge)


def test_mirror_symmetry(s1_op, s1_q0, s1_f):
    # solving the mirrored geometry with mirrored data mirrors the solution
    sol = fl.solve_forward(s1_op, s1_q0, s1_f)
    geom_m = fl.build_geometry(omega=(-1.0, 1.0), w=(-3.0, -2.0),
                               s=0.5, box_halfwidth=32.0,
                               n_super=4096,
                               omega_prime=(-0.75, 0.75))
    op_m = fl.assemble_dense(geom_m)
    q0_m = fl.make_grid_function(geom_m, np.zeros(geom_m.spec.n_super),
                                 "omega_prime")
    f_m = fl.sample_profile(geom_m, fl.bump_profile(-2.5, 0.4), "w",
                            mode="average")
    sol_m = fl.solve_forward(op_m, q0_m, f_m)
    # cell-centered grid maps node i to node n-1-i under x -> -x
    mirrored = sol_m.u.values[::-1]
    assert np.max(np.abs(mirrored - sol.u.values)) < 1e-10


def test_wellposedness_random_scenarios(s1, s1_op):
    geom, spec = s1
    rng = np.random.default_rng(77)
    for _ in range(20):
        q = fl.sample_profile(
            geom,
            fl.bump_profile(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 0.6),
                            rng.uniform(-1.0, 1.0)),
            "omega_prime", mode="average")
        f = fl.sample_profile(
            geom,
            fl.bump_profile(rng.uniform(2.3, 2.7), rng.uniform(0.2, 0.35),
                            rng.uniform(0.5, 2.0)),
            "w", mode="average")
        sol = fl.solve_forward(s1_op, q, f)
        assert sol.residual < 1e-8
        assert np.isfinite(fl.sobolev_norm(sol.u, geom.s)
                           / fl.sobolev_norm(f, geom.s))


def test_reciprocity(s1, s1_op, s1_qbump):
    geom, spec = s1
    wmask = fl.support_mask(geom, "w")
    h = spec.h
    rng = np.random.default_rng(13)
    for _ in range(5):
        f1 = fl.sample_profile(
            geom, fl.bump_profile(rng.uniform(2.2, 2.8),
                                  rng.uniform(0.15, 0.3)), "w",
            mode="average")
        f2 = fl.sample_profile(
            geom, fl.bump_profile(rng.uniform(2.2, 2.8),
                                  rng.uniform(0.15, 0.3)), "w",
            mode="average")
        m1 = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_qbump, f1))
        m2 = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_qbump, f2))
        lhs = h * np.dot(m1.values[wmask], f2.values[wmask])
        rhs = h * np.dot(f1.values[wmask], m2.values[wmask])
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_dtn_linearity(s1, s1_op, s1_q0):
    geom, spec = s1
    f1 = fl.sample_profile(geom, fl.bump_profile(2.4, 0.3), "w",
                           mode="average")
    f2 = fl.sample_profile(geom, fl.bump_profile(2.7, 0.2), "w",
                           mode="average")
    combo = fl.make_grid_function(geom,
                                  1.5 * f1.values - 0.5 * f2.values, "w")
    lam = lambda f: fl.dtn_map(
        s1_op, fl.solve_forward(s1_op, s1_q0, f)).values
    lhs = lam(combo)
    rhs = 1.5 * lam(f1) - 0.5 * lam(f2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_dtn_map_adds_the_local_term(s1, s1_op, s1_solution):
    # dtn_map is the continuation term plus local_term, the expression
    # recover_u subtracts; h = 1/64 is a power of two, so dividing each
    # term by h gives the same bits as dividing their sum
    geom, spec = s1
    om, w, f = geom.omega_nodes, geom.w_nodes, s1_solution.f
    lam_w = fl.dtn_map(s1_op, s1_solution).values[w]
    cont = s1_op.block(w, om) @ s1_solution.u.values[om]
    assert spec.h == 2.0 ** -6
    assert np.array_equal(local_term(s1_op, f),
                          s1_op.block(w, w) @ f.values[w] / spec.h)
    assert np.array_equal(lam_w, cont / spec.h + local_term(s1_op, f))
    assert np.array_equal(lam_w,
                          (cont + s1_op.block(w, w) @ f.values[w]) / spec.h)
    # subtracting it back is exact up to the rounding of that sum
    ulp = np.spacing(np.abs(lam_w)).max()
    np.testing.assert_allclose(lam_w - local_term(s1_op, f), cont / spec.h,
                               rtol=0, atol=4 * ulp)


def test_identical_potentials_zero_gap(s1, s1_op, s1_qbump, s1_f):
    geom, spec = s1
    m1 = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_qbump, s1_f))
    m2 = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_qbump, s1_f))
    gap = fl.make_grid_function(
        geom, m1.values - m2.values, "w")
    assert fl.dual_norm_on_window(geom, gap) <= 1e-12


def test_eigen_gap_positive_at_zero_potential(s1_op, s1_q0):
    assert fl.eigen_gap(system_matrix(s1_op, s1_q0)) > 1e-4


def test_eigen_gap_resonant_shift(s1, s1_op, s1_f):
    # shifting by the smallest eigenvalue of the restricted operator
    # (in nodal scaling) collapses the gap
    geom, spec = s1
    M0 = system_matrix(s1_op,
                       fl.make_grid_function(geom,
                                             np.zeros(spec.n_super), "box"))
    lam1 = np.linalg.eigvalsh(M0)[0]
    shift = np.where(fl.support_mask(geom, "omega"),
                     -lam1 / spec.h, 0.0)
    q_res = fl.make_grid_function(geom, shift, "omega")
    gap = fl.eigen_gap(system_matrix(s1_op, q_res))
    assert gap < 1e-10
    with pytest.raises(EigenvalueError):
        fl.solve_forward(s1_op, q_res, s1_f)


def test_eigen_gap_monotone_under_nonnegative_shift(s1, s1_op, s1_q0):
    geom, spec = s1
    vals = np.where(fl.support_mask(geom, "omega_prime"), 0.3, 0.0)
    q_pos = fl.make_grid_function(geom, vals, "omega_prime")
    M0 = system_matrix(s1_op, s1_q0)
    M1 = system_matrix(s1_op, q_pos)
    lam0 = np.linalg.eigvalsh(M0)[0]
    lam1 = np.linalg.eigvalsh(M1)[0]
    assert lam1 >= lam0 - 1e-14
    gap0 = fl.eigen_gap(M0)
    gap1 = fl.eigen_gap(M1)
    assert gap1 >= gap0 * (1 - 1e-6)


def test_add_noise_deterministic_and_calibrated(s1, s1_op, s1_q0, s1_f):
    geom, spec = s1
    m = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_q0, s1_f))
    (n1,) = fl.add_noise(geom, m, [1e-3], seed=5)
    (n2,) = fl.add_noise(geom, m, [1e-3], seed=5)
    assert np.array_equal(n1.values, n2.values)
    (n3,) = fl.add_noise(geom, m, [1e-3], seed=6)
    assert not np.array_equal(n1.values, n3.values)
    pert = fl.make_grid_function(
        geom, n1.values - m.values, "w")
    target = 1e-3 * fl.dual_norm_on_window(geom, m)
    assert fl.dual_norm_on_window(geom, pert) == \
        pytest.approx(target, rel=1e-10)


def test_add_noise_zero_is_identity(s1, s1_op, s1_q0, s1_f):
    geom, spec = s1
    m = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_q0, s1_f))
    (n,) = fl.add_noise(geom, m, [0.0], seed=5)
    assert np.array_equal(n.values, m.values)


def test_measurement_csv(tmp_path, s1, s1_op, s1_q0, s1_f):
    geom, spec = s1
    m = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_q0, s1_f))
    path = tmp_path / "m.csv"
    fl.export_measurement_csv(geom, m, path, 0.0, None, "config_hash=x")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=x"
    assert lines[1] == "# s=0.5 epsilon=0 seed="
    assert lines[2] == "node_x,lambda_value"
    n_w = int(np.count_nonzero(fl.support_mask(geom, "w")))
    assert len(lines) == 3 + n_w
