import numpy as np
import pytest

import fraclab as fl
from fraclab.diagnostics import fit_loglog
from fraclab.errors import (DegenerateError, DomainError, GeometryError,
                            ZeroMassError)

from conftest import scaled_field


# ---------------------------------------------------------------- radial weight

def test_carleman_weight_at_one():
    assert fl.carleman_weight(1.0) == 0.0


def test_carleman_weight_value_at_four():
    # direct evaluation of the formula, frozen to 12 digits
    lr = np.log(4.0)
    expected = -lr + 0.1 * (lr * np.arctan(lr) - 0.5 * np.log1p(lr * lr))
    assert fl.carleman_weight(4.0) == pytest.approx(expected, rel=1e-14)
    assert fl.carleman_weight(1.0) - fl.carleman_weight(4.0) == \
        pytest.approx(1.3087768651791212, rel=1e-12)


def test_carleman_gap_small_r_limit():
    # arctan(ln r) -> -pi/2 gives gap -> ln4 (1 + pi/20)
    limit = np.log(4.0) * (1.0 + np.pi / 20.0)
    gap = fl.carleman_weight(1e-12) - fl.carleman_weight(4e-12)
    assert gap == pytest.approx(limit, rel=1e-2)


def test_carleman_weight_domain():
    with pytest.raises(DomainError):
        fl.carleman_weight(0.0)
    with pytest.raises(DomainError):
        fl.carleman_weight(-2.0)


def test_carleman_weight_array_matches_scalar_loop():
    # ucp-scan's rows: one call on the radii, one on four times them
    rs = np.geomspace(1e-8, 1.0, 240)
    for r in (rs, 4 * rs):
        loop = np.array([fl.carleman_weight(float(x)) for x in r])
        assert fl.carleman_weight(r).tobytes() == loop.tobytes()
    with pytest.raises(DomainError, match="got -2.0"):
        fl.carleman_weight(np.array([1.0, -2.0, 0.5]))


# ------------------------------------------------------------------ caccioppoli

def test_caccioppoli_zero_field(s1, s1_field):
    geom, spec = s1
    zero = scaled_field(s1_field, 0.0)
    chk = fl.caccioppoli_check(geom, zero, 0.0, 0.0, 0.2)
    assert chk.lhs == 0.0


def test_caccioppoli_geometry_guard(s1, s1_field):
    geom, spec = s1
    with pytest.raises(GeometryError):
        fl.caccioppoli_check(geom, s1_field, 0.0, 0.0, 0.3)


def test_caccioppoli_homogeneity(s1, s1_field, s1_solution):
    geom, spec = s1
    chk1 = fl.caccioppoli_check(geom, s1_field, 0.0, 0.0, 0.2)
    scaled = scaled_field(s1_field, 10.0)
    chk10 = fl.caccioppoli_check(geom, scaled, 0.0, 0.0, 0.2)
    assert chk10.implied_constant == \
        pytest.approx(chk1.implied_constant, rel=1e-10)


def test_caccioppoli_stability_under_refinement(s1, s1_field, golden):
    geom, spec = s1
    chk = fl.caccioppoli_check(geom, s1_field, 0.0, 0.0, 0.2)
    ref = golden["caccioppoli_implied_refined"]
    assert chk.implied_constant == pytest.approx(ref, rel=0.25)


# ------------------------------------------------------------------ persistence

def test_persistence_domain(s1, s1_field, s1_f):
    geom, spec = s1
    for h in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(DomainError):
            fl.persistence_check(geom, s1_field, s1_f, h)


def test_persistence_monotone_in_h(s1, s1_field, s1_f):
    geom, spec = s1
    masses = [fl.persistence_check(geom, s1_field, s1_f, h).lhs
              for h in (0.1, 0.3, 0.6, 0.9)]
    assert np.all(np.diff(masses) <= 0)


def test_persistence_s1_positive(s1, s1_field, s1_f):
    geom, spec = s1
    chk = fl.persistence_check(geom, s1_field, s1_f, 0.1)
    assert chk.lhs > 0


# ---------------------------------------------------------------------- annulus

def test_annulus_ratio_at_least_one(s1, s1_field_tall, s1_f):
    geom, spec = s1
    chk = fl.annulus_ratio(geom, s1_field_tall, s1_f, R=4.0)
    assert 1.0 <= chk.lhs < 1e3


def test_annulus_homogeneity(s1, s1_field_tall, s1_f):
    geom, spec = s1
    chk1 = fl.annulus_ratio(geom, s1_field_tall, s1_f, R=4.0)
    scaled = scaled_field(s1_field_tall, 10.0)
    chk10 = fl.annulus_ratio(geom, scaled, s1_f, R=4.0)
    assert chk10.lhs == pytest.approx(chk1.lhs, rel=1e-10)


def test_annulus_zero_mass(s1, s1_field_tall, s1_f):
    geom, spec = s1
    zero = scaled_field(s1_field_tall, 0.0)
    with pytest.raises(ZeroMassError):
        fl.annulus_ratio(geom, zero, s1_f, R=4.0)


# ------------------------------------------------------------------ three balls

def test_three_balls_interior_guard(make_golden, s1_field):
    with pytest.raises(GeometryError):
        make_golden.three_balls_exponent(s1_field, (0.0, 0.5), 0.3)


def test_three_balls_degenerate(make_golden, s1, s1_field):
    geom, spec = s1
    # a constant field's three masses scale by measure and are never
    # equal; the zero field's are
    field = scaled_field(s1_field, 0.0)
    with pytest.raises((DegenerateError, ZeroMassError)):
        make_golden.three_balls_exponent(field, (0.0, 1.0), 0.1)


def test_three_balls_alpha_in_unit_interval(make_golden, s1, s1_field):
    chk = make_golden.three_balls_exponent(s1_field, (0.0, 0.5), 0.1)
    assert 0.0 < chk.implied_constant <= 1.0
    n_half, n_mid, n_two = (
        fl.weighted_norm(s1_field, fl.Region("half_ball", (0.0, 0.5), r))
        for r in (0.05, 0.1, 0.2))
    assert chk.lhs == n_mid
    assert n_half <= n_mid <= n_two


def test_three_balls_stability(make_golden, s1, s1_field, golden):
    chk = make_golden.three_balls_exponent(s1_field, (0.0, 0.5), 0.2)
    assert chk.implied_constant == \
        pytest.approx(golden["three_balls_alpha_refined"], rel=0.2)


# ------------------------------------------------------------------- doubling

def test_bulk_doubling_ratios_at_least_one(s1, s1_field):
    geom, spec = s1
    rep = fl.doubling_scan_bulk(geom, s1_field, 0.0,
                                np.geomspace(0.02, 0.099, 8))
    assert rep.mode == "bulk"
    assert np.all(rep.ratios >= 1.0)
    assert np.all(np.isfinite(rep.ratios))
    assert np.max(rep.ratios) < 50.0
    assert np.max(rep.ratios) / np.min(rep.ratios) < 10.0


def test_bulk_doubling_radius_guard(s1, s1_field):
    geom, spec = s1
    with pytest.raises(GeometryError):
        fl.doubling_scan_bulk(geom, s1_field, 0.0, [0.05, 0.2])
    with pytest.raises(GeometryError):
        fl.doubling_scan_bulk(geom, s1_field, 2.5, [0.01])


def test_doubling_scans_need_two_distinct_radii(s1, s1_field, s1_solution):
    # one distinct radius puts the power-law fit through a single point
    geom, spec = s1
    with pytest.raises(DegenerateError):
        fl.doubling_scan_bulk(geom, s1_field, 0.0, [0.05, 0.05])
    with pytest.raises(DegenerateError):
        fl.doubling_scan_boundary(geom, s1_solution.u, 0.0, [0.05, 0.05])


def test_bulk_doubling_zero_field_raises(s1, s1_field):
    # the boundary scan's policy: a zero mass has no doubling ratio or fit
    geom, spec = s1
    zero = scaled_field(s1_field, 0.0)
    with pytest.raises(ZeroMassError):
        fl.doubling_scan_bulk(geom, zero, 0.0, np.geomspace(0.02, 0.099, 8))


def test_fit_loglog_rejects_non_finite_logs():
    x = np.array([1.0, 2.0, 4.0])
    for y in ([1.0, np.inf, 3.0], [1.0, np.nan, 3.0], [1.0, 0.0, 3.0],
              [1.0, -2.0, 3.0]):
        with pytest.raises(DomainError, match="finite positive"):
            fit_loglog(x, np.array(y))
    with pytest.raises(DomainError, match="finite positive"):
        fit_loglog(np.array([1.0, np.inf]), np.array([1.0, 2.0]))


def test_doubling_scans_reject_overflowing_masses(s1, s1_solution):
    # at 1e300 the squared masses overflow (bulk: inf, boundary: nan);
    # a scan raises rather than fit them.  The extension's own overflow
    # warnings are not this test's subject
    geom, spec = s1
    huge = fl.GridFunction(spec=spec, values=1e300 * s1_solution.u.values)
    with np.errstate(over="ignore", invalid="ignore"):
        field = fl.extend(huge, geom.s)
        with pytest.raises(DomainError, match="log-log"):
            fl.doubling_scan_bulk(geom, field, 0.0,
                                  np.geomspace(0.02, 0.099, 8))
        with pytest.raises(DomainError, match="log-log"):
            fl.doubling_scan_boundary(geom, huge, 0.0,
                                      np.geomspace(0.02, 0.24, 8))


def test_bulk_doubling_homogeneity(s1, s1_field):
    geom, spec = s1
    radii = np.geomspace(0.02, 0.099, 8)
    rep1 = fl.doubling_scan_bulk(geom, s1_field, 0.0, radii)
    scaled = scaled_field(s1_field, -7.0)
    rep2 = fl.doubling_scan_bulk(geom, scaled, 0.0, radii)
    assert np.allclose(rep1.ratios, rep2.ratios, rtol=1e-12)


def test_boundary_doubling_constant_u(s1):
    # a constant trace has L2 mass sqrt(2r) c: vanishing order 1/2 exactly
    geom, spec = s1
    vals = np.where(np.abs(spec.nodes()) <= 1.0, 0.7, 0.0)
    u = fl.GridFunction(spec=spec, values=vals)
    rep = fl.doubling_scan_boundary(geom, u, 0.0, np.geomspace(0.02, 0.24, 8))
    assert rep.beta_hat == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(rep.ratios, np.sqrt(2.0), rtol=1e-9)


def test_boundary_doubling_s1(s1, s1_solution, golden):
    geom, spec = s1
    rep = fl.doubling_scan_boundary(geom, s1_solution.u, 0.0,
                                    np.geomspace(0.02, 0.24, 8))
    assert 0.4 <= rep.beta_hat <= 3.0
    assert rep.fit_residual < 0.1
    assert np.all(rep.ratios >= 1.0)
    assert rep.beta_hat == pytest.approx(golden["boundary_beta_s1"], abs=0.1)


def test_trace_mass_sq_over_radii_matches_scalar_loop(s1, s1_solution):
    # the array form shares one trapezoid; every entry is the scalar call's
    geom, spec = s1
    u = s1_solution.u.values
    for radii in (np.geomspace(0.02, 0.24, 8), np.array([0.0, 0.5, 40.0])):
        for x0 in (0.0, 0.3):
            vec = fl.trace_mass_sq(spec, u, x0, radii)
            loop = np.array([fl.trace_mass_sq(spec, u, x0, float(r))
                             for r in radii])
            assert vec.shape == radii.shape
            assert vec.tobytes() == loop.tobytes()


def test_boundary_doubling_zero_mass(s1):
    geom, spec = s1
    vals = np.where(np.abs(spec.nodes() - 0.9) <= 0.05, 1.0, 0.0)
    u = fl.GridFunction(spec=spec, values=vals)
    with pytest.raises(ZeroMassError):
        fl.doubling_scan_boundary(geom, u, -0.5, np.geomspace(0.02, 0.1, 8))


def test_boundary_doubling_vanishing_order_self_consistency(s1, s1_solution):
    geom, spec = s1
    rep = fl.doubling_scan_boundary(geom, s1_solution.u, 0.0,
                                    np.geomspace(0.02, 0.24, 10))
    model = rep.c_hat * rep.radii ** rep.beta_hat
    assert np.all(rep.masses >= 0.5 * model)


# ------------------------------------------------------------- boundary - bulk

def test_boundary_bulk_zero(make_golden, s1, s1_field):
    geom, spec = s1
    zero = scaled_field(s1_field, 0.0)
    u0 = fl.make_grid_function(geom, np.zeros(spec.n_super), "omega")
    with pytest.raises(ZeroMassError):
        make_golden.boundary_bulk_check(geom, zero, u0, 0.0, 0.2)


def test_boundary_bulk_homogeneity(make_golden, s1, s1_field, s1_solution):
    geom, spec = s1
    chk1 = make_golden.boundary_bulk_check(geom, s1_field, s1_solution.u,
                                             0.0, 0.2)
    scaled_f = scaled_field(s1_field, 3.0)
    scaled_u = fl.GridFunction(spec=spec, values=3.0 * s1_solution.u.values)
    chk3 = make_golden.boundary_bulk_check(geom, scaled_f, scaled_u, 0.0, 0.2)
    assert chk3.implied_constant == \
        pytest.approx(chk1.implied_constant, rel=1e-9)


def test_boundary_bulk_finite(make_golden, s1, s1_field, s1_solution,
                              golden):
    geom, spec = s1
    chk = make_golden.boundary_bulk_check(geom, s1_field, s1_solution.u,
                                          0.0, 0.2)
    assert np.isfinite(chk.implied_constant)
    assert chk.implied_constant == \
        pytest.approx(golden["boundary_bulk_implied_refined"], rel=0.35)


# --------------------------------------------------- family uniformity (golden)

def test_doubling_uniformity_across_potentials(s1, s1_op, s1_f, golden):
    # max boundary doubling ratio varies within a locked factor over a
    # family of random potentials with shared bounds, whatever the seed
    geom, spec = s1
    for seed in (101, 202):
        stats = []
        rng = np.random.default_rng(seed)
        for _ in range(10):
            q = fl.sample_profile(
                geom,
                fl.bump_profile(rng.uniform(-0.2, 0.2),
                                rng.uniform(0.3, 0.5),
                                rng.uniform(-0.5, 0.5)),
                "omega_prime")
            assert fl.holder_norm(geom, q.values) <= 2.0
            assert np.max(np.abs(q.values)) <= 0.5
            sol = fl.solve_forward(s1_op, q, s1_f)
            rep = fl.doubling_scan_boundary(geom, sol.u, 0.0,
                                            np.geomspace(0.02, 0.24, 8))
            stats.append(np.max(rep.ratios))
        spread = max(stats) / min(stats)
        assert spread <= golden["doubling_uniformity_factor"]
