import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from math import gamma, sqrt, pi
from scipy import integrate

import fraclab as fl
from fraclab.errors import SupportError
from fraclab.fracop import MASS_PAD, _nodal_from_dual, stiffness_lags

from oracles import apply_spectral


def getoor_constant(s):
    """(-Lap)^s of (1-x^2)^s_+ on (-1,1); equals 1 exactly at s = 1/2."""
    return 2 ** (2 * s) * gamma(1 + s) * gamma((1 + 2 * s) / 2) / gamma(0.5)


def getoor_profile(s):
    return lambda x: np.maximum(0.0, 1.0 - x * x) ** s


def hypersingular_quad(ufun, x0, s):
    """Brute-force symmetrized principal value at an interior point."""
    c = 2 ** (2 * s) * s * gamma((1 + 2 * s) / 2) / (sqrt(pi) * gamma(1 - s))
    Z = abs(x0) + 1.0

    def second_difference(z):
        return 2 * ufun(x0) - ufun(x0 + z) - ufun(x0 - z)

    # head (0, d): the integrand is O(z^(1-2s)) and its numerator cancels
    # to rounding, so quad cannot reach 1e-11 there at s > 1/2.  Write the
    # second difference as c2 z^2 + c4 z^4 + O(z^6), take c2 and c4 from
    # its values at d and 2d, and integrate against z^(-1-2s) exactly.
    d = 2e-3
    r1 = second_difference(d) / d ** 2
    r2 = second_difference(2 * d) / (2 * d) ** 2
    c4 = (r2 - r1) / (3 * d * d)
    c2 = r1 - c4 * d * d
    head = (c2 * d ** (2 - 2 * s) / (2 - 2 * s)
            + c4 * d ** (4 - 2 * s) / (4 - 2 * s))
    val, _ = integrate.quad(lambda z: second_difference(z) / z ** (1 + 2 * s),
                            d, Z, points=[1 - abs(x0), min(1 + abs(x0), Z)],
                            limit=600, epsabs=1e-11, epsrel=1e-11)
    tail = 2 * ufun(x0) * Z ** (-2 * s) / (2 * s)   # u vanishes beyond Z
    return c * (head + val + tail)


def test_quad_oracle_matches_analytic_constant():
    for s in (0.25, 0.5, 0.75):
        u = lambda t: float(np.maximum(0.0, 1 - t * t) ** s)
        for x0 in (-0.5, -0.25, 0.0, 0.3, 0.6):
            assert hypersingular_quad(u, x0, s) == \
                pytest.approx(getoor_constant(s), rel=1e-7)


def test_apply_spectral_zero(s1):
    geom, spec = s1
    z = fl.make_grid_function(geom, np.zeros(spec.n_super), "box")
    assert np.all(apply_spectral(z, 0.5).values == 0.0)


@pytest.mark.parametrize("s,tol", [(0.25, 0.01), (0.5, 0.01), (0.75, 0.02)])
def test_getoor_identity_spectral(s1, s, tol):
    geom, spec = s1
    u = fl.sample_profile(geom, getoor_profile(s), "omega")
    w = apply_spectral(u, s)
    mask = np.abs(spec.nodes()) < 0.9
    dev = np.max(np.abs(w.values[mask] - getoor_constant(s)))
    assert dev < tol * getoor_constant(s)


def test_apply_spectral_linearity(s1):
    geom, spec = s1
    rng = np.random.default_rng(21)
    m = fl.support_mask(geom, "omega")
    v1, v2 = np.zeros(spec.n_super), np.zeros(spec.n_super)
    v1[m] = rng.standard_normal(np.count_nonzero(m))
    v2[m] = rng.standard_normal(np.count_nonzero(m))
    g1 = fl.make_grid_function(geom, v1, "omega")
    g2 = fl.make_grid_function(geom, v2, "omega")
    combo = fl.make_grid_function(geom, 2.5 * v1 - 1.25 * v2, "omega")
    lhs = apply_spectral(combo, 0.5).values
    rhs = 2.5 * apply_spectral(g1, 0.5).values \
        - 1.25 * apply_spectral(g2, 0.5).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_apply_spectral_edge_guard(s1):
    geom, spec = s1
    vals = np.zeros(spec.n_super)
    vals[3] = 1.0
    g = fl.GridFunction(spec=spec, values=vals)
    with pytest.raises(SupportError):
        apply_spectral(g, 0.5)


def test_symmetry_both_backends(s1, s1_op):
    geom, spec = s1
    rng = np.random.default_rng(4)
    m = fl.support_mask(geom, "omega") | fl.support_mask(geom, "w")
    h = spec.h
    for _ in range(10):
        v1, v2 = np.zeros(spec.n_super), np.zeros(spec.n_super)
        v1[m] = rng.standard_normal(np.count_nonzero(m))
        v2[m] = rng.standard_normal(np.count_nonzero(m))
        g1 = fl.make_grid_function(geom, v1, "omega_w")
        g2 = fl.make_grid_function(geom, v2, "omega_w")
        a1 = apply_spectral(g1, geom.s).values
        a2 = apply_spectral(g2, geom.s).values
        lhs = h * np.dot(a1, v2)
        rhs = h * np.dot(v1, a2)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        d1 = fl.apply_dense(s1_op, g1)
        d2 = fl.apply_dense(s1_op, g2)
        lhs = h * np.dot(d1, v2[s1_op.active])
        rhs = h * np.dot(v1[s1_op.active], d2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_positivity(s1, s1_op):
    geom, spec = s1
    rng = np.random.default_rng(9)
    m = fl.support_mask(geom, "omega")
    for _ in range(100):
        v = np.zeros(spec.n_super)
        v[m] = rng.standard_normal(np.count_nonzero(m))
        g = fl.make_grid_function(geom, v, "omega")
        assert np.dot(apply_spectral(g, geom.s).values, v) >= 0.0
        assert np.dot(fl.apply_dense(s1_op, g), v[s1_op.active]) >= 0.0


def test_parity(s1):
    geom, spec = s1
    x = spec.nodes()
    even = fl.make_grid_function(geom, np.exp(-4 * x * x), "box")
    w = apply_spectral(even, 0.5).values
    assert np.max(np.abs(w - w[::-1])) <= 1e-12 * np.max(np.abs(w))


def test_symbol_consistency_midband(s1):
    # enveloped pure modes up to half Nyquist amplify by |xi|^(2s), within 2%
    geom, spec = s1
    x = spec.nodes()
    ximax = np.pi / spec.h
    env = np.where(np.abs(x) < 14.0, np.exp(-x * x / (2 * 4.0 ** 2)), 0.0)
    for frac in (0.1, 0.25, 0.5):
        k0 = frac * ximax
        u = fl.make_grid_function(geom, env * np.cos(k0 * x), "box")
        w = apply_spectral(u, 0.5)
        sel = np.abs(x) < 3.0
        ratio = np.linalg.norm(w.values[sel]) / np.linalg.norm(u.values[sel])
        assert ratio == pytest.approx(k0, rel=0.02)


def test_dense_matrix_invariants(s1_op):
    A = s1_op.matrix
    assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
    ev = np.linalg.eigvalsh(A)
    assert ev[0] >= -1e-10 * ev[-1]


def test_assembly_allocates_no_square_buffer():
    # S1 at 16384 nodes has 1536 active ones; an n^2 matrix is 18.9 MB
    geom = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=0.5,
                             box_halfwidth=32.0, n_super=16384,
                             omega_prime=(-0.75, 0.75))
    tracemalloc.start()
    try:
        op = fl.assemble_dense(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n_active == 1536
    assert peak < 2 * 2 ** 20, peak


def test_dense_row_action_on_ones(s1):
    # full periodized row sum is near zero: the operator kills constants
    geom, spec = s1
    lags = stiffness_lags(geom.s, spec.h, spec.n_super // 2)
    row_sum = lags[0] + 2 * np.sum(lags[1:])
    assert abs(row_sum) < 1e-3 * lags[0]


def test_dense_entry_against_2d_quadrature_oracle(s1):
    # brute-force Galerkin entry for lag 5 via nested adaptive quadrature
    geom, spec = s1
    s, h = geom.s, spec.h
    c = 2 ** (2 * s) * s * gamma((1 + 2 * s) / 2) / (sqrt(pi) * gamma(1 - s))
    d = 5 * h

    def hat(x, c0):
        return max(0.0, 1.0 - abs(x - c0) / h)

    def diff_corr(z):
        lo, hi = -2 * h - abs(z), d + 2 * h + abs(z)
        brk = sorted({k * h for k in range(-2, 8)}
                     | {k * h - z for k in range(-2, 8)})
        brk = [b for b in brk if lo < b < hi]
        val, _ = integrate.quad(
            lambda x: (hat(x, 0) - hat(x + z, 0)) * (hat(x, d) - hat(x + z, d)),
            lo, hi, points=brk, limit=300)
        return val

    val, _ = integrate.quad(lambda z: diff_corr(z) * z ** (-1 - 2 * s),
                            1e-10, 7 * h, points=[k * h for k in range(1, 8)],
                            limit=400)
    oracle = c * val
    lag = stiffness_lags(s, h, 6)[5]
    assert lag == pytest.approx(oracle, rel=1e-4)


def test_stiffness_lags_against_mpmath():
    # reference: the closed form at 40 digits with the fourth difference
    # taken directly, which at m = 1535 cancels about 13 of the 40 digits;
    # m runs up to n_active - 1 at --resolution 4
    mpmath = pytest.importorskip("mpmath")
    h, max_lag = 64.0 / 16384, 1535
    with mpmath.workdps(40):
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            ms = mpmath.mpf(s)
            e = 1 - 2 * ms
            c = (2 ** (2 * ms) * ms * mpmath.gamma((1 + 2 * ms) / 2)
                 / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - ms)))
            F = [mpmath.mpf(0)] + [
                k * k * (mpmath.log(k) if e == 0 else (k ** e - 1) / e)
                for k in (mpmath.mpf(j) for j in range(1, max_lag + 3))]
            scale = c * mpmath.mpf(h) ** e / (2 * ms * (2 - 2 * ms) * (3 - 2 * ms))
            ref = np.array([float(scale * (F[abs(m - 2)] - 4 * F[abs(m - 1)]
                                           + 6 * F[m] - 4 * F[m + 1] + F[m + 2]))
                            for m in range(max_lag + 1)])
            mine = stiffness_lags(s, h, max_lag)
            assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-12, s


def test_stiffness_lags_short_requests():
    # fewer lags than the near range still come out as a prefix
    full = stiffness_lags(0.3, 0.01, 8)
    for max_lag in range(6):
        assert np.array_equal(stiffness_lags(0.3, 0.01, max_lag),
                              full[:max_lag + 1])


@pytest.mark.parametrize("n", [2, 7, 129, 1152])
@pytest.mark.parametrize("h", [64.0 / 16384, 0.3])
def test_mass_solve_against_dense(n, h):
    # reference: the padded tridiagonal mass system solved densely
    rng = np.random.default_rng(n)
    dual = rng.standard_normal(n)
    p = MASS_PAD
    ext = np.concatenate([dual[0] + (dual[0] - dual[1]) * np.arange(p, 0, -1),
                          dual,
                          dual[-1] + (dual[-1] - dual[-2]) * np.arange(1, p + 1)])
    m = len(ext)
    mass = (np.diag(np.full(m, 2.0 * h / 3.0))
            + np.diag(np.full(m - 1, h / 6.0), 1)
            + np.diag(np.full(m - 1, h / 6.0), -1))
    ref = np.linalg.solve(mass, ext)[p:-p]
    mine = _nodal_from_dual(dual, h)
    assert np.max(np.abs(mine - ref)) < 1e-13 * np.max(np.abs(ref))


def test_apply_dense_leaves_scipy_linalg_unloaded():
    # the mass solve is numpy only, so neither `import fraclab` nor the
    # dense backend pays for importing scipy.linalg
    src = Path(fl.__file__).resolve().parents[1]
    code = ("import sys, fraclab as fl; "
            "g = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), "
            "s=0.5, box_halfwidth=32.0, n_super=1024); "
            "u = fl.sample_profile(g, fl.bump_profile(0.0, 0.5), "
            "'omega'); "
            "fl.apply_dense(fl.assemble_dense(g), u); "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_constant_indicator_interior_action(s1, s1_op):
    # the operator of a wide indicator is near zero deep inside it
    geom, spec = s1
    x = spec.nodes()
    vals = np.where(np.abs(x) <= 1.5, 1.0, 0.0)
    g = fl.make_grid_function(geom, vals, "box")
    inner = apply_spectral(g, 0.5).values[np.abs(x) < 0.2]
    hat_vals = np.zeros(spec.n_super)
    hat_vals[np.argmin(np.abs(x))] = 1.0
    bump = fl.make_grid_function(geom, hat_vals, "box")
    ref = np.max(np.abs(apply_spectral(bump, 0.5).values))
    assert np.max(np.abs(inner)) < 0.05 * ref


def _tent_profile(center, halfwidth):
    return lambda x: np.maximum(0.0, 1.0 - np.abs(x - center) / halfwidth)


def _backend_discrepancy(op, u):
    """Relative L2 distance of dense from spectral application on the
    active node set."""
    spectral = apply_spectral(u, op.geom.s).values[op.active]
    dense = fl.apply_dense(op, u)
    return float(np.linalg.norm(dense - spectral) / np.linalg.norm(spectral))


def test_cross_validate_tent(s1, s1_op):
    # macroscopic tent at the domain center
    geom, spec = s1
    u = fl.sample_profile(geom, _tent_profile(0.0, 0.7), "omega")
    disc = _backend_discrepancy(s1_op, u)
    assert disc <= 5e-3, disc


def test_backend_agreement_random_bumps(s1, s1_op):
    geom, spec = s1
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        center = rng.uniform(-0.15, 0.15)
        width = rng.uniform(0.5, 0.8)
        amp = rng.uniform(0.5, 2.0)
        u = fl.sample_profile(geom,
                              fl.bump_profile(center, width, amp), "omega")
        disc = _backend_discrepancy(s1_op, u)
        worst = max(worst, disc)
        assert disc <= 1e-3, disc
    assert worst < 1e-3


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_getoor_identity_dense(s1, s):
    # dense Galerkin route nails the identity well inside the support
    geom, spec = s1
    op = fl.assemble_dense(replace(geom, s=s))
    u = fl.sample_profile(geom, getoor_profile(s), "omega")
    vals = fl.apply_dense(op, u)
    x = spec.nodes()[op.active]
    dev = np.max(np.abs(vals[np.abs(x) < 0.9] - getoor_constant(s)))
    assert dev < 5e-3 * getoor_constant(s)
