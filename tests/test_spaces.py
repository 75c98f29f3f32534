import numpy as np
import pytest
from scipy import integrate

import fraclab as fl
from fraclab.errors import DomainError, SupportError, ZeroDataError


def _zero(geom, spec):
    return fl.make_grid_function(geom, np.zeros(spec.n_super), "box")


def test_sobolev_norm_zero(s1):
    geom, spec = s1
    assert fl.sobolev_norm(_zero(geom, spec), 0.37) == 0.0


def test_sobolev_norm_overflow_raises(s1_f):
    # the sum of squares is finite at a scale of 1e150 and overflows at
    # 1e160; an overflowing norm is an error, never inf
    big, huge = (fl.GridFunction(spec=s1_f.spec, values=c * s1_f.values)
                 for c in (1e150, 1e160))
    for t in (-0.5, 0.0, 0.5):
        assert np.isfinite(fl.sobolev_norm(big, t))
        with pytest.raises(DomainError, match="norm overflows"):
            fl.sobolev_norm(huge, t)


def test_parseval_exact(s1):
    geom, spec = s1
    rng = np.random.default_rng(7)
    for _ in range(5):
        vals = rng.standard_normal(spec.n_super)
        g = fl.make_grid_function(geom, vals, "box")
        l2 = np.sqrt(spec.h) * np.linalg.norm(vals)
        assert abs(fl.sobolev_norm(g, 0.0) - l2) <= 1e-10 * l2


def test_gaussian_half_order_norm_vs_quadrature(s1):
    # oracle: unitary Fourier transform of exp(-x^2) is exp(-xi^2/4)/sqrt(2),
    # integrate (1+xi^2)^(1/2) |ghat|^2 by adaptive quadrature
    geom, spec = s1
    x = spec.nodes()
    g = fl.make_grid_function(geom, np.exp(-x * x), "box")
    val = fl.sobolev_norm(g, 0.5)
    integrand = lambda xi: (1 + xi * xi) ** 0.5 * 0.5 * np.exp(-xi * xi / 2)
    ref2, _ = integrate.quad(integrand, -np.inf, np.inf)
    assert val == pytest.approx(np.sqrt(ref2), rel=1e-4)


def test_sobolev_monotone_in_order(s1):
    geom, spec = s1
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(spec.n_super)
    g = fl.make_grid_function(geom, vals, "box")
    norms = [fl.sobolev_norm(g, t) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert np.all(np.diff(norms) >= 0)


def test_interpolation_inequality(s1):
    geom, spec = s1
    rng = np.random.default_rng(11)
    s, eps = geom.s, 0.25
    for _ in range(100):
        vals = rng.standard_normal(spec.n_super)
        g = fl.make_grid_function(geom, vals, "box")
        mid = fl.sobolev_norm(g, s)
        hi = fl.sobolev_norm(g, s + eps)
        lo = fl.sobolev_norm(g, s - eps)
        assert mid <= np.sqrt(hi * lo) * (1 + 1e-10)


def test_dual_norm_zero_and_homogeneity(s1):
    geom, spec = s1
    assert fl.dual_norm_on_window(geom, _zero(geom, spec)) == 0.0
    g = fl.make_grid_function(geom, fl.bump_profile(2.5, 0.3)(spec.nodes()),
                              "w")
    g2 = fl.make_grid_function(geom, 2.0 * g.values, "w")
    a = fl.dual_norm_on_window(geom, g)
    b = fl.dual_norm_on_window(geom, g2)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_dual_norm_support_error(s1):
    geom, spec = s1
    g = fl.make_grid_function(geom, fl.bump_profile(0.0, 0.5)(spec.nodes()),
                              "omega")
    with pytest.raises(SupportError):
        fl.dual_norm_on_window(geom, g)


def test_dual_norm_below_l2(s1):
    geom, spec = s1
    rng = np.random.default_rng(5)
    wmask = fl.support_mask(geom, "w")
    for _ in range(20):
        vals = np.zeros(spec.n_super)
        vals[wmask] = rng.standard_normal(np.count_nonzero(wmask))
        g = fl.make_grid_function(geom, vals, "w")
        assert fl.dual_norm_on_window(geom, g) <= \
            fl.sobolev_norm(g, 0.0) * (1 + 1e-12)


def test_dual_norm_hat_vs_dense_gram(s1):
    # oracle: the same surrogate norm through the dense Gram kernel
    # k(d) = h * ifft((1+xi^2)^(-s)) restricted to the window nodes
    geom, spec = s1
    from fraclab.geometry import frequencies
    w_nodes = np.nonzero(fl.support_mask(geom, "w"))[0]
    vals = np.zeros(spec.n_super)
    center = w_nodes[len(w_nodes) // 2]
    vals[center] = 1.0                       # single grid hat, height 1
    vals[w_nodes[5]] = -0.4                  # plus a second node for coupling
    g = fl.make_grid_function(geom, vals, "w")
    direct = fl.dual_norm_on_window(geom, g)
    xi = frequencies(spec)
    row = spec.h * np.real(np.fft.ifft((1 + xi * xi) ** (-0.5)))
    G = row[np.abs(w_nodes[:, None] - w_nodes[None, :])]
    v = vals[w_nodes]
    gram = float(np.sqrt(v @ G @ v))
    assert direct == pytest.approx(gram, rel=1e-6)


def test_oscillation_ratio_zero_data(s1):
    geom, spec = s1
    with pytest.raises(ZeroDataError):
        fl.oscillation_ratio(geom, _zero(geom, spec))


def test_oscillation_ratio_scale_invariant(s1):
    geom, spec = s1
    f = fl.make_grid_function(geom, fl.bump_profile(2.5, 0.4)(spec.nodes()),
                              "w")
    f2 = fl.make_grid_function(geom, -3.7 * f.values, "w")
    r1 = fl.oscillation_ratio(geom, f)
    r2 = fl.oscillation_ratio(geom, f2)
    assert r1 == pytest.approx(r2, rel=1e-12)
    assert r1 >= 1.0


def test_oscillation_chirp_above_bump(s1):
    geom, spec = s1
    bump = fl.bump_profile(2.5, 0.4)
    x = spec.nodes()
    f_smooth = fl.make_grid_function(geom, bump(x), "w")
    f_chirp = fl.make_grid_function(geom, bump(x) * np.cos(40.0 * x), "w")
    assert fl.oscillation_ratio(geom, f_chirp) > \
        fl.oscillation_ratio(geom, f_smooth)


def test_holder_norm_zero_and_scaling(s1):
    geom, spec = s1
    assert fl.holder_norm(geom, np.zeros(spec.n_super)) == 0.0
    gf = fl.make_grid_function(
        geom, fl.bump_profile(0.0, 0.5, 1.0)(spec.nodes()), "omega_prime")
    n1 = fl.holder_norm(geom, gf.values)
    n2 = fl.holder_norm(geom, 2.0 * gf.values)
    assert n2 == pytest.approx(2 * n1, rel=1e-12)


def test_holder_seminorm_cusp_bump(s1):
    # |x - x0|^s has difference quotient exactly 1 at the nodes adjacent
    # to x0 when x0 is itself a node
    geom, spec = s1
    x = spec.nodes()
    x0 = x[np.argmin(np.abs(x))]
    prof = lambda t: np.where(np.abs(t - x0) < 0.5,
                              np.abs(t - x0) ** 0.5, 0.0)
    vals = np.where(fl.support_mask(geom, "omega"), prof(x), 0.0)
    full = fl.holder_norm(geom, vals)
    sup = np.max(np.abs(vals))
    assert full - sup >= 1.0 - 1e-9
