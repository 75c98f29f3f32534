"""Property tests of the geometry's node slices, of the dense operator
(against its Fourier symbol too) and the forward map over s and the
geometry, of the forward solve's spectral-gap decision, of the extension
multiplier
over s and t, of the potential's nearest-neighbour fill, of the
recovery's Levinson factor and discrepancy principle, and of
Parseval."""

import math

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import fraclab as fl
from fraclab.extension import BESSEL_CLAMP, extension_multiplier
from fraclab.fracop import (_far_series_coefficients, _nodal_from_dual,
                            stiffness_lags, symmetric_toeplitz)
from fraclab.errors import EigenvalueError
from fraclab.forward import GAP_TOL, _gap_certified, system_matrix
from fraclab.reconstruction import _levinson_factor, hs_gram_row

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)


@PROPERTY_SETTINGS
@given(s=st.floats(0.05, 0.95))
@example(s=0.5)
def test_assembled_matrix_symmetric_positive_definite(s):
    # a small accepted geometry: 66 omega nodes, 18 window nodes, 128 active
    geom = fl.build_geometry(omega=(-1.0, 1.0), w=(1.5, 2.0), s=s,
                             box_halfwidth=8.0, n_super=512)
    A = fl.assemble_dense(geom).matrix
    assert np.array_equal(A, A.T)
    ev = np.linalg.eigvalsh(A)
    assert ev[0] > 0.0
    np.linalg.cholesky(A)


@PROPERTY_SETTINGS
@given(offset=st.floats(-1e-9, 1e-9))
def test_lags_continuous_through_half(offset):
    # s = 1/2 is a removable 0/0 of the closed form
    h = 64.0 / 16384
    ref = stiffness_lags(0.5, h, 1535)
    near = stiffness_lags(0.5 + offset, h, 1535)
    assert np.max(np.abs(near - ref) / np.abs(ref)) < 1e-6


@PROPERTY_SETTINGS
@given(s=st.floats(1e-3, 1 - 1e-3))
@example(s=0.5)
def test_far_lags_match_the_polynomial_module(s):
    # np.polyval on the reversed coefficients runs the Horner sequence of
    # numpy.polynomial's polyval, which the lags used before, bit for bit
    h, max_lag = 0.01, 20000
    p = 3.0 - 2.0 * s
    m = np.arange(4, max_lag + 1, dtype=float)
    scale = fl.symbol_constant(s) * h ** (1 - 2 * s) / (2 * s * (2 - 2 * s) * p)
    before = scale * (m ** (p - 4) * np.polynomial.polynomial.polyval(
        1.0 / (m * m), _far_series_coefficients(p)))
    assert np.array_equal(stiffness_lags(s, h, max_lag)[4:], before)


def _lag_from_symbol(s, h, m):
    """(1/2pi) int |xi|^2s |hat phi(xi)|^2 cos(m h xi) dxi for the hat phi
    of width 2h, folded onto [0, pi] in theta = h xi: the images
    theta + 2 pi k, k != 0, share sin^4(theta/2) and sum to Hurwitz zetas."""
    from scipy import integrate, special

    a = 4.0 - 2.0 * s

    def symbol(theta):
        x = theta / (2 * math.pi)
        images = (special.zeta(a, 1.0 + x) + special.zeta(a, 1.0 - x)) \
            * (2 * math.pi) ** -a
        return (theta ** (2 * s) * np.sinc(x) ** 4
                + 16.0 * math.sin(theta / 2) ** 4 * images)

    val, _ = integrate.quad(symbol, 0.0, math.pi, weight="cos", wvar=m,
                            epsabs=0.0, epsrel=1e-10, limit=200)
    return h ** (1 - 2 * s) * val / math.pi


def _active_as_two_intervals(geom, spec):
    """The active set as the union of omega and w, each padded by the gap."""
    d = max(geom.w[0] - geom.omega[1], geom.omega[0] - geom.w[1])
    x = spec.nodes()
    tol = spec.h * 1e-9
    mask = np.zeros(spec.n_super, dtype=bool)
    for lo, hi in (geom.omega, geom.w):
        mask |= (x >= lo - d - tol) & (x <= hi + d + tol)
    return np.nonzero(mask)[0]


@st.composite
def _placements(draw):
    """s, omega and w in either order inside [-2, 2], and the grid size."""
    n_super = draw(st.sampled_from([256, 512, 1024, 2048]))
    len_a = draw(st.floats(1.1, 1.7))
    len_b = draw(st.floats(1.1, 1.7))
    # build_geometry needs two cells between them; the extra half cell
    # keeps rounding in the endpoints from taking the gap below that
    gap = draw(st.floats(2.5 * 16.0 / n_super, 3.9 - len_a - len_b))
    # at the largest gap the upper end rounds to just below -1.95
    left = draw(st.floats(-1.95, max(-1.95, 1.95 - len_a - gap - len_b)))
    a = (left, left + len_a)
    b = (a[1] + gap, a[1] + gap + len_b)
    omega, w = (b, a) if draw(st.booleans()) else (a, b)
    return draw(st.floats(0.05, 0.95)), omega, w, n_super


def _gathered_stiffness(op):
    """Active indices and the stiffness gathered entry by entry from the
    lags at |i - j|, as a new array."""
    spec = op.geom.spec
    i = np.arange(spec.n_super)[op.active]
    lags = stiffness_lags(op.geom.s, spec.h, int(i[-1] - i[0]))
    return i, lags[np.abs(i[:, None] - i[None, :])]


@PROPERTY_SETTINGS
@given(_placements())
def test_assembly_is_read_only_toeplitz_view(placement):
    s, omega, w, n_super = placement
    geom = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                             n_super=n_super)
    spec = geom.spec
    op = fl.assemble_dense(geom)
    i, gathered = _gathered_stiffness(op)
    assert np.array_equal(i, np.arange(i[0], i[-1] + 1))
    assert np.array_equal(i, _active_as_two_intervals(geom, spec))
    om, w = op.pos(geom.omega_nodes), op.pos(geom.w_nodes)
    assert np.array_equal(i[om], np.nonzero(fl.support_mask(geom, "omega"))[0])
    assert np.array_equal(i[w], np.nonzero(fl.support_mask(geom, "w"))[0])
    A = op.matrix
    assert A.tobytes() == gathered.tobytes()
    for block in (A, A[w, om], A[om, w]):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0
    # the view spans the 2n - 1 mirrored lags, not an n x n buffer
    lo, hi = byte_bounds(A)
    assert hi - lo <= (2 * len(i) - 1) * A.itemsize


@PROPERTY_SETTINGS
@given(_placements())
def test_active_nodes_and_operator_blocks(placement):
    # the geometry fixes the active run, and each block between the omega
    # and w nodes is a writable C-contiguous copy of the lags at |i - j|
    s, omega, w, n_super = placement
    geom = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                             n_super=n_super)
    a = geom.active_nodes
    assert np.array_equal(np.arange(a.start, a.stop),
                          _active_as_two_intervals(geom, geom.spec))
    op = fl.assemble_dense(geom)
    lags = stiffness_lags(s, geom.spec.h, a.stop - a.start - 1)
    before = op.matrix.tobytes()
    for rows in (geom.omega_nodes, geom.w_nodes):
        for cols in (geom.omega_nodes, geom.w_nodes):
            i = np.arange(rows.start, rows.stop)[:, None]
            j = np.arange(cols.start, cols.stop)
            block = op.block(rows, cols)
            assert block.flags.c_contiguous
            assert block.tobytes() == lags[np.abs(i - j)].tobytes()
            block[...] = 0.0
    assert op.matrix.tobytes() == before


@PROPERTY_SETTINGS
@given(_placements(), st.integers(0, 2 ** 32 - 1))
def test_apply_dense_matches_gathered_product(placement, seed):
    # the lag correlation against the dense product, each then taken
    # through the same consistent-mass solve
    s, omega, w, n_super = placement
    geom = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                             n_super=n_super)
    op = fl.assemble_dense(geom)
    _, gathered = _gathered_stiffness(op)
    vals = np.zeros(geom.spec.n_super)
    vals[op.active] = np.random.default_rng(seed).standard_normal(op.n_active)
    u = fl.GridFunction(spec=geom.spec, values=vals)
    ref = _nodal_from_dual(gathered @ vals[op.active], geom.spec.h)
    got = fl.apply_dense(op, u)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@PROPERTY_SETTINGS
@given(_placements(), st.integers(4, 63))
@example((0.5, (-1.0, 0.5), (1.0, 1.9), 2048), 63)
def test_toeplitz_lags_against_the_symbol(placement, far):
    # the first row of the assembled operator is the Galerkin form of
    # |xi|^2s on the hats: every near lag (m <= 3) and one of the far
    # series; from lag 64 on, the symbol's quadrature cancels too far
    s, omega, w, n_super = placement
    geom = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                             n_super=n_super)
    row = fl.assemble_dense(geom).matrix[0]
    lags = [0, 1, 2, 3, min(far, len(row) - 1)]
    ref = np.array([_lag_from_symbol(s, geom.spec.h, m) for m in lags])
    assert np.max(np.abs(row[lags] - ref) / np.abs(ref)) < 1e-8


@PROPERTY_SETTINGS
@given(_placements(), st.floats(0.0, 2.0))
def test_reciprocity_and_residual(placement, amp):
    # <Lambda f1, f2>_w = <f1, Lambda f2>_w with a bump q >= 0 in omega'
    s, omega, w, n_super = placement
    geom = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                             n_super=n_super)
    op = fl.assemble_dense(geom)
    (a, b), (c, d) = geom.omega_prime, geom.w
    q = fl.sample_profile(
        geom, fl.bump_profile((a + b) / 2, (b - a) / 2, amp), "omega_prime",
        mode="average")
    sols = [fl.solve_forward(op, q, fl.sample_profile(
        geom, fl.bump_profile(c + t * (d - c), 0.3 * (d - c)), "w",
        mode="average")) for t in (0.4, 0.6)]
    m1, m2 = (fl.dtn_map(op, sol).values[geom.w_nodes]
              for sol in sols)
    f1, f2 = (sol.f.values[geom.w_nodes] for sol in sols)
    assert np.dot(m1, f2) == pytest.approx(np.dot(f1, m2), rel=1e-9)
    assert max(sol.residual for sol in sols) <= 1e-10


# target relative gaps, in units of GAP_TOL, of the three bands: below the
# tolerance, inside (GAP_TOL, 2 GAP_TOL] where the Gershgorin certificate
# cannot pass, and above it
_GAP_BANDS = {"below": (1e-3, 0.9), "inside": (1.1, 1.9), "above": (3.0, 1e6)}


@PROPERTY_SETTINGS
@given(s=st.floats(0.05, 0.95), c=st.floats(-50.0, 50.0),
       band=st.sampled_from(sorted(_GAP_BANDS)), frac=st.floats(0.0, 1.0),
       indefinite=st.booleans())
def test_solve_forward_raises_iff_exact_gap_below_tol(s, c, band, frac,
                                                       indefinite):
    # q = c bump + a constant shift that puts the lowest eigenvalue of the
    # system at a chosen relative gap, negative too in the band below
    geom = fl.build_geometry(omega=(-1.0, 1.0), w=(1.5, 2.0), s=s,
                             box_halfwidth=8.0, n_super=512)
    op, h, om = fl.assemble_dense(geom), geom.spec.h, geom.omega_nodes
    bump = c * fl.sample_profile(geom, fl.bump_profile(0.0, 0.5), "omega",
                                 mode="average").values
    ev = np.linalg.eigvalsh(system_matrix(op, fl.make_grid_function(
        geom, bump, "omega")))
    lo, hi = _GAP_BANDS[band]
    g = GAP_TOL * lo * (hi / lo) ** frac
    spread = ev[-1] - ev[0]
    low = (-g * spread / (1 + g) if indefinite and band == "below"
           else g * spread / (1 - g))
    vals = bump.copy()
    vals[om] += (low - ev[0]) / h
    q = fl.make_grid_function(geom, vals, "omega")
    M = system_matrix(op, q)
    gap = fl.eigen_gap(M)
    assert (gap < GAP_TOL, GAP_TOL < gap <= 2 * GAP_TOL,
            gap > 2 * GAP_TOL) == (band == "below", band == "inside",
                                   band == "above")
    assert not _gap_certified(M) or gap >= GAP_TOL
    f = fl.sample_profile(geom, fl.bump_profile(1.75, 0.2), "w",
                          mode="average")
    try:
        fl.solve_forward(op, q, f)
        raised = False
    except EigenvalueError:
        raised = True
    assert raised == (gap < GAP_TOL)


@st.composite
def _symmetric_matrices(draw):
    """A random symmetric matrix whose diagonal exceeds its off-diagonal
    row sums by a relative slack around the certificate's threshold
    2 GAP_TOL, falls short of them, or has one disc wholly negative."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dominant", "not dominant", "indefinite"]))
    B = np.triu(rng.standard_normal((n, n)), 1)
    B += B.T
    r = np.abs(B).sum(axis=1)
    slack = (10.0 ** draw(st.floats(-12.0, 0.0)) * (r.max() + 1)
             * (1 + rng.random(n)))
    diag = {"dominant": r + slack, "not dominant": r * rng.random(n),
            "indefinite": (r + slack) * np.where(np.arange(n) == 0, -1, 1)}
    return 10.0 ** draw(st.floats(-6.0, 6.0)) * (B + np.diag(diag[kind]))


@PROPERTY_SETTINGS
@given(_symmetric_matrices())
@example(np.diag([1.0, 0.9 * GAP_TOL]))
@example(np.zeros((2, 2)))
def test_gap_certificate_is_sound(M):
    assert not _gap_certified(M) or fl.eigen_gap(M) >= GAP_TOL


def test_gap_certificate_at_its_boundary():
    # min(2 diag - a) equals 2 GAP_TOL max(a) exactly: certified, and the
    # gap is 2 GAP_TOL
    M = np.diag([1.0, 2 * GAP_TOL])
    assert _gap_certified(M) and fl.eigen_gap(M) >= GAP_TOL


def _snapped_mask(spec, interval):
    """The snap rule over the whole grid: each endpoint goes to its nearest
    node, ties outward, and every node in the snapped interval is in."""
    t_lo = (interval[0] - spec.origin) / spec.h
    t_hi = (interval[1] - spec.origin) / spec.h
    lo = spec.origin + math.ceil(t_lo - 0.5 - 1e-9) * spec.h
    hi = spec.origin + math.floor(t_hi + 0.5 + 1e-9) * spec.h
    x = spec.nodes()
    tol = spec.h * 1e-9
    return (x >= lo - tol) & (x <= hi + tol)


# where an endpoint sits in its cell, in cells from the left boundary: on
# the boundary (a tie between two nodes), on the node, or anywhere
_IN_CELL = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)


@st.composite
def _snap_cases(draw):
    """L, n_super, and omega, w (either order) and omega' as endpoints."""
    L = draw(st.sampled_from([4.0, 8.0, 32.0]))
    n = 2 ** draw(st.integers(8, 14))
    m = n // 4                          # cells in the central quarter
    a = draw(st.integers(0, m - 41))
    len1 = draw(st.integers(17, m - 24 - a))
    gap = draw(st.integers(4, m - 20 - a - len1))
    len2 = draw(st.integers(17, m - 1 - a - len1 - gap))
    first = (a, a + len1)
    second = (a + len1 + gap, a + len1 + gap + len2)
    omega, w = (second, first) if draw(st.booleans()) else (first, second)
    i = draw(st.integers(1, omega[1] - omega[0] - 2))
    k = draw(st.integers(i + 1, omega[1] - omega[0] - 1))
    h = 2 * L / n
    cells = (omega, w, (omega[0] + i, omega[0] + k))
    return L, n, *[tuple(-L / 4 + (c + draw(_IN_CELL)) * h for c in iv)
                   for iv in cells]


@settings(max_examples=200, deadline=None, database=None)
@given(_snap_cases())
def test_node_slices_match_whole_grid_snap(case):
    L, n_super, omega, w, prime = case
    geom = fl.build_geometry(omega=omega, w=w, s=0.5, box_halfwidth=L,
                             n_super=n_super, omega_prime=prime)
    for interval, nodes, tag in ((omega, geom.omega_nodes, "omega"),
                                 (w, geom.w_nodes, "w"),
                                 (prime, geom.prime_nodes, "omega_prime")):
        mask = np.zeros(n_super, dtype=bool)
        mask[nodes] = True
        assert np.array_equal(mask, _snapped_mask(geom.spec, interval)), tag
        assert np.array_equal(fl.support_mask(geom, tag), mask)


@settings(max_examples=60, deadline=None, database=None)
@given(s=st.floats(1e-3, 1 - 1e-3),
       log_t=st.lists(st.floats(-40.0, math.log10(BESSEL_CLAMP)),
                      min_size=1, max_size=8))
# the order split s = n + mu changes sides at s = 1/2
@example(s=0.5 - 1e-9, log_t=[-36.0, 0.0, 2.5])
@example(s=0.5 + 1e-9, log_t=[-36.0, 0.0, 2.5])
def test_multiplier_against_mpmath_over_s_and_t(s, log_t):
    # theta_s(t) = 2^(1-s)/Gamma(s) t^s K_s(t) at 40 digits; t runs down
    # to the smallest graded heights times |xi| (~1e-36 at s = 0.95) and
    # straddles the series / continued-fraction switch at t = 2
    mpmath = pytest.importorskip("mpmath")
    t = np.array([min(10.0 ** x, BESSEL_CLAMP) for x in log_t]
                 + [2 - 1e-12, 2.0, 2 + 1e-12])
    with mpmath.workdps(40):
        ms = mpmath.mpf(s)
        c = 2 ** (1 - ms) / mpmath.gamma(ms)
        ref = np.array([float(c * mpmath.mpf(x) ** ms * mpmath.besselk(ms, x))
                        for x in t])
    rel = np.abs(extension_multiplier(t, s) - ref) / ref
    assert np.max(rel) < 1e-13, (s, t[np.argmax(rel)], np.max(rel))


def _fill_by_loop(q, included):
    """Nearest included neighbour for each excluded node, one at a time;
    np.argmin takes the first of two equally near, so ties go left."""
    q = q.copy()
    inc_pos, exc_pos = np.nonzero(included)[0], np.nonzero(~included)[0]
    for i in exc_pos:
        q[i] = q[inc_pos[np.argmin(np.abs(inc_pos - i))]]
    return q


# omega' covers all but the two end nodes of omega's 66, so the fill
# shows at nearly every node
_FILL_GEOM = fl.build_geometry(omega=(-1.0, 1.0), w=(1.5, 2.0), s=0.5,
                               box_halfwidth=8.0, n_super=512,
                               omega_prime=(-0.99, 0.99))
_N_OMEGA = _FILL_GEOM.omega_nodes.stop - _FILL_GEOM.omega_nodes.start


@PROPERTY_SETTINGS
@given(st.lists(st.booleans(), min_size=_N_OMEGA,
                max_size=_N_OMEGA).filter(any),
       st.integers(0, 2 ** 32 - 1))
# ties between two included neighbours, and excluded runs at both ends
@example(included=[False, True, False, True] + [False] * (_N_OMEGA - 6)
         + [True, False], seed=0)
def test_recover_q_fill_matches_loop(included, seed):
    geom = _FILL_GEOM
    om, prime = geom.omega_nodes, geom.prime_nodes
    op = fl.assemble_dense(geom)
    included = np.array(included)
    rng = np.random.default_rng(seed)
    u_omega = np.where(included, rng.choice([-1.0, 1.0], _N_OMEGA)
                       * rng.uniform(0.5, 1.5, _N_OMEGA), 0.0)
    vals = np.zeros(geom.spec.n_super)
    vals[om] = u_omega
    u = fl.make_grid_function(geom, vals, "omega")
    holder = 1e6        # the cap stays out of the way
    rec = fl.recover_q(op, u, 0.1, holder)
    w_omega = fl.apply_dense(op, u)[op.pos(om)]
    q = np.zeros(_N_OMEGA)
    q[included] = -w_omega[included] / u_omega[included]
    q = np.clip(_fill_by_loop(q, included), -10 * holder, 10 * holder)
    p = slice(prime.start - om.start, prime.stop - om.start)
    assert rec.q_rec.values[prime].tobytes() == q[p].tobytes()
    assert np.array_equal(rec.excluded, om.start + np.nonzero(~included)[0])


@PROPERTY_SETTINGS
@given(n=st.integers(1, 300), s=st.floats(0.02, 0.98),
       n_super=st.sampled_from([2 ** k for k in range(9, 15)]),
       box_halfwidth=st.floats(1.0, 64.0))
@example(n=1, s=0.5, n_super=512, box_halfwidth=8.0)
@example(n=300, s=0.98, n_super=2 ** 14, box_halfwidth=1.0)
def test_levinson_factor_whitens_the_gram_matrix(n, s, n_super,
                                                 box_halfwidth):
    # W G W^T = diag(e) with W unit lower triangular, and diag(e)^-1/2 W
    # inverts the Cholesky factor of the H^s Gram matrix
    h = 2.0 * box_halfwidth / n_super
    spec = fl.GridSpec(h=h, n_super=n_super, origin=-box_halfwidth + h / 2)
    row = hs_gram_row(spec, s)[:n]
    G = symmetric_toeplitz(row)
    W, e = _levinson_factor(row)
    assert np.array_equal(W, np.tril(W)) and np.all(np.diag(W) == 1.0)
    assert np.all(e > 0)
    assert np.max(np.abs(W @ G @ W.T - np.diag(e))) <= 1e-12 * np.max(e)
    L = np.linalg.cholesky(G)
    assert np.max(np.abs(W / np.sqrt(e)[:, None] @ L - np.eye(n))) <= 1e-12


@PROPERTY_SETTINGS
@given(st.sampled_from([2 ** k for k in range(2, 17)]),
       st.floats(1.0, 64.0), st.integers(0, 2 ** 32 - 1),
       st.floats(-30.0, 30.0))
def test_parseval_over_grid_and_data(n_super, box_halfwidth, seed, log_scale):
    # the t = 0 Sobolev norm is the discrete L2 norm sqrt(h) |g|_2
    h = 2.0 * box_halfwidth / n_super
    spec = fl.GridSpec(h=h, n_super=n_super, origin=-box_halfwidth + h / 2)
    vals = (10.0 ** log_scale
            * np.random.default_rng(seed).standard_normal(n_super))
    l2 = math.sqrt(h) * np.linalg.norm(vals)
    got = fl.sobolev_norm(fl.GridFunction(spec=spec, values=vals), 0.0)
    assert abs(got - l2) <= 1e-12 * l2


@settings(max_examples=100, deadline=None, database=None)
@given(gamma=st.floats(0.05, 8.0), c=st.floats(1e-3, 1e3),
       top=st.integers(1, 6), n=st.integers(2, 12))
def test_stability_model_returns_the_planted_modulus(gamma, c, top, n):
    # err = c |log eps|^-gamma on an eps ladder 10^-top, ..., 10^-(top+n-1):
    # fit_log_modulus recovers (gamma, c) with a zero residual
    eps = 10.0 ** -np.arange(top, top + n, dtype=float)
    err = c * np.abs(np.log(eps)) ** -gamma
    g_hat, c_hat, resid = fl.fit_log_modulus(eps, err)
    assert g_hat == pytest.approx(gamma, rel=1e-10)
    assert c_hat == pytest.approx(c, rel=1e-10)
    assert resid < 1e-12


def _bisection_with_raises(residual, delta):
    """recover_u's discrepancy search when an out-of-reach bracket raised:
    the oracle for every bracket the search can reach."""
    lo, hi = -16.0, 0.0
    mid = lo
    for _ in range(201):
        res_mid = residual(10.0 ** mid)
        if delta <= res_mid <= 2 * delta:
            break
        if res_mid < delta:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    else:
        raise AssertionError("discrepancy bracket not attained")
    return 10.0 ** mid


@pytest.fixture(scope="module")
def s1_noisy(s1_op, s1_f, s1_qbump):
    lam = fl.dtn_map(s1_op, fl.solve_forward(s1_op, s1_qbump, s1_f))
    (noisy,) = fl.add_noise(s1_op.geom, lam, [1e-4], seed=3)
    return noisy


@PROPERTY_SETTINGS
@given(t=st.none() | st.floats(-0.5, 1.5))
@example(t=None)
def test_discrepancy_lambda_is_total(s1_op, s1_f, s1_noisy, t):
    # delta = 0 (t None), or the fraction t of the way, on the log scale,
    # from the residual at lambda = 1e-16 to the residual at lambda = 1
    def residual(lam):
        return fl.recover_u(s1_op, s1_f, s1_noisy, ("fixed", lam)).discrepancy

    res_lo, res_hi = residual(10.0 ** -16), residual(1.0)
    delta = 0.0 if t is None else res_lo * (res_hi / res_lo) ** t
    rec = fl.recover_u(s1_op, s1_f, s1_noisy, ("discrepancy", delta))
    if res_lo >= delta:
        assert rec.reg_param == 10.0 ** -16
    elif res_hi < delta:
        assert rec.reg_param == 1.0
    else:
        assert delta <= rec.discrepancy <= 2 * delta
        assert rec.reg_param == _bisection_with_raises(residual, delta)
