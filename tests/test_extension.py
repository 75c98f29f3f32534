import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from math import gamma
from scipy import special

import fraclab as fl
from fraclab.errors import (DomainError, EmptyRegionError, GeometryError,
                            ResolutionError)
from fraclab.extension import (MODE_CUT, extension_multiplier,
                               gradient_components, y_quadrature_weights)
from fraclab.geometry import frequencies

from oracles import (apply_spectral, neumann_trace, neumann_trace_fd,
                     trace_constant)


def test_multiplier_against_library_bessel():
    # independent oracle: theta_s(t) = (2^(1-s)/Gamma(s)) t^s K_s(t)
    t = np.concatenate([np.geomspace(1e-6, 2.0, 60),
                        np.geomspace(2.0001, 600.0, 80)])
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        ref = (2 ** (1 - s) / gamma(s)) * t ** s * special.kv(s, t)
        mine = extension_multiplier(t, s)
        assert np.max(np.abs(mine - ref) / ref) < 1e-12


def test_multiplier_against_mpmath_besselk():
    # oracle outside scipy: theta_s(t) at 30 digits from mpmath.besselk
    mpmath = pytest.importorskip("mpmath")
    t = np.geomspace(1e-8, 700.0, 120)
    with mpmath.workdps(30):
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            ms = mpmath.mpf(s)
            c = 2 ** (1 - ms) / mpmath.gamma(ms)
            ref = np.array([float(c * mpmath.mpf(x) ** ms
                                  * mpmath.besselk(ms, x)) for x in t])
            mine = extension_multiplier(t, s)
            assert np.max(np.abs(mine - ref) / ref) < 1e-12, s


def test_multiplier_half_closed_form():
    t = np.geomspace(1e-8, 650.0, 200)
    mine = extension_multiplier(t, 0.5)
    assert np.max(np.abs(mine - np.exp(-t))) < 1e-13


def test_multiplier_bounds_and_monotone():
    t = np.geomspace(1e-6, 100.0, 300)
    for s in (0.25, 0.5, 0.75):
        th = extension_multiplier(t, s)
        assert np.all(th > 0) and np.all(th <= 1.0)
        assert np.all(np.diff(th) < 0)
        assert extension_multiplier(np.array([0.0]), s)[0] == pytest.approx(1.0)


def test_multiplier_clamps_beyond_underflow():
    t = np.array([701.0, 1e4, np.inf])
    assert extension_multiplier(t, 0.5).tolist() == [0, 0, 0]


@pytest.mark.parametrize("bad", [np.nan, -1.0, -1e-300])
def test_multiplier_rejects_nan_and_negative_t(bad):
    with pytest.raises(DomainError, match=str(bad)):
        extension_multiplier(np.array([0.5, bad, np.inf]), 0.25)


def test_extend_zero(s1):
    geom, spec = s1
    z = fl.make_grid_function(geom, np.zeros(spec.n_super), "box")
    field = fl.extend(z, 0.5)
    assert np.all(field.values == 0.0)


def test_extend_poisson_half(s1):
    # s = 1/2 extension is the classical Poisson multiplier exp(-|xi| y)
    geom, spec = s1
    from fraclab.geometry import frequencies
    u = fl.sample_profile(geom, lambda x: np.exp(-x * x), "box",
                          mode="point")
    y = np.array([0.0, 0.05, 0.3, 1.0, 2.5])
    field = fl.extend(u, 0.5, y)
    xi = np.abs(frequencies(spec))
    uhat = np.fft.fft(u.values)
    for j, yj in enumerate(y):
        ref = np.real(np.fft.ifft(np.exp(-xi * yj) * uhat))
        assert np.max(np.abs(field.values[:, j] - ref)) < 1e-10


def test_extend_matches_per_column_complex_fft(s1, s1_solution):
    # the batched real-FFT path against one complex FFT per height level
    geom, spec = s1
    u = s1_solution.u
    xi = np.abs(frequencies(spec))
    uhat = np.fft.fft(u.values)
    for s in (0.25, 0.75):
        y = fl.default_y_grid(s)
        field = fl.extend(u, s, y)
        ref = np.column_stack([
            np.real(np.fft.ifft(extension_multiplier(xi * yj, s) * uhat))
            for yj in y])
        dev = np.max(np.abs(field.values - ref))
        assert dev <= 1e-12 * np.max(np.abs(ref)), (s, dev)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n_levels", [12, 15, 64])
def test_extend_blocked_matches_one_shot_irfft(s1_solution, s, n_levels):
    # 13, 16 and 65 heights; each level's zero-padded inverse FFT of its
    # live modes is that level of the one-shot batched transform with the
    # multiplier zeroed beyond MODE_CUT
    u = s1_solution.u
    n = u.spec.n_super
    y = fl.default_y_grid(s, height=8.5, n_levels=n_levels)
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    t = np.outer(y, xi)
    mult = np.where(t <= MODE_CUT, extension_multiplier(t, s), 0.0)
    ref = np.fft.irfft(np.fft.rfft(u.values) * mult, n=n)
    assert fl.extend(u, s, y).values.T.tobytes() == ref.tobytes()


def test_mode_cut_below_quarter_eps():
    # theta_s decreases in t, so every mode extend drops has theta_s below
    # 2^-54 = eps/4; the maximum over s, 3.39e-17, is reached as s -> 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in np.linspace(1e-3, 1 - 1e-3, 41):
            ms, t = mpmath.mpf(s), mpmath.mpf(MODE_CUT)
            theta = (2 ** (1 - ms) / mpmath.gamma(ms) * t ** ms
                     * mpmath.besselk(ms, t))
            assert theta < mpmath.mpf(2) ** -54, s


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_extend_cut_against_uncut_transform(s1_solution, s):
    # the dropped modes move no level by more than 1e-15 of the field's
    # largest value (measured: at most 2.8e-17 of it)
    u = s1_solution.u
    n = u.spec.n_super
    y = fl.default_y_grid(s, height=8.5)
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    ref = np.fft.irfft(np.fft.rfft(u.values)
                       * extension_multiplier(np.outer(y, xi), s), n=n).T
    dev = np.max(np.abs(fl.extend(u, s, y).values - ref))
    assert dev <= 1e-15 * np.max(np.abs(ref)), (s, dev)


def test_extend_tall_level_keeps_only_the_mean(s1_solution):
    # at y = 1e4 every nonzero |xi| y exceeds MODE_CUT: the level is the
    # constant transform of the zero mode alone
    u = s1_solution.u
    field = fl.extend(u, 0.5, np.array([0.0, 1e4]))
    mean = np.fft.irfft(np.fft.rfft(u.values)[:1], n=u.spec.n_super)
    assert field.values[:, 1].tobytes() == mean.tobytes()


@pytest.mark.parametrize("y", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                               [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
def test_extend_rejects_bad_y_grid(s1_solution, y):
    with pytest.raises(GeometryError):
        fl.extend(s1_solution.u, 0.5, np.array(y))


def test_gradient_dx_matches_complex_fft(s1_field):
    xi = frequencies(s1_field.spec)
    ref = np.real(np.fft.ifft(1j * xi[:, None]
                              * np.fft.fft(s1_field.values, axis=0), axis=0))
    dx, _ = gradient_components(s1_field)
    assert np.max(np.abs(dx - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_import_leaves_scipy_special_unloaded():
    # the multiplier is evaluated in numpy; scipy.special is a test oracle
    # only, and `import fraclab` must not pay for it
    src = Path(fl.__file__).resolve().parents[1]
    code = ("import sys, fraclab; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_trace_recovery(s1):
    geom, spec = s1
    u = fl.sample_profile(geom, lambda x: np.exp(-x * x), "box",
                          mode="point")
    y = np.concatenate([[0.0], np.geomspace(1e-4, 4.0, 40)])
    field = fl.extend(u, 0.5, y)
    dev = np.max(np.abs(field.values[:, 1] - u.values))
    assert dev < 1e-3 * np.max(np.abs(u.values))


def test_column_smoothing_monotone(s1, s1_field):
    norms = np.linalg.norm(s1_field.values, axis=0)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_trace_constant_half():
    assert trace_constant(0.5) == pytest.approx(1.0, rel=1e-14)


def test_neumann_consistency(s1):
    # finite-difference route against the exact spectral route
    geom, spec = s1
    u = fl.sample_profile(geom, lambda x: np.exp(-x * x), "box",
                          mode="point")
    for s in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        field = fl.extend(u, s)
        fd = neumann_trace_fd(field)
        ref = apply_spectral(u, s).values
        rel = np.linalg.norm(fd - ref) / np.linalg.norm(ref)
        assert rel < 1e-2, (s, rel)
        tr = neumann_trace(field, u)
        assert np.max(np.abs(tr.values - ref)) == 0.0


def test_neumann_zero(s1):
    geom, spec = s1
    z = fl.make_grid_function(geom, np.zeros(spec.n_super), "box")
    field = fl.extend(z, 0.5)
    assert np.all(neumann_trace(field, z).values == 0.0)


def test_neumann_needs_small_heights(s1, s1_solution):
    geom, spec = s1
    y = np.concatenate([[0.0], np.geomspace(5e-3, 4.0, 10)])
    field = fl.extend(s1_solution.u, 0.5, y)
    with pytest.raises(ResolutionError):
        neumann_trace(field, s1_solution.u)


def test_y_weights_integrate_weight_exactly():
    # sum of hat integrals equals the exact weighted measure, every s
    y = np.linspace(0.0, 4.0, 33) ** 2 / 4.0
    for s in (0.25, 0.5, 0.75):
        w = y_quadrature_weights(y, s)
        exact = y[-1] ** (2 - 2 * s) / (2 - 2 * s)
        assert np.sum(w) == pytest.approx(exact, rel=1e-12)
        clip = y_quadrature_weights(y, s, clip=(0.25, 1.0))
        exact = (1.0 ** (2 - 2 * s) - 0.25 ** (2 - 2 * s)) / (2 - 2 * s)
        assert np.sum(clip) == pytest.approx(exact, rel=1e-12)


def _y_weights_per_hat(y, s, clip=None):
    """The hat integrals one flank at a time, as a loop over the levels."""
    lo, hi = (y[0], y[-1]) if clip is None else clip
    wts = np.zeros(len(y))
    for j in range(len(y)):
        if j > 0:
            a, b = max(y[j - 1], lo), min(y[j], hi)
            if b > a:
                p = (b ** (2 - 2 * s) - a ** (2 - 2 * s)) / (2 - 2 * s)
                q = (b ** (3 - 2 * s) - a ** (3 - 2 * s)) / (3 - 2 * s)
                wts[j] += (q - y[j - 1] * p) / (y[j] - y[j - 1])
        if j < len(y) - 1:
            a, b = max(y[j], lo), min(y[j + 1], hi)
            if b > a:
                p = (b ** (2 - 2 * s) - a ** (2 - 2 * s)) / (2 - 2 * s)
                q = (b ** (3 - 2 * s) - a ** (3 - 2 * s)) / (3 - 2 * s)
                wts[j] += (y[j + 1] * p - q) / (y[j + 1] - y[j])
    return wts


def test_y_weights_match_per_hat_loop():
    # the vectorized flanks against the loop over levels; clips between
    # levels, on levels, below the first and above the last.  Array and
    # scalar powers may round apart, and each flank's q - y p cancels on
    # thin cells, so the bound is the 1e-12 of the test above, taken of
    # the rule's total weight
    for s in (0.05, 0.25, 0.5, 0.75, 0.95):
        y = fl.default_y_grid(s, height=8.5)
        for clip in (None, (0.25, 1.0), (float(y[3]), float(y[40])),
                     (0.0, 1e-30), (8.0, 8.5), (0.0, 8.5)):
            got = y_quadrature_weights(y, s, clip=clip)
            ref = _y_weights_per_hat(y, s, clip)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(ref), (s, clip)
            assert np.array_equal(got == 0, ref == 0), (s, clip)


def test_weighted_norm_zero_and_monotone(s1, s1_field):
    zero = fl.ExtensionField(spec=s1_field.spec, y_grid=s1_field.y_grid,
                             values=np.zeros_like(s1_field.values), s=0.5)
    assert fl.weighted_norm(zero, fl.Region("half_ball", (0.0, 0.0), 0.05)) == 0.0
    n1 = fl.weighted_norm(s1_field, fl.Region("half_ball", (0.0, 0.0), 0.05))
    n2 = fl.weighted_norm(s1_field, fl.Region("half_ball", (0.0, 0.0), 0.1))
    assert 0 < n1 <= n2


def test_weighted_norm_constant_slab(s1, s1_field):
    ones = fl.ExtensionField(spec=s1_field.spec, y_grid=s1_field.y_grid,
                             values=np.ones_like(s1_field.values), s=0.5)
    val = fl.weighted_norm(ones, fl.Region("slab", x_interval=(2.0, 3.0),
                                           y_interval=(0.25, 1.0)))
    assert val == pytest.approx(np.sqrt(0.75), abs=1e-6)


def test_weighted_norm_empty_region(s1, s1_field):
    with pytest.raises(EmptyRegionError):
        fl.weighted_norm(s1_field, fl.Region("half_ball", (0.0, 3.9), 0.0005))


@pytest.mark.parametrize("region", [fl.Region("half_ball", (0.0, 0.0), 8.0),
                                    fl.Region("annulus", (0.0, 0.0), 4.0)])
def test_weighted_norm_memory_independent_of_levels(s1_field_tall, region):
    # annulus_ratio's regions at R = 4 on the 65-level grid: the masses are
    # summed one level at a time, so no (rows x levels) array is built
    n = s1_field_tall.spec.n_super
    tracemalloc.start()
    try:
        fl.weighted_norm(s1_field_tall, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * 8, peak / (8 * n)


def test_region_must_stay_in_box(s1, s1_field):
    with pytest.raises(GeometryError):
        fl.weighted_norm(s1_field, fl.Region("half_ball", (0.0, 0.0), 50.0))


def test_energy_bound_and_refinement_stability(s1, s1_f, s1_field,
                                               s1_r2_scenario):
    # weighted gradient energy over the box, relative to the data norm;
    # the ratio must be stable under doubling the x resolution
    geom, spec = s1
    s = geom.s
    box = fl.Region("slab", x_interval=(-31.0, 31.0),
                    y_interval=(1e-6, 4.0))
    e1 = fl.weighted_gradient_norm(s1_field, box)
    c1 = e1 / fl.sobolev_norm(s1_f, s)

    sc2 = s1_r2_scenario
    sol2 = fl.solve_forward(sc2.op, sc2.q2, sc2.f)
    field2 = fl.extend(sol2.u, s, fl.default_y_grid(s, n_levels=128))
    e2 = fl.weighted_gradient_norm(field2, box)
    c2 = e2 / fl.sobolev_norm(sc2.f, s)
    assert c1 > 0 and c2 > 0
    assert abs(c2 - c1) <= 0.2 * c1, (c1, c2)


def test_poincare_type_bound(s1, s1_f, s1_field):
    # weighted mass over a bounded box controlled by the data norm
    geom, spec = s1
    K = fl.Region("slab", x_interval=(-4.0, 5.0), y_interval=(1e-6, 2.0))
    mass = fl.weighted_norm(s1_field, K)
    ratio = mass / fl.sobolev_norm(s1_f, geom.s)
    assert np.isfinite(ratio) and ratio > 0
