"""The narrowed layers against the whole-grid code they replaced.

sample_profile evaluates only on the declared support, holder_norm forms
each pair once on the band |x - y| <= 1, weighted_gradient_norm
differentiates only the heights its region reaches, and extend transforms
one height level per contiguous row.  Each must agree bit for bit with
the whole-grid computation kept here as the oracle.  Half-ball and annulus
masses, summed one height level at a time, select the oracle's nodes and
differ from its one-shot sum only by the order of the additions.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import fraclab as fl
from fraclab.errors import EmptyRegionError
from fraclab.extension import (MODE_CUT, _region_mass_sq,
                               extension_multiplier, gradient_components,
                               y_quadrature_weights)
from fraclab.geometry import CELL_AVERAGE_SUBSAMPLES, frequencies


def sample_whole_grid(geom, spec, profile, support, mode):
    """Sample at every node, then zero the values outside the support."""
    x = spec.nodes()
    if mode == "point":
        vals = np.asarray(profile(x), dtype=float)
    else:
        m = CELL_AVERAGE_SUBSAMPLES
        offs = -spec.h / 2 + spec.h / m * (np.arange(m) + 0.5)
        vals = np.zeros_like(x)
        for o in offs:
            vals += np.asarray(profile(x + o), dtype=float)
        vals /= m
    if support != "box":
        vals = np.where(fl.support_mask(geom, support), vals, 0.0)
    return vals


def holder_norm_all_pairs(geom, spec, values, s):
    """The C^{0,s} norm from the full n x n matrix of node pairs."""
    mask = fl.support_mask(geom, "omega")
    x = spec.nodes()[mask]
    q = np.asarray(values, dtype=float)[mask]
    supq = float(np.max(np.abs(q))) if q.size else 0.0
    if q.size < 2:
        return supq
    dx = np.abs(x[:, None] - x[None, :])
    dq = np.abs(q[:, None] - q[None, :])
    near = (dx > 0) & (dx <= 1.0)
    semi = float(np.max(dq[near] / dx[near] ** s)) if np.any(near) else 0.0
    return max(semi, 2.0 * supq) + supq


def extend_frequency_major(u, s, y):
    """The extension with the multiplier table over (|xi|, y), zeroed
    beyond MODE_CUT, and the inverse FFT taken down its columns."""
    n = u.spec.n_super
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    t = np.outer(xi, y)
    mult = np.where(t <= MODE_CUT, extension_multiplier(t, s), 0.0)
    return np.fft.irfft(np.fft.rfft(u.values)[:, None] * mult, n=n, axis=0)


def gradient_norm_whole_field(field, region):
    """The weighted gradient norm with every height level differentiated."""
    dx, dy = gradient_components(field)
    m2 = (_region_mass_sq(dx, field.spec, field.y_grid, field.s, region)
          + _region_mass_sq(dy, field.spec, field.y_grid, field.s, region))
    return float(np.sqrt(m2))


def region_mass_tensor(field, region):
    """A half-ball or annulus mass from the (nodes x levels) mask of the
    whole grid, summed at once."""
    x, y = field.spec.nodes(), field.y_grid
    yw = y_quadrature_weights(y, field.s)
    x0, y0 = region.center
    rr = (x[:, None] - x0) ** 2 + (y[None, :] - y0) ** 2
    mask = rr < region.radius ** 2
    if region.kind == "annulus":
        mask &= rr >= (region.radius / 2) ** 2
    if not np.any(mask):
        raise EmptyRegionError(f"no tensor nodes in {region}")
    w2 = field.values ** 2
    return float(field.spec.h * np.sum((w2 * yw[None, :])[mask]))


def sharp_bump(center, width, amplitude, sharpness):
    """amplitude exp(-p z^2 / (1 - z^2)) with p = sharpness: bump_profile,
    whose p is 1, to the power p."""
    bump = fl.bump_profile(center, width)
    return lambda x: amplitude * bump(x) ** sharpness


PROFILES = {
    # support edges at 2.1 and 2.9 cut cells of the h = 1/64 grid
    "window_bump": fl.bump_profile(2.5, 0.4),
    # edges at -0.53 and 0.73 cut cells; sharper than the default
    "omega_bump": sharp_bump(0.1, 0.63, 0.7, 2.0),
    # nonzero everywhere, so the zeroing outside the support matters
    "cosine": lambda x: np.cos(3.0 * x),
}


@pytest.mark.parametrize("mode", ["point", "average"])
@pytest.mark.parametrize("support", ["omega", "w", "omega_w", "omega_prime",
                                     "box"])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_sample_profile_matches_whole_grid(s1, name, support, mode):
    geom, spec = s1
    prof = PROFILES[name]
    got = fl.sample_profile(geom, prof, support, mode=mode)
    ref = sample_whole_grid(geom, spec, prof, support, mode)
    assert got.values.tobytes() == ref.tobytes()


def test_holder_norm_interval_shorter_than_cap():
    # omega spans less than the cap |x - y| <= 1: every pair is in the band
    geom = fl.build_geometry(omega=(-0.4, 0.4), w=(2.0, 3.0), s=0.3,
                             n_super=4096)
    spec = geom.spec
    vals = np.where(fl.support_mask(geom, "omega_prime"),
                    np.sin(7.0 * spec.nodes()), 0.0)
    assert fl.holder_norm(geom, vals) == \
        holder_norm_all_pairs(geom, spec, vals, 0.3)


@st.composite
def _potentials(draw):
    """s, a grid size and a sum of one to three bumps inside omega'."""
    s = draw(st.floats(0.01, 0.99))
    n_super = draw(st.sampled_from([1024, 4096, 16384]))
    geom = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=s,
                             n_super=n_super, omega_prime=(-0.75, 0.75))
    spec = geom.spec
    x = spec.nodes()
    vals = np.zeros(spec.n_super)
    for _ in range(draw(st.integers(1, 3))):
        center = draw(st.floats(-0.7, 0.7))
        width = draw(st.floats(0.02, 0.75 - abs(center)))
        amp = draw(st.floats(-2.0, 2.0))
        sharp = draw(st.floats(0.3, 3.0))
        vals = vals + sharp_bump(center, width, amp, sharp)(x)
    return geom, spec, vals


_HALF = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=0.5)


@settings(max_examples=40, deadline=None, database=None)
@given(_potentials(), st.booleans())
@example((_HALF, _HALF.spec, np.zeros(4096)), False)
def test_holder_norm_matches_all_pairs(potential, zero):
    geom, spec, vals = potential
    if zero:
        vals = np.zeros_like(vals)
    got = fl.holder_norm(geom, vals)
    assert got == holder_norm_all_pairs(geom, spec, vals, geom.s)
    if zero:
        assert got == 0.0


@pytest.fixture(scope="module")
def random_field(s1):
    # a rough field at s = 1/4, where the y grid is graded with kappa = 2
    # and any change to a kept level's y difference would show
    geom, spec = s1
    y = fl.default_y_grid(0.25)
    u = fl.make_grid_function(geom, np.zeros(spec.n_super), "box")
    field = fl.extend(u, 0.25, y)
    vals = np.random.default_rng(7).standard_normal(field.values.shape)
    return replace(field, values=vals)


def _regions(y):
    """Regions of each kind, with tops between and on height levels."""
    return [
        fl.Region("half_ball", (0.0, 0.0), 0.05),
        fl.Region("half_ball", (0.3, 0.0), 0.6),
        # the three balls of the three-ball exponent around (0, 0.5)
        fl.Region("half_ball", (0.0, 0.5), 0.1),
        fl.Region("half_ball", (0.0, 0.5), 0.2),
        fl.Region("half_ball", (0.0, 0.5), 0.4),
        fl.Region("annulus", (0.0, 0.0), 0.3),
        fl.Region("annulus", (-0.2, 0.0), 1.0),
        # the radius is a height level: searchsorted lands on it exactly
        fl.Region("half_ball", (0.0, 0.0), float(y[9])),
        fl.Region("annulus", (0.0, 0.0), float(y[20])),
        # reaching the top of the grid keeps every level
        fl.Region("half_ball", (0.0, 0.0), float(y[-1])),
        fl.Region("slab", x_interval=(-0.5, 0.5), y_interval=(0.01, 0.3)),
        fl.Region("slab", x_interval=(-0.5, 0.5),
                  y_interval=(0.0, float(y[12]))),
    ]


@pytest.mark.parametrize("which", ["s1_field", "random_field"])
def test_weighted_gradient_norm_matches_whole_field(request, which):
    field = request.getfixturevalue(which)
    for region in _regions(field.y_grid):
        got = fl.weighted_gradient_norm(field, region)
        assert got == gradient_norm_whole_field(field, region), region


@pytest.mark.parametrize("which", ["s1_field", "random_field"])
def test_region_mass_matches_tensor_mask(request, which):
    # s1_field's level view is contiguous, random_field's is strided
    field = request.getfixturevalue(which)
    for region in _regions(field.y_grid):
        if region.kind == "slab":
            continue
        got = _region_mass_sq(field.values, field.spec, field.y_grid,
                              field.s, region)
        assert got == pytest.approx(region_mass_tensor(field, region),
                                    rel=1e-14, abs=0), region


def test_empty_region_matches_tensor_mask(s1_field):
    # test_weighted_norm_empty_region's ball falls between nodes
    ball = fl.Region("half_ball", (0.0, 3.9), 0.0005)
    with pytest.raises(EmptyRegionError):
        region_mass_tensor(s1_field, ball)
    with pytest.raises(EmptyRegionError):
        _region_mass_sq(s1_field.values, s1_field.spec, s1_field.y_grid,
                        s1_field.s, ball)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_extend_matches_frequency_major(s1_solution, s):
    # the tall grid of ucp-scan, graded for s
    y = fl.default_y_grid(s, height=8.5, n_levels=64)
    field = fl.extend(s1_solution.u, s, y)
    ref = extend_frequency_major(s1_solution.u, s, y)
    assert field.values.shape == ref.shape
    assert field.values.tobytes() == ref.tobytes()
