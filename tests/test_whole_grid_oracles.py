"""The narrowed layers against the whole-grid code they replaced.

sample_profile evaluates only on the declared support, holder_norm forms
each pair once on the band |x - y| <= 1, and weighted_gradient_norm
differentiates only the heights its region reaches.  Each must agree bit
for bit with the whole-grid computation kept here as the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import fraclab as fl
from fraclab.extension import _region_mass_sq, gradient_components
from fraclab.geometry import CELL_AVERAGE_SUBSAMPLES


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
        vals = np.where(fl.support_mask(geom, spec, support), vals, 0.0)
    return vals


def holder_norm_all_pairs(geom, spec, values, s):
    """The C^{0,s} norm from the full n x n matrix of node pairs."""
    mask = fl.interval_mask(spec, geom.omega)
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


def gradient_norm_whole_field(field, region):
    """The weighted gradient norm with every height level differentiated."""
    dx, dy = gradient_components(field)
    m2 = (_region_mass_sq(dx, field.spec, field.y_grid, field.s, region)
          + _region_mass_sq(dy, field.spec, field.y_grid, field.s, region))
    return float(np.sqrt(m2))


PROFILES = {
    # support edges at 2.1 and 2.9 cut cells of the h = 1/64 grid
    "window_bump": fl.bump_profile(2.5, 0.4),
    # edges at -0.53 and 0.73 cut cells; sharper than the default
    "omega_bump": fl.bump_profile(0.1, 0.63, 0.7, 2.0),
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
    got = fl.sample_profile(geom, spec, prof, support, mode=mode)
    ref = sample_whole_grid(geom, spec, prof, support, mode)
    assert got.values.tobytes() == ref.tobytes()


def test_holder_norm_interval_shorter_than_cap():
    # omega spans less than the cap |x - y| <= 1: every pair is in the band
    geom, spec = fl.build_geometry(omega=(-0.4, 0.4), w=(2.0, 3.0), s=0.3,
                                   n_super=4096)
    vals = np.where(fl.interval_mask(spec, geom.omega_prime),
                    np.sin(7.0 * spec.nodes()), 0.0)
    assert fl.holder_norm(geom, spec, vals, 0.3) == \
        holder_norm_all_pairs(geom, spec, vals, 0.3)


@st.composite
def _potentials(draw):
    """s, a grid size and a sum of one to three bumps inside omega'."""
    s = draw(st.floats(0.01, 0.99))
    n_super = draw(st.sampled_from([1024, 4096, 16384]))
    geom, spec = fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=s,
                                   n_super=n_super, omega_prime=(-0.75, 0.75))
    x = spec.nodes()
    vals = np.zeros(spec.n_super)
    for _ in range(draw(st.integers(1, 3))):
        center = draw(st.floats(-0.7, 0.7))
        width = draw(st.floats(0.02, 0.75 - abs(center)))
        amp = draw(st.floats(-2.0, 2.0))
        sharp = draw(st.floats(0.3, 3.0))
        vals = vals + fl.bump_profile(center, width, amp, sharp)(x)
    return geom, spec, vals


@settings(max_examples=40, deadline=None, database=None)
@given(_potentials(), st.booleans())
@example((*fl.build_geometry(omega=(-1.0, 1.0), w=(2.0, 3.0), s=0.5),
          np.zeros(4096)), False)
def test_holder_norm_matches_all_pairs(potential, zero):
    geom, spec, vals = potential
    if zero:
        vals = np.zeros_like(vals)
    got = fl.holder_norm(geom, spec, vals, geom.s)
    assert got == holder_norm_all_pairs(geom, spec, vals, geom.s)
    if zero:
        assert got == 0.0


@pytest.fixture(scope="module")
def random_field(s1):
    # a rough field at s = 1/4, where the y grid is graded with kappa = 2
    # and any change to a kept level's y difference would show
    geom, spec = s1
    y = fl.default_y_grid(0.25)
    u = fl.make_grid_function(geom, spec, np.zeros(spec.n_super), "box")
    field = fl.extend(u, 0.25, y)
    vals = np.random.default_rng(7).standard_normal(field.values.shape)
    return replace(field, values=vals)


def _regions(y):
    """Regions of each kind, with tops between and on height levels."""
    return [
        fl.Region("half_ball", (0.0, 0.0), 0.05),
        fl.Region("half_ball", (0.3, 0.0), 0.6),
        # the three balls of three_balls_exponent around (0, 0.5)
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
