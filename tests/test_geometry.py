import numpy as np
import pytest

import fraclab as fl
from fraclab.errors import (GeometryError, OverlapError, ResolutionError,
                            SupportError)


def test_build_geometry_s1():
    geom, spec = fl.build_geometry(omega=(-1, 1), w=(2, 3), s=0.5,
                                   box_halfwidth=32, n_super=4096)
    assert spec.h == 2 * 32 / 4096
    assert spec.n_super == 4096
    # cell-centered nodes cover [-L, L)
    x = spec.nodes()
    assert x[0] == pytest.approx(-32 + spec.h / 2)
    assert x[-1] == pytest.approx(32 - spec.h / 2)


def test_build_geometry_overlap():
    with pytest.raises(OverlapError):
        fl.build_geometry(omega=(-1, 1), w=(0.5, 2), s=0.5)


def test_build_geometry_touching_closures_overlap():
    with pytest.raises(OverlapError):
        fl.build_geometry(omega=(-1, 1), w=(1, 2), s=0.5)


def test_build_geometry_resolution():
    with pytest.raises(ResolutionError):
        fl.build_geometry(omega=(-1, 1), w=(2, 3), s=0.5, box_halfwidth=32,
                          n_super=64)


def test_build_geometry_gap_below_two_cells():
    # h = 1/16: both endpoints facing the gap sit on cell boundaries and
    # snap outward onto the same node; and omega's far end snaps out of
    # the range padded by the gap
    with pytest.raises(ResolutionError, match="two cells"):
        fl.build_geometry(omega=(-1.5, 0.0), w=(0.015625, 1.515625), s=0.5,
                          box_halfwidth=8.0, n_super=256)
    geom, spec = fl.build_geometry(omega=(-1.5, 0.0), w=(0.125, 1.5), s=0.5,
                                   box_halfwidth=8.0, n_super=256)
    omega = fl.interval_mask(spec, geom.omega)
    w = fl.interval_mask(spec, geom.w)
    assert not np.any(omega & w)


def test_build_geometry_bad_s():
    for s in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(GeometryError):
            fl.build_geometry(omega=(-1, 1), w=(2, 3), s=s)


def test_build_geometry_outside_central_quarter():
    with pytest.raises(GeometryError):
        fl.build_geometry(omega=(-1, 1), w=(9, 10), s=0.5, box_halfwidth=32)


def test_build_geometry_omega_prime_must_be_interior():
    with pytest.raises(GeometryError):
        fl.build_geometry(omega=(-1, 1), w=(2, 3), s=0.5,
                          omega_prime=(-1.0, 0.5))


def test_n_super_power_of_two():
    with pytest.raises(GeometryError):
        fl.build_geometry(omega=(-1, 1), w=(2, 3), s=0.5, n_super=3000)


def test_interval_masks_and_snapping(s1):
    geom, spec = s1
    m_omega = fl.interval_mask(spec, geom.omega)
    m_w = fl.interval_mask(spec, geom.w)
    assert not np.any(m_omega & m_w)
    x = spec.nodes()
    # snapping moves endpoints by at most half a cell
    assert np.all(np.abs(x[m_omega]) <= 1.0 + spec.h / 2 + 1e-12)
    assert np.count_nonzero(m_omega) >= 16
    assert np.count_nonzero(m_w) >= 16


def test_grid_function_support_enforced(s1):
    geom, spec = s1
    vals = np.ones(spec.n_super)
    with pytest.raises(SupportError):
        fl.make_grid_function(geom, spec, vals, "w")


def test_grid_function_rejects_nan(s1):
    geom, spec = s1
    vals = np.zeros(spec.n_super)
    vals[0] = np.nan
    with pytest.raises(SupportError):
        fl.make_grid_function(geom, spec, vals, "box")


def test_sample_profile_modes_agree_for_smooth(s1):
    geom, spec = s1
    prof = fl.bump_profile(2.5, 0.4)
    pt = fl.sample_profile(geom, spec, prof, "w", mode="point")
    av = fl.sample_profile(geom, spec, prof, "w", mode="average")
    # cell averaging is a second-order perturbation for smooth profiles
    scale = np.max(np.abs(pt.values))
    assert np.max(np.abs(pt.values - av.values)) < 5e-3 * scale


def test_bump_profile_support_and_peak():
    prof = fl.bump_profile(0.0, 0.5, amplitude=2.0)
    assert prof(np.array([0.0]))[0] == pytest.approx(2.0)
    assert prof(np.array([0.5, -0.5, 0.7]))[0] == 0.0
    assert np.all(prof(np.array([-0.49, 0.49])) > 0)


def test_potential_bounds_measured(s1, s1_qbump):
    geom, spec = s1
    assert s1_qbump.sup_bound == pytest.approx(0.5, rel=1e-2)
    assert s1_qbump.holder_bound >= s1_qbump.sup_bound


def test_potential_support_enforced(s1):
    geom, spec = s1
    gf = fl.sample_profile(geom, spec, fl.bump_profile(0.0, 0.9), "omega",
                           mode="point")
    with pytest.raises(SupportError):
        fl.make_potential(geom, gf)
