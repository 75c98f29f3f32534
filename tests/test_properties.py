"""Property tests of the dense operator over s and the geometry."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import fraclab as fl
from fraclab.fracop import stiffness_lags

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)


@PROPERTY_SETTINGS
@given(s=st.floats(0.05, 0.95))
@example(s=0.5)
def test_assembled_matrix_symmetric_positive_definite(s):
    # a small accepted geometry: 66 omega nodes, 18 window nodes, 128 active
    geom, spec = fl.build_geometry(omega=(-1.0, 1.0), w=(1.5, 2.0), s=s,
                                   box_halfwidth=8.0, n_super=512)
    A = fl.assemble_dense(geom, spec).matrix
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


def _active_as_two_intervals(geom, spec):
    """The active set as the union of omega and w, each padded by the gap."""
    d = geom.gap
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
    left = draw(st.floats(-1.95, 1.95 - len_a - gap - len_b))
    a = (left, left + len_a)
    b = (a[1] + gap, a[1] + gap + len_b)
    omega, w = (b, a) if draw(st.booleans()) else (a, b)
    return draw(st.floats(0.05, 0.95)), omega, w, n_super


@PROPERTY_SETTINGS
@given(_placements())
def test_assembly_is_contiguous_toeplitz(placement):
    s, omega, w, n_super = placement
    geom, spec = fl.build_geometry(omega=omega, w=w, s=s, box_halfwidth=8.0,
                                   n_super=n_super)
    op = fl.assemble_dense(geom, spec)
    i = op.active
    assert np.array_equal(i, np.arange(i[0], i[-1] + 1))
    assert np.array_equal(i, _active_as_two_intervals(geom, spec))
    assert np.array_equal(i[op.omega_pos], op.omega_idx)
    assert np.array_equal(i[op.w_pos], op.w_idx)
    lags = stiffness_lags(s, spec.h, int(i[-1] - i[0]))
    gathered = lags[np.abs(i[:, None] - i[None, :])]
    assert op.matrix.tobytes() == gathered.tobytes()
    assert op.matrix.flags.c_contiguous and op.matrix.flags.owndata
