"""Property tests of the dense operator over the fractional exponent s."""

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
