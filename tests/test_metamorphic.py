"""Metamorphic relations of the stability pipeline: end_to_end on
``configs/s1_stability.cfg`` with the data f scaled by 2^k.

The forward problem is linear in f, and a power of two rescales every
floating-point operation exactly, so u1, u2, their measurements, the
measured gap and e_tilde all scale by exactly 2^k.  The sweep's noise is
relative, so its q errors and their fit do not move at all.  The
boundary doubling scan's order beta holds up to rounding, and its
prefactor c_low, a mass of u, scales by 2^k up to rounding.  The
certificate's domain, eps / e_tilde < 1/2, is unit-free, so its data
error is the measured gap at every k.

Not asserted: mu, c_stab and the bound.  The smallness fit reads the
sweep's absolute u errors, which scale with f, against its relative noise
levels t over e_tilde, so these still move with k (mu is 3.02 at k = 0,
4.99 at k = 10 and 0.023 at k = -20).  Once fewer than two levels t lie
below e_tilde (k <= -25 here), that fit fails and nothing is certified.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import fraclab as fl  # noqa: E402

from conftest import config_text  # noqa: E402


def _report(k: int):
    text = config_text("s1_stability.cfg", (f"f.amplitude = {2.0 ** k!r}",))
    cfg = fl.parse_config_text(text.decode())
    return fl.end_to_end(fl.build_scenario(cfg))


@pytest.fixture(scope="module")
def unscaled():
    return _report(0)


@settings(max_examples=8, deadline=None)
@example(k=16)
@example(k=40)
@example(k=-24)
@example(k=-40)
@given(k=st.integers(-40, 40))
def test_scaling_f_by_a_power_of_two(unscaled, k):
    rep = _report(k)
    assert np.array_equal(rep.curve.errors, unscaled.curve.errors)
    assert rep.fit == unscaled.fit
    assert rep.data_gap == 2.0 ** k * unscaled.data_gap
    cert, base = rep.certificate, unscaled.certificate
    if np.count_nonzero(rep.curve.t_values < 2.0 ** k * base.e_tilde) < 2:
        assert cert is None
        assert rep.note.startswith("smallness fit failed")
        return
    assert cert is not None, rep.note
    assert cert.e_tilde == 2.0 ** k * base.e_tilde
    assert cert.epsilon == 2.0 ** k * base.epsilon
    assert cert.c_low == pytest.approx(2.0 ** k * base.c_low, rel=1e-12)
    assert cert.beta == pytest.approx(base.beta, rel=1e-12)
