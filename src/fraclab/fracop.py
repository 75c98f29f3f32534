"""The fractional Laplacian on the supergrid: a dense Galerkin operator.

It is the stiffness matrix of piecewise-linear hat elements for the
bilinear form

    (c_s / 2) * integral integral (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(1+2s),

with c_s = 2^(2s) s Gamma((1+2s)/2) / (sqrt(pi) Gamma(1-s)), the unique
constant matching the symbol |xi|^(2s).  On a uniform grid the entries are
Toeplitz: the entry at lag m is the singular integral of the hat
autocorrelation rho against |z|^(-1-2s), evaluated at m h.  Because rho is
a scaled cubic B-spline, that integral is in closed form a fourth
difference of |k|^(3-2s) (see stiffness_lags).  The matrix is therefore
never stored: it is a read-only strided view of its 2n-1 mirrored lags
(see symmetric_toeplitz), and its product with a vector is a correlation
with that lag row.  The tests check it against the periodic spectral
symbol |xi|^(2s), which lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, sqrt, pi

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SupportError
from .geometry import Geometry, GridFunction


def symbol_constant(s: float) -> float:
    """Normalizing constant c_s of the 1D singular-integral form."""
    return 2.0 ** (2 * s) * s * gamma((1 + 2 * s) / 2) / (sqrt(pi) * gamma(1 - s))


#: terms of the far-field series; successive terms shrink by about
#: (2/m)^2 <= 1/4, so 40 terms are exact to rounding from m = 4 on
_SERIES_TERMS = 40


def _far_series_coefficients(p: float) -> np.ndarray:
    """a_j = [p(p-1)(p-3)...(p-j+1)/j!] 2(2^j - 4) for j = 4, 6, 8, ...

    These are the binomial coefficients of delta^4 m^p / (p - 2), with the
    factor p - 2 left out of the product.
    """
    j = np.arange(4, 2 * _SERIES_TERMS + 4, 2, dtype=float)
    ratio = (p - j + 2) * (p - j + 1) / ((j - 1) * j)
    ratio[0] = p * (p - 1) * (p - 3) / 24.0
    return np.cumprod(ratio) * 2.0 * (2.0 ** j - 4.0)


def stiffness_lags(s: float, h: float, max_lag: int) -> np.ndarray:
    """Toeplitz entries g[m] = A_{i,i+m} of the Galerkin stiffness matrix.

    g[m] = c_s h^(1-2s) delta^4 F(m) / (2s (2-2s) (3-2s)), where delta^4
    is the five-point fourth difference
    F(m-2) - 4 F(m-1) + 6 F(m) - 4 F(m+1) + F(m+2) and
    F(k) = k^2 expm1((1-2s) ln|k|) / (1-2s), with F(k) = k^2 ln|k| at
    s = 1/2 and F(0) = 0.  Since delta^4 annihilates k^2, delta^4 F equals
    delta^4 |k|^p / (p - 2) with p = 3 - 2s, free of the 0/0 at s = 1/2.

    Lags m <= 3 take the difference directly.  From m = 4 on it is summed
    as the binomial series m^p sum_{j even >= 4} a_j m^-j (see
    _far_series_coefficients), since the direct difference would cancel
    away about m^4 eps of relative accuracy.
    """
    p = 3.0 - 2.0 * s
    scale = symbol_constant(s) * h ** (1 - 2 * s) / (2 * s * (2 - 2 * s) * p)
    g = np.empty(max_lag + 1)
    near = np.arange(min(max_lag, 3) + 1)
    k = np.abs(near[:, None] + np.arange(-2, 3)).astype(float)
    log_k = np.log(np.where(k > 0, k, 1.0))
    e = 1.0 - 2.0 * s
    F = k * k * (log_k if e == 0.0 else np.expm1(e * log_k) / e)
    g[near] = F @ np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    if max_lag >= 4:
        m = np.arange(4, max_lag + 1, dtype=float)
        g[4:] = m ** (p - 4) * np.polyval(
            _far_series_coefficients(p)[::-1], 1.0 / (m * m))
    return scale * g


@dataclass(frozen=True, eq=False)
class FracLapDense:
    """Dense Galerkin realization of the operator on the active node set.

    ``geom`` carries the grid, the exponent and the node slices, the
    active nodes included.  ``matrix`` is the raw stiffness over the
    active nodes (dual/Galerkin scaling): a read-only Toeplitz view of
    the 2n-1 mirrored lags, so it holds O(n) bytes although
    ``matrix.nbytes`` reports n^2 * 8.  ``block`` copies the stiffness
    between two node slices of ``geom`` into a C-contiguous array, which
    BLAS takes; ``matrix[pos(rows), pos(cols)]`` is the same block as a
    view.  Nodal application converts dual values to point values
    through the consistent P1 mass matrix, which cancels the lumped-mass
    mid-band attenuation to fourth order in the frequency.
    """

    geom: Geometry
    matrix: np.ndarray

    @property
    def active(self) -> slice:
        return self.geom.active_nodes

    @property
    def n_active(self) -> int:
        return self.active.stop - self.active.start

    def pos(self, nodes: slice) -> slice:
        """Positions of a node slice of ``geom`` among the active nodes."""
        first = self.active.start
        return slice(nodes.start - first, nodes.stop - first)

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """A fresh C-contiguous copy of the stiffness between node slices."""
        return self.matrix[self.pos(rows), self.pos(cols)].copy()


def symmetric_toeplitz(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first row ``row``, as a view.

    The view is read-only and strided over the 2n-1 values of ``row``
    mirrored about its first entry: row i reads them from position
    n-1-i on, so its rows step backwards in memory and no n^2 buffer is
    made.
    """
    mirrored = np.concatenate([row[:0:-1], row])
    return sliding_window_view(mirrored, len(row))[::-1]


def assemble_dense(geom: Geometry) -> FracLapDense:
    """The dense stiffness over the active nodes: they are one contiguous
    run (see build_geometry), so it is Toeplitz in their positions."""
    n = geom.active_nodes.stop - geom.active_nodes.start
    return FracLapDense(geom=geom, matrix=symmetric_toeplitz(
        stiffness_lags(geom.s, geom.spec.h, n - 1)))


#: linear-extrapolation pad, nodes, for the mass solve; the tridiagonal
#: inverse decays by 2 - sqrt(3) per node, so edge bias falls below 1e-6
MASS_PAD = 12


def _nodal_from_dual(dual: np.ndarray, h: float) -> np.ndarray:
    """Consistent-mass conversion of dual values to nodal samples.

    The dual vector is padded by linear extrapolation so the Dirichlet
    truncation of the tridiagonal solve happens far from the reported
    nodes.  The DST-I, done as the DFT of the odd extension, diagonalizes
    the padded mass matrix tridiag(h/6, 2h/3, h/6) of order n, with
    eigenvalues 2h/3 + (h/3) cos(pi k / (n+1)).
    """
    p = MASS_PAD
    left = dual[0] + (dual[0] - dual[1]) * np.arange(p, 0, -1)
    right = dual[-1] + (dual[-1] - dual[-2]) * np.arange(1, p + 1)
    ext = np.concatenate([left, dual, right])
    n1 = len(ext) + 1
    odd = np.concatenate([[0.0], ext, [0.0], -ext[::-1]])
    eig = h * (2.0 + np.cos(np.pi * np.arange(n1 + 1) / n1)) / 3.0
    return np.fft.irfft(np.fft.rfft(odd) / eig, 2 * n1)[p + 1:n1 - p]


def apply_dense(op: FracLapDense, u: GridFunction) -> np.ndarray:
    """Nodal values of the operator applied to u, on the active nodes.

    The Galerkin product gives dual values: the Toeplitz product is the
    correlation of u with the mirrored lags, read from the matrix's last
    and first rows.  Solving with the consistent P1 mass matrix converts
    them to nodal samples with a symbol error of only O((xi h)^4) in the
    mid band.
    """
    a, A = op.active, op.matrix
    if np.any(u.values[:a.start] != 0.0) or np.any(u.values[a.stop:] != 0.0):
        raise SupportError("dense backend needs input supported on active nodes")
    mirrored = np.concatenate([A[-1], A[0, 1:]])
    dual = np.correlate(mirrored, u.values[a], "valid")[::-1]
    return _nodal_from_dual(dual, op.geom.spec.h)
