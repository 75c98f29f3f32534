"""The fractional Laplacian on the supergrid: two independent backends.

Spectral backend: multiply the DFT by the exact symbol |xi|^(2s) on the
periodic supergrid.  This is the sinc-quadrature discretization of the
singular integral; it is kept unfiltered because the near-cancellation
between band truncation and sampling aliasing is delicate and any band-edge
modification measurably worsens accuracy near support-edge singularities.

Dense backend (the oracle): Galerkin stiffness matrix of piecewise-linear
hat elements for the bilinear form

    (c_s / 2) * integral integral (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(1+2s),

with c_s = 2^(2s) s Gamma((1+2s)/2) / (sqrt(pi) Gamma(1-s)), the unique
constant matching the symbol |xi|^(2s).  On a uniform grid the entries are
Toeplitz: the entry at lag m is the singular integral of the hat
autocorrelation rho against |z|^(-1-2s), evaluated at m h.  Because rho is
a scaled cubic B-spline, that integral is in closed form a fourth
difference of |k|^(3-2s) (see stiffness_lags).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, sqrt, pi

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SupportError
from .geometry import (Geometry, GridFunction, GridSpec, frequencies,
                       interval_mask)

#: nodes within this count of the box edge must be empty (periodization guard)
EDGE_GUARD_NODES = 8


def symbol_constant(s: float) -> float:
    """Normalizing constant c_s of the 1D singular-integral form."""
    return 2.0 ** (2 * s) * s * gamma((1 + 2 * s) / 2) / (sqrt(pi) * gamma(1 - s))


def apply_spectral(u: GridFunction, s: float) -> GridFunction:
    """Apply the fractional Laplacian through its Fourier symbol.

    Raises SupportError if the input carries mass within EDGE_GUARD_NODES
    of the box edge, where periodization would silently corrupt the result.
    """
    vals = u.values
    guard = EDGE_GUARD_NODES
    if np.any(vals[:guard] != 0.0) or np.any(vals[-guard:] != 0.0):
        raise SupportError("input has mass within the periodization guard band")
    xi = frequencies(u.spec)
    out = np.real(np.fft.ifft(np.abs(xi) ** (2 * s) * np.fft.fft(vals)))
    return GridFunction(spec=u.spec, values=out, support="box")


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
        g[4:] = m ** (p - 4) * np.polynomial.polynomial.polyval(
            1.0 / (m * m), _far_series_coefficients(p))
    return scale * g


@dataclass(frozen=True, eq=False)
class FracLapDense:
    """Dense Galerkin realization of the operator on the active node set.

    ``matrix`` holds the raw stiffness (dual/Galerkin scaling); nodal
    application converts dual values to point values through the
    consistent P1 mass matrix, which cancels the lumped-mass mid-band
    attenuation to fourth order in the frequency.  The omega and w nodes
    are kept both as supergrid indices and as positions in ``active``,
    so ``matrix[np.ix_(w_pos, omega_pos)]`` is the A_WO block.
    """

    s: float
    spec: GridSpec
    active: np.ndarray          # supergrid indices of active nodes
    matrix: np.ndarray          # symmetric stiffness, Galerkin scaling
    omega_idx: np.ndarray       # supergrid indices of the omega nodes
    w_idx: np.ndarray           # supergrid indices of the w nodes
    omega_pos: np.ndarray       # positions of omega_idx in active
    w_pos: np.ndarray           # positions of w_idx in active

    @property
    def n_active(self) -> int:
        return len(self.active)


def active_node_indices(geom: Geometry, spec: GridSpec) -> np.ndarray:
    """Nodes of omega and w, each padded by the separation distance.

    The padding equals the gap between the two intervals, so the padded
    intervals overlap and their union is one contiguous range of nodes.
    """
    d = geom.gap
    x = spec.nodes()
    tol = spec.h * 1e-9
    lo = min(geom.omega[0], geom.w[0])
    hi = max(geom.omega[1], geom.w[1])
    return np.arange(np.searchsorted(x, lo - d - tol, side="left"),
                     np.searchsorted(x, hi + d + tol, side="right"))


def assemble_dense(geom: Geometry, spec: GridSpec) -> FracLapDense:
    """Assemble the dense stiffness matrix over the active node set.

    The active nodes are contiguous, so the matrix is Toeplitz in their
    positions: it is copied out of a strided view whose row i reads the
    lags mirrored about position i, with no index gather.
    """
    idx = active_node_indices(geom, spec)
    n = len(idx)
    lags = stiffness_lags(geom.s, spec.h, n - 1)
    mirrored = np.concatenate([lags[:0:-1], lags])
    A = sliding_window_view(mirrored, n)[::-1].copy()
    omega_idx = np.nonzero(interval_mask(spec, geom.omega))[0]
    w_idx = np.nonzero(interval_mask(spec, geom.w))[0]
    return FracLapDense(s=geom.s, spec=spec, active=idx, matrix=A,
                        omega_idx=omega_idx, w_idx=w_idx,
                        omega_pos=omega_idx - idx[0], w_pos=w_idx - idx[0])


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

    The Galerkin product gives dual values; solving with the consistent
    P1 mass matrix converts them to nodal samples with a symbol error of
    only O((xi h)^4) in the mid band.
    """
    outside = np.ones(u.spec.n_super, dtype=bool)
    outside[op.active] = False
    if np.any(u.values[outside] != 0.0):
        raise SupportError("dense backend needs input supported on active nodes")
    dual = op.matrix @ u.values[op.active]
    return _nodal_from_dual(dual, op.spec.h)
