"""Discrete Sobolev norms on the periodic supergrid.

The H^t norm of a grid function is evaluated through the discrete Fourier
transform with the unitary continuum normalization,

    ||g||_t^2 = sum_k (1 + xi_k^2)^t |ghat_k|^2 dxi,

where ghat_k = h * FFT(g)_k / sqrt(2 pi) and dxi = 2 pi / (n h).  With this
scaling the t = 0 norm coincides with the discrete L2(R) norm exactly
(Parseval), and norms of different orders obey the interpolation inequality
by Cauchy-Schwarz on the frequency sum.

Negative orders on the measurement window realize the dual-norm surrogate:
the H^{-s} norm of the zero extension, an upper bound for the quotient
H^{-s}(w) norm.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SupportError, ZeroDataError
from .geometry import (Geometry, GridFunction, GridSpec, Potential,
                       frequencies, interval_mask, support_mask)


def fourier_coefficients(g: GridFunction) -> np.ndarray:
    """Samples of the (unitary-convention) continuum Fourier transform."""
    return g.spec.h * np.fft.fft(g.values) / np.sqrt(2.0 * np.pi)


def sobolev_norm(g: GridFunction, t: float) -> float:
    """Discrete H^t(R) norm of a grid function.

    For t = 0 this equals the discrete L2 norm sqrt(h) |g|_2 up to
    roundoff (Parseval); it is monotone nondecreasing in t because every
    frequency weight (1+xi^2)^t is.
    """
    ghat = fourier_coefficients(g)
    xi = frequencies(g.spec)
    dxi = 2.0 * np.pi / (g.spec.n_super * g.spec.h)
    weights = (1.0 + xi * xi) ** t
    return float(np.sqrt(np.sum(weights * np.abs(ghat) ** 2) * dxi))


def dual_norm_on_window(geom: Geometry, g: GridFunction, s: float) -> float:
    """H^{-s} surrogate norm of data supported on the window w.

    The zero extension of g is measured in H^{-s}(R); this upper-bounds the
    quotient H^{-s}(w) norm and is never larger than the L2 norm.
    """
    outside = ~support_mask(geom, g.spec, "w")
    if np.any(g.values[outside] != 0.0):
        raise SupportError("dual norm requires data supported in w")
    return sobolev_norm(g, -s)


def oscillation_ratio(geom: Geometry, f: GridFunction, s: float) -> float:
    """H^s-to-L2 norm ratio of the data; measures its oscillation."""
    if not np.any(f.values):
        raise ZeroDataError("oscillation ratio undefined for f = 0")
    return sobolev_norm(f, s) / sobolev_norm(f, 0.0)


def holder_norm(geom: Geometry, spec: GridSpec, values: np.ndarray,
                s: float) -> float:
    """Full discrete C^{0,s} norm over omega: seminorm plus sup.

    The pair search is capped at |x - y| <= 1; over longer distances the
    difference quotient is dominated by 2 sup|q|, which is included as a
    closed-form candidate.  An all-zero q returns 0 at once.  Otherwise
    each unordered pair is formed once, on the band of lags that can hold
    |x - y| <= 1: row i of a sliding window over the nodes (padded with
    +inf, so padded pairs fail the cap) holds the nodes right of x_i.
    """
    mask = interval_mask(spec, geom.omega)
    x = spec.nodes()[mask]
    q = np.asarray(values, dtype=float)[mask]
    supq = float(np.max(np.abs(q))) if q.size else 0.0
    if q.size < 2 or supq == 0.0:
        return supq
    n = q.size
    # beyond this lag every pair is at least 1 + h apart
    band = int(np.ceil(1.0 / spec.h)) + 1
    xr = sliding_window_view(np.concatenate([x, np.full(band, np.inf)]),
                             band + 1)[:n, 1:]
    qr = sliding_window_view(np.concatenate([q, np.zeros(band)]),
                             band + 1)[:n, 1:]
    dx = xr - x[:, None]
    near = dx <= 1.0
    dq = np.abs(qr - q[:, None])
    semi = float(np.max(dq[near] / dx[near] ** s)) if np.any(near) else 0.0
    semi = max(semi, 2.0 * supq)
    return semi + supq


def make_potential(geom: Geometry, values: GridFunction,
                   holder_bound: float | None = None,
                   sup_bound: float | None = None) -> Potential:
    """Attach a priori bounds to a potential, measuring them if absent."""
    spec = values.spec
    outside = ~support_mask(geom, spec, "omega_prime")
    if np.any(values.values[outside] != 0.0):
        raise SupportError("potential must be supported in omega_prime")
    sup = float(np.max(np.abs(values.values)))
    if sup_bound is None:
        sup_bound = sup
    elif sup > sup_bound:
        raise ValueError(f"sup |q| = {sup} exceeds declared bound {sup_bound}")
    measured = holder_norm(geom, spec, values.values, geom.s)
    if holder_bound is None:
        holder_bound = measured
    elif measured > holder_bound * (1 + 1e-12):
        raise ValueError(
            f"C^{{0,s}} norm {measured} exceeds declared bound {holder_bound}")
    return Potential(values=values, holder_bound=float(holder_bound),
                     sup_bound=float(sup_bound))
