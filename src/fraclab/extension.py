"""Harmonic-type extension to the upper half plane with weight y^(1-2s).

The unique bounded solution of div(y^(1-2s) grad v) = 0 with trace u is
computed exactly in x through the Fourier-Bessel multiplier

    theta_s(t) = (2^(1-s) / Gamma(s)) t^s K_s(t),   t = |xi| y,

with theta_s(0) = 1 and K_s the modified Bessel function of the second
kind.  For s = 1/2 the multiplier is exp(-t), the classical Poisson
kernel.  The weighted normal derivative at y = 0 recovers the fractional
Laplacian:

    lim_{y->0} y^(1-2s) d_y v = -d_s (-Lap)^s u,
    d_s = 2^(1-2s) Gamma(1-s) / Gamma(s).

K_s comes from scipy's exponentially scaled kve(s, t) = e^t K_s(t), and
theta_s(0) = 1 is set exactly.  Arguments beyond t = 700 underflow
(e^-700 ~ 1e-304) and the multiplier is clamped to zero there.
scipy.special is imported on the first call, so importing fraclab does
not pay for it.

Region quadrature: the y axis carries exact integrals of the weight
y^(1-2s) against the piecewise-linear hat functions of the graded grid,
which handles the weight singularity at y = 0 for every s in (0,1); the
x axis carries trapezoid weights.  Slab bounds are clipped exactly; ball
masks select whole nodes with no partial-cell correction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gamma

import numpy as np

from .errors import EmptyRegionError, GeometryError, ResolutionError
from .geometry import GridFunction, GridSpec, frequencies

#: multiplier argument beyond which K_s underflows; columns clamp to zero
BESSEL_CLAMP = 700.0


def trace_constant(s: float) -> float:
    """d_s = 2^(1-2s) Gamma(1-s) / Gamma(s); equals 1 at s = 1/2."""
    return 2.0 ** (1 - 2 * s) * gamma(1 - s) / gamma(s)


def extension_multiplier(t, s: float) -> np.ndarray:
    """theta_s(t) for t >= 0, clamped to zero beyond BESSEL_CLAMP.

    theta_s(t) = 2^(1-s)/Gamma(s) t^s kve(s, t) e^(-t), with kve(s, t) =
    e^t K_s(t); theta_s(0) = 1 exactly.
    """
    from scipy.special import kve

    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t == 0] = 1.0
    live = (t > 0) & (t <= BESSEL_CLAMP)
    tl = t[live]
    out[live] = (2.0 ** (1 - s) / gamma(s)) * tl ** s * kve(s, tl) * np.exp(-tl)
    return out


def default_y_grid(s: float, height: float = 4.0, n_levels: int = 64) -> np.ndarray:
    """Graded heights y_j = Y (j/M)^kappa, j = 0..M, resolving the weight.

    kappa = max(2, 2/(2-2s)) keeps the trapezoid error of the weighted
    quadrature uniform in s as the weight y^(1-2s) degenerates at y = 0.
    """
    kappa = max(2.0, 2.0 / (2.0 - 2.0 * s))
    j = np.arange(n_levels + 1, dtype=float)
    return height * (j / n_levels) ** kappa


@dataclass(frozen=True, eq=False)
class ExtensionField:
    """v(x_i, y_j) on the tensor grid, plus the data defining it."""

    spec: GridSpec
    y_grid: np.ndarray
    values: np.ndarray          # shape (n_super, len(y_grid))
    s: float
    d_s: float
    boundary: np.ndarray        # trace values u(x_i)


def extend(u: GridFunction, s: float, y_grid: np.ndarray | None = None) -> ExtensionField:
    """Evaluate the extension at every height via the exact multiplier.

    The multiplier table over (|xi| of the real half spectrum, y) is built
    at once and one inverse real FFT along x gives every height level.
    """
    if y_grid is None:
        y_grid = default_y_grid(s)
    y = np.asarray(y_grid, dtype=float)
    if y.ndim != 1 or len(y) < 2 or np.any(np.diff(y) <= 0) or y[0] < 0:
        raise GeometryError("y grid must be strictly increasing and nonnegative")
    n = u.spec.n_super
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    mult = extension_multiplier(np.outer(xi, y), s)
    cols = np.fft.irfft(np.fft.rfft(u.values)[:, None] * mult, n=n, axis=0)
    return ExtensionField(spec=u.spec, y_grid=y, values=cols, s=s,
                          d_s=trace_constant(s), boundary=u.values.copy())


def neumann_trace_fd(field: ExtensionField) -> np.ndarray:
    """Finite-difference estimate of (-Lap)^s u from the smallest heights.

    Graded differences D_k = (col_{k+1} - col_k) * 2s / (y_{k+1}^2s - y_k^2s)
    tend to -d_s (-Lap)^s u with leading correction O(y^(2-2s)); the first
    two are Richardson-extrapolated in that power.
    """
    s = field.s
    y = field.y_grid
    if np.count_nonzero(y[y > 0] < 1e-2) < 3:
        raise ResolutionError("need at least 3 positive heights below 1e-2")
    idx = np.nonzero(y > 0)[0][:3]
    cols = [field.values[:, i] for i in idx]
    ys = y[idx]
    d1 = (cols[1] - cols[0]) * 2 * s / (ys[1] ** (2 * s) - ys[0] ** (2 * s))
    d2 = (cols[2] - cols[1]) * 2 * s / (ys[2] ** (2 * s) - ys[1] ** (2 * s))
    p1 = (0.5 * (ys[0] + ys[1])) ** (2 - 2 * s)
    p2 = (0.5 * (ys[1] + ys[2])) ** (2 - 2 * s)
    d0 = d1 - (d2 - d1) * p1 / (p2 - p1)
    return -d0 / field.d_s


def neumann_trace(field: ExtensionField, max_rel_gap: float = 0.05) -> GridFunction:
    """Weighted normal derivative at y = 0, normalized to (-Lap)^s u.

    The exact multiplier limit reproduces the spectral fractional
    Laplacian; the graded finite-difference estimate cross-checks it and
    a ResolutionError is raised when the two routes disagree by more than
    max_rel_gap in relative L2.
    """
    s = field.s
    xi = np.abs(frequencies(field.spec))
    spectral = np.real(np.fft.ifft(xi ** (2 * s) * np.fft.fft(field.boundary)))
    fd = neumann_trace_fd(field)
    ref = np.linalg.norm(spectral)
    gap = np.linalg.norm(fd - spectral) / ref if ref > 0 else np.linalg.norm(fd)
    if gap > max_rel_gap:
        raise ResolutionError(
            f"finite-difference trace deviates from spectral by {gap:.3g}")
    return GridFunction(spec=field.spec, values=spectral, support="box")


@dataclass(frozen=True)
class Region:
    """Integration region in the closed upper half plane.

    kinds: "half_ball" (center on y=0 or interior, mask x^2+y^2 < r^2),
    "annulus" (B_R^+ minus B_{R/2}^+) and "slab" (x_interval x
    y_interval).
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    x_interval: tuple[float, float] | None = None
    y_interval: tuple[float, float] | None = None


def _weight_primitive(a, b, s):
    """(integral_a^b y^(1-2s) dy, integral_a^b y^(2-2s) dy), vectorized."""
    p = (b ** (2 - 2 * s) - a ** (2 - 2 * s)) / (2 - 2 * s)
    q = (b ** (3 - 2 * s) - a ** (3 - 2 * s)) / (3 - 2 * s)
    return p, q


def y_quadrature_weights(y: np.ndarray, s: float,
                         clip: tuple[float, float] | None = None) -> np.ndarray:
    """Exact integrals of y^(1-2s) against the hat functions of the y grid.

    With clip=(lo, hi), every hat is integrated over its intersection with
    [lo, hi]; the weights then sum exactly to the weighted measure of the
    clipped interval, so slab quadrature is exact for constants.
    """
    n = len(y)
    wts = np.zeros(n)
    lo = clip[0] if clip is not None else y[0]
    hi = clip[1] if clip is not None else y[-1]
    for j in range(n):
        # rising flank over [y_{j-1}, y_j]
        if j > 0:
            a, b = max(y[j - 1], lo), min(y[j], hi)
            if b > a:
                p, q = _weight_primitive(a, b, s)
                wts[j] += (q - y[j - 1] * p) / (y[j] - y[j - 1])
        # falling flank over [y_j, y_{j+1}]
        if j < n - 1:
            a, b = max(y[j], lo), min(y[j + 1], hi)
            if b > a:
                p, q = _weight_primitive(a, b, s)
                wts[j] += (y[j + 1] * p - q) / (y[j + 1] - y[j])
    return wts


def trace_mass_sq(spec: GridSpec, values: np.ndarray, x0: float,
                  r: float) -> float:
    """integral of |u|^2 over (x0-r, x0+r), piecewise-linear in u^2.

    The cumulative trapezoid of the squared trace is interpolated at the
    interval endpoints, so the mass is exactly smooth in r; boundary
    scans rely on this to keep power-law fits free of mask jitter.
    """
    x = spec.nodes()
    v2 = np.asarray(values, dtype=float) ** 2
    cum = np.concatenate([[0.0], np.cumsum((v2[1:] + v2[:-1]) * spec.h / 2)])
    lo = float(np.interp(x0 - r, x, cum))
    hi = float(np.interp(x0 + r, x, cum))
    return max(hi - lo, 0.0)


def _region_mass_sq(field_values: np.ndarray, spec: GridSpec, y: np.ndarray,
                    s: float, region: Region) -> float:
    x = spec.nodes()
    if region.kind == "slab":
        xa, xb = region.x_interval
        ya, yb = region.y_interval
        # exact cell clipping: weights sum to the interval length always
        cell_lo = np.maximum(x - spec.h / 2, xa)
        cell_hi = np.minimum(x + spec.h / 2, xb)
        xw_full = np.maximum(cell_hi - cell_lo, 0.0)
        xmask = xw_full > 0
        if not np.any(xmask):
            raise EmptyRegionError(f"no x nodes in {region}")
        xw = xw_full[xmask]
        yw = y_quadrature_weights(y, s, clip=(ya, yb))
        if not np.any(yw):
            raise EmptyRegionError(f"y interval {region.y_interval} empty")
        block = field_values[xmask, :] ** 2
        return float(xw @ block @ yw)
    if region.kind in ("half_ball", "annulus"):
        yw = y_quadrature_weights(y, s)
        x0, y0 = region.center
        # only rows with |x - x0| < r can hold nodes of the ball
        rows = np.abs(x - x0) < region.radius
        rr = (x[rows, None] - x0) ** 2 + (y[None, :] - y0) ** 2
        if region.kind == "half_ball":
            mask = rr < region.radius ** 2
        else:
            mask = (rr < region.radius ** 2) & (rr >= (region.radius / 2) ** 2)
        if not np.any(mask):
            raise EmptyRegionError(f"no tensor nodes in {region}")
        w2 = field_values[rows, :] ** 2
        return float(spec.h * np.sum((w2 * yw[None, :])[mask]))
    raise ValueError(f"unknown region kind {region.kind!r}")


def weighted_norm(field: ExtensionField, region: Region) -> float:
    """L2 norm of the field over the region with weight y^(1-2s)."""
    _check_region_in_box(field, region)
    return float(np.sqrt(_region_mass_sq(field.values, field.spec,
                                         field.y_grid, field.s, region)))


def _check_region_in_box(field: ExtensionField, region: Region) -> None:
    L = -field.spec.origin + field.spec.h / 2
    Y = field.y_grid[-1]
    if region.kind == "slab":
        xa, xb = region.x_interval
        ya, yb = region.y_interval
        ok = -L <= xa < xb <= L and 0 <= ya < yb <= Y
    else:
        x0, y0 = region.center
        ok = (-L <= x0 - region.radius and x0 + region.radius <= L
              and y0 + region.radius <= Y and y0 >= 0)
    if not ok:
        raise GeometryError(f"region {region} leaves the computational box")


def gradient_components(field: ExtensionField) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the field: spectral in x, graded differences in y.

    The y derivative uses non-uniform centered differences at interior
    heights and one-sided stencils at the first and last height.
    """
    n = field.spec.n_super
    xi = frequencies(field.spec)[: n // 2 + 1]
    # irfft drops the imaginary Nyquist term, as the real part of ifft does;
    # one expression, so the spectrum is freed before dy is allocated
    dx = np.fft.irfft(1j * xi[:, None] * np.fft.rfft(field.values, axis=0),
                      n=n, axis=0)
    y = field.y_grid
    v = field.values
    dy = np.empty_like(v)
    dy[:, 0] = (v[:, 1] - v[:, 0]) / (y[1] - y[0])
    dy[:, -1] = (v[:, -1] - v[:, -2]) / (y[-1] - y[-2])
    for j in range(1, len(y) - 1):
        hl = y[j] - y[j - 1]
        hr = y[j + 1] - y[j]
        dy[:, j] = (hl * hl * v[:, j + 1] - hr * hr * v[:, j - 1]
                    + (hr * hr - hl * hl) * v[:, j]) / (hl * hr * (hl + hr))
    return dx, dy


def weighted_gradient_norm(field: ExtensionField, region: Region) -> float:
    """Weighted L2 norm of the gradient over the region.

    Only the heights the region reaches are differentiated: the levels up
    to the first one at or above the region's top, and one more so that
    this level keeps its centered y difference.  The levels left out lie
    above the region and carry none of its mass.
    """
    _check_region_in_box(field, region)
    top = (region.y_interval[1] if region.kind == "slab"
           else region.center[1] + region.radius)
    keep = min(int(np.searchsorted(field.y_grid, top)) + 2, len(field.y_grid))
    y = field.y_grid[:keep]
    dx, dy = gradient_components(
        replace(field, y_grid=y, values=field.values[:, :keep]))
    m2 = (_region_mass_sq(dx, field.spec, y, field.s, region)
          + _region_mass_sq(dy, field.spec, y, field.s, region))
    return float(np.sqrt(m2))
