"""Harmonic-type extension to the upper half plane with weight y^(1-2s).

The unique bounded solution of div(y^(1-2s) grad v) = 0 with trace u is
computed exactly in x through the Fourier-Bessel multiplier

    theta_s(t) = (2^(1-s) / Gamma(s)) t^s K_s(t),   t = |xi| y,

with theta_s(0) = 1 and K_s the modified Bessel function of the second
kind.  For s = 1/2 the multiplier is exp(-t), the classical Poisson
kernel.  The trace identity lim_{y->0} y^(1-2s) d_y v = -d_s (-Lap)^s u
checks this discretization and is not a stage of any run; the tests
evaluate it in tests/oracles.py.

t^s K_s(t) is evaluated in numpy by the standard route for K at
non-integer order (N. M. Temme, J. Comput. Phys. 19 (1975) 324; Numerical
Recipes, section 6.7, bessik).  The order is split as s = n + mu with
n = round(s), so |mu| <= 1/2.  Below t = 2, Temme's series gives K_mu and
K_{mu+1}; from t = 2 on, Steed's continued fraction CF2 gives them.  K_s
is K_mu for n = 0 and K_{mu+1} for n = 1.  Against 40-digit mpmath the
multiplier is within 1e-13 relative for s in [1e-3, 1 - 1e-3] and t in
[1e-40, 700].  theta_s(0) = 1 is set exactly.  Arguments beyond t = 700
underflow (e^-700 ~ 1e-304) and the multiplier is clamped to zero there.
extend evaluates it only up to t = MODE_CUT = 40, beyond which
theta_s(t) < eps/4 for every s, and drops the modes past that cut.

Region quadrature: the y axis carries exact integrals of the weight
y^(1-2s) against the piecewise-linear hat functions of the graded grid,
which handles the weight singularity at y = 0 for every s in (0,1); the
x axis carries trapezoid weights.  Slab bounds are clipped exactly; ball
masks select whole nodes with no partial-cell correction, and their masses
are summed level by level over each level's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gamma, pi, sin

import numpy as np

from .errors import DomainError, EmptyRegionError, GeometryError, ResolutionError
from .geometry import GridFunction, GridSpec, frequencies

#: multiplier argument beyond which K_s underflows; columns clamp to zero
BESSEL_CLAMP = 700.0
#: extend drops modes with t = |xi| y beyond it: theta_s < 3.4e-17 < eps/4
MODE_CUT = 40.0


#: Taylor coefficients in mu^2, highest first, of Temme's
#: gam1(mu) = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu): the odd Taylor
#: coefficients of 1/Gamma(1+z), negated.  The series is summed instead of
#: the quotient, which cancels as mu -> 0; for |mu| <= 1/2 the first
#: omitted term is below 1e-18.
_GAM1 = (-7.782263439905071e-12, 1.18127457048702e-09, -6.116095104481416e-09,
         -1.133027231981696e-06, 2.013485478078824e-05, 0.00021524167411495098,
         -0.0072189432466631, 0.04219773455554433, 0.04200263503409524,
         -0.5772156649015329)
#: points evaluated at once; bounds the working arrays of the series loops
_BLOCK = 1 << 14


def _bessel_k_temme(x: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(K_mu(x), K_{mu+1}(x)) for 0 < x < 2, 0 < |mu| <= 1/2: Temme's series."""
    gampl, gammi = 1 / gamma(1 + mu), 1 / gamma(1 - mu)
    e = -mu * np.log(0.5 * x)
    ff = (pi * mu / sin(pi * mu)) * (np.polyval(_GAM1, mu * mu) * np.cosh(e)
                                     + 0.5 * (gammi + gampl) * np.sinh(e) / mu)
    p = 0.5 * np.exp(e) / gampl
    q = 0.5 * np.exp(-e) / gammi
    k0, k1, c = ff.copy(), p.copy(), np.ones_like(x)
    for i in range(1, 100):         # 13 terms reach 1e-16 at x = 2
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= 0.25 * x * x / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        k0 += term
        k1 += c * (p - i * ff)
        if np.all(np.abs(term) < 1e-16 * k0):
            break
    return k0, 2 * k1 / x


def _bessel_k_steed(x: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(K_mu(x), K_{mu+1}(x)) for x >= 2 and |mu| <= 1/2: Steed's CF2."""
    a1 = 0.25 - mu * mu
    a, c, q, q1, q2 = -a1, a1, a1, 0.0, 1.0
    b = 2 * (1 + x)
    d = h = delh = 1 / b
    ssum = 1 + q * delh
    for i in range(2, 200):         # 81 terms reach 1e-16 at x = 2
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2
        d = 1 / (b + a * d)
        delh = (b * d - 1) * delh
        h = h + delh
        dels = q * delh
        ssum = ssum + dels
        if np.all(np.abs(dels) < 1e-16 * ssum):
            break
    k0 = np.sqrt(pi / (2 * x)) * np.exp(-x) / ssum
    return k0, k0 * (mu + x + 0.5 - a1 * h) / x


def extension_multiplier(t, s: float) -> np.ndarray:
    """theta_s(t) for t >= 0, clamped to zero beyond BESSEL_CLAMP.

    theta_s(t) = 2^(1-s)/Gamma(s) t^s K_s(t) with theta_s(0) = 1 exactly,
    and 0 at t = +inf.  A nan or negative t raises DomainError.
    K_s comes from Temme's series below t = 2 and Steed's CF2 from t = 2
    on (see the module docstring).  The live points are taken in ascending
    order, in blocks of _BLOCK: CF2 needs fewer terms as t grows, and each
    block iterates only as long as its smallest point needs.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t >= 0):
        raise DomainError(f"multiplier needs t >= 0, got {t[~(t >= 0)][0]}")
    out = np.zeros(t.shape)
    flat, tf = out.reshape(-1), t.reshape(-1)
    flat[tf == 0] = 1.0
    live = np.flatnonzero((tf > 0) & (tf <= BESSEL_CLAMP))
    live = live[np.argsort(tf[live])]
    n = round(s)
    mu = s - n
    for lo in range(0, len(live), _BLOCK):
        idx = live[lo:lo + _BLOCK]
        x = tf[idx]
        k = np.empty_like(x)
        small = x < 2
        k[small] = _bessel_k_temme(x[small], mu)[n]
        k[~small] = _bessel_k_steed(x[~small], mu)[n]
        flat[idx] = (2.0 ** (1 - s) / gamma(s)) * x ** s * k
    return out


def default_y_grid(s: float, height: float = 4.0, n_levels: int = 64) -> np.ndarray:
    """Graded heights y_j = Y (j/M)^kappa, j = 0..M, resolving the weight.

    kappa = max(2, 2/(2-2s)) keeps the trapezoid error of the weighted
    quadrature uniform in s as the weight y^(1-2s) degenerates at y = 0.
    GeometryError, naming s, when the heights do not strictly increase:
    close to s = 1 the first ones underflow to 0.
    """
    kappa = max(2.0, 2.0 / (2.0 - 2.0 * s))
    j = np.arange(n_levels + 1, dtype=float)
    y = height * (j / n_levels) ** kappa
    if np.any(np.diff(y) <= 0):
        raise GeometryError(f"at s = {s} the graded heights y_j = {height} "
                            f"(j/{n_levels})^{kappa:.6g} underflow to 0")
    return y


@dataclass(frozen=True, eq=False)
class ExtensionField:
    """v(x_i, y_j) on the tensor grid of ``spec``'s nodes and the heights
    ``y_grid``, for the exponent s.  Region sums read ``values.T`` by
    level, a contiguous row per level for every field extend returns."""

    spec: GridSpec
    y_grid: np.ndarray
    values: np.ndarray          # shape (n_super, len(y_grid))
    s: float


def extend(u: GridFunction, s: float, y_grid: np.ndarray | None = None) -> ExtensionField:
    """Evaluate the extension at every height via the exact multiplier.

    Level y_j keeps the modes with t = |xi| y_j <= MODE_CUT, a prefix of
    the real half spectrum; one multiplier call covers every level's t,
    and each level is the zero-padded inverse real FFT of its modes.
    ``values`` is the transpose of the (levels, n) table, a view.
    """
    if y_grid is None:
        y_grid = default_y_grid(s)
    y = np.asarray(y_grid, dtype=float)
    if (y.ndim != 1 or len(y) < 2 or not np.all(np.isfinite(y))
            or np.any(np.diff(y) <= 0) or y[0] < 0):
        raise GeometryError("y grid must be finite, strictly increasing, nonnegative")
    n = u.spec.n_super
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    live = [np.searchsorted(xi * yj, MODE_CUT, side="right") for yj in y]
    mult = extension_multiplier(
        np.concatenate([xi[:k] * yj for k, yj in zip(live, y)]), s)
    u_hat, levels = np.fft.rfft(u.values), np.empty((len(y), n))
    for j, m in enumerate(np.split(mult, np.cumsum(live[:-1]))):
        levels[j] = np.fft.irfft(u_hat[: len(m)] * m, n=n)
    return ExtensionField(spec=u.spec, y_grid=y, values=levels.T, s=s)


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
    lo, hi = (y[0], y[-1]) if clip is None else clip
    # each cell [y_{j-1}, y_j] clipped to [lo, hi]; a cell outside it
    # collapses to a point and contributes exactly zero
    p, q = _weight_primitive(np.clip(y[:-1], lo, hi), np.clip(y[1:], lo, hi), s)
    dy = np.diff(y)
    wts = np.zeros(len(y))
    wts[1:] += (q - y[:-1] * p) / dy    # rising flank of hat j on cell j
    wts[:-1] += (y[1:] * p - q) / dy    # falling flank of hat j on cell j + 1
    return wts


def trace_mass_sq(spec: GridSpec, values: np.ndarray, x0: float, r):
    """integral of |u|^2 over (x0-r, x0+r), piecewise-linear in u^2.

    The cumulative trapezoid of the squared trace is interpolated at the
    interval endpoints, so the mass is exactly smooth in r; boundary
    scans rely on this to keep power-law fits free of mask jitter.  An
    array of radii r shares one trapezoid and gives an array of masses.
    """
    x = spec.nodes()
    v2 = np.asarray(values, dtype=float) ** 2
    cum = np.concatenate([[0.0], np.cumsum((v2[1:] + v2[:-1]) * spec.h / 2)])
    return np.maximum(np.interp(x0 + r, x, cum) - np.interp(x0 - r, x, cum),
                      0.0)


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
        levels = np.flatnonzero(yw)
        if not levels.size:
            raise EmptyRegionError(f"y interval {region.y_interval} empty")
        # only the levels the slab reaches, so the sum is the same however
        # many levels lie above it (weighted_gradient_norm drops those)
        cols = slice(levels[0], levels[-1] + 1)
        block = field_values[xmask, cols] ** 2
        return float(xw @ block @ yw[cols])
    if region.kind in ("half_ball", "annulus"):
        yw = y_quadrature_weights(y, s)
        x0, y0 = region.center
        r2 = region.radius ** 2
        # squared hole radius: 0 for a half-ball, which every rr >= 0 clears
        hole2 = (region.radius / 2) ** 2 if region.kind == "annulus" else 0.0
        # only rows with |x - x0| < r, one slice of the sorted nodes, can
        # hold nodes of the ball
        near = np.flatnonzero(np.abs(x - x0) < region.radius)
        rows = slice(near[0], near[-1] + 1) if near.size else slice(0)
        dx2, dy2 = (x[rows] - x0) ** 2, (y - y0) ** 2
        mass, hit = 0.0, False
        # sum level by level; levels with (y_j - y0)^2 >= r^2 hold no node
        for j in np.flatnonzero(dy2 < r2):
            rr = dx2 + dy2[j]
            seg = field_values.T[j, rows][(rr < r2) & (rr >= hole2)]
            hit = hit or seg.size > 0
            mass += yw[j] * (seg @ seg)
        if not hit:
            raise EmptyRegionError(f"no tensor nodes in {region}")
        return float(spec.h * mass)
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
    above the region and carry none of its mass.  ResolutionError when
    the mass is not finite: close to s = 1 the first heights are so small
    that the y differences overflow.
    """
    _check_region_in_box(field, region)
    top = (region.y_interval[1] if region.kind == "slab"
           else region.center[1] + region.radius)
    keep = min(int(np.searchsorted(field.y_grid, top)) + 2, len(field.y_grid))
    y = field.y_grid[:keep]
    with np.errstate(all="ignore"):
        dx, dy = gradient_components(
            replace(field, y_grid=y, values=field.values[:, :keep]))
        m2 = (_region_mass_sq(dx, field.spec, y, field.s, region)
              + _region_mass_sq(dy, field.spec, y, field.s, region))
    if not np.isfinite(m2):
        raise ResolutionError(f"weighted gradient mass {m2} at s = {field.s}:"
                              f" the heights from y_1 = {y[1]:.3g} on are "
                              "too small to difference")
    return float(np.sqrt(m2))
