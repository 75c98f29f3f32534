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
masks select whole nodes with no partial-cell correction.  Every region,
for the field and for its gradient alike, is summed in one loop over the
height levels it reaches, reading each level on the region's contiguous
node rows only.  A field holds its levels on one contiguous run of nodes
(extend's ``rows``, the whole box by default), and a region must lie in
their cells.  Each level is still transformed over the whole box, so the
held values are the whole-box field's rows bit for bit, and the x
derivative reads the level's spectrum, which the field keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """v(x_i, y_j) on the supergrid nodes ``rows`` of ``spec`` and the
    heights ``y_grid``, for the exponent s.  Region sums read ``values.T``
    one level at a time, on the region's rows; each level is a contiguous
    row for every field extend returns.  Level j over the whole box is
    irfft(u_hat[:K_j] * theta[j], n_super), where theta[j] holds the
    multipliers of the level's K_j live modes; the x derivative reads it."""

    spec: GridSpec
    y_grid: np.ndarray
    values: np.ndarray          # shape (len(rows), len(y_grid))
    s: float
    rows: slice                 # the held nodes, contiguous
    u_hat: np.ndarray           # real half spectrum of the trace
    theta: tuple                # per level: multipliers of its live modes


def extend(u: GridFunction, s: float, y_grid: np.ndarray | None = None,
           rows: slice = slice(None)) -> ExtensionField:
    """Evaluate the extension at every height via the exact multiplier,
    and hold it on the node slice ``rows`` (default: the whole box).

    Level y_j keeps the modes with t = |xi| y_j <= MODE_CUT, a prefix of
    the real half spectrum; one multiplier call covers every level's t,
    and each level is the zero-padded inverse real FFT of its modes over
    the whole box, of which only ``rows`` is stored.  ``values`` is the
    transpose of the (levels, rows) table, a view.
    """
    if y_grid is None:
        y_grid = default_y_grid(s)
    y = np.asarray(y_grid, dtype=float)
    if (y.ndim != 1 or len(y) < 2 or not np.all(np.isfinite(y))
            or np.any(np.diff(y) <= 0) or y[0] < 0):
        raise GeometryError("y grid must be finite, strictly increasing, nonnegative")
    n = u.spec.n_super
    first, last, _ = rows.indices(n)
    rows = slice(first, last)
    xi = np.abs(frequencies(u.spec)[: n // 2 + 1])
    live = [np.searchsorted(xi * yj, MODE_CUT, side="right") for yj in y]
    mult = extension_multiplier(
        np.concatenate([xi[:k] * yj for k, yj in zip(live, y)]), s)
    theta = tuple(np.split(mult, np.cumsum(live[:-1])))
    u_hat, levels = np.fft.rfft(u.values), np.empty((len(y), last - first))
    for j, m in enumerate(theta):
        levels[j] = np.fft.irfft(u_hat[: len(m)] * m, n=n)[rows]
    return ExtensionField(spec=u.spec, y_grid=y, values=levels.T, s=s,
                          rows=rows, u_hat=u_hat, theta=theta)


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


def y_quadrature_weights(y: np.ndarray, s: float,
                         clip: tuple[float, float] | None = None) -> np.ndarray:
    """Exact integrals of y^(1-2s) against the hat functions of the y grid.

    With clip=(lo, hi), every hat is integrated over its intersection with
    [lo, hi]; the weights then sum exactly to the weighted measure of the
    clipped interval, so slab quadrature is exact for constants.
    """
    lo, hi = (y[0], y[-1]) if clip is None else clip
    # each cell [a, b] = [y_{j-1}, y_j] clipped to [lo, hi], where p and q
    # integrate y^(1-2s) and y^(2-2s); a cell outside [lo, hi] collapses
    # to a point and contributes exactly zero
    a, b = np.clip(y[:-1], lo, hi), np.clip(y[1:], lo, hi)
    p = (b ** (2 - 2 * s) - a ** (2 - 2 * s)) / (2 - 2 * s)
    q = (b ** (3 - 2 * s) - a ** (3 - 2 * s)) / (3 - 2 * s)
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


def _region_mass_sq(field: ExtensionField, region: Region, level) -> float:
    """Weighted mass over the region, where ``level(j, rows)`` gives the
    field at height j on the node slice ``rows`` of the field's held
    rows.  GeometryError when the region leaves the cells of those rows
    (for a whole-box field, the box) or the y grid."""
    spec, y, s, h = field.spec, field.y_grid, field.s, field.spec.h
    held = field.rows
    lo = spec.origin + h * held.start - h / 2
    hi = spec.origin + h * (held.stop - 1) + h / 2
    if region.kind == "slab":
        (xa, xb), (ya, yb) = region.x_interval, region.y_interval
        inside = lo <= xa < xb <= hi and 0 <= ya < yb <= y[-1]
    elif region.kind in ("half_ball", "annulus"):
        (x0, y0), r = region.center, region.radius
        xa, xb = x0 - r, x0 + r
        inside = lo <= xa and xb <= hi and y0 + r <= y[-1] and y0 >= 0
    else:
        raise ValueError(f"unknown region kind {region.kind!r}")
    if not inside:
        raise GeometryError(f"region {region} leaves the field's cells "
                            f"[{lo:.6g}, {hi:.6g}] x [0, {y[-1]:.6g}]")
    # the rows pass the exact predicate (|x - x0| < r, or a clipped cell
    # width > 0) on the nodes one cell beyond [xa, xb], clamped to the
    # held rows, which drops no node of a region inside their cells; x
    # equals spec.nodes()[first:last] bit for bit
    first = max(int(np.floor((xa - spec.origin) / h)) - 1, held.start)
    last = min(int(np.ceil((xb - spec.origin) / h)) + 2, held.stop)
    x = spec.origin + h * np.arange(first, last)
    if region.kind == "slab":
        # exact cell clipping: weights sum to the interval length always
        xw = np.maximum(np.minimum(x + h / 2, xb) - np.maximum(x - h / 2, xa),
                        0.0)
        near = np.flatnonzero(xw > 0)
    else:
        near = np.flatnonzero(np.abs(x - x0) < r)
    if not near.size:
        raise EmptyRegionError(f"no tensor nodes in {region}")
    cut = slice(near[0], near[-1] + 1)
    off = first - held.start        # rows count from the first held node
    rows = slice(off + near[0], off + near[-1] + 1)
    if region.kind == "slab":
        yw = y_quadrature_weights(y, s, clip=(ya, yb))
        levels = np.flatnonzero(yw)
        if not levels.size:
            raise EmptyRegionError(f"y interval {region.y_interval} empty")
        mass = 0.0
        for j in levels:
            mass += yw[j] * (xw[cut] @ level(j, rows) ** 2)
        return float(mass)
    yw = y_quadrature_weights(y, s)
    r2 = r ** 2
    # squared hole radius: 0 for a half-ball, which every rr >= 0 clears
    hole2 = (r / 2) ** 2 if region.kind == "annulus" else 0.0
    dx2, dy2 = (x[cut] - x0) ** 2, (y - y0) ** 2
    mass, hit = 0.0, False
    # levels with (y_j - y0)^2 >= r^2 hold no node
    for j in np.flatnonzero(dy2 < r2):
        rr = dx2 + dy2[j]
        seg = level(j, rows)[(rr < r2) & (rr >= hole2)]
        hit = hit or seg.size > 0
        mass += yw[j] * (seg @ seg)
    if not hit:
        raise EmptyRegionError(f"no tensor nodes in {region}")
    return float(h * mass)


def weighted_norm(field: ExtensionField, region: Region) -> float:
    """L2 norm of the field over the region with weight y^(1-2s)."""
    return float(np.sqrt(_region_mass_sq(
        field, region, lambda j, rows: field.values.T[j, rows])))


def weighted_gradient_norm(field: ExtensionField, region: Region) -> float:
    """Weighted L2 norm of the gradient over the region.

    Each level's derivatives are formed when the region quadrature reads
    it, on the region's rows only: d/dx spectrally from the level's own
    modes, u_hat[:K_j] * theta[j], which the held rows alone do not give;
    d/dy by graded differences on the whole y grid (centred at interior
    heights, one-sided at the first and last).  ResolutionError when the
    mass is not finite: close to s = 1 the first heights are so small that
    the y differences overflow.
    """
    n, y, v = field.spec.n_super, field.y_grid, field.values.T
    xi = frequencies(field.spec)[: n // 2 + 1]

    def dx(j, rows):
        m = field.theta[j]
        # irfft drops the imaginary Nyquist term, as ifft's real part does
        return np.fft.irfft(1j * (xi[: len(m)] * m * field.u_hat[: len(m)]),
                            n=n)[field.rows][rows]

    def dy(j, rows):
        if j == 0:
            return (v[1, rows] - v[0, rows]) / (y[1] - y[0])
        if j == len(y) - 1:
            return (v[j, rows] - v[j - 1, rows]) / (y[j] - y[j - 1])
        hl, hr = y[j] - y[j - 1], y[j + 1] - y[j]
        return (hl * hl * v[j + 1, rows] - hr * hr * v[j - 1, rows]
                + (hr * hr - hl * hl) * v[j, rows]) / (hl * hr * (hl + hr))

    with np.errstate(all="ignore"):
        m2 = (_region_mass_sq(field, region, dx)
              + _region_mass_sq(field, region, dy))
    if not np.isfinite(m2):
        raise ResolutionError(f"weighted gradient mass {m2} at s = {field.s}:"
                              f" the heights from y_1 = {y[1]:.3g} on are "
                              "too small to difference")
    return float(np.sqrt(m2))
