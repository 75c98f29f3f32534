"""Quantitative unique-continuation diagnostics on extension fields.

Each routine evaluates both sides of one a priori inequality on a concrete
solution and reports the implied constant; nothing here asserts the
inequality, since the analytic constants are not numeric.  Fitted
quantities (vanishing order, annulus exponents) are descriptive
least-squares measurements that downstream regression tests lock against
golden envelopes.

The radial weight used in the doubling machinery is

    psi(r) = -ln r + (1/10) (ln r * arctan(ln r) - (1/2) ln(1 + ln^2 r)),

whose increment |psi(r) - psi(4r)| stays inside a fixed positive band on
(0, 1]; the band endpoints are scanned, not asserted from theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateError, DomainError, GeometryError,
                     ZeroDataError, ZeroMassError)
from .extension import (ExtensionField, Region, trace_mass_sq,
                        weighted_gradient_norm, weighted_norm)
from .geometry import Geometry, GridFunction
from .spaces import oscillation_ratio, sobolev_norm


@dataclass(frozen=True)
class LemmaCheck:
    """Both sides of one inequality plus the implied constant; the fields,
    in order, are the columns of lemma_checks.csv."""

    name: str
    lhs: float
    rhs_core: float
    implied_constant: float


@dataclass(frozen=True, eq=False)
class DoublingReport:
    """Mass-vs-radius scan with doubling ratios and a power-law fit."""

    radii: np.ndarray
    masses: np.ndarray
    ratios: np.ndarray          # N(2r) / N(r), one per radius
    beta_hat: float
    c_hat: float
    fit_residual: float         # sup |log N - fit| over the scan
    r0: float
    mode: str                   # "bulk" or "boundary"


def carleman_weight(r):
    """Radial weight psi(r), elementwise; psi(1) = 0, slightly convexified."""
    if np.min(r) <= 0:
        raise DomainError(f"carleman weight needs r > 0, got {np.min(r)}")
    lr = np.log(r)
    return -lr + 0.1 * (lr * np.arctan(lr) - 0.5 * np.log1p(lr * lr))


def check_scan(geom: Geometry, x0: float, radii=(), divisor: float = 1.0):
    """Sorted radii and r0 = dist(x0, boundary)/divisor for a centre x0.

    The one home of the scan-centre rule: x0 must lie inside omega and
    no radius may exceed r0.  With the defaults, r0 is the distance.
    """
    if not (geom.omega[0] < x0 < geom.omega[1]):
        raise GeometryError(f"center {x0} outside omega")
    r0 = min(x0 - geom.omega[0], geom.omega[1] - x0) / divisor
    radii = np.asarray(sorted(radii), dtype=float)
    if np.any(radii > r0 * (1 + 1e-12)):
        raise GeometryError(f"radius {radii.max()} exceeds r0 = {r0}")
    return radii, r0


def caccioppoli_check(geom: Geometry, field: ExtensionField, q_sup: float,
                      x0: float, r: float) -> LemmaCheck:
    """Weighted gradient over B_r^+ against weighted mass over B_2r^+.

    rhs core is (1 + |q|_inf^(1/2s)) r^-1 N(2r); the hypothesis needs
    4r within the distance from x0 to the domain boundary.
    """
    _, dist = check_scan(geom, x0)
    if 4 * r > dist:
        raise GeometryError(
            f"4r = {4*r} exceeds dist(x0, boundary) = {dist}")
    s = field.s
    lhs = weighted_gradient_norm(field, Region("half_ball", (x0, 0.0), r))
    n2r = weighted_norm(field, Region("half_ball", (x0, 0.0), 2 * r))
    rhs_core = (1.0 + q_sup ** (1.0 / (2 * s))) / r * n2r
    implied = lhs / rhs_core if rhs_core > 0 else 0.0
    return LemmaCheck("caccioppoli", lhs, rhs_core, implied)


def persistence_check(geom: Geometry, field: ExtensionField, f: GridFunction,
                      h: float) -> LemmaCheck:
    """Mass of the extension on the slab w x [h, 1] against the data norms.

    rhs = (F^(-1/s) - h) |f|_{H^s} - h^(1-s)/sqrt(2s) |f|_{L2}, with F the
    oscillation ratio of f; the implied constant is lhs / rhs, or inf
    where rhs is not positive.
    """
    if not 0 < h < 1:
        raise DomainError(f"slab height must lie in (0,1), got {h}")
    if not np.any(f.values):
        raise ZeroDataError("persistence bound needs f != 0")
    s = field.s
    fhs = sobolev_norm(f, s)
    fl2 = sobolev_norm(f, 0.0)
    F = fhs / fl2               # the oscillation ratio of f
    c_s = 1.0 / np.sqrt(2 * s)
    lhs = weighted_norm(field, Region("slab", x_interval=geom.w,
                                      y_interval=(h, 1.0)))
    rhs = (F ** (-1.0 / s) - h) * fhs - c_s * h ** (1 - s) * fl2
    implied = lhs / rhs if rhs > 0 else float("inf")
    return LemmaCheck("persistence", lhs, rhs, implied)


def annulus_ratio(geom: Geometry, field: ExtensionField, f: GridFunction,
                  R: float) -> LemmaCheck:
    """Mass of B_2R^+ over the annulus B_R^+ minus B_{R/2}^+, both at x = 0.

    The implied exponent log(ratio)/log(F) is descriptive only.
    """
    ball = weighted_norm(field, Region("half_ball", (0.0, 0.0), 2 * R))
    ann = weighted_norm(field, Region("annulus", (0.0, 0.0), R))
    if ball == 0.0 or ann < 1e-14 * ball:
        raise ZeroMassError("annulus mass is numerically zero")
    lhs = ball / ann
    F = oscillation_ratio(geom, f)
    gamma_hat = float(np.log(lhs) / np.log(F)) if F > 1 else float("nan")
    return LemmaCheck("annulus", lhs, F, gamma_hat)


def fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares log y = slope log x + intercept, for positive x and y.

    Returns (slope, intercept, sup |log y - fit|); DegenerateError when
    fewer than two x are distinct, DomainError when a log is not finite
    (an overflowed mass is inf or nan).
    """
    if len(set(x)) < 2:
        raise DegenerateError("a log-log fit needs two distinct x")
    with np.errstate(divide="ignore", invalid="ignore"):
        lx, ly = np.log(x), np.log(y)
    if not (np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))):
        raise DomainError("a log-log fit needs finite positive x and y")
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.max(np.abs(ly - A @ coef)))
    return float(coef[0]), float(coef[1]), resid


def _doubling_report(radii, masses, doubled, r0, mode) -> DoublingReport:
    """Masses at r and 2r with the power-law fit of mass against radius;
    the fit rejects non-finite masses before the ratios are formed."""
    beta, log_c, resid = fit_loglog(radii, masses)
    return DoublingReport(radii=radii, masses=masses, ratios=doubled / masses,
                          beta_hat=beta, c_hat=float(np.exp(log_c)),
                          fit_residual=resid, r0=r0, mode=mode)


def doubling_scan_bulk(geom: Geometry, field: ExtensionField, x0: float,
                       radii) -> DoublingReport:
    """Doubling ratios of weighted half-ball masses centered at (x0, 0).

    All radii must stay below r0 = dist(x0, boundary)/10; ZeroMassError
    when a mass is not positive.
    """
    radii, r0 = check_scan(geom, x0, radii, 10.0)
    masses = np.array([weighted_norm(field, Region("half_ball", (x0, 0.0), r))
                       for r in radii])
    doubled = np.array([weighted_norm(field, Region("half_ball", (x0, 0.0), 2 * r))
                        for r in radii])
    if np.any(masses <= 0):
        raise ZeroMassError("a half-ball mass of the bulk scan is zero")
    return _doubling_report(radii, masses, doubled, r0, "bulk")


def doubling_scan_boundary(geom: Geometry, u: GridFunction, x0: float,
                           radii) -> DoublingReport:
    """Doubling ratios of trace masses on intervals around x0.

    Radii must stay below dist(x0, boundary)/4; the fitted power law
    gives the empirical vanishing order of u at x0.
    """
    radii, r0 = check_scan(geom, x0, radii, 4.0)
    masses = np.sqrt(trace_mass_sq(u.spec, u.values, x0, radii))
    u_omega = u.values[geom.omega_nodes]
    total = float(np.sqrt(u.spec.h * np.sum(u_omega ** 2)))
    if total == 0.0 or masses[0] < 1e-14 * total:
        raise ZeroMassError("smallest-radius trace mass is numerically zero")
    doubled = np.sqrt(trace_mass_sq(u.spec, u.values, x0, 2 * radii))
    return _doubling_report(radii, masses, doubled, r0, "boundary")
