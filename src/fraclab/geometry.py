"""Problem geometry and grid functions.

The spatial setup is one-dimensional: an open interval ``omega`` carrying
the unknown potential, a disjoint measurement window ``w``, and a smaller
interval ``omega_prime`` compactly contained in ``omega`` that supports the
potentials.  All functions live on a periodic supergrid of ``n_super``
cell-centered nodes covering ``[-L, L)``; supports sit in the central
quarter so that the periodization error of the nonlocal operator stays
far below the acceptance tolerances.

Cell-centered nodes (``x_j = -L + (j + 1/2) h``) are deliberate: snapped
interval endpoints then fall on cell boundaries, so support-edge
singularities of compactly supported profiles land between sample points,
which roughly halves the worst-case sampling error of the fractional
Laplacian near the edge of a support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OverlapError, ResolutionError, GeometryError, SupportError

SUPPORT_TAGS = ("omega", "w", "omega_w", "omega_prime", "box")

#: subsamples per cell used by average-mode sampling
CELL_AVERAGE_SUBSAMPLES = 64


@dataclass(frozen=True)
class Geometry:
    """Intervals and exponent defining one scenario.

    ``omega``, ``w`` and ``omega_prime`` are closed intervals (a, b);
    ``box_halfwidth`` is the truncation halfwidth L of the periodic
    supergrid.
    """

    s: float
    omega: tuple[float, float]
    w: tuple[float, float]
    omega_prime: tuple[float, float]
    box_halfwidth: float

    @property
    def gap(self) -> float:
        """Distance between omega and w."""
        return max(self.w[0] - self.omega[1], self.omega[0] - self.w[1])


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic supergrid: ``n_super`` nodes spaced ``h`` apart."""

    h: float
    n_super: int
    origin: float

    def nodes(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n_super)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on the supergrid with a declared support tag."""

    spec: GridSpec
    values: np.ndarray
    support: str

    def __post_init__(self):
        if self.support not in SUPPORT_TAGS:
            raise ValueError(f"unknown support tag {self.support!r}")
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Potential:
    """Potential supported in omega_prime with its a priori bounds."""

    values: GridFunction
    holder_bound: float
    sup_bound: float


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def build_geometry(omega, w, s, box_halfwidth=32.0, n_super=4096,
                   omega_prime=None):
    """Validate a scenario and build its supergrid.

    Parameters
    ----------
    omega, w : pair of floats
        Domain interval and measurement window; closures must be disjoint
        and at least two grid cells apart.
    s : float
        Fractional exponent, 0 < s < 1.
    box_halfwidth : float
        Supergrid halfwidth L; both intervals must fit in [-L/4, L/4].
    n_super : int
        Supergrid size, a power of two.
    omega_prime : pair of floats, optional
        Potential support, strictly inside omega.  Defaults to omega
        shrunk by an eighth of its length on each side.

    Returns
    -------
    (Geometry, GridSpec)
    """
    a, b = float(omega[0]), float(omega[1])
    c, d = float(w[0]), float(w[1])
    if not (a < b and c < d):
        raise GeometryError("intervals must have positive length")
    if not 0.0 < s < 1.0:
        raise GeometryError(f"s must lie in (0,1), got {s}")
    if max(a, c) <= min(b, d):
        raise OverlapError(
            f"closures of omega {omega} and w {w} intersect")
    if omega_prime is None:
        margin = (b - a) / 8.0
        omega_prime = (a + margin, b - margin)
    ap, bp = float(omega_prime[0]), float(omega_prime[1])
    if not (a < ap < bp < b):
        raise GeometryError(
            f"omega_prime {omega_prime} must be strictly inside omega {omega}")
    L = float(box_halfwidth)
    if not (min(a, c) >= -L / 4 and max(b, d) <= L / 4):
        raise GeometryError(
            f"omega and w must sit inside the central quarter [-{L/4}, {L/4}]")
    if not _is_power_of_two(int(n_super)):
        raise GeometryError(f"n_super must be a power of two, got {n_super}")
    h = 2.0 * L / int(n_super)
    spec = GridSpec(h=h, n_super=int(n_super), origin=-L + h / 2)
    geom = Geometry(s=float(s), omega=(a, b), w=(c, d),
                    omega_prime=(ap, bp), box_halfwidth=L)
    # snapping moves an endpoint by up to h/2, so a gap below 2h lets the
    # node sets of omega and w meet or leave the gap-padded active range
    if geom.gap < 2 * h:
        raise ResolutionError(
            f"omega and w are {geom.gap} apart, less than two cells at h={h}")
    for name, iv in (("omega", geom.omega), ("w", geom.w)):
        count = int(np.count_nonzero(interval_mask(spec, iv)))
        if count < 16:
            raise ResolutionError(
                f"only {count} nodes in {name} {iv} at h={h}")
    return geom, spec


def snap_interval(spec: GridSpec, interval) -> tuple[float, float]:
    """Snap interval endpoints to nearest nodes, breaking ties outward.

    Outward tie-breaking keeps mirrored intervals mirrored: an endpoint
    sitting exactly on a cell boundary (distance h/2 from two nodes)
    enlarges the interval on both sides instead of shifting it.
    """
    t_lo = (interval[0] - spec.origin) / spec.h
    t_hi = (interval[1] - spec.origin) / spec.h
    i_lo = math.ceil(t_lo - 0.5 - 1e-9)
    i_hi = math.floor(t_hi + 0.5 + 1e-9)
    return spec.origin + i_lo * spec.h, spec.origin + i_hi * spec.h


def interval_mask(spec: GridSpec, interval) -> np.ndarray:
    """Boolean node mask by closed-interval containment of snapped endpoints."""
    lo, hi = snap_interval(spec, interval)
    x = spec.nodes()
    tol = spec.h * 1e-9
    return (x >= lo - tol) & (x <= hi + tol)


def support_mask(geom: Geometry, spec: GridSpec, support: str) -> np.ndarray:
    if support == "omega":
        return interval_mask(spec, geom.omega)
    if support == "w":
        return interval_mask(spec, geom.w)
    if support == "omega_w":
        return interval_mask(spec, geom.omega) | interval_mask(spec, geom.w)
    if support == "omega_prime":
        return interval_mask(spec, geom.omega_prime)
    if support == "box":
        return np.ones(spec.n_super, dtype=bool)
    raise ValueError(f"unknown support tag {support!r}")


def make_grid_function(geom: Geometry, spec: GridSpec, values,
                       support: str) -> GridFunction:
    """Wrap raw values as a GridFunction, checking the support invariant."""
    vals = np.asarray(values, dtype=float).copy()
    if vals.shape != (spec.n_super,):
        raise ValueError(f"expected {spec.n_super} values, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise SupportError("grid function contains non-finite entries")
    if support != "box":
        outside = ~support_mask(geom, spec, support)
        if np.any(vals[outside] != 0.0):
            raise SupportError(
                f"values nonzero outside declared support {support!r}")
    return GridFunction(spec=spec, values=vals, support=support)


def sample_profile(geom: Geometry, spec: GridSpec, profile, support: str,
                   mode: str = "point") -> GridFunction:
    """Sample a callable onto the supergrid.

    ``mode="point"`` evaluates at the nodes; ``mode="average"`` takes exact
    cell averages (midpoint-composite with CELL_AVERAGE_SUBSAMPLES points),
    which suppresses aliasing from support-edge singularities.  The profile
    is evaluated only at the nodes of the declared support and the values
    are written into a zero array, so they are zero outside it either way.
    """
    mask = support_mask(geom, spec, support)
    x = spec.nodes()[mask]
    if mode == "point":
        vals = np.asarray(profile(x), dtype=float)
    elif mode == "average":
        m = CELL_AVERAGE_SUBSAMPLES
        offs = -spec.h / 2 + spec.h / m * (np.arange(m) + 0.5)
        vals = np.zeros_like(x)
        for o in offs:
            vals += np.asarray(profile(x + o), dtype=float)
        vals /= m
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    out = np.zeros(spec.n_super)
    out[mask] = vals
    return make_grid_function(geom, spec, out, support)


def bump_profile(center: float, width: float, amplitude: float = 1.0,
                 sharpness: float = 1.0):
    """Smooth compactly supported bump on (center-width, center+width).

    The profile is amplitude * exp(-p z^2 / (1 - z^2)) with z the rescaled
    coordinate and p the sharpness; it equals amplitude at the center and
    vanishes with all derivatives at the support edge.
    """
    if width <= 0:
        raise ValueError("bump width must be positive")

    def profile(x):
        z = (np.asarray(x, dtype=float) - center) / width
        inside = np.abs(z) < 1.0
        zz = np.where(inside, z, 0.0)
        return np.where(
            inside,
            amplitude * np.exp(-sharpness * zz * zz / (1.0 - zz * zz)),
            0.0,
        )

    return profile


@lru_cache(maxsize=32)
def _freq_cache(h: float, n: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def frequencies(spec: GridSpec) -> np.ndarray:
    """Angular frequencies of the supergrid DFT (fftfreq ordering)."""
    return _freq_cache(spec.h, spec.n_super)
