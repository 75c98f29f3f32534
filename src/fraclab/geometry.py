"""Problem geometry and grid functions.

The spatial setup is one-dimensional: an open interval ``omega`` carrying
the unknown potential, a disjoint measurement window ``w``, and a smaller
interval ``omega_prime`` compactly contained in ``omega`` that supports the
potentials.  All functions live on a periodic supergrid of ``n_super``
cell-centered nodes covering ``[-L, L)``; supports sit in the central
quarter so that the periodization error of the nonlocal operator stays
far below the acceptance tolerances.

A ``Geometry`` carries its grid and, for each interval, its nodes as a
slice of supergrid indices.  ``build_geometry`` is the one place where an
interval becomes nodes (the snap rule, and the dense operator's active
range); every other module indexes with the slices.

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

#: subsamples per cell used by average-mode sampling
CELL_AVERAGE_SUBSAMPLES = 64


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic supergrid: ``n_super`` nodes spaced ``h`` apart."""

    h: float
    n_super: int
    origin: float

    def nodes(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n_super)


@dataclass(frozen=True)
class Geometry:
    """Intervals, exponent and grid defining one scenario.

    ``omega``, ``w`` and ``omega_prime`` are closed intervals (a, b) on
    the periodic supergrid ``spec``.  ``omega_nodes``, ``w_nodes`` and
    ``prime_nodes`` are the supergrid indices of each interval's nodes,
    fixed once by the snap rule in ``build_geometry``; ``active_nodes``,
    one contiguous run, are those the dense operator acts on.
    """

    s: float
    omega: tuple[float, float]
    w: tuple[float, float]
    omega_prime: tuple[float, float]
    spec: GridSpec
    omega_nodes: slice
    w_nodes: slice
    prime_nodes: slice
    active_nodes: slice


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Read-only real values on the supergrid."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def build_geometry(omega, w, s, box_halfwidth=32.0, n_super=4096,
                   omega_prime=None) -> Geometry:
    """Validate a scenario and fix its supergrid and node slices.

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
        Support of the potentials, strictly inside omega.  Defaults to omega
        shrunk by an eighth of its length on each side.

    The snap rule: an interval's nodes run between its endpoints, each
    snapped to the nearest node.  A tie (within 1e-9 cells) goes outward,
    so mirrored intervals stay mirrored: both sides grow, neither shifts.
    The active nodes are those within the gap of omega or w (to 1e-9 h).
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
    n = int(n_super)
    if n <= 0 or n & (n - 1):
        raise GeometryError(f"n_super must be a power of two, got {n_super}")
    h = 2.0 * L / n
    spec = GridSpec(h=h, n_super=n, origin=-L + h / 2)

    def nodes(lo, hi):
        return slice(math.ceil((lo - spec.origin) / h - 0.5 - 1e-9),
                     math.floor((hi - spec.origin) / h + 0.5 + 1e-9) + 1)

    x, tol, gap = spec.nodes(), h * 1e-9, max(c - b, a - d)
    active = slice(
        int(np.searchsorted(x, min(a, c) - gap - tol, side="left")),
        int(np.searchsorted(x, max(b, d) + gap + tol, side="right")))
    geom = Geometry(s=float(s), omega=(a, b), w=(c, d),
                    omega_prime=(ap, bp), spec=spec,
                    omega_nodes=nodes(a, b), w_nodes=nodes(c, d),
                    prime_nodes=nodes(ap, bp), active_nodes=active)
    # snapping moves an endpoint by up to h/2, so a gap below 2h lets the
    # node sets of omega and w meet or leave the gap-padded active range
    if gap < 2 * h:
        raise ResolutionError(
            f"omega and w are {gap} apart, less than two cells at h={h}")
    for name, iv, sl in (("omega", geom.omega, geom.omega_nodes),
                         ("w", geom.w, geom.w_nodes)):
        if (count := sl.stop - sl.start) < 16:
            raise ResolutionError(
                f"only {count} nodes in {name} {iv} at h={h}")
    return geom


def support_mask(geom: Geometry, support: str) -> np.ndarray:
    """Boolean supergrid mask of a support tag's nodes."""
    slices = {"omega": [geom.omega_nodes], "w": [geom.w_nodes],
              "omega_w": [geom.omega_nodes, geom.w_nodes],
              "omega_prime": [geom.prime_nodes], "box": [slice(None)]}
    if support not in slices:
        raise ValueError(f"unknown support tag {support!r}")
    mask = np.zeros(geom.spec.n_super, dtype=bool)
    for nodes in slices[support]:
        mask[nodes] = True
    return mask


def make_grid_function(geom: Geometry, values, support: str) -> GridFunction:
    """Wrap raw values as a GridFunction, checking the support invariant."""
    spec = geom.spec
    vals = np.asarray(values, dtype=float).copy()
    if vals.shape != (spec.n_super,):
        raise ValueError(f"expected {spec.n_super} values, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise SupportError("grid function contains non-finite entries")
    if support != "box":
        outside = ~support_mask(geom, support)
        if np.any(vals[outside] != 0.0):
            raise SupportError(
                f"values nonzero outside declared support {support!r}")
    return GridFunction(spec=spec, values=vals)


def sample_profile(geom: Geometry, profile, support: str,
                   mode: str = "point") -> GridFunction:
    """Sample a callable onto the supergrid.

    ``mode="point"`` evaluates at the nodes; ``mode="average"`` takes exact
    cell averages (midpoint-composite with CELL_AVERAGE_SUBSAMPLES points),
    which suppresses aliasing from support-edge singularities.  The profile
    is evaluated only at the nodes of the declared support and the values
    are written into a zero array, so they are zero outside it either way.
    """
    spec = geom.spec
    mask = support_mask(geom, support)
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
    return make_grid_function(geom, out, support)


def bump_profile(center: float, width: float, amplitude: float = 1.0):
    """Smooth compactly supported bump on (center-width, center+width).

    The profile is amplitude * exp(-z^2 / (1 - z^2)) with z the rescaled
    coordinate; it equals amplitude at the center and vanishes with all
    derivatives at the support edge.
    """
    if width <= 0:
        raise ValueError("bump width must be positive")

    def profile(x):
        z = (np.asarray(x, dtype=float) - center) / width
        inside = np.abs(z) < 1.0
        zz = np.where(inside, z, 0.0)
        return np.where(
            inside,
            amplitude * np.exp(-zz * zz / (1.0 - zz * zz)),
            0.0,
        )

    return profile


@lru_cache(maxsize=32)
def frequencies(spec: GridSpec) -> np.ndarray:
    """Angular frequencies of the supergrid DFT (fftfreq ordering)."""
    return 2.0 * np.pi * np.fft.fftfreq(spec.n_super, d=spec.h)
