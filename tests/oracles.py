"""Reference routes the tests hold the library against; no command runs them.

apply_spectral is the fractional Laplacian on the periodic supergrid:
multiply the DFT by the exact symbol |xi|^(2s).  This is the
sinc-quadrature discretization of the singular integral; it is kept
unfiltered because the near-cancellation between band truncation and
sampling aliasing is delicate and any band-edge modification measurably
worsens accuracy near support-edge singularities.

neumann_trace checks an extension field through the trace identity: the
weighted normal derivative at y = 0 recovers the fractional Laplacian,

    lim_{y->0} y^(1-2s) d_y v = -d_s (-Lap)^s u,
    d_s = 2^(1-2s) Gamma(1-s) / Gamma(s).
"""

from math import gamma

import numpy as np

from fraclab.errors import ResolutionError, SupportError
from fraclab.extension import ExtensionField
from fraclab.geometry import GridFunction, frequencies

#: nodes within this count of the box edge must be empty (periodization guard)
EDGE_GUARD_NODES = 8
#: largest relative L2 gap between neumann_trace's two routes
MAX_TRACE_GAP = 0.05


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
    return GridFunction(spec=u.spec, values=out)


def trace_constant(s: float) -> float:
    """d_s = 2^(1-2s) Gamma(1-s) / Gamma(s); equals 1 at s = 1/2."""
    return 2.0 ** (1 - 2 * s) * gamma(1 - s) / gamma(s)


def neumann_trace_fd(field: ExtensionField) -> np.ndarray:
    """Finite-difference estimate of (-Lap)^s u from three small heights.

    Graded differences D_k = (col_{k+1} - col_k) * 2s / (y_{k+1}^2s - y_k^2s)
    tend to -d_s (-Lap)^s u with leading correction O(y^(2-2s)); the two
    are Richardson-extrapolated in that power.  The heights are the three
    largest positive ones below 1e-2: the graded grid's first heights fall
    below 1e-11 at s = 0.85 and to ~1e-36 at s = 0.95, where the column
    differences are pure rounding.
    """
    s = field.s
    y = field.y_grid
    idx = np.nonzero((y > 0) & (y < 1e-2))[0][-3:]
    if len(idx) < 3:
        raise ResolutionError("need at least 3 positive heights below 1e-2")
    cols = [field.values[:, i] for i in idx]
    ys = y[idx]
    d1 = (cols[1] - cols[0]) * 2 * s / (ys[1] ** (2 * s) - ys[0] ** (2 * s))
    d2 = (cols[2] - cols[1]) * 2 * s / (ys[2] ** (2 * s) - ys[1] ** (2 * s))
    p1 = (0.5 * (ys[0] + ys[1])) ** (2 - 2 * s)
    p2 = (0.5 * (ys[1] + ys[2])) ** (2 - 2 * s)
    d0 = d1 - (d2 - d1) * p1 / (p2 - p1)
    return -d0 / trace_constant(s)


def neumann_trace(field: ExtensionField, u: GridFunction) -> GridFunction:
    """Weighted normal derivative at y = 0 of the extension field of u,
    normalized to (-Lap)^s u.

    The exact multiplier limit reproduces the spectral fractional
    Laplacian; the graded finite-difference estimate cross-checks it and
    a ResolutionError is raised when the two routes disagree by more than
    MAX_TRACE_GAP in relative L2.
    """
    trace = apply_spectral(u, field.s)
    spectral, fd = trace.values, neumann_trace_fd(field)
    ref = np.linalg.norm(spectral)
    gap = np.linalg.norm(fd - spectral) / ref if ref > 0 else np.linalg.norm(fd)
    if gap > MAX_TRACE_GAP:
        raise ResolutionError(
            f"finite-difference trace deviates from spectral by {gap:.3g}")
    return trace
