"""Exterior-value problem and the measurement map.

Galerkin formulation with hat elements on the active node set: with the
dense stiffness A and lumped potential term h q, the interior values solve

    (A_OO + h diag(q)) u_O = -A_OW f,

the full solution is f on the window, u_O on the domain and zero
elsewhere, and the measurement is the nodal fractional Laplacian on the
window,

    Lambda f = (A_WO u_O + A_WW f) / h.

The Schur-complement structure makes the measurement map self-adjoint on
L2(w) for real potentials, which the tests exercise as reciprocity.
The solve and the measurement take the operator alone and read its
blocks between node slices through FracLapDense.block.
A measurement, clean or noisy, is the GridFunction Lambda f on the
window; its noise level and seed stay with the caller that chose them.
solve_forward certifies that 0 is no Dirichlet eigenvalue by one pass of
Gershgorin discs over the system matrix (_gap_certified); the exact
eigen_gap runs only where that fails, and in the forward command's report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EigenvalueError, SingularSolveError,
                     SupportError)
from .fracop import FracLapDense
from .geometry import Geometry, GridFunction, make_grid_function, support_mask
from .spaces import dual_norm_on_window

#: relative spectral gap below which the restricted operator is rejected
GAP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ForwardSolution:
    """Solution of the exterior-value problem for q with its residual; the
    gap, only certified by the solve, and all norms are the caller's."""

    u: GridFunction             # support omega_w: u_O on omega, f on w
    q: GridFunction
    f: GridFunction
    residual: float             # |A u + h q u|_2(omega) / |A_OW f|_2


def system_matrix(op: FracLapDense, q: GridFunction) -> np.ndarray:
    """A_OO + h diag(q) over the omega nodes, as a fresh array."""
    om = op.geom.omega_nodes
    M = op.block(om, om)
    M.flat[::len(M) + 1] += op.geom.spec.h * q.values[om]
    return M


def eigen_gap(M: np.ndarray) -> float:
    """|lambda|_min / |lambda|_max: smallest over largest singular value."""
    ev = np.abs(np.linalg.eigvalsh(M))
    return float(ev.min() / ev.max())


def _gap_certified(M: np.ndarray) -> bool:
    """Whether the Gershgorin discs of the symmetric M prove
    eigen_gap(M) >= GAP_TOL: with row sums a_i = sum_j |M_ij|, whether
    min_i(2 M_ii - a_i) >= 2 GAP_TOL max_i a_i > 0.  Every eigenvalue is
    at least min_i(M_ii - sum_(j != i) |M_ij|) >= min_i(2 M_ii - a_i), and
    max_i a_i = |M|_1 >= rho(M) for symmetric M, so the exact test proves
    eigen_gap(M) >= 2 GAP_TOL; the rounding of the n-term sums is at most
    gamma_n |M|_1, about 1e-12 |M|_1 for n <= 9000, so the computed test
    proves eigen_gap(M) >= GAP_TOL: the factor 2 is that margin."""
    a = np.abs(M).sum(axis=1)
    low = (2 * M.diagonal() - a).min()
    return bool(low > 0 and low >= 2 * GAP_TOL * a.max())


def solve_forward(op: FracLapDense, q: GridFunction,
                  f: GridFunction) -> ForwardSolution:
    """Solve the exterior-value problem for data f on the window.

    q is any GridFunction of nodal values: a scenario's potential, or a
    shift such as a constant that probes resonance.
    Raises EigenvalueError when the relative spectral gap of the
    restricted operator, certified by Gershgorin discs (_gap_certified) or
    else computed by eigen_gap, falls below GAP_TOL (zero too close to an
    eigenvalue), SingularSolveError on factorization failure and
    DomainError when the norm of the right-hand side overflows.
    """
    geom, om, w = op.geom, op.geom.omega_nodes, op.geom.w_nodes
    if np.any(f.values[~support_mask(geom, "w")] != 0.0):
        raise SupportError("exterior data must be supported in w")
    M = system_matrix(op, q)
    if not _gap_certified(M) and (gap := eigen_gap(M)) < GAP_TOL:
        raise EigenvalueError(
            f"relative spectral gap {gap:.3e} below tolerance {GAP_TOL:.0e}")
    rhs = -(op.block(om, w) @ f.values[w])
    try:
        u_omega = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(f"dense solve failed: {exc}") from exc
    vals = np.zeros(geom.spec.n_super)
    vals[om] = u_omega
    vals[w] = f.values[w]
    u = make_grid_function(geom, vals, "omega_w")
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_norm = float(np.linalg.norm(rhs))
        res = float(np.linalg.norm(M @ u_omega - rhs))
    if not np.isfinite(rhs_norm):
        raise DomainError("the norm of the right-hand side overflows")
    residual = res / rhs_norm if rhs_norm > 0 else res
    return ForwardSolution(u=u, q=q, f=f, residual=residual)


def local_term(op: FracLapDense, f: GridFunction) -> np.ndarray:
    """(A_WW f)/h on the window: the potential-free part of the
    measurement, which dtn_map adds and recover_u subtracts."""
    w = op.geom.w_nodes
    return op.block(w, w) @ f.values[w] / op.geom.spec.h


def dtn_map(op: FracLapDense, sol: ForwardSolution) -> GridFunction:
    """Measurement on the window: nodal fractional Laplacian of u."""
    geom, om, w = op.geom, op.geom.omega_nodes, op.geom.w_nodes
    vals = np.zeros(geom.spec.n_super)
    vals[w] = (op.block(w, om) @ sol.u.values[om] / geom.spec.h
               + local_term(op, sol.f))
    return make_grid_function(geom, vals, "w")


#: number of window modes carrying the noise draw
NOISE_MODES = 8


def add_noise(geom: Geometry, lam: GridFunction, epsilons, seed: int):
    """Perturb a measurement to each relative dual-norm noise level in
    epsilons: a generator yielding one noisy copy per level, in order.

    The perturbation is a Gaussian draw over the first NOISE_MODES sine
    modes of the window, rescaled so that its dual norm equals eps times
    the dual norm of the clean measurement; deterministic given the seed.
    The draw and both dual norms are taken once for all levels, so they
    move along one direction.  A band-limited draw keeps the discrepancy
    principle operative: fully rough node noise is mostly orthogonal to
    the range of the smoothing continuation operator, which flattens the
    residual as a function of the regularization parameter and makes the
    bracket unattainable.  At eps = 0 the measurement itself is yielded.
    """
    spec, w = geom.spec, geom.w_nodes
    xw = spec.nodes()[w]
    z = (xw - xw[0]) / (xw[-1] - xw[0])
    coeff = np.random.default_rng(seed).standard_normal(NOISE_MODES)
    pert = np.zeros(spec.n_super)
    pert[w] = sum(c * np.sin((k + 1) * np.pi * z) for k, c in enumerate(coeff))
    a = dual_norm_on_window(geom, lam)
    b = dual_norm_on_window(geom, GridFunction(spec=spec, values=pert))
    for eps in epsilons:
        if eps < 0:
            raise ValueError("noise level must be nonnegative")
        yield lam if eps == 0 else make_grid_function(
            geom, lam.values + (eps * a / b) * pert, "w")


def export_measurement_csv(geom: Geometry, lam: GridFunction,
                           epsilon: float, seed: int | None) -> list:
    """The lines of measurement.csv, returned for the caller to write: a
    comment with s and the noise level epsilon and seed that produced lam
    (the seed left empty when None: no noise drawn), then node_x,
    lambda_value with one row per window node."""
    w, seed = geom.w_nodes, "" if seed is None else seed
    return [f"# s={geom.s:.17g} epsilon={epsilon:.17g} seed={seed}",
            "node_x,lambda_value"] + [f"{x:.17g},{v:.17g}" for x, v in
                                      zip(geom.spec.nodes()[w], lam.values[w])]
