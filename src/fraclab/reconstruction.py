"""Regularized recovery of the solution and the potential, and the noise
sweep that samples the stability curve.

Step one recovers the interior solution from window data by Tikhonov
least squares: the continuation operator v -> (A_WO v)/h is independent
of the potential and is factored once per operator (which carries the
grid and the omega/w partition), the penalty is the discrete H^s norm of
the zero extension, and the regularization parameter is fixed or set by
the discrepancy principle (bisection in log lambda on the closed-form
residual into [delta, 2 delta], clamped to lambda in [1e-16, 1]).

Step two divides: q = -(-Lap)^s u / u on nodes where |u| clears a
relative threshold, with nearest-neighbour fill on the excluded set, a
cap at ten times the a priori Hoelder bound E (end_to_end measures it
once per run), and hard zero outside the potential support.

Neither step sees the true u or q; noise_sweep alone scores them.  The
q error is sup |q_rec - q| / sup |q| over the omega' nodes recover_q
kept, and the u error is the L2(omega) error sqrt(h) |u_rec - u|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagnostics import fit_loglog
from .errors import AllExcludedError, DomainError, ZeroDataError
from .forward import ForwardSolution, add_noise, local_term
from .fracop import FracLapDense, apply_dense, symmetric_toeplitz
from .geometry import GridFunction, GridSpec, frequencies, make_grid_function


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Recovered solution with the knobs that produced it."""

    u_rec: GridFunction
    reg_param: float
    discrepancy: float


@dataclass(frozen=True, eq=False)
class PotentialRecovery:
    """Recovered potential and the nodes the division step excluded."""

    q_rec: GridFunction
    excluded: np.ndarray             # supergrid indices below the guard


@dataclass(frozen=True, eq=False)
class StabilityCurve:
    """Noise-sweep samples sorted by the noise level t: the relative sup
    error of the recovered q and the absolute L2(omega) error of the
    recovered u at each level."""

    t_values: np.ndarray
    errors: np.ndarray
    u_errors_abs: np.ndarray


def hs_gram_row(spec: GridSpec, s: float) -> np.ndarray:
    """First row of the H^s Gram kernel on the supergrid (Toeplitz).

    k(m h) = h * ifft((1+xi^2)^s)[m]; with it, v^T G v equals the squared
    discrete H^s norm of the zero extension of v exactly.
    """
    xi = frequencies(spec)
    sym = (1.0 + xi * xi) ** s
    return spec.h * np.real(np.fft.ifft(sym))


_BLOCK = 64     # rows per block of _solve_lower's substitution


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for lower-triangular L, by block forward substitution.

    numpy has no triangular solve (np.linalg.solve LU-factors the whole
    triangle) and importing scipy.linalg costs about 0.24 s.
    """
    X = np.empty(B.shape)
    for i in range(0, len(L), _BLOCK):
        j = slice(i, i + _BLOCK)
        X[j] = np.linalg.solve(L[j, j], B[j] - L[j, :i] @ X[:i])
    return X


@lru_cache(maxsize=1)
def _continuation(op: FracLapDense):
    """U, sv and C = L^-T V, with U diag(sv) V^T = sqrt(h) M L^-T, L L^T = G.

    M = A_WO / h is the nodal continuation and G the H^s Gram matrix on
    the omega nodes, Toeplitz since they are contiguous.  L^-T V is the
    substitution on L reversed in both axes, which is lower triangular.
    The cache is keyed by op's identity; the shared arrays are read-only.
    """
    geom = op.geom
    A_ow = op.matrix[op.pos(geom.omega_nodes), op.pos(geom.w_nodes)]
    row = hs_gram_row(geom.spec, geom.s)[:len(A_ow)]
    L = np.linalg.cholesky(symmetric_toeplitz(row))
    B = _solve_lower(L, A_ow).T / np.sqrt(geom.spec.h)   # sqrt(h) M L^-T
    U, sv, Vt = np.linalg.svd(B, full_matrices=False)
    C = _solve_lower(L[::-1, ::-1].T, Vt[:, ::-1].T)[::-1].copy()
    for a in (U, sv, C):
        a.setflags(write=False)
    return U, sv, C


def recover_u(op: FracLapDense, f: GridFunction, lam_f: GridFunction,
              strategy: tuple[str, float]) -> ReconstructionResult:
    """Tikhonov recovery of the interior solution from the data f and
    the measurement lam_f on the window.

    strategy is ("fixed", lambda) or ("discrepancy", delta >= 0).  The
    discrepancy principle always returns a lambda in [1e-16, 1]: bisected
    until the L2(w) residual lands in [delta, 2 delta], 1e-16 when the
    residual there is already >= delta, and 1 when it stays below delta.
    The SVD is computed once per operator; the bisection reads residuals.
    Raises DomainError, in either mode, when the squared residual of the
    data overflows: no lambda could then be chosen or scored.
    """
    spec, om, w = op.geom.spec, op.geom.omega_nodes, op.geom.w_nodes
    U, sv, C = _continuation(op)
    bb = np.sqrt(spec.h) * (lam_f.values[w] - local_term(op, f))
    Utb = U.T @ bb
    ortho_sq = float(bb @ bb - Utb @ Utb)   # residual outside the range
    if not np.isfinite(ortho_sq):
        raise DomainError("the squared residual of the window data overflows")

    def residual(lam: float) -> float:
        return float(np.sqrt(max(
            ortho_sq + np.sum((lam / (sv * sv + lam) * Utb) ** 2), 0.0)))

    mode, value = strategy
    if mode == "fixed":
        lam = float(value)
    elif mode == "discrepancy":
        delta = float(value)
        if not delta >= 0:
            raise ValueError(f"discrepancy level must be >= 0, got {delta}")
        # res is nondecreasing, and each filter factor g = lam/(sv^2 + lam)
        # has dg/d ln lam = g(1 - g) <= g, so d ln res/d ln lam <= 1: past
        # its crossing of delta, res stays in [delta, 2 delta] for log10 2
        # decades or up to lam = 1.  Bisection lands there, at worst when
        # 10 ** mid rounds to 1 after about 60 halvings.
        lo, hi = -16.0, 0.0
        if residual(10.0 ** lo) >= delta:
            mid = lo
        elif residual(10.0 ** hi) < delta:
            mid = hi
        else:
            mid = -8.0
            while not delta <= (res := residual(10.0 ** mid)) <= 2 * delta:
                lo, hi = (mid, hi) if res < delta else (lo, mid)
                mid = 0.5 * (lo + hi)
        lam = 10.0 ** mid
    else:
        raise ValueError(f"unknown strategy {mode!r}")
    res = residual(lam)
    v = C @ (sv * Utb / (sv * sv + lam))

    vals = np.zeros(spec.n_super)
    vals[om] = v
    vals[w] = f.values[w]
    u_rec = make_grid_function(op.geom, vals, "omega_w")
    return ReconstructionResult(u_rec=u_rec, reg_param=lam, discrepancy=res)


def recover_q(op: FracLapDense, u_rec: GridFunction, threshold: float,
              holder_bound: float) -> PotentialRecovery:
    """Division step with zero-set guarding on the recovered solution u_rec.

    Nodes where |u_rec| falls below threshold * max |u_rec| are excluded
    and filled with the nearest included value; the result is capped at
    ten times the a priori Hoelder bound and zeroed outside the potential
    support.
    """
    geom, om, prime = op.geom, op.geom.omega_nodes, op.geom.prime_nodes
    # the omega_prime nodes as positions among the omega nodes
    p = slice(prime.start - om.start, prime.stop - om.start)
    w_omega = apply_dense(op, u_rec)[op.pos(om)]
    u_omega = u_rec.values[om]

    umax = float(np.max(np.abs(u_omega)))
    if umax == 0.0:
        raise AllExcludedError("recovered solution vanishes on omega")
    guard = threshold * umax
    included = np.abs(u_omega) >= guard
    if not np.any(included):
        raise AllExcludedError("every omega node fell below the guard")
    q_omega = np.zeros_like(u_omega)
    q_omega[included] = -w_omega[included] / u_omega[included]
    # nearest included neighbour fill for the excluded nodes; a tie
    # goes to the left neighbour
    inc_pos, exc_pos = np.nonzero(included)[0], np.nonzero(~included)[0]
    right = np.minimum(np.searchsorted(inc_pos, exc_pos), len(inc_pos) - 1)
    left = np.maximum(right - 1, 0)
    nearer_right = (np.abs(inc_pos[right] - exc_pos)
                    < np.abs(exc_pos - inc_pos[left]))
    q_omega[exc_pos] = q_omega[inc_pos[np.where(nearer_right, right, left)]]
    cap = 10.0 * holder_bound
    q_omega = np.clip(q_omega, -cap, cap)

    vals = np.zeros(geom.spec.n_super)
    vals[prime] = q_omega[p]
    q_rec = make_grid_function(geom, vals, "omega_prime")
    return PotentialRecovery(q_rec=q_rec, excluded=om.start + exc_pos)


def fit_log_modulus(t, err) -> tuple[float, float, float] | None:
    """Least squares of log err against log |log t| over the usable
    samples, those with 0 < t < 1 and err > 0.

    Returns (gamma_hat, c_hat, sup residual) of err ~ c_hat |log t|^-gamma_hat,
    or None when fewer than two distinct t are usable.
    """
    t, err = np.asarray(t, dtype=float), np.asarray(err, dtype=float)
    ok = (t > 0) & (t < 1) & (err > 0)
    if len(set(t[ok])) < 2:
        return None
    slope, intercept, resid = fit_loglog(np.abs(np.log(t[ok])), err[ok])
    return -slope, float(np.exp(intercept)), resid


def noise_sweep(op: FracLapDense, sol: ForwardSolution, meas: GridFunction,
                epsilons, threshold: float, holder_bound: float,
                seed: int) -> StabilityCurve:
    """Recover sol.q from noisy copies of meas over the noise ladder
    epsilons, taken in ascending order, capped at 10 E with E the
    caller's a priori C^{0,s} bound holder_bound, and score each recovery.

    meas is the clean measurement dtn_map(op, sol).  add_noise draws one
    noise direction for the ladder, and recover_u recovers each distinct
    level once at delta, the actual L2(w) size of the injected noise.  The
    q error is sup |q_rec - sol.q| / sup |sol.q| over the omega' nodes
    that recover_q did not exclude, and the u error is sqrt(h) |u_rec -
    sol.u| over the omega nodes.  ZeroDataError when sol.q vanishes;
    AllExcludedError when no omega' node is kept.
    """
    geom = op.geom
    om, prime = geom.omega_nodes, geom.prime_nodes
    sqrt_h = np.sqrt(geom.spec.h)
    q = sol.q.values
    q_sup = float(np.max(np.abs(q)))
    if q_sup == 0.0:
        raise ZeroDataError("the relative q error needs q != 0")
    ts = np.sort(np.asarray(epsilons, dtype=float))
    levels, inverse = np.unique(ts, return_inverse=True)
    errs, u_abs = [], []
    for noisy in add_noise(geom, meas, levels.tolist(), seed):
        delta = float(sqrt_h * np.linalg.norm(
            (noisy.values - meas.values)[geom.w_nodes]))
        rec = recover_u(op, sol.f, noisy, strategy=("discrepancy", delta))
        pot = recover_q(op, rec.u_rec, threshold, holder_bound)
        kept = ~np.isin(np.arange(prime.start, prime.stop), pot.excluded)
        if not np.any(kept):
            raise AllExcludedError("every omega' node fell below the guard")
        dev = (pot.q_rec.values - q)[prime][kept]
        errs.append(float(np.max(np.abs(dev)) / q_sup))
        u_abs.append(float(sqrt_h * np.linalg.norm(
            (rec.u_rec.values - sol.u.values)[om])))
    return StabilityCurve(t_values=ts, errors=np.array(errs)[inverse],
                          u_errors_abs=np.array(u_abs)[inverse])
