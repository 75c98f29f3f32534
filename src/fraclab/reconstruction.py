"""Regularized recovery of the solution and the potential, and the noise
sweep that samples the stability curve.

Step one recovers the interior solution from window data by Tikhonov
least squares: the continuation operator v -> (A_WO v)/h is independent
of the potential, and its singular factors on their numerical range (a
Levinson-Durbin whitening and a checked Gaussian sketch, O(n^2)) are
computed once per operator (which carries the grid and the omega/w
partition), the penalty is the discrete H^s norm of the zero extension,
and the regularization parameter is fixed or set by the discrepancy
principle (bisection in log lambda on the closed-form residual into
[delta, 2 delta], clamped to lambda in [1e-16, 1]).

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
from .fracop import FracLapDense, apply_dense
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


_SKETCH = 32                            # first width of B's range sketch
_PROBES = 10                            # Gaussian columns that check it
_TOL = 1000 * np.finfo(float).eps       # accepted range error / sv[0]


def _levinson_factor(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W unit lower triangular and e > 0 with W G W^T = diag(e), for G the
    positive-definite symmetric Toeplitz matrix with first row row.

    Levinson-Durbin, O(n^2): row k of W is the backward predictor of
    order k, which G's leading (k+1)-block maps to e[k] times the last
    unit vector.  So diag(e)^-1/2 W is L^-1 for the Cholesky factor L.
    """
    n = len(row)
    W, e = np.zeros((n, n)), np.empty(n)
    W[0, 0], e[0] = 1.0, row[0]
    for k in range(1, n):
        b = W[k - 1, :k]
        kappa = -float(b @ row[1:k + 1]) / e[k - 1]
        W[k, 1:k + 1] = b
        W[k, :k] += kappa * b[::-1]
        e[k] = e[k - 1] * (1.0 - kappa * kappa)
    return W, e


@lru_cache(maxsize=1)
def _continuation(op: FracLapDense):
    """U, sv and C = L^-T V with U diag(sv) V^T = B = sqrt(h) M L^-T up to
    an error of at most _TOL sv[0]; M = A_WO / h and L L^T = G.

    G is the H^s Gram matrix on the omega nodes, Toeplitz since they are
    contiguous, so L^-1 = diag(e)^-1/2 W comes from _levinson_factor.  B's
    singular values fall by a decade or more per mode, and a Gaussian
    sketch (Halko, Martinsson and Tropp, SIAM Rev. 53 (2011) 217) finds
    its range: Q = qr(B Omega) over k columns, then the SVD of B^T Q.
    _PROBES more columns w check Q: 10 sqrt(2/pi) max |(I - Q Q^T) B w|
    bounds |(I - Q Q^T) B| but with probability 10^-_PROBES (their Lemma
    4.1).  k doubles, keeping the columns drawn, until the bound is below
    _TOL sv[0] or Q spans all n_W rows, where the factors are exact.  The
    draws come from a fixed stream of their own, never the run's seed.
    The cache is keyed by op's identity; the shared arrays are read-only.
    """
    geom = op.geom
    A_ow = op.matrix[op.pos(geom.omega_nodes), op.pos(geom.w_nodes)]
    n_w = A_ow.shape[1]
    W, e = _levinson_factor(hs_gram_row(geom.spec, geom.s)[:len(A_ow)])
    d = 1.0 / np.sqrt(e)[:, None]                   # L^-1 = d W
    sqrt_h = np.sqrt(geom.spec.h)
    rng = np.random.default_rng(0)
    Y = np.empty((n_w, 0))                          # B Omega, so far
    k = min(_SKETCH, n_w)
    while True:
        cols = rng.standard_normal((len(A_ow), k + _PROBES - Y.shape[1]))
        Y = np.hstack([Y, A_ow.T @ (W.T @ (d * cols)) / sqrt_h])
        Q = np.linalg.qr(Y[:, :k])[0]
        BtQ = d * (W @ (A_ow @ Q)) / sqrt_h
        V, sv, Zt = np.linalg.svd(BtQ, full_matrices=False)
        if k == n_w:
            break
        P = Y[:, k:]
        miss = np.linalg.norm(P - Q @ (Q.T @ P), axis=0).max()
        if 10.0 * np.sqrt(2.0 / np.pi) * miss <= _TOL * sv[0]:
            break
        k = min(2 * k, n_w)
    U = Q @ Zt.T
    C = W.T @ (d * V)
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
    The factors are computed once per operator; the bisection reads
    residuals.
    Raises DomainError, in either mode, when the squared residual of the
    data overflows: no lambda could then be chosen or scored.
    """
    spec, om, w = op.geom.spec, op.geom.omega_nodes, op.geom.w_nodes
    U, sv, C = _continuation(op)
    bb = np.sqrt(spec.h) * (lam_f.values[w] - local_term(op, f))
    Utb = U.T @ bb
    with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
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
