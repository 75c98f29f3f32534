"""End-to-end experiment drivers shared by the CLI and the test suite.

Each driver is a pure function of a Scenario, so runs are reproducible
given the configuration text, the seed included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import StabilityCertificate, certify_bound
from .diagnostics import (DoublingReport, annulus_ratio, caccioppoli_check,
                          carleman_weight, check_scan, doubling_scan_boundary,
                          doubling_scan_bulk, persistence_check)
from .errors import ConfigError, GeometryError
from .extension import default_y_grid, extend
from .forward import (ForwardSolution, add_noise, dtn_map, eigen_gap,
                      solve_forward, system_matrix)
from .geometry import GridFunction, make_grid_function
from .reconstruction import StabilityCurve, fit_log_modulus, noise_sweep
from .spaces import dual_norm_on_window, holder_norm, sobolev_norm
from .config import Scenario


@dataclass(frozen=True, eq=False)
class ForwardArtifacts:
    solution: ForwardSolution
    measurement: GridFunction    # Lambda f on the window, noisy if configured
    report_lines: list


def run_forward(sc: Scenario) -> ForwardArtifacts:
    """Forward solve for q1 with optional measurement noise, drawn with
    the config seed."""
    sol = solve_forward(sc.op, sc.q1, sc.f)
    meas = dtn_map(sc.op, sol)
    eps = sc.config["noise.epsilon"]
    if eps > 0:
        (meas,) = add_noise(sc.geom, meas, [eps], sc.config["seed"])
    s = sc.geom.s
    f_hs, u_hs = sobolev_norm(sc.f, s), sobolev_norm(sol.u, s)
    lines = [
        f"residual={sol.residual:.17g}",
        f"eigen_gap={eigen_gap(system_matrix(sc.op, sc.q1)):.17g}",
        f"apriori_ratio={u_hs / f_hs if f_hs > 0 else 0.0:.17g}",
        f"f_hs_norm={f_hs:.17g}",
        f"f_l2_norm={sobolev_norm(sc.f, 0.0):.17g}",
        f"u_hs_norm={u_hs:.17g}",
        f"lambda_dual_norm={dual_norm_on_window(sc.geom, meas):.17g}",
    ]
    return ForwardArtifacts(solution=sol, measurement=meas, report_lines=lines)


@dataclass(frozen=True, eq=False)
class UcpScanArtifacts:
    bulk: DoublingReport
    boundary: DoublingReport
    checks: list
    carleman_rows: np.ndarray    # columns r, psi(r), |psi(r)-psi(4r)|


def scan_radii(sc: Scenario) -> np.ndarray:
    """The scan block's radii; scan.x0 must lie in omega and scan.r_max
    within the bulk scan's r0 = dist(scan.x0, boundary)/10, the tightest."""
    cfg = sc.config
    r_min = cfg.get("scan.r_min")
    r_max = cfg.get("scan.r_max")
    if r_min is None or r_max is None:
        raise ConfigError("scan block needs scan.r_min and scan.r_max")
    n = int(cfg["scan.n_radii"])
    if not (0 < r_min < r_max) or n < 2:
        raise ConfigError("scan radii need 0 < scan.r_min < scan.r_max "
                          "and scan.n_radii >= 2")
    x0, radii = cfg["scan.x0"], np.geomspace(r_min, r_max, n)
    try:
        check_scan(sc.geom, x0, radii, 10.0)
    except GeometryError as exc:
        raise ConfigError(f"scan.x0 = {x0}, scan.r_max = {r_max}: {exc}") \
            from exc
    return radii


def run_ucp_scan(sc: Scenario) -> UcpScanArtifacts:
    """Doubling scans, lemma checks and the radial-weight scan for q1."""
    x0 = sc.config["scan.x0"]
    radii = scan_radii(sc)
    s = sc.geom.s
    try:
        # tall extension so the annulus check at R = 4 stays inside the box
        y = default_y_grid(s, height=8.5)
    except GeometryError as exc:
        raise ConfigError(f"geometry.s: {exc}") from exc
    sol = solve_forward(sc.op, sc.q1, sc.f)
    field = extend(sol.u, s, y)

    bulk = doubling_scan_bulk(sc.geom, field, x0, radii)
    boundary = doubling_scan_boundary(sc.geom, sol.u, x0, radii)
    q_sup = float(np.max(np.abs(sc.q1.values)))
    checks = [
        caccioppoli_check(sc.geom, field, q_sup, x0, float(radii[-1])),
        persistence_check(sc.geom, field, sc.f, h=0.1),
        annulus_ratio(sc.geom, field, sc.f, R=4.0),
    ]
    rs = np.geomspace(1e-8, 1.0, 240)
    rows = np.array([[r, carleman_weight(r),
                      abs(carleman_weight(r) - carleman_weight(4 * r))]
                     for r in rs])
    return UcpScanArtifacts(bulk=bulk, boundary=boundary, checks=checks,
                            carleman_rows=rows)


NOTHING_TO_CERTIFY = ("identical measurements: actual gap is zero, "
                      "nothing to certify")


@dataclass(frozen=True, eq=False)
class EndToEndReport:
    """Noise-sweep samples, fit_log_modulus of their q errors, and the
    certificate (it holds the measured constants; None, with the reason in
    note, if nothing was certified) vs the gap.  Whether the bound
    dominates the gap, and by what factor, is read off certificate.bound
    and actual_sup_gap."""

    data_gap: float              # dual norm of the measurement difference
    actual_sup_gap: float        # sup |q1 - q2|
    curve: StabilityCurve
    fit: tuple | None            # (gamma_hat, c_hat, fit_residual)
    certificate: StabilityCertificate | None
    note: str = ""


def end_to_end(sc: Scenario) -> EndToEndReport:
    """Forward, reconstruct, scan, certify, compare.

    The certificate constants are all measured on the scenario itself:
    the a priori bound E, the larger holder_norm of q1 and q2, measured
    once here and read by both the certificate and the sweep's cap on
    q_rec; the vanishing order from the boundary doubling scan of u1; the
    smallness constants (C_stab, mu) of err = C_stab e_tilde
    |log(eps/e_tilde)|^-mu from fit_log_modulus on the sweep's u errors
    against eps/e_tilde; and the data error from the measured dual-norm
    gap.  When that gap is zero there is nothing to certify: the sweep
    samples are returned without either fit, and note is
    NOTHING_TO_CERTIFY.  A fitted gamma_hat or mu <= 0 certifies nothing
    and note names it.  The noise ladder is sweep.epsilons, drawn with the
    config seed + 1234, and the boundary scan is centred at scan.x0.
    """
    cfg = sc.config
    if not cfg.get("sweep.epsilons"):
        raise ConfigError("noise sweep needs nonempty sweep.epsilons")
    x0 = cfg["scan.x0"]
    try:
        _, dist = check_scan(sc.geom, x0)
    except GeometryError as exc:
        raise ConfigError(f"scan.x0 = {x0}: {exc}") from exc

    s = sc.geom.s
    sol1 = solve_forward(sc.op, sc.q1, sc.f)
    sol2 = solve_forward(sc.op, sc.q2, sc.f)
    lam1 = dtn_map(sc.op, sol1)
    lam2 = dtn_map(sc.op, sol2)
    gap_gf = make_grid_function(sc.geom, lam1.values - lam2.values, "w")
    data_gap = dual_norm_on_window(sc.geom, gap_gf)
    actual = float(np.max(np.abs(sc.q1.values - sc.q2.values)))
    E = max(holder_norm(sc.geom, q.values) for q in (sc.q1, sc.q2))

    curve = noise_sweep(sc.op, sol2, lam2, cfg["sweep.epsilons"],
                        threshold=cfg["recon.theta"], holder_bound=E,
                        seed=int(cfg["seed"]) + 1234)

    radii = np.geomspace(dist / 40, dist / 4.5, 10)
    boundary = doubling_scan_boundary(sc.geom, sol1.u, x0, radii)

    e_tilde = sobolev_norm(sol1.u, s) + sobolev_norm(sol2.u, s)
    fit = certificate = None
    if data_gap <= 0 or actual == 0:
        note = NOTHING_TO_CERTIFY
    else:
        fit = fit_log_modulus(curve.t_values, curve.errors)
        smallness = fit_log_modulus(curve.t_values / e_tilde,
                                    curve.u_errors_abs)
        nonpositive = [f"{k} = {v[0]:.17g}"
                       for k, v in (("gamma_hat", fit), ("mu", smallness))
                       if v is not None and v[0] <= 0]
        if smallness is None:
            note = "smallness fit failed: too few usable sweep points"
        elif nonpositive:
            note = f"fitted {' and '.join(nonpositive)}: not positive"
        else:
            note = ""
            mu_hat, c, _ = smallness
            certificate = certify_bound(
                E=E, alpha=s, beta=boundary.beta_hat, c_low=boundary.c_hat,
                c_stab=c / e_tilde, mu=mu_hat, e_tilde=e_tilde,
                epsilon=min(data_gap, 0.499), r0=boundary.r0)
    return EndToEndReport(data_gap=data_gap, actual_sup_gap=actual,
                          curve=curve, fit=fit, certificate=certificate,
                          note=note)
