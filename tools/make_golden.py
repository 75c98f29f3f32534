#!/usr/bin/env python3
"""Regenerate the locked reference values in golden/v1/s1.json.

Run from the repository root after any intentional change to the
numerics; tests compare against these values inside stated envelopes.
The tool reads its scenarios from three shipped configs:

- ``configs/s1_forward.cfg``, S1: its q1 is the bump potential and its
  q2 is zero.  Reference quantities that certify stability under
  refinement are computed on it at ``--resolution 2``;
- ``configs/sweep_benchmark.cfg``, the noise-sweep benchmark: the
  ``stability`` run's sweep, with its ladder, threshold and seed;
- ``configs/s1_stability.cfg``, the end-to-end certificate on S1.

The three-ball exponent and the boundary-bulk interpolation check live
here, not in the library: no command runs them, only this tool (for
three_balls_alpha_refined and boundary_bulk_implied_refined) and the
tests that load it.
"""

import json
from pathlib import Path

import numpy as np

import fraclab as fl
from fraclab.diagnostics import LemmaCheck, fit_loglog
from fraclab.errors import DegenerateError, GeometryError, ZeroMassError
from fraclab.extension import (ExtensionField, Region, trace_mass_sq,
                               weighted_norm)
from fraclab.geometry import Geometry, GridFunction

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "golden" / "v1" / "s1.json"


def three_balls_exponent(field: ExtensionField, center: tuple[float, float],
                         r: float) -> LemmaCheck:
    """Largest alpha with N(r) <= N(r/2)^alpha N(2r)^(1-alpha) at C = 1.

    Requires interior balls: the outer ball B_2r around the center must
    stay inside the open upper half plane.
    """
    x0, y0 = center
    if y0 - 2 * r <= 0:
        raise GeometryError(
            f"B_2r at height {y0} touches the trace line")
    n_half = weighted_norm(field, Region("half_ball", center, r / 2))
    n_mid = weighted_norm(field, Region("half_ball", center, r))
    n_two = weighted_norm(field, Region("half_ball", center, 2 * r))
    if n_half <= 0 or n_two <= 0:
        raise ZeroMassError("three-ball masses must be positive")
    if n_half == n_two:
        raise DegenerateError("equal inner and outer masses")
    alpha = float(np.log(n_mid / n_two) / np.log(n_half / n_two))
    return LemmaCheck("three_balls", n_mid, n_half ** alpha * n_two ** (1 - alpha),
                      alpha)


def boundary_bulk_check(geom: Geometry, field: ExtensionField,
                        u: GridFunction, x0: float, r: float) -> LemmaCheck:
    """Interpolation of a small half-ball mass by bulk and trace masses.

    lhs = N(c0 r) with c0 = 1/4; rhs core = (N(2r) + b)^alpha b^(1-alpha)
    with b the trace mass on B'_{3r/2} and alpha from the three-ball
    exponent at the matching center (x0, r) with radius r/5.
    """
    c0 = 0.25
    if not (geom.omega[0] < x0 - 2 * r and x0 + 2 * r < geom.omega[1]):
        raise GeometryError("B_2r' leaves omega")
    tb = three_balls_exponent(field, (x0, r), r / 5.0)
    alpha = tb.implied_constant
    lhs = weighted_norm(field, Region("half_ball", (x0, 0.0), c0 * r))
    n2r = weighted_norm(field, Region("half_ball", (x0, 0.0), 2 * r))
    b = float(np.sqrt(trace_mass_sq(u.spec, u.values, x0, 1.5 * r)))
    rhs_core = (n2r + b) ** alpha * b ** (1 - alpha)
    implied = lhs / rhs_core if rhs_core > 0 else 0.0
    return LemmaCheck("boundary_bulk", lhs, rhs_core, implied)


def scenario(config, resolution=1):
    """The scenario of a config: a name in configs/ or a path."""
    return fl.build_scenario(fl.load_config(ROOT / "configs" / config),
                             resolution)


def zero_potential_field(sc, n_levels):
    """The solution for S1's zero q2 and its extension on n_levels."""
    sol = fl.solve_forward(sc.op, sc.q2, sc.f)
    y = fl.default_y_grid(sc.geom.s, n_levels=n_levels)
    return sol, fl.extend(sol.u, sc.geom.s, y)


def main():
    golden = {}

    s1 = scenario("s1_forward.cfg")
    geom, op, f = s1.geom, s1.op, s1.f
    sol, field = zero_potential_field(s1, n_levels=64)

    # refined-reference diagnostics (stability envelopes)
    s1_r2 = scenario("s1_forward.cfg", resolution=2)
    sol2, field2 = zero_potential_field(s1_r2, n_levels=128)
    chk = fl.caccioppoli_check(s1_r2.geom, field2, 0.0, 0.0, 0.2)
    golden["caccioppoli_implied_refined"] = chk.implied_constant
    tb = three_balls_exponent(field2, (0.0, 0.5), 0.2)
    golden["three_balls_alpha_refined"] = tb.implied_constant
    bb = boundary_bulk_check(s1_r2.geom, field2, sol2.u, 0.0, 0.2)
    golden["boundary_bulk_implied_refined"] = bb.implied_constant

    # boundary doubling on S1
    rep = fl.doubling_scan_boundary(geom, sol.u, 0.0,
                                    np.geomspace(0.02, 0.24, 8))
    golden["boundary_beta_s1"] = rep.beta_hat
    golden["boundary_c_s1"] = rep.c_hat

    # bulk doubling envelope on S1
    repb = fl.doubling_scan_bulk(geom, field, 0.0,
                                 np.geomspace(0.02, 0.099, 8))
    golden["bulk_ratio_max_s1"] = float(np.max(repb.ratios))
    golden["bulk_ratio_min_s1"] = float(np.min(repb.ratios))

    # doubling uniformity across random potential families (two seeds)
    spreads = []
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        stats = []
        for _ in range(10):
            q = fl.sample_profile(
                geom,
                fl.bump_profile(rng.uniform(-0.2, 0.2),
                                rng.uniform(0.3, 0.5),
                                rng.uniform(-0.5, 0.5)),
                "omega_prime", mode="average")
            solq = fl.solve_forward(op, q, f)
            repq = fl.doubling_scan_boundary(geom, solq.u, 0.0,
                                             np.geomspace(0.02, 0.24, 8))
            stats.append(float(np.max(repq.ratios)))
        spreads.append(max(stats) / min(stats))
    golden["doubling_uniformity_spreads"] = spreads
    golden["doubling_uniformity_factor"] = max(spreads) * 1.5

    # exact-data recovery error (fixed tiny regularization) for S1's q1
    solq = fl.solve_forward(op, s1.q1, f)
    lamq = fl.dtn_map(op, solq)
    rec = fl.recover_u(op, f, lamq, strategy=("fixed", 1e-14))
    om = geom.omega_nodes
    golden["recover_u_exact_rel_error"] = float(
        np.linalg.norm((rec.u_rec.values - solq.u.values)[om])
        / np.linalg.norm(solq.u.values[om]))

    # zero-potential reconstruction floor: |q_rec|_inf after exact round trip
    res0 = fl.recover_q(
        op,
        fl.recover_u(op, f, fl.dtn_map(op, sol),
                     strategy=("fixed", 1e-14)).u_rec,
        1e-6, 1.0)
    golden["q_zero_floor"] = float(np.max(np.abs(res0.q_rec.values)))

    # noise-sweep benchmark scenario (gentler window, s = 1/4): the sweep
    # and fit of its stability run
    sweep = fl.end_to_end(scenario("sweep_benchmark.cfg"))
    curve = sweep.curve
    golden["sweep_errors"] = [float(v) for v in curve.errors]
    gamma, _, resid = sweep.fit
    golden["sweep_gamma_hat"] = gamma
    golden["sweep_fit_residual"] = resid
    golden["sweep_power_exponent"] = fit_loglog(curve.t_values,
                                                curve.errors)[0]

    # end-to-end certificate on S1 with a perturbed second potential
    rep_e2e = fl.end_to_end(scenario("s1_stability.cfg"))
    golden["e2e_actual"] = rep_e2e.actual_sup_gap
    golden["e2e_bound"] = rep_e2e.certificate.bound
    golden["e2e_fudge"] = rep_e2e.certificate.bound / rep_e2e.actual_sup_gap
    golden["e2e_data_gap"] = rep_e2e.data_gap

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    for k, v in sorted(golden.items()):
        print(f"  {k} = {v}")


if __name__ == "__main__":
    main()
