"""Command-line front end.

Subcommands: forward | ucp-scan | stability | certify, each driven by one
scenario config file.  Exit codes: 0 success, 2 configuration error,
3 runtime/solver error or failed output write, with one stderr line that
names the error class; tools/cli_cases.py runs this contract as a table.
Outputs are plain CSV and key=value text, byte-reproducible for a fixed
config and seed (every file carries the config hash, never a timestamp).

``certify`` evaluates the certificate from the constants in its config
and needs only the standard library.  The other subcommands load numpy
and the numeric modules in ``build_scenario``, before they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import __version__
from .certificate import CERT_INPUTS, StabilityCertificate, certify_bound
from .config import Scenario, ScenarioConfig, build_scenario, load_config
from .errors import ConfigError, FraclabError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, (int, float)) else str(x)


def _header(sc_or_cfg) -> str:
    cfg = sc_or_cfg.config if isinstance(sc_or_cfg, Scenario) else sc_or_cfg
    return f"config_hash={cfg.content_hash} version={__version__}"


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _certificate_lines(c: StabilityCertificate) -> list:
    """key=value lines of a certificate's constants and its bound."""
    return [f"{f.name}={_fmt(getattr(c, f.name))}"
            for f in dataclasses.fields(c)]


def cmd_forward(sc: Scenario, out: Path) -> None:
    from .experiments import run_forward
    from .forward import export_measurement_csv
    from .geometry import support_mask

    art = run_forward(sc)
    x = sc.geom.spec.nodes()
    mask = support_mask(sc.geom, "omega_w")
    rows = [f"# {_header(sc)}", "x,u"]
    rows += [f"{_fmt(xx)},{_fmt(vv)}"
             for xx, vv in zip(x[mask], art.solution.u.values[mask])]
    _write_lines(out / "u.csv", rows)
    eps = sc.config["noise.epsilon"]
    seed = sc.config["seed"] if eps > 0 else None
    export_measurement_csv(sc.geom, art.measurement, out / "measurement.csv",
                           eps, seed, header_comment=_header(sc))
    _write_lines(out / "apriori_report.txt",
                 [f"# {_header(sc)}"] + art.report_lines)


def _doubling_rows(report) -> list:
    rows = ["r,mass,ratio"]
    for r, m, d in zip(report.radii, report.masses, report.ratios):
        rows.append(f"{_fmt(r)},{_fmt(m)},{_fmt(d)}")
    rows.append(f"# summary: {{\"mode\": \"{report.mode}\", "
                f"\"beta_hat\": {_fmt(report.beta_hat)}, "
                f"\"c_hat\": {_fmt(report.c_hat)}, "
                f"\"fit_residual\": {_fmt(report.fit_residual)}, "
                f"\"r0\": {_fmt(report.r0)}}}")
    return rows


def cmd_ucp_scan(sc: Scenario, out: Path) -> None:
    from .diagnostics import LemmaCheck
    from .experiments import run_ucp_scan

    art = run_ucp_scan(sc)
    _write_lines(out / "doubling_bulk.csv",
                 [f"# {_header(sc)}"] + _doubling_rows(art.bulk))
    _write_lines(out / "doubling_boundary.csv",
                 [f"# {_header(sc)}"] + _doubling_rows(art.boundary))
    names = [f.name for f in dataclasses.fields(LemmaCheck)]
    rows = [f"# {_header(sc)}", ",".join(names)]
    rows += [",".join(_fmt(getattr(c, n)) for n in names) for c in art.checks]
    _write_lines(out / "lemma_checks.csv", rows)
    rows = [f"# {_header(sc)}", "r,psi,gap"]
    rows += [f"{_fmt(r)},{_fmt(p)},{_fmt(g)}" for r, p, g in art.carleman_rows]
    gaps = art.carleman_rows[:, 2]
    rows.append(f"# summary: {{\"gap_min\": {_fmt(gaps.min())}, "
                f"\"gap_max\": {_fmt(gaps.max())}}}")
    _write_lines(out / "carleman.csv", rows)


def cmd_stability(sc: Scenario, out: Path) -> None:
    import numpy as np
    from .experiments import NOTHING_TO_CERTIFY, end_to_end

    report = end_to_end(sc)
    t = report.curve.t_values

    # model_value is the fitted modulus on 0 < t < 1, left empty elsewhere
    # and without a fit
    model = np.full_like(t, np.nan)
    fit_lines = [f"# {_header(sc)}", "mode=noise_sweep"]
    if report.fit is None:
        why = (report.note if report.note == NOTHING_TO_CERTIFY
               else "fit skipped: fewer than two usable points")
        fit_lines.append(f"fit_skipped={why}")
    else:
        gamma, c, resid = report.fit
        ok = (t > 0) & (t < 1)
        model[ok] = c * np.abs(np.log(t[ok])) ** (-gamma)
        fit_lines += [f"gamma_hat={_fmt(gamma)}", f"c_hat={_fmt(c)}",
                      f"fit_residual={_fmt(resid)}"]
    rows = [f"# {_header(sc)}", "t,error,model_value"]
    rows += [f"{_fmt(tt)},{_fmt(e)},{'' if math.isnan(m) else _fmt(m)}"
             for tt, e, m in zip(t, report.curve.errors, model)]
    _write_lines(out / "curve.csv", rows)
    _write_lines(out / "fit.txt", fit_lines)

    cert_lines = [f"# {_header(sc)}"]
    if report.certificate is None:
        cert_lines.append(f"note={report.note}")
    else:
        bound, actual = report.certificate.bound, report.actual_sup_gap
        cert_lines += _certificate_lines(report.certificate) + [
            f"actual_sup_gap={_fmt(actual)}",
            f"certified_dominates={bound >= actual}",
            f"fudge={_fmt(bound / actual)}",
        ]
    _write_lines(out / "certificate.txt", cert_lines)


def cmd_certify(cfg: ScenarioConfig, cert: StabilityCertificate,
                out: Path) -> None:
    _write_lines(out / "certificate.txt",
                 [f"# {_header(cfg)}"] + _certificate_lines(cert))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="scenario-driven experiments for the nonlocal "
                    "inverse-potential laboratory")
    parser.add_argument("command",
                        choices=["forward", "ucp-scan", "stability", "certify"])
    parser.add_argument("--config", required=True, metavar="PATH")
    parser.add_argument("--out", default=".", metavar="DIR")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("--resolution", type=int, default=1, metavar="MULT")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = load_config(args.config)
        if args.resolution < 1 or args.resolution & (args.resolution - 1):
            raise ConfigError("--resolution must be a positive power of two")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            entries = dict(cfg.entries)
            entries["seed"] = args.seed
            cfg = type(cfg)(entries=entries,
                            text=cfg.text + f"\n# seed override = {args.seed}\n")
        if args.command == "certify":
            missing = [f"cert.{k}" for k in CERT_INPUTS
                       if cfg.get(f"cert.{k}") is None]
            if missing:
                raise ConfigError(f"certify needs keys: {', '.join(missing)}")
            cert = certify_bound(**{k: cfg[f"cert.{k}"] for k in CERT_INPUTS})
        else:
            sc = build_scenario(cfg, resolution_multiplier=args.resolution)
    except FraclabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # making the output directory and writing into it are runtime steps
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "certify":
            cmd_certify(cfg, cert, out)
        else:
            {"forward": cmd_forward, "ucp-scan": cmd_ucp_scan,
             "stability": cmd_stability}[args.command](sc, out)
        return EXIT_OK
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FraclabError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
