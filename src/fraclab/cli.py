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
import json
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


def _csv(names, rows) -> list:
    """A table's header line and one line per row, each value by _fmt."""
    return [",".join(names)] + [",".join(map(_fmt, row)) for row in rows]


def _kv(values: dict) -> list:
    """One key=value line per entry, each value by _fmt."""
    return [f"{k}={_fmt(v)}" for k, v in values.items()]


def _write(out: Path, name: str, cfg: ScenarioConfig, lines,
           summary: dict | None = None) -> None:
    """The one place the CLI writes a file: out/name holds the config hash
    line, lines, and, given a summary dict, a ``# summary:`` JSON line."""
    lines = [f"# config_hash={cfg.content_hash} version={__version__}",
             *lines]
    if summary is not None:
        lines.append("# summary: {" + ", ".join(
            f'"{k}": ' + (json.dumps(v) if isinstance(v, str) else _fmt(v))
            for k, v in summary.items()) + "}")
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_forward(sc: Scenario, out: Path) -> None:
    from .experiments import run_forward
    from .forward import export_measurement_csv
    from .geometry import support_mask

    art = run_forward(sc)
    mask = support_mask(sc.geom, "omega_w")
    _write(out, "u.csv", sc.config, _csv(("x", "u"), zip(
        sc.geom.spec.nodes()[mask], art.solution.u.values[mask])))
    eps = sc.config["noise.epsilon"]
    seed = sc.config["seed"] if eps > 0 else None
    _write(out, "measurement.csv", sc.config,
           export_measurement_csv(sc.geom, art.measurement, eps, seed))
    _write(out, "apriori_report.txt", sc.config, _kv(art.report))


def cmd_ucp_scan(sc: Scenario, out: Path) -> None:
    from .diagnostics import LemmaCheck
    from .experiments import run_ucp_scan

    art = run_ucp_scan(sc)
    for rep in (art.bulk, art.boundary):
        _write(out, f"doubling_{rep.mode}.csv", sc.config,
               _csv(("r", "mass", "ratio"),
                    zip(rep.radii, rep.masses, rep.ratios)),
               summary={"mode": rep.mode, "beta_hat": rep.beta_hat,
                        "c_hat": rep.c_hat, "fit_residual": rep.fit_residual,
                        "r0": rep.r0})
    _write(out, "lemma_checks.csv", sc.config,
           _csv([f.name for f in dataclasses.fields(LemmaCheck)],
                map(dataclasses.astuple, art.checks)))
    gaps = art.carleman_rows[:, 2]
    _write(out, "carleman.csv", sc.config,
           _csv(("r", "psi", "gap"), art.carleman_rows),
           summary={"gap_min": gaps.min(), "gap_max": gaps.max()})


def cmd_stability(sc: Scenario, out: Path) -> None:
    import numpy as np
    from .experiments import NOTHING_TO_CERTIFY, end_to_end

    report = end_to_end(sc)
    t = report.curve.t_values

    # model_value is the fitted modulus on 0 < t < 1, left empty elsewhere
    # and without a fit
    model = np.full_like(t, np.nan)
    fit = {"mode": "noise_sweep"}
    if report.fit is None:
        fit["fit_skipped"] = (report.note if report.note == NOTHING_TO_CERTIFY
                              else "fit skipped: fewer than two usable points")
    else:
        gamma, c, resid = report.fit
        ok = (t > 0) & (t < 1)
        model[ok] = c * np.abs(np.log(t[ok])) ** (-gamma)
        fit.update(gamma_hat=gamma, c_hat=c, fit_residual=resid)
    _write(out, "curve.csv", sc.config, _csv(
        ("t", "error", "model_value"),
        [(tt, e, "" if math.isnan(m) else m)
         for tt, e, m in zip(t, report.curve.errors, model)]))
    _write(out, "fit.txt", sc.config, _kv(fit))

    if report.certificate is None:
        cert = {"note": report.note}
    else:
        bound, actual = report.certificate.bound, report.actual_sup_gap
        cert = {**dataclasses.asdict(report.certificate),
                "actual_sup_gap": actual,
                # True or False: _fmt would print a bool as 1 or 0
                "certified_dominates": str(bound >= actual),
                "fudge": bound / actual}
    _write(out, "certificate.txt", sc.config, _kv(cert))


def cmd_certify(cfg: ScenarioConfig, cert: StabilityCertificate,
                out: Path) -> None:
    _write(out, "certificate.txt", cfg, _kv(dataclasses.asdict(cert)))


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
