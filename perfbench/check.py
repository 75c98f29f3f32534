"""Parse the CLI's output files and check them.

``read_outputs`` flattens the files one subcommand writes into named
values (``cert.bound``, ``bulk.ratio.3``, ``curve.error.0`` ...).
``check_outputs`` compares them with

- the references in ``reference.json``, recorded from this benchmark's
  workloads (see record_reference.py).  A value that was the same at two
  recording seeds is seed-free and is checked at every seed; any other
  value is checked only at the seed it was recorded at;
- the locked values of ``golden/v1/s1.json`` at the tier-1 test envelopes,
  for the S1 stability scenario, and the hand-checked certificate example;
- invariants that hold at every seed: a forward residual of at most 1e-10.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

MAX_FORWARD_RESIDUAL = 1e-10


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _key_values(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key] = _number(value)
    return out


def _csv(path):
    """(rows as dicts, summary dict from a '# summary: {...}' line)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    summary = {}
    body = []
    for ln in lines:
        if ln.startswith("# summary:"):
            summary = json.loads(ln.split(":", 1)[1])
        elif not ln.startswith("#"):
            body.append(ln)
    header = body[0].split(",")
    rows = [dict(zip(header, map(_number, ln.split(",")))) for ln in body[1:]]
    return rows, summary


def read_outputs(command, out_dir):
    """Flatten one subcommand's output files into {name: value}."""
    out_dir = Path(out_dir)
    v = {}
    if command == "forward":
        v.update({f"report.{k}": x for k, x in
                  _key_values(out_dir / "apriori_report.txt").items()})
        v["u.rows"] = float(len(_csv(out_dir / "u.csv")[0]))
        lines = (out_dir / "measurement.csv").read_text(encoding="utf-8")
        v["measurement.lines"] = float(len(lines.splitlines()))
    elif command == "ucp-scan":
        for mode in ("bulk", "boundary"):
            rows, summary = _csv(out_dir / f"doubling_{mode}.csv")
            for i, row in enumerate(rows):
                v[f"{mode}.mass.{i}"] = row["mass"]
                v[f"{mode}.ratio.{i}"] = row["ratio"]
            for k in ("beta_hat", "c_hat", "fit_residual", "r0"):
                v[f"{mode}.{k}"] = summary[k]
        for row in _csv(out_dir / "lemma_checks.csv")[0]:
            for k in ("lhs", "rhs_core", "implied_constant"):
                v[f"lemma.{row['name']}.{k}"] = row[k]
        rows, summary = _csv(out_dir / "carleman.csv")
        v["carleman.rows"] = float(len(rows))
        v["carleman.gap_min"] = summary["gap_min"]
        v["carleman.gap_max"] = summary["gap_max"]
    elif command == "stability":
        for i, row in enumerate(_csv(out_dir / "curve.csv")[0]):
            v[f"curve.t.{i}"] = row["t"]
            v[f"curve.error.{i}"] = row["error"]
        v.update({f"fit.{k}": x for k, x in
                  _key_values(out_dir / "fit.txt").items()})
        v.update({f"cert.{k}": x for k, x in
                  _key_values(out_dir / "certificate.txt").items()})
    elif command == "certify":
        v.update({f"cert.{k}": x for k, x in
                  _key_values(out_dir / "certificate.txt").items()})
    else:
        raise ValueError(f"unknown command {command!r}")
    return v


def rel_tol(name):
    """Reference tolerance: no looser than the tier-1 envelope of the same
    quantity (noise-sweep errors rtol 1e-8, Carleman weights 1e-12)."""
    if name.startswith("carleman."):
        return 1e-12
    if name.startswith("curve.error."):
        return 1e-8
    return 1e-6


def _rel_dev(actual, expected):
    """Relative deviation; inf when the two cannot be compared as numbers."""
    if isinstance(actual, str) or isinstance(expected, str):
        return 0.0 if actual == expected else math.inf
    if actual == expected or (math.isnan(actual) and math.isnan(expected)):
        return 0.0
    return abs(actual - expected) / abs(expected) if expected else math.inf


def golden_checks(key, seed, values, golden):
    """(name, actual, expected, rel or abs tolerance, is_abs) from the
    golden file and hand-checked values, at the tier-1 envelopes."""
    checks = []
    if key == "stability:s1_stability:r1":
        # seed-free: the sup gap of the two potentials and the data gap
        checks.append(("cert.actual_sup_gap", golden["e2e_actual"], 1e-6, False))
        checks.append(("cert.epsilon", golden["e2e_data_gap"], 1e-6, False))
        if seed == 0:   # golden was recorded with noise seed 0 + 1234
            checks.append(("cert.bound", golden["e2e_bound"], 0.1, False))
            checks.append(("cert.fudge", golden["e2e_fudge"], 0.1, False))
            checks.append(("cert.certified_dominates", "True", 0.0, False))
    elif key == "certify:certify_example:r1":
        checks.append(("cert.r_opt", 0.1, 1e-10, True))
        checks.append(("cert.bound", math.sqrt(0.2), 1e-10, True))
    return [(n, values.get(n), exp, tol, is_abs) for n, exp, tol, is_abs in checks]


def check_outputs(key, command, out_dir, seed, references, golden):
    """Check one invocation's outputs.

    Returns (failures, largest finite relative deviation from the
    references).
    ``key`` names the invocation as ``command:config-stem:r<resolution>``.
    """
    try:
        values = read_outputs(command, out_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"{key}: unreadable outputs ({type(exc).__name__}: {exc})"], 0.0
    failures = []
    max_dev = 0.0

    ref = references.get(key)
    if ref is None:
        failures.append(f"{key}: no reference recorded")
    else:
        expected = dict(ref["seed_free"])
        if seed == ref["seed"]:
            expected.update(ref["at_seed"])
        for name, exp in sorted(expected.items()):
            if name not in values:
                failures.append(f"{key}: {name} missing")
                continue
            dev = _rel_dev(values[name], exp)
            if math.isfinite(dev):
                max_dev = max(max_dev, dev)
            if not dev <= rel_tol(name):
                failures.append(f"{key}: {name} = {values[name]!r}, "
                                f"reference {exp!r} (rel dev {dev:.3g})")

    for name, actual, exp, tol, is_abs in golden_checks(key, seed, values, golden):
        if actual is None:
            failures.append(f"{key}: {name} missing")
        elif isinstance(exp, str) or isinstance(actual, str):
            if str(actual) != exp:
                failures.append(f"{key}: {name} = {actual!r}, expected {exp!r}")
        elif not abs(actual - exp) <= tol * (1.0 if is_abs else abs(exp)):
            failures.append(f"{key}: {name} = {actual!r}, expected {exp!r} "
                            f"within {'abs' if is_abs else 'rel'} {tol:g}")

    if command == "forward":
        res = values.get("report.residual")
        if not isinstance(res, float) or not res <= MAX_FORWARD_RESIDUAL:
            failures.append(f"{key}: forward residual {res!r} "
                            f"above {MAX_FORWARD_RESIDUAL:g}")
    return failures, max_dev


def load_references():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
