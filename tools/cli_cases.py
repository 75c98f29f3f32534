#!/usr/bin/env python3
"""The CLI's exit-code contract as one table of cases, and its runner.

    python tools/cli_cases.py [--src DIR]

runs every row of CASES as its own ``python`` process, WORKERS at a time,
with ``PYTHONPATH`` set to DIR (default: this checkout's ``src``), one
BLAS thread and the row's ``blocked`` modules (scipy by default) made
unimportable.  It prints ``ok`` or ``FAIL`` and the broken rules for each
row, and exits 1 if a row fails.  ``tests/test_cli_cases.py`` runs the
same rows in tier-1.

A row runs its command on ``config_text(config, edits, append)``: a copy
of ``configs/<config>`` in which each edit ``key = value`` replaces the
line of that key and ``append`` is added at the end.  The tests build
their variants of a shipped config the same way.  ``dir_at`` first makes
a directory of that name under ``--out``; ``out_is_file`` makes
``--out`` an empty file.  Every row is held to the same rules:

- each edit matches exactly one line of the config;
- the process exits with ``exit`` within TIMEOUT seconds;
- at exit 0, stderr is empty and each file the command writes (WRITES)
  is there, non-empty, with no ``nan`` or ``inf`` field;
- otherwise stderr is the one line ``<error>: ...``, holding ``says``,
  and no regular file is under ``--out``;
- with ``same_as``, the files under ``--out`` are those of that row.

To add a case, append a Case with a new ``name`` to CASES.  A fix to the
CLI's error handling adds the case that fails without it as a row here.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from cli_outputs import ROOT, child_env

TIMEOUT, WORKERS = 120, 2
WRITES = {"forward": ("u.csv", "measurement.csv", "apriori_report.txt"),
          "ucp-scan": ("doubling_bulk.csv", "doubling_boundary.csv",
                       "lemma_checks.csv", "carleman.csv"),
          "stability": ("curve.csv", "fit.txt", "certificate.txt"),
          "certify": ("certificate.txt",)}
# a CSV field or key=value that the run failed to compute
NON_FINITE = re.compile(r"(^|[,=])[-+]?(nan|inf)($|,)", re.I | re.M)
# the CLI in a process where the modules {blocked} cannot be imported
CHILD = ("import sys; sys.modules.update(dict.fromkeys({blocked!r}))\n"
         "from fraclab.cli import main; sys.exit(main(sys.argv[1:]))")


@dataclass(frozen=True)
class Case:
    name: str
    command: str
    config: str
    edits: tuple = ()
    append: bytes = b""
    flags: tuple = ()
    exit: int = 0
    error: str = ""
    says: str = ""
    dir_at: str = ""
    out_is_file: bool = False
    same_as: str = ""
    # numpy is the one runtime dependency; scipy serves only the tests
    blocked: tuple = ("scipy",)


CASES = (
    Case("forward", "forward", "s1_forward.cfg"),
    # no shipped config draws noise
    Case("forward-noisy", "forward", "s1_forward.cfg",
         ("noise.epsilon = 1e-3",), flags=("--seed", "7")),
    Case("ucp-scan", "ucp-scan", "s1_ucp_scan.cfg"),
    # at s = 1/2 Steed's CF2 ends after one term; here it runs
    Case("ucp-scan-s025", "ucp-scan", "s1_ucp_scan.cfg",
         ("geometry.s = 0.25",)),
    # the bulk half-balls centred away from the annulus at x = 0; from
    # x0 = 0.3 the bulk radii must stay below dist/10 = 0.07
    Case("ucp-scan-off-centre", "ucp-scan", "s1_ucp_scan.cfg",
         ("scan.x0 = 0.3", "scan.r_max = 0.07")),
    # w = [10, 11] lies inside L/4 = 16 but outside the annulus check's
    # |x| <= 8: the extension must hold the rows of the slab on w
    Case("ucp-scan-far-window", "ucp-scan", "s1_ucp_scan.cfg",
         ("grid.L = 64", "geometry.w = 10, 11", "f.center = 10.5")),
    Case("stability", "stability", "s1_stability.cfg"),
    # one noise level leaves both fits too few points
    Case("stability-fit-skipped", "stability", "s1_stability.cfg",
         ("sweep.epsilons = 1e-3",)),
    # gamma_hat and mu are negative: a note in place of the certificate
    Case("stability-nonpositive-fit", "stability", "s1_stability.cfg",
         ("sweep.epsilons = 5e-2, 1e-2",)),
    # at eps = 0 the discrepancy principle clamps lambda to 1e-16
    Case("stability-zero-eps", "stability", "s1_stability.cfg",
         ("sweep.epsilons = 0, 1e-3",)),
    Case("certify", "certify", "certify_example.cfg"),
    # certify is scalar arithmetic on the standard library
    Case("certify-no-numpy", "certify", "certify_example.cfg",
         blocked=("scipy", "numpy"), same_as="certify"),
    # the domain is eps / e_tilde < 1/2, whatever the units of the two
    Case("certify-eps-over-half", "certify", "certify_example.cfg",
         ("cert.epsilon = 0.6", "cert.e_tilde = 10")),
    # the continuation's range sketch draws from a fixed stream of its own
    Case("stability-r4-a", "stability", "sweep_benchmark.cfg",
         flags=("--resolution", "4")),
    Case("stability-r4-b", "stability", "sweep_benchmark.cfg",
         flags=("--resolution", "4"), same_as="stability-r4-a"),
    # scan.r_min is 0.02: one distinct radius has no doubling fit
    Case("one-radius", "ucp-scan", "s1_ucp_scan.cfg", ("scan.r_max = 0.02",),
         exit=2, error="ConfigError", says="scan.r_max"),
    Case("removed-n-levels", "ucp-scan", "s1_ucp_scan.cfg",
         append=b"extension.n_levels = 64\n", exit=2, error="ConfigError",
         says="unknown key 'extension.n_levels'"),
    Case("nan-q1-center", "stability", "s1_stability.cfg",
         ("q1.center = nan",), exit=2, error="ConfigError", says="q1.center"),
    Case("inf-cert-E", "certify", "certify_example.cfg", ("cert.E = inf",),
         exit=2, error="ConfigError", says="cert.E"),
    Case("negative-L", "forward", "s1_forward.cfg", ("grid.L = -32",),
         exit=2, error="ConfigError", says="grid.L"),
    Case("not-utf8", "forward", "s1_forward.cfg", append=b"\xff\n",
         exit=2, error="ConfigError", says="UTF-8"),
    # a second line of a key does not override the first
    Case("duplicate-key", "forward", "s1_forward.cfg",
         append=b"f.amplitude = 7\n", exit=2, error="ConfigError",
         says="line 21: key 'f.amplitude' is given again "
              "(first on line 12)"),
    # the relative q error is undefined
    Case("zero-q2", "stability", "s1_stability.cfg", ("q2.amplitude = 0",),
         exit=3, error="ZeroDataError"),
    # an overflowing recover_u residual; a bisection on nan would hang
    Case("huge-sweep-eps", "stability", "s1_stability.cfg",
         ("sweep.epsilons = 1e300, 1e-3",), exit=3, error="DomainError"),
    Case("huge-noise", "forward", "s1_forward.cfg",
         ("noise.epsilon = 1e300",), exit=3, error="DomainError"),
    Case("huge-f-forward", "forward", "s1_forward.cfg",
         ("f.amplitude = 1e300",), exit=3, error="DomainError"),
    Case("huge-f-ucp-scan", "ucp-scan", "s1_ucp_scan.cfg",
         ("f.amplitude = 1e300",), exit=3, error="DomainError"),
    # the first heights, 1e-300 and less, are too small to difference
    Case("ucp-scan-s0994", "ucp-scan", "s1_ucp_scan.cfg",
         ("geometry.s = 0.994",), exit=3, error="ResolutionError"),
    # the first graded heights underflow to 0 once 1/(1-s) > 179
    Case("ucp-scan-s0999", "ucp-scan", "s1_ucp_scan.cfg",
         ("geometry.s = 0.999",), exit=2, error="ConfigError",
         says="geometry.s"),
    # an unusable output location is a runtime error, not a config error
    Case("u-csv-is-a-dir", "forward", "s1_forward.cfg", dir_at="u.csv",
         exit=3, error="IsADirectoryError"),
    Case("out-is-a-file", "forward", "s1_forward.cfg", out_is_file=True,
         exit=3, error="FileExistsError"),
    Case("certificate-is-a-dir", "certify", "certify_example.cfg",
         dir_at="certificate.txt", exit=3, error="IsADirectoryError"),
)


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def config_text(config: str, edits=(), append: bytes = b"") -> bytes:
    """configs/<config> with each edit ``key = value`` in place of the
    line of that key, and append added at the end.  An edit that matches
    no line or more than one raises ValueError."""
    lines = (ROOT / "configs" / config).read_bytes().split(b"\n")
    for edit in edits:
        key = edit.split(" =")[0].encode() + b" ="
        hits = [i for i, line in enumerate(lines) if line.startswith(key)]
        if len(hits) != 1:
            raise ValueError(f"edit {edit!r} matches {len(hits)} config lines")
        lines[hits[0]] = edit.encode()
    return b"\n".join(lines) + append


def check(case: Case, src: Path, root: Path) -> list:
    """Run one row in root/<name>/ and list the rules it breaks, all but
    same_as, which run_table checks."""
    try:
        text = config_text(case.config, case.edits, case.append)
    except ValueError as exc:
        return [str(exc)]
    run_dir, out = root / case.name, root / case.name / "out"
    run_dir.mkdir(parents=True)
    (run_dir / "case.cfg").write_bytes(text)
    if case.out_is_file:
        out.touch()
    elif case.dir_at:
        (out / case.dir_at).mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD.format(blocked=case.blocked),
             case.command, "--config", "case.cfg", "--out", str(out),
             *case.flags], cwd=run_dir,
            env=child_env(src), capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return [f"no exit within {TIMEOUT} s"]
    err = proc.stderr.decode(errors="replace").splitlines()
    broken = [] if proc.returncode == case.exit else [
        f"exit {proc.returncode}, not {case.exit}"]
    if case.exit == 0:
        broken += ["stderr is not empty"] if err else []
        for name in WRITES[case.command]:
            path = out / name
            if not path.is_file() or path.stat().st_size == 0:
                broken.append(f"{name} is missing or empty")
            elif NON_FINITE.search(path.read_text(errors="replace")):
                broken.append(f"{name} holds nan or inf")
    else:
        if not (len(err) == 1 and err[0].startswith(f"{case.error}: ")
                and case.says in err[0]):
            broken.append(f"stderr is not the one line "
                          f"'{case.error}: ...{case.says}...'")
        written = _files(out) if out.is_dir() else {}
        if written:
            broken.append(f"wrote {', '.join(map(str, written))}")
    if broken:
        broken.append("stderr: " + " | ".join(err[-3:]))
    return broken


def run_table(src: Path, root: Path) -> dict:
    """Run every row under root, WORKERS at a time, and map each name to
    the rules its row breaks."""
    with ThreadPoolExecutor(WORKERS) as pool:
        broken = dict(zip([case.name for case in CASES], pool.map(
            lambda case: check(case, src, root), CASES)))
    for case in CASES:
        if case.same_as and (_files(root / case.name / "out")
                             != _files(root / case.same_as / "out")):
            broken[case.name].append(
                f"files differ from those of {case.same_as}")
    return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        metavar="DIR", help="directory holding fraclab")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        broken = run_table(args.src.resolve(), Path(root))
    for name, rules in broken.items():
        print(f"{'FAIL' if rules else 'ok'} {name}"
              + "".join(f"\n    {rule}" for rule in rules))
    failed = sum(map(bool, broken.values()))
    print(f"{len(CASES) - failed} of {len(CASES)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
