#!/usr/bin/env python3
"""Run the CLI over the shipped configs and keep everything each run leaves.

    python tools/cli_outputs.py [--src DIR] OUT_DIR
    python tools/cli_outputs.py --compare BEFORE AFTER

runs ``forward``, ``ucp-scan``, ``stability`` and ``certify`` on every
``configs/*.cfg`` at ``--resolution`` 1, 2 and 4 (60 runs).  Each run is
a subprocess of ``python -m fraclab.cli`` with ``PYTHONPATH`` set to DIR
(default: this checkout's ``src``) and one BLAS thread, and writes into
``OUT_DIR/<cfg>.<cmd>.r<res>/`` the files the command wrote plus
``stdout``, ``stderr`` and ``rc`` (its exit code).  ``--configs``,
``--commands`` and ``--resolutions`` narrow the set; each takes one
comma-separated list, such as ``--commands forward,certify``.  A name
that is not a file in ``configs/`` exits 2 before any run.

To check that a change leaves every CLI output byte-identical, run the
tool on the parent's sources and on the change's, and compare the trees:

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python tools/cli_outputs.py --src /tmp/parent/src /tmp/before
    python tools/cli_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

Both sides read the config files of this checkout, so only the sources
differ.  An empty ``diff`` means every file, stdout, stderr and exit code
is the same.

Where a change is meant to move values only by rounding, ``--compare``
prints, for each file of the two trees, the largest relative deviation
``|a - b| / max(|a|, |b|)`` over its numeric fields, then the largest
over all files.  It lists every other difference (text outside the
numbers, a different number of fields, a file on one side only) and
exits 1 if there is one.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("forward", "ucp-scan", "stability", "certify")
RESOLUTIONS = (1, 2, 4)
# a decimal number standing alone, not part of a name such as r4 or s1
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"(?![\w.])")


def child_env(src: Path) -> dict:
    """The environment of a CLI subprocess: fraclab from src, one BLAS
    thread."""
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_all(src: Path, out_dir: Path, configs, commands=COMMANDS,
            resolutions=RESOLUTIONS) -> None:
    """Run every (config, command, resolution) and write its outputs."""
    env = child_env(src)
    for cfg in configs:
        for cmd in commands:
            for res in resolutions:
                run_dir = out_dir / f"{cfg.stem}.{cmd}.r{res}"
                run_dir.mkdir(parents=True)
                proc = subprocess.run(
                    [sys.executable, "-m", "fraclab.cli", cmd,
                     "--config", str(cfg), "--out", str(run_dir),
                     "--resolution", str(res)],
                    cwd=run_dir, env=env, capture_output=True)
                (run_dir / "stdout").write_bytes(proc.stdout)
                (run_dir / "stderr").write_bytes(proc.stderr)
                (run_dir / "rc").write_text(f"{proc.returncode}\n")


def _fields(path: Path):
    """The text of a file split into (text between numbers, numbers)."""
    text = path.read_bytes().decode("utf-8", errors="surrogateescape")
    return NUMBER.split(text), [float(m) for m in NUMBER.findall(text)]


def compare_trees(before: Path, after: Path) -> int:
    """Print per-file numeric deviations and other differences; 1 if any
    difference is not numeric, else 0."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (before, after)]
    other, worst = [], 0.0
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            side = "after" if rel in files[1] else "before"
            other.append(f"{rel}: only in {side}")
            continue
        (text_a, num_a), (text_b, num_b) = (_fields(before / rel),
                                            _fields(after / rel))
        if text_a != text_b:
            other.append(f"{rel}: text or number of fields differs")
            continue
        dev = max((abs(a - b) / max(abs(a), abs(b))
                   for a, b in zip(num_a, num_b) if a != b), default=0.0)
        worst = max(worst, dev)
        print(f"{rel} {dev:.3g}")
    print(f"max_rel_dev {worst:.3g}")
    for line in other:
        print(f"DIFFERS {line}")
    return 1 if other else 0


def _listed(kind):
    """Argument type: a comma-separated list of values of ``kind``."""
    def parse(text):
        return [kind(item) for item in text.split(",")]
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", metavar="OUT_DIR", type=Path, nargs="?",
                        help="new or empty directory for the run trees")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("BEFORE", "AFTER"),
                        help="compare two run trees instead of running")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        metavar="DIR", help="directory holding fraclab")
    parser.add_argument("--configs", type=_listed(str), metavar="NAME,...",
                        help="config file names in configs/ (default: all)")
    parser.add_argument("--commands", type=_listed(str), default=COMMANDS,
                        metavar="CMD,...", help=f"of {','.join(COMMANDS)}")
    parser.add_argument("--resolutions", type=_listed(int),
                        default=RESOLUTIONS, metavar="MULT,...")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_trees(*args.compare)
    if args.out_dir is None:
        parser.error("OUT_DIR is required without --compare")
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    unknown = sorted(set(args.commands) - set(COMMANDS))
    if unknown:
        parser.error(f"unknown commands: {', '.join(unknown)}")
    if args.configs:
        configs = [ROOT / "configs" / name for name in args.configs]
        missing = [p.name for p in configs if not p.is_file()]
        if missing:
            parser.error(f"not in configs/: {', '.join(missing)}")
    else:
        configs = sorted((ROOT / "configs").glob("*.cfg"))
    run_all(args.src.resolve(), args.out_dir.resolve(), configs,
            args.commands, args.resolutions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
