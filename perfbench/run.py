#!/usr/bin/env python3
"""Benchmark of the fraclab CLI on the shipped scenario configs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is used from
``src/`` as it stands, nothing is installed.  NAME is one of WORKLOADS or
``all``.  One iteration runs the workload's CLI invocations one after
another, each in its own process started from this one, with BLAS pinned
to one thread.  Iterations repeat until the next one would end after
``--seconds``; there is always at least one.  The figures are medians
over samples (see SAMPLE_S; with ``--trace 1`` a sample is one
iteration).  Every invocation's outputs are checked (check.py);
an invocation that exits non-zero or fails the check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
iteration twice, untraced and then traced, and reports the per-layer
metrics of tracing.py; ``trace.overhead_s`` is the difference in wall
time between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the machine facts, every metric with its unit and the check
verdict.  The full record, machine facts and raw per-iteration figures
included, is written to ``.bench_build/results/``.  Exit code 0 when a
result was printed, 2 when the checkout lacks the program or its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "golden" / "v1" / "s1.json"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import check      # noqa: E402
import tracing    # noqa: E402

# workload -> CLI invocations (subcommand, config stem, --resolution)
WORKLOADS = {
    # extension-bound: extend is ~90% of run_s; no noise, the seed is unused
    "ucp_scan_r4": [("ucp-scan", "s1_ucp_scan", 4)],
    # dense-algebra-bound: forward solves, 7 recover_u SVDs and recover_q;
    # never calls the extension
    "stability_r4": [("stability", "sweep_benchmark", 4)],
    # all four subcommands at the S1 size: fixed costs dominate
    "s1_pipeline_r1": [("forward", "s1_forward", 1),
                       ("ucp-scan", "s1_ucp_scan", 1),
                       ("stability", "s1_stability", 1),
                       ("certify", "certify_example", 1)],
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MiB"), ("ok_frac", "ratio")]

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}

INVOCATION_TIMEOUT_S = 150

# The speed of a small shared machine flips between states about once a
# second, so single iterations of a second or two are bimodal and their
# median jumps between modes.  End-to-end figures are therefore taken
# over samples: blocks of consecutive iterations lasting at least
# SAMPLE_S of wall time, each reduced to its mean per iteration.
SAMPLE_S = 3.0

EXIT_NO_PROGRAM = 2


def invocation_key(command, config, resolution):
    return f"{command}:{config}:r{resolution}"


def missing_inputs():
    """Files the benchmark needs from the checkout that are not there."""
    need = [ROOT / "src" / "fraclab" / "cli.py", GOLDEN, check.REFERENCE]
    need += [ROOT / "configs" / f"{cfg}.cfg"
             for invs in WORKLOADS.values() for _, cfg, _ in invs]
    return [str(p) for p in dict.fromkeys(need) if not p.is_file()]


def child_env():
    env = dict(os.environ, **PINS)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_invocation(work, k, command, config, resolution, seed, trace):
    """One CLI invocation in a child process; wall time and peak RSS are
    taken here, set-up and run time (and spans) come from its record."""
    out = work / f"{k}-{command}"
    record = work / f"{k}-{command}.record.json"
    log = work / f"{k}-{command}.log"
    shutil.rmtree(out, ignore_errors=True)
    record.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(record)]
    argv += ["--trace"] if trace else []
    argv += ["--", command, "--config", str(ROOT / "configs" / f"{config}.cfg"),
             "--out", str(out), "--seed", str(seed),
             "--resolution", str(resolution)]
    with open(log, "wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = None
    if record.is_file():
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
    written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    return {"key": invocation_key(command, config, resolution),
            "command": command, "out": out, "log": log,
            "rc": proc.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB
            "bytes_written": written, "record": rec}


def run_iteration(work, workload, seed, trace, references, golden):
    """Run and check every invocation of the workload once."""
    invs = []
    for k, (command, config, res) in enumerate(WORKLOADS[workload]):
        inv = run_invocation(work, k, command, config, res, seed, trace)
        if inv["rc"] != 0 or inv["record"] is None:
            tail = inv["log"].read_text(errors="replace").strip()[-300:]
            inv["failures"] = [f"{inv['key']}: exit code {inv['rc']}: {tail}"]
            inv["max_rel_dev"] = 0.0
        else:
            inv["failures"], inv["max_rel_dev"] = check.check_outputs(
                inv["key"], command, inv["out"], seed, references, golden)
        invs.append(inv)
    return invs


def end_to_end_of(iteration):
    recs = [inv["record"] or {} for inv in iteration]
    return {"wall_s": sum(inv["wall_s"] for inv in iteration),
            "setup_s": sum(r.get("setup_s", 0.0) for r in recs),
            "run_s": sum(r.get("run_s", 0.0) for r in recs),
            "peak_rss_mb": max(inv["peak_rss_mb"] for inv in iteration)}


def samples(per_iter, min_s=SAMPLE_S):
    """Mean per-iteration figures of consecutive blocks of at least min_s
    wall seconds; a short last block joins the one before it."""
    blocks, cur = [], []
    for m in per_iter:
        cur.append(m)
        if sum(x["wall_s"] for x in cur) >= min_s:
            blocks.append(cur)
            cur = []
    if cur:
        if blocks:
            blocks[-1].extend(cur)
        else:
            blocks.append(cur)
    return [{k: statistics.fmean(x[k] for x in b) for k in b[0]} for b in blocks]


def layers_of(plain, traced):
    """Per-layer metrics of one traced iteration and its untraced twin."""
    recs = [inv["record"] or {} for inv in traced]
    m = tracing.combine(tracing.layer_counts(r.get("spans", [])) for r in recs)
    m["fraclab.import_s"] = sum(r.get("import_s", 0.0) for r in recs)
    m["cli.bytes_written"] = sum(inv["bytes_written"] for inv in traced)
    m["trace.run_s"] = sum(r.get("run_s", 0.0) for r in recs)
    m["trace.overhead_s"] = (sum(inv["wall_s"] for inv in traced)
                             - sum(inv["wall_s"] for inv in plain))
    m["check.max_rel_dev"] = max(inv["max_rel_dev"] for inv in plain + traced)
    return m


def machine_facts():
    """nproc, Python, numpy, scipy and the BLAS numpy was built against."""
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(),
             "cpus_allowed": len(os.sched_getaffinity(0)),
             "platform": platform.platform(),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas_pins": PINS, "blas": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"),
                         "version": blas.get("version"),
                         "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):   # numpy without the dict form
        pass
    return facts


def run_workload(workload, seed, seconds, trace, work_root=None):
    """Measure one workload; returns the full result record."""
    work_root = Path(work_root) if work_root else ROOT / ".bench_build"
    work = work_root / "work" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    references = check.load_references()
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)

    iterations = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        plain = run_iteration(work, workload, seed, False, references, golden)
        traced = (run_iteration(work, workload, seed, True, references, golden)
                  if trace else [])
        iterations.append((plain, traced))
        now = perf_counter()
        if now + (now - t0) > deadline:
            break

    invs = [inv for plain, traced in iterations for inv in plain + traced]
    attempted = len(invs)
    failures = [f for inv in invs for f in inv["failures"]]
    failed = sum(1 for inv in invs if inv["failures"])
    if trace:
        per_iter = [layers_of(p, t) for p, t in iterations]
        names = [name for name, *_ in tracing.LAYER_METRICS]
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        summary = per_iter
    else:
        per_iter = [end_to_end_of(p) for p, _ in iterations]
        summary = samples(per_iter)
        for m in summary:
            m["ok_frac"] = (attempted - failed) / attempted
        names = [name for name, _ in END_TO_END]
        units = dict(END_TO_END)
    metrics = {name: {"value": statistics.median(m[name] for m in summary),
                      "unit": units[name]} for name in names}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "iterations": len(iterations),
        "samples": len(summary),
        "invocations": [invocation_key(*i) for i in WORKLOADS[workload]],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "per_iteration": per_iter,
        "invocation_records": [_without_spans(inv) for inv in invs],
        "last_spans": {inv["key"]: (inv["record"] or {}).get("spans", [])
                       for inv in iterations[-1][1]},
    }


def _without_spans(inv):
    rec = {k: v for k, v in (inv["record"] or {}).items() if k != "spans"}
    return rec | {k: inv[k] for k in ("key", "rc", "wall_s", "peak_rss_mb",
                                      "bytes_written", "failures")}


def _print_result(result):
    moves = {name: (e2e, wls) for name, _, _, e2e, wls in tracing.LAYER_METRICS}
    print(f"# {result['workload']}: seed {result['seed']}, "
          f"{result['iterations']} iterations of "
          f"{', '.join(result['invocations'])}; medians over "
          f"{result['samples']} samples")
    for name, m in result["metrics"].items():
        line = f"{name:<44} {m['value']:>16.8g} {m['unit']}"
        if name in moves:
            e2e, wls = moves[name]
            line += f"   -> {e2e} on {', '.join(wls)}"
        print(line)
    verdict = "pass" if result["correct"] else "FAIL"
    print(f"# check: {verdict}, {result['failed']} of {result['attempted']} "
          f"invocations failed")
    for f in result["failures"][:10]:
        print(f"#   {f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print("perfbench: the checkout lacks " + ", ".join(missing),
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    os.environ.update(PINS)
    facts = machine_facts()
    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    seed = args.seed % 2 ** 31     # the CLI's noise seed must be nonnegative
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for wl in workloads:
        res = run_workload(wl, seed, args.seconds, bool(args.trace))
        res["machine"] = facts
        out = ROOT / ".bench_build" / "results"
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{wl}-seed{seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, default=str)
        _print_result(res)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
