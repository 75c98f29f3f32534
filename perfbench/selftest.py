"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload gets a reduced run of one iteration; the traced run must
emit every per-layer metric with repeatable counts; a perturbed output
file must fail the check; and a checkout without the program must make
the benchmark exit non-zero without a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check    # noqa: E402
import run      # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == {n: u for n, u, *_ in tracing.LAYER_METRICS}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in BENCHMARK[kind]:
            assert NAME.fullmatch(m["name"]) and m["unit"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    res = run.run_workload(workload, seed=0, seconds=0, trace=False,
                           work_root=tmp_path)
    assert res["correct"], res["failures"]
    assert res["iterations"] == 1
    assert res["attempted"] == len(run.WORKLOADS[workload])
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        _declared("end_to_end")
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name


def test_traced_run_emits_layers_and_repeats_counts(tmp_path):
    runs = [run.run_workload("stability_r4", seed=3, seconds=0, trace=True,
                             work_root=tmp_path) for _ in range(2)]
    for res in runs:
        assert res["correct"], res["failures"]
        assert {k: m["unit"] for k, m in res["metrics"].items()} == \
            _declared("per_layer")
    counts = [name for name, unit, *_ in tracing.LAYER_METRICS
              if unit in ("count", "bytes") or name.endswith("useful_ratio")]
    first, second = ({n: r["metrics"][n]["value"] for n in counts} for r in runs)
    assert first == second
    assert first["reconstruction.recover_u.calls"] == 7
    assert first["extension.extend.calls"] == 0


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, "", {}],
             ["b", 1.0, 4.0, 0, "", {}],
             ["c", 2.0, 3.0, 1, "ValueError", {}],
             ["b", 5.0, 6.0, 0, "", {}]]
    st = tracing.self_times(spans)
    assert st["a"]["self_s"] == pytest.approx(6.0)
    assert st["b"]["self_s"] == pytest.approx(3.0)
    assert st["b"]["calls"] == 2 and st["b"]["first_s"] == pytest.approx(3.0)
    assert st["c"]["failed"] == 1


def _rewrite(path, key, value):
    lines = path.read_text().splitlines()
    lines = [f"{key}={value}" if ln.startswith(f"{key}=") else ln
             for ln in lines]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command,config,key,value", [
    ("forward", "s1_forward", "u_hs_norm", "1.19388"),      # reference
    ("forward", "s1_forward", "residual", "2e-10"),         # invariant
    ("certify", "certify_example", "bound", "0.4472136"),   # hand-checked
])
def test_perturbed_output_fails_check(command, config, key, value, tmp_path):
    refs = check.load_references()
    golden = json.loads(run.GOLDEN.read_text())
    inv = run.run_invocation(tmp_path, 0, command, config, 1, 0, False)
    assert inv["rc"] == 0
    failures, _ = check.check_outputs(inv["key"], command, inv["out"], 0,
                                        refs, golden)
    assert failures == []
    name = "apriori_report.txt" if command == "forward" else "certificate.txt"
    _rewrite(inv["out"] / name, key, value)
    failures, _ = check.check_outputs(inv["key"], command, inv["out"], 0,
                                      refs, golden)
    assert failures and all(key in f for f in failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "stability_r4", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
