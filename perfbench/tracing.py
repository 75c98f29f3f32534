"""In-memory spans around the public layer functions of ``fraclab``.

The tracer wraps each function listed in ``LAYERS`` at every binding a
``fraclab`` module holds for it (its defining module and each module that
imported it by name), so calls between modules are recorded without any
change to the package.  A span is ``[name, start, end, parent, error,
attrs]``; ``parent`` is the index of the enclosing span or -1.  Spans stay
in memory until the invocation ends and are then written out with the
invocation record.

``layer_counts`` turns the spans of one invocation into additive
per-layer values and ``combine`` sums them over a workload's
invocations.  ``LAYER_METRICS`` lists every per-layer metric with its
unit, its better direction, and the end-to-end metric and workloads it
should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# module -> public functions traced in it; helpers not listed here count
# as self time of the traced function that calls them
LAYERS = {
    "config": ["load_config", "build_scenario"],
    "fracop": ["assemble_dense", "apply_dense"],
    "forward": ["solve_forward", "eigen_gap", "dtn_map", "add_noise",
                "export_measurement_csv"],
    "extension": ["extend", "weighted_norm", "weighted_gradient_norm"],
    "diagnostics": ["doubling_scan_bulk", "doubling_scan_boundary",
                    "caccioppoli_check", "persistence_check",
                    "annulus_ratio"],
    "experiments": ["run_forward", "run_ucp_scan", "end_to_end"],
    "reconstruction": ["recover_u", "recover_q", "noise_sweep"],
    "spaces": ["sobolev_norm", "dual_norm_on_window", "oscillation_ratio",
               "holder_norm", "make_potential"],
    "cli": ["cmd_forward", "cmd_ucp_scan", "cmd_stability", "cmd_certify"],
}

# span name -> function of the result giving attributes to keep on the span
ATTRS = {
    "fracop.assemble_dense": lambda op: {"n_active": int(op.n_active),
                                         "matrix_bytes": int(op.matrix.nbytes)},
    "extension.extend": lambda field: {"columns": int(field.values.shape[1]),
                                       "bytes": int(field.values.nbytes)},
    "reconstruction.recover_q": lambda res: {
        "excluded_nodes": 0 if res.excluded is None else int(len(res.excluded))},
}

# metric -> (span name, attribute summed over its spans)
ATTR_METRICS = {
    "fracop.n_active": ("fracop.assemble_dense", "n_active"),
    "fracop.matrix_bytes": ("fracop.assemble_dense", "matrix_bytes"),
    "extension.extend.columns": ("extension.extend", "columns"),
    "extension.extend.bytes": ("extension.extend", "bytes"),
    "reconstruction.recover_q.excluded_nodes": ("reconstruction.recover_q",
                                                "excluded_nodes"),
}

# self_s metrics summed over several traced functions
GROUPS = {
    "diagnostics.lemma_checks": ["diagnostics.caccioppoli_check",
                                 "diagnostics.persistence_check",
                                 "diagnostics.annulus_ratio"],
    "spaces.norms": ["spaces.sobolev_norm", "spaces.dual_norm_on_window",
                     "spaces.oscillation_ratio", "spaces.holder_norm"],
    # output formatting and file writes: the cmd_* bodies plus the CSV
    # export the forward command delegates to
    "cli.write": ["cli.cmd_forward", "cli.cmd_ucp_scan", "cli.cmd_stability",
                  "cli.cmd_certify", "forward.export_measurement_csv"],
}

S1 = "s1_pipeline_r1"
UCP = "ucp_scan_r4"
STAB = "stability_r4"

# (metric, unit, better, end-to-end metric it should move, workloads)
LAYER_METRICS = [
    ("fraclab.import_s", "s", "lower", "setup_s", [S1]),
    ("config.build_scenario.self_s", "s", "lower", "setup_s", [S1]),
    ("fracop.assemble_dense.self_s", "s", "lower", "setup_s", [UCP, STAB]),
    ("fracop.n_active", "count", "lower", "setup_s", [UCP, STAB]),
    ("fracop.matrix_bytes", "bytes", "lower", "setup_s", [UCP, STAB]),
    ("fracop.apply_dense.self_s", "s", "lower", "run_s", [STAB]),
    ("fracop.apply_dense.calls", "count", "lower", "run_s", [STAB]),
    ("fracop.apply_dense.first_s", "s", "lower", "run_s", [STAB]),
    ("forward.solve_forward.self_s", "s", "lower", "run_s", [STAB]),
    ("forward.solve_forward.calls", "count", "lower", "run_s", [STAB]),
    ("forward.eigen_gap.self_s", "s", "lower", "run_s", [STAB]),
    ("forward.dtn_map.self_s", "s", "lower", "run_s", [STAB]),
    ("forward.add_noise.self_s", "s", "lower", "run_s", [STAB]),
    ("extension.extend.self_s", "s", "lower", "run_s", [UCP]),
    ("extension.extend.calls", "count", "lower", "run_s", [UCP]),
    ("extension.extend.columns", "count", "lower", "run_s", [UCP]),
    ("extension.extend.bytes", "bytes", "lower", "peak_rss_mb", [UCP]),
    ("extension.weighted_norm.self_s", "s", "lower", "run_s", [UCP]),
    ("extension.weighted_norm.calls", "count", "lower", "run_s", [UCP]),
    ("extension.weighted_gradient_norm.self_s", "s", "lower", "run_s", [UCP]),
    ("diagnostics.doubling_scan_bulk.self_s", "s", "lower", "run_s", [UCP]),
    ("diagnostics.doubling_scan_boundary.self_s", "s", "lower", "run_s", [UCP]),
    ("diagnostics.lemma_checks.self_s", "s", "lower", "run_s", [UCP]),
    ("experiments.run_ucp_scan.self_s", "s", "lower", "run_s", [UCP]),
    ("reconstruction.recover_u.self_s", "s", "lower", "run_s", [STAB]),
    ("reconstruction.recover_u.calls", "count", "lower", "run_s", [STAB]),
    ("reconstruction.recover_u.failed", "count", "lower", "run_s", [STAB]),
    ("reconstruction.recover_u.useful_ratio", "ratio", "higher", "run_s", [STAB]),
    ("reconstruction.fixed_fallbacks", "count", "lower", "run_s", [STAB]),
    ("reconstruction.recover_q.self_s", "s", "lower", "run_s", [STAB]),
    ("reconstruction.recover_q.excluded_nodes", "count", "lower", "run_s", [STAB]),
    ("reconstruction.noise_sweep.self_s", "s", "lower", "run_s", [STAB]),
    ("experiments.end_to_end.self_s", "s", "lower", "run_s", [STAB]),
    ("spaces.norms.self_s", "s", "lower", "run_s", [STAB]),
    ("cli.write.self_s", "s", "lower", "run_s", [S1]),
    ("cli.bytes_written", "bytes", "lower", "run_s", [S1]),
    ("trace.run_s", "s", "lower", "run_s", [S1, UCP, STAB]),
    ("trace.overhead_s", "s", "lower", "wall_s", [S1, UCP, STAB]),
    ("check.max_rel_dev", "ratio", "lower", "ok_frac", [S1, UCP, STAB]),
]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, "", {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(result)
            return result

        return traced

    def install(self):
        """Replace every fraclab binding of each LAYERS function by its wrapper."""
        for modname, names in LAYERS.items():
            mod = importlib.import_module(f"fraclab.{modname}")
            for fname in names:
                fn = getattr(mod, fname)
                patch_bindings(fn, self.wrap(f"{modname}.{fname}", fn))


def patch_bindings(fn, replacement):
    """Rebind ``fn`` to ``replacement`` in every loaded fraclab module."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fraclab" or n.startswith("fraclab."))]
    for mod in mods:
        for attr in [a for a, v in vars(mod).items() if v is fn]:
            setattr(mod, attr, replacement)


def self_times(spans):
    """Per span name: summed self time, calls, failed calls, first duration."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, error, _) in enumerate(spans):
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0, "failed": 0,
                                    "first_s": end - start})
        agg["self_s"] += (end - start) - child[i]
        agg["calls"] += 1
        agg["failed"] += bool(error)
    return out


def _fixed_fallbacks(spans):
    """recover_u calls that directly follow a failed recover_u sibling."""
    last = {}
    count = 0
    for name, _, _, parent, error, _ in spans:
        if name != "reconstruction.recover_u":
            continue
        if last.get(parent):
            count += 1
        last[parent] = bool(error)
    return count


def layer_counts(spans):
    """Additive per-layer values of one invocation: self times, calls and
    counts.  ``combine`` sums them over a workload's invocations; the
    metrics not derived from spans are measured by run.py."""
    st = self_times(spans)
    zero = {"self_s": 0.0, "calls": 0, "failed": 0, "first_s": 0.0}
    m = {"reconstruction.fixed_fallbacks": _fixed_fallbacks(spans)}
    for metric, *_ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if metric in ATTR_METRICS:
            span_name, key = ATTR_METRICS[metric]
            m[metric] = sum(s[5].get(key, 0) for s in spans if s[0] == span_name)
        elif field == "self_s":
            m[metric] = sum(st.get(n, zero)["self_s"]
                            for n in GROUPS.get(base, [base]))
        elif field in ("calls", "failed", "first_s"):
            m[metric] = st.get(base, zero)[field]
    return m


def combine(per_invocation):
    """Sum layer counts over invocations and add the ratios derived from them.

    useful_ratio is successful recover_u calls over attempted ones, 0 when
    the workload never calls recover_u.
    """
    total = {}
    for counts in per_invocation:
        for k, v in counts.items():
            total[k] = total.get(k, 0) + v
    calls = total.get("reconstruction.recover_u.calls", 0)
    failed = total.get("reconstruction.recover_u.failed", 0)
    total["reconstruction.recover_u.useful_ratio"] = (
        (calls - failed) / calls if calls else 0.0)
    return total
