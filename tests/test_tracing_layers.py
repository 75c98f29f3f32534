"""The benchmark's tracer against the library it wraps.

``perfbench/tracing.py`` wraps each function its ``LAYERS`` names by
``fraclab.<module>.<name>`` and applies each ``ATTRS`` function to the
result of its span.  A renamed layer or result attribute breaks the
traced benchmark; these tests read the tracer's tables, without running
it, so the suite fails first.
"""

import importlib
import importlib.util

import fraclab as fl

from conftest import ROOT


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_layer_resolves():
    missing = [f"{mod}.{name}" for mod, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"fraclab.{mod}"), name, None))]
    assert missing == []


def test_every_attrs_function_applies_to_s1(s1_scenario, s1_op, s1_field):
    sol = fl.solve_forward(s1_op, s1_scenario.q1, s1_scenario.f)
    results = {
        "fracop.assemble_dense": s1_op,
        "extension.extend": s1_field,
        "reconstruction.recover_q": fl.recover_q(
            s1_op, sol.u, s1_scenario.config["recon.theta"], 1.0),
    }
    assert set(tracing.ATTRS) == set(results)
    for span, attrs in tracing.ATTRS.items():
        mod, name = span.split(".")
        assert name in tracing.LAYERS[mod], span
        keys = {key for s, key in tracing.ATTR_METRICS.values() if s == span}
        assert keys <= set(attrs(results[span])), span
