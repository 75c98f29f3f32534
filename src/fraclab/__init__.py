"""Numerical laboratory for a one-dimensional nonlocal inverse problem:
forward simulation of the fractional Schroedinger exterior-value problem,
degenerate-elliptic extension to the upper half plane, quantitative
unique-continuation diagnostics, and regularized single-measurement
recovery of the potential with a self-calibrating stability certificate.

The names below resolve on first access (PEP 562): ``fraclab.solve_forward``
imports ``fraclab.forward`` then, so ``import fraclab`` costs no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AllExcludedError", "ConfigError", "DegenerateError",
               "DomainError", "EigenvalueError", "EmptyRegionError",
               "FraclabError", "GeometryError", "OverlapError",
               "ResolutionError", "SingularSolveError", "SupportError",
               "ZeroDataError", "ZeroMassError"),
    "geometry": ("Geometry", "GridFunction", "GridSpec", "build_geometry",
                 "bump_profile", "make_grid_function", "sample_profile",
                 "support_mask"),
    "spaces": ("dual_norm_on_window", "holder_norm", "make_potential",
               "oscillation_ratio", "sobolev_norm"),
    "fracop": ("FracLapDense", "apply_dense", "assemble_dense",
               "symbol_constant"),
    "forward": ("ForwardSolution", "add_noise", "dtn_map", "eigen_gap",
                "export_measurement_csv", "solve_forward"),
    "extension": ("ExtensionField", "Region", "default_y_grid", "extend",
                  "extension_multiplier", "trace_mass_sq",
                  "weighted_gradient_norm", "weighted_norm"),
    "diagnostics": ("DoublingReport", "LemmaCheck", "annulus_ratio",
                    "caccioppoli_check", "carleman_weight",
                    "doubling_scan_boundary", "doubling_scan_bulk",
                    "persistence_check"),
    "reconstruction": ("PotentialRecovery", "ReconstructionResult",
                       "StabilityCurve", "fit_log_modulus", "noise_sweep",
                       "recover_q", "recover_u"),
    "certificate": ("StabilityCertificate", "certify_bound"),
    "config": ("Scenario", "ScenarioConfig", "build_scenario", "load_config",
               "parse_config_text"),
    "experiments": ("EndToEndReport", "end_to_end", "run_forward",
                    "run_ucp_scan"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                   name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
