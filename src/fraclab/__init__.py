"""Numerical laboratory for a one-dimensional nonlocal inverse problem:
forward simulation of the fractional Schroedinger exterior-value problem,
degenerate-elliptic extension to the upper half plane, quantitative
unique-continuation diagnostics, and regularized single-measurement
recovery of the potential with a self-calibrating stability certificate.
"""

__version__ = "0.1.0"

from .errors import (AllExcludedError, ConfigError, DegenerateError,
                     DiscrepancyError, DomainError, EigenvalueError,
                     EmptyRegionError, FraclabError, GeometryError,
                     OverlapError, ResolutionError, SingularSolveError,
                     SupportError, ZeroDataError, ZeroMassError)
from .geometry import (Geometry, GridFunction, GridSpec, Potential,
                       build_geometry, bump_profile, make_grid_function,
                       sample_profile, support_mask)
from .spaces import (dual_norm_on_window, holder_norm, make_potential,
                     oscillation_ratio, sobolev_norm)
from .fracop import (FracLapDense, apply_dense, apply_spectral,
                     assemble_dense, symbol_constant)
from .forward import (ForwardSolution, Measurement, add_noise, dtn_map,
                      eigen_gap, export_measurement_csv, solve_forward)
from .extension import (ExtensionField, Region, default_y_grid, extend,
                        extension_multiplier, neumann_trace, neumann_trace_fd,
                        trace_constant, trace_mass_sq, weighted_gradient_norm,
                        weighted_norm)
from .diagnostics import (DoublingReport, LemmaCheck, annulus_ratio,
                          boundary_bulk_check, caccioppoli_check,
                          carleman_weight, doubling_scan_boundary,
                          doubling_scan_bulk, persistence_check,
                          three_balls_exponent)
from .reconstruction import (ReconstructionResult, StabilityCertificate,
                             StabilityCurve, certify_bound,
                             fit_log_modulus, fit_power_law_exponent,
                             noise_sweep, potential_sweep, recover_q,
                             recover_u)
from .config import (Scenario, ScenarioConfig, build_scenario, load_config,
                     parse_config_text)
from .experiments import (EndToEndReport, end_to_end, run_forward,
                          run_ucp_scan)
