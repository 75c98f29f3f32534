"""Plain-text scenario configuration.

One ``key = value`` pair per line, ``#`` comments, dotted keys grouped by
block.  The geometry and grid keys are fixed for reproducibility:

    geometry.omega = -1, 1
    geometry.w = 2, 3
    geometry.omega_prime = -0.75, 0.75
    geometry.s = 0.5
    grid.L = 32
    grid.n_super = 4096

Potentials and the exterior data are parametric bumps (center, width,
amplitude); experiment blocks add noise, reconstruction, scan and
certificate parameters, and ``sweep.epsilons``, the noise ladder of the
``stability`` sweep.  Unknown and repeated keys are rejected, and every
number must be finite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING

from .certificate import CERT_INPUTS
from .errors import ConfigError

if TYPE_CHECKING:
    from .fracop import FracLapDense
    from .geometry import Geometry, GridFunction

_FLOAT_KEYS = {
    "geometry.s", "grid.L",
    "f.center", "f.width", "f.amplitude",
    "q1.center", "q1.width", "q1.amplitude",
    "q2.center", "q2.width", "q2.amplitude",
    "noise.epsilon", "recon.theta",
    "scan.x0", "scan.r_min", "scan.r_max",
} | {f"cert.{k}" for k in CERT_INPUTS}
_INT_KEYS = {"grid.n_super", "seed", "scan.n_radii"}
_PAIR_KEYS = {"geometry.omega", "geometry.w", "geometry.omega_prime"}
_LIST_KEYS = {"sweep.epsilons"}

_KNOWN = _FLOAT_KEYS | _INT_KEYS | _PAIR_KEYS | _LIST_KEYS

# keys whose value, or each entry of a list, must be > 0 or >= 0
_POSITIVE_KEYS = {"grid.L", "f.width", "q1.width", "q2.width"}
_NONNEGATIVE_KEYS = {"noise.epsilon", "sweep.epsilons", "seed", "recon.theta"}

_DEFAULTS = {
    "geometry.omega_prime": None,
    "grid.L": 32.0,
    "grid.n_super": 4096,
    "f.amplitude": 1.0,
    "q1.amplitude": 0.0,
    "q2.amplitude": 0.0,
    "noise.epsilon": 0.0,
    "recon.theta": 1e-6,
    "scan.x0": 0.0,
    "scan.n_radii": 8,
    "seed": 0,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of one parsed configuration file."""

    entries: dict
    text: str

    def __getitem__(self, key):
        return self.entries[key]

    def get(self, key, default=None):
        return self.entries.get(key, default)

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:16]


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        vals = tuple(float(p) for p in raw.split(","))
        if not all(map(isfinite, vals)):
            raise ValueError("every number must be finite")
        if key in _FLOAT_KEYS:
            if len(vals) != 1:
                raise ValueError("expected one number")
            return vals[0]
        if key in _PAIR_KEYS and len(vals) != 2:
            raise ValueError("expected two comma-separated numbers")
        return vals
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def parse_config_text(text: str) -> ScenarioConfig:
    entries, first = dict(_DEFAULTS), {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (p.strip() for p in body.split("=", 1))
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} is given again "
                              f"(first on line {first[key]})")
        entries[key] = value = _parse_value(key, raw)
        vals = value if isinstance(value, tuple) else (value,)
        if key in _POSITIVE_KEYS and not all(v > 0 for v in vals):
            raise ConfigError(f"line {lineno}: {key} must be positive")
        if key in _NONNEGATIVE_KEYS and not all(v >= 0 for v in vals):
            raise ConfigError(f"line {lineno}: {key} must be nonnegative")
        # the guard theta * max |u| then always keeps the maximizer
        if key == "recon.theta" and not value <= 1:
            raise ConfigError(f"line {lineno}: {key} must be at most 1")
    for required in ("geometry.omega", "geometry.w", "geometry.s"):
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")
    return ScenarioConfig(entries=entries, text=text)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


@dataclass(frozen=True, eq=False)
class Scenario:
    """What a driver needs: geometry and grid, operator, data, and the
    potentials, grid functions whose norms the drivers measure."""

    config: ScenarioConfig
    geom: Geometry
    op: FracLapDense
    f: GridFunction             # exterior data on w
    q1: GridFunction
    q2: GridFunction


def _bump_from_block(cfg: ScenarioConfig, block: str, geom, support):
    import numpy as np
    from .geometry import bump_profile, make_grid_function, sample_profile

    amp = cfg[f"{block}.amplitude"]
    if amp == 0.0:
        return make_grid_function(geom, np.zeros(geom.spec.n_super), support)
    center = cfg.get(f"{block}.center")
    width = cfg.get(f"{block}.width")
    if center is None or width is None:
        raise ConfigError(f"block {block!r} needs center and width")
    lo, hi = getattr(geom, support)
    if center - width < lo or center + width > hi:
        raise ConfigError(
            f"{block} bump support [{center - width}, {center + width}] "
            f"leaves its interval [{lo}, {hi}]")
    prof = bump_profile(center, width, amp)
    return sample_profile(geom, prof, support, mode="average")


def build_scenario(cfg: ScenarioConfig, resolution_multiplier: int = 1) -> Scenario:
    """Instantiate geometry, operator and data from a parsed config.

    The resolution multiplier scales n_super (for refinement studies)
    without touching the configured physical parameters.  The call
    loads the numeric stack (importing this module loads no numpy), the
    experiment drivers included, so a command that runs the scenario has
    finished its imports when the scenario is built.
    """
    from . import experiments  # noqa: F401
    from .fracop import assemble_dense
    from .geometry import build_geometry

    n_super = int(cfg["grid.n_super"]) * int(resolution_multiplier)
    geom = build_geometry(
        omega=cfg["geometry.omega"], w=cfg["geometry.w"],
        s=cfg["geometry.s"], box_halfwidth=cfg["grid.L"],
        n_super=n_super, omega_prime=cfg["geometry.omega_prime"])
    if cfg.get("f.center") is None:
        raise ConfigError("missing required block 'f' (exterior data bump)")
    f = _bump_from_block(cfg, "f", geom, "w")
    if not f.values.any():
        raise ConfigError("exterior data f must be nonzero")
    q1 = _bump_from_block(cfg, "q1", geom, "omega_prime")
    q2 = _bump_from_block(cfg, "q2", geom, "omega_prime")
    return Scenario(config=cfg, geom=geom, op=assemble_dense(geom), f=f, q1=q1,
                    q2=q2)
