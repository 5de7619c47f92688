"""Structured run configuration: schema, validation, canonical serialization.

The file format is JSON with unit-suffixed keys (lengths in nm, times in fs,
fields in T and T/m).  Values are kept in file units inside SimulationConfig
so that write_config/load_config round-trips are exact; conversion to SI
happens only in the build_* methods.

Each file key is declared once, as a SimulationConfig field whose metadata
(`Key`) gives its section, kind, default and range rule.  Parsing, defaults,
the canonical dump and the constants, field and solver builders are loops
over those declarations (`SCHEMA`).  A key that feeds a builder takes its
default from that builder's own field.  Only rules that tie several keys
together are code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .io import read_state, read_state_header
from .phasespace import (LinearEMField, PhaseSpaceGrid, PhysicalConstants,
                         grid_difference, make_grid)
from .solvers.common import SolverConfig, SolverConfigError

NM = 1e-9
FS = 1e-15
DIM = 2     # every solver runs on 2D grids, so every per-axis key has 2 entries

SECTIONS = ("grid", "constants", "field", "initial_state", "solver", "output")
OPTIONAL_SECTIONS = ("constants", "output")
METHODS = ("semidiscrete", "continuum", "fredholm", "mc")
OBSERVABLES = ("mass", "mean_momentum", "boundary_fraction")
# the object each builder section's keys are handed to, and whose defaults they take
BUILDS = {"constants": PhysicalConstants, "field": LinearEMField, "solver": SolverConfig}
REQUIRED = object()     # the default of a key the file must give


class ConfigError(ValueError):
    """Validation or parse failure, tagged with the config field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fail(path, message):
    raise ConfigError(path, message)


def _checked(value, path, kind):
    """Return `value` unchanged if it is of `kind` (int, float, str or bool).

    float admits any finite JSON number, int only integers; a bool is never
    a number.
    """
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    else:
        ok = (isinstance(value, int if kind is int else (int, float))
              and not isinstance(value, bool)
              and (isinstance(value, int) or math.isfinite(value)))
    if not ok:
        _fail(path, {int: "must be an integer", float: "must be a finite number",
                     str: "must be a string", bool: "must be true or false"}[kind])
    return value


@dataclass(frozen=True)
class Key:
    """One file key: `section.name`.

    kind is int, float, str or bool, or a parser (value, path) -> value.
    default is REQUIRED for a key the file must give; None also admits null.  axes:
    a scalar or one entry per axis, stored as a tuple.  rule is a
    (predicate, message) pair checked on each entry.  to names the builder
    field (of BUILDS[section]) the value feeds, times scale if given.  when
    restricts the key to one initial_state type.
    """

    section: Optional[str]
    kind: object
    default: object = REQUIRED
    name: Optional[str] = None
    axes: bool = False
    rule: Optional[tuple] = None
    to: Optional[str] = None
    scale: Optional[float] = None
    when: Optional[str] = None


def _key(*args, **kwargs):
    return field(metadata={"key": Key(*args, **kwargs)})


def _declared(cls) -> dict:
    """Attribute -> Key of each field of `cls`, with name and default filled in."""
    keys = {}
    for f in fields(cls):
        k = f.metadata["key"]
        default = k.default
        if default is REQUIRED and k.to:
            default = next((g.default for g in fields(BUILDS[k.section])
                            if g.name == k.to and g.default is not MISSING), REQUIRED)
        keys[f.name] = replace(k, name=k.name or f.name, default=default)
    return keys


def _value(value, path, k: Key):
    """The value of key k read at path: type- and rule-checked, per-axis
    keys as a tuple."""
    if value is None and k.default is None:
        return None
    if k.kind not in (int, float, str, bool):
        return k.kind(value, path)
    if not k.axes:
        return _scalar(value, path, k)
    if not isinstance(value, (list, tuple)):
        value = [value] * DIM
    elif len(value) != DIM:
        _fail(path, f"expected {DIM} entries, got {len(value)}")
    return tuple(_scalar(v, f"{path}[{i}]", k) for i, v in enumerate(value))


def _scalar(value, path, k: Key):
    value = k.kind(_checked(value, path, k.kind))
    if k.rule and not k.rule[0](value):
        _fail(path, k.rule[1])
    return value


def _parse_object(obj, path: str, keys: dict, values: dict) -> dict:
    """Read the declared `keys` of the JSON object at `path` into `values`.

    A key restricted to another initial_state type reads as None and is
    refused like any undeclared key.
    """
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    live = set()
    for attr, k in keys.items():
        if k.when not in (None, values.get("state_type")):
            values[attr] = None
            continue
        live.add(k.name)
        where = f"{path}.{k.name}"
        if k.name in obj:
            values[attr] = _value(obj[k.name], where, k)
        elif k.default is REQUIRED:
            _fail(where, "required key missing")
        else:
            values[attr] = _value(k.default, where, k)
    for name in obj:
        if name not in live:
            _fail(f"{path}.{name}", "unknown key")
    return values


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")


def _one_of(options):
    return (lambda v: v in options, f"must be one of {', '.join(options)}")


def _observables(value, path) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "must be a non-empty list")
    for i, name in enumerate(value):
        if name not in OBSERVABLES:
            _fail(f"{path}[{i}]",
                  f"unknown observable; choose from {', '.join(OBSERVABLES)}")
    return tuple(value)


def _targets(value, path) -> tuple:
    if not isinstance(value, list):
        _fail(path, "must be a list")
    return tuple(McTarget(**_parse_object(t, f"{path}[{i}]", _TARGET_KEYS, {}))
                 for i, t in enumerate(value))


@dataclass(frozen=True)
class McTarget:
    m_index: tuple = _key(None, int, 0, axes=True)
    position_nm: tuple = _key(None, float, 0.0, axes=True)


@dataclass(frozen=True)
class SimulationConfig:
    """Validated run description in file units; see docs/config_schema.md."""

    dim: int = _key("grid", int, rule=(lambda v: v == DIM,
                                       "must be 2; every solver runs on 2D grids"))
    coherence_length_nm: tuple = _key("grid", float, axes=True, rule=_POSITIVE)
    omega_extent_nm: tuple = _key("grid", float, axes=True, rule=_POSITIVE)
    n_x: tuple = _key("grid", int, axes=True, rule=_AT_LEAST_1)
    n_p: tuple = _key("grid", int, axes=True, rule=_AT_LEAST_1)
    hbar_Js: float = _key("constants", float, to="hbar", rule=_POSITIVE)
    charge_C: float = _key("constants", float, to="charge", rule=_POSITIVE)
    mass_kg: float = _key("constants", float, to="mass", rule=_POSITIVE)
    field_type: str = _key("field", str, "linear", name="type", rule=(
        lambda v: v == "linear", "must be 'linear': the solvers need a linear "
                                 "profile, and sampled tables drive the kernel API only"))
    e_grad_V_per_m2: tuple = _key("field", float, axes=True, to="e_grad")
    b0_T: float = _key("field", float, to="b0")
    b1_T_per_m: float = _key("field", float, to="b1")
    state_type: str = _key("initial_state", str, "gaussian", name="type",
                           rule=_one_of(("gaussian", "file")))
    center_nm: Optional[tuple] = _key("initial_state", float, 0.0, axes=True,
                                      when="gaussian")
    sigma_nm: Optional[tuple] = _key("initial_state", float, 10.0, axes=True,
                                     rule=_POSITIVE, when="gaussian")
    momentum_dP: Optional[tuple] = _key("initial_state", float, 0.0, axes=True,
                                        when="gaussian")
    sigma_p_dP: Optional[tuple] = _key("initial_state", float, 1.5, axes=True,
                                       rule=_POSITIVE, when="gaussian")
    state_file: Optional[str] = _key("initial_state", str, name="file", when="file")
    method: str = _key("solver", str, rule=_one_of(METHODS))
    dt_fs: float = _key("solver", float, to="dt", scale=FS)
    t_end_fs: float = _key("solver", float, to="t_end", scale=FS)
    boundary: str = _key("solver", str, to="boundary")
    stencil_order: int = _key("solver", int, to="stencil_order")
    m_truncation: Optional[int] = _key("solver", int, to="m_truncation")
    gamma0_per_s: Optional[float] = _key("solver", float, to="gamma0")
    rng_seed: int = _key("solver", int, to="rng_seed")
    n_particles: int = _key("solver", int, to="n_particles")
    fredholm_tol: float = _key("solver", float, to="fredholm_tol")
    fredholm_max_iter: int = _key("solver", int, to="fredholm_max_iter")
    weight_cap: float = _key("solver", float, to="weight_cap")
    mc_targets: tuple = _key("solver", _targets, [])
    output_directory: str = _key("output", str, "out", name="directory")
    snapshot_every: int = _key("output", int, 0, rule=(
        lambda v: v >= 0, "must be a non-negative integer"))
    observables: tuple = _key("output", _observables, list(OBSERVABLES))
    binary_states: bool = _key("output", bool, True)

    # ----- SI builders -------------------------------------------------

    def _build(self, section):
        return BUILDS[section](**{
            k.to: getattr(self, attr) if k.scale is None else getattr(self, attr) * k.scale
            for attr, k in SCHEMA.items() if k.section == section and k.to})

    def build_constants(self) -> PhysicalConstants:
        return self._build("constants")

    def build_grid(self) -> PhaseSpaceGrid:
        L = tuple(v * NM for v in self.coherence_length_nm)
        omega = tuple(v * NM for v in self.omega_extent_nm)
        return make_grid(self.dim, L, omega, self.n_x, self.n_p,
                         self.build_constants())

    def build_field(self) -> LinearEMField:
        return self._build("field")

    def build_solver_config(self) -> SolverConfig:
        """The solver knobs in SI; a value out of range fails at its file key."""
        try:
            return self._build("solver")
        except SolverConfigError as exc:
            key = next(k for k in SCHEMA.values() if k.section == "solver" and k.to == exc.field)
            raise ConfigError(f"solver.{key.name}", exc.rule) from exc

    def build_initial_state(self, grid: PhaseSpaceGrid):
        if self.state_type == "file":
            state, _ = read_state(self.state_file)
            _check_state_grid(state.grid, grid)
            return state
        from .states import gaussian_wigner
        return gaussian_wigner(
            grid,
            center=tuple(v * NM for v in self.center_nm),
            sigma_x=tuple(v * NM for v in self.sigma_nm),
            momentum_center=tuple(m * dp for m, dp in zip(self.momentum_dP, grid.dp)),
            sigma_p=tuple(s * dp for s, dp in zip(self.sigma_p_dP, grid.dp)),
        )

    # ----- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        d = {section: {} for section in SECTIONS}
        for attr, k in SCHEMA.items():
            if k.when in (None, self.state_type):
                d[k.section][k.name] = _plain(getattr(self, attr))
        if not self.mc_targets:
            del d["solver"]["mc_targets"]
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "SimulationConfig":
        """This config with rng_seed replaced; a seed out of range fails at
        solver.rng_seed."""
        cfg = replace(self, rng_seed=int(seed))
        cfg.build_solver_config()
        return cfg


SCHEMA = _declared(SimulationConfig)
_TARGET_KEYS = _declared(McTarget)


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def config_from_dict(data: dict, base_dir: Optional[Path] = None) -> SimulationConfig:
    if not isinstance(data, dict):
        _fail("<root>", "top level must be an object")
    for name in data:
        if name not in SECTIONS:
            _fail(f"<root>.{name}", "unknown key")
    values = {}
    for section in SECTIONS:
        if section not in data and section not in OPTIONAL_SECTIONS:
            _fail(section, "required section missing")
        _parse_object(data.get(section, {}), section,
                      {a: k for a, k in SCHEMA.items() if k.section == section}, values)
    if values["state_type"] == "file":
        if base_dir is not None:
            values["state_file"] = str((base_dir / values["state_file"]).resolve())
        if not Path(values["state_file"]).exists():
            _fail("initial_state.file", f"file not found: {values['state_file']}")
    cfg = SimulationConfig(**values)
    _validate_cross(cfg)
    return cfg


def _validate_cross(cfg: SimulationConfig):
    """Checks that need several keys at once (window bound, targets, CFL, state grid)."""
    for i, (L, omega) in enumerate(zip(cfg.coherence_length_nm, cfg.omega_extent_nm)):
        if omega > L / 2:
            _fail(f"grid.omega_extent_nm[{i}]",
                  f"bounded-domain constraint requires omega <= L/2 "
                  f"(got omega={omega} nm, L={L} nm)")
    if cfg.method == "mc" and not cfg.mc_targets:
        _fail("solver.mc_targets", "mc runs need at least one target")
    for i, target in enumerate(cfg.mc_targets):
        if any(abs(m) > n for m, n in zip(target.m_index, cfg.n_p)):
            _fail(f"solver.mc_targets[{i}].m_index",
                  f"the target must lie on the momentum lattice: |m| <= n_p "
                  f"(got m_index={list(target.m_index)}, n_p={list(cfg.n_p)})")
        if any(abs(x) > 0.5 * omega for x, omega in zip(target.position_nm, cfg.omega_extent_nm)):
            _fail(f"solver.mc_targets[{i}].position_nm",
                  f"the target must lie in the spatial window: |x| <= omega_extent_nm / 2 "
                  f"(got position_nm={list(target.position_nm)}, "
                  f"omega_extent_nm={list(cfg.omega_extent_nm)})")
    solver_cfg = cfg.build_solver_config()
    n_steps = cfg.t_end_fs / cfg.dt_fs
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        _fail("solver.t_end_fs",
              f"must be an integer multiple of dt_fs (t_end/dt = {n_steps:.6g})")
    try:
        solver_cfg.validate(cfg.build_grid())
    except ValueError as exc:
        raise ConfigError("solver.dt_fs", str(exc)) from exc
    if cfg.state_type == "file":
        try:
            state_grid = read_state_header(cfg.state_file)[0]
        except ValueError as exc:
            raise ConfigError("initial_state.file", str(exc)) from exc
        _check_state_grid(state_grid, cfg.build_grid())


def _check_state_grid(got: PhaseSpaceGrid, grid: PhaseSpaceGrid):
    """Fail at initial_state.file on the first quantity of a state's grid that
    differs from the configured one (`grid_difference`)."""
    differ = grid_difference(got, grid)
    if differ is not None:
        name, a, b = differ
        _fail("initial_state.file", f"the state's grid has {name} {a}, the configured "
                                    f"grid {b}")


def load_config(path) -> SimulationConfig:
    """Parse and validate a config file; errors carry the field path."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(p), "config file not found")
    text = p.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(p),
                          f"parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    return config_from_dict(data, base_dir=p.parent)


def write_config(cfg: SimulationConfig, path) -> Path:
    """Canonical dump; load_config(write_config(c)) == c."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(cfg.canonical_json(), encoding="utf-8")
    return p
