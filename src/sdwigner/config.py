"""Structured run configuration: schema, validation, canonical serialization.

The file format is JSON with unit-suffixed keys (lengths in nm, times in fs,
fields in T and T/m).  Values are kept in file units inside SimulationConfig
so that write_config/load_config round-trips are exact; conversion to SI
happens only in the build_* methods.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .phasespace import (LinearEMField, PhaseSpaceGrid, PhysicalConstants,
                         make_grid)
from .solvers.common import SolverConfig, SolverConfigError

NM = 1e-9
FS = 1e-15

METHODS = ("semidiscrete", "continuum", "fredholm", "mc")
OBSERVABLES = ("mass", "mean_momentum", "boundary_fraction")
# SolverConfig fields whose file key carries a unit suffix
SOLVER_KEYS = {"dt": "dt_fs", "t_end": "t_end_fs", "gamma0": "gamma0_per_s"}


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


def _axis_tuple(value, dim, path, kind=float):
    """Accept a scalar or a per-axis list; always return a dim-tuple."""
    if isinstance(value, (list, tuple)):
        if len(value) != dim:
            _fail(path, f"expected {dim} entries, got {len(value)}")
        items = value
    else:
        items = [value] * dim
    return tuple(kind(_checked(v, f"{path}[{i}]", kind)) for i, v in enumerate(items))


def _require_keys(section: dict, allowed, path):
    for key in section:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


@dataclass(frozen=True)
class GaussianStateSpec:
    center_nm: tuple
    sigma_nm: tuple
    momentum_dP: tuple
    sigma_p_dP: tuple


@dataclass(frozen=True)
class McTarget:
    m_index: tuple
    position_nm: tuple


@dataclass(frozen=True)
class SimulationConfig:
    """Validated run description in file units; see docs/config_schema.md."""

    dim: int
    coherence_length_nm: tuple
    omega_extent_nm: tuple
    n_x: tuple
    n_p: tuple
    hbar_Js: float
    charge_C: float
    mass_kg: float
    e_grad_V_per_m2: tuple
    b0_T: float
    b1_T_per_m: float
    state_type: str                      # "gaussian" | "file"
    gaussian: Optional[GaussianStateSpec]
    state_file: Optional[str]
    method: str
    dt_fs: float
    t_end_fs: float
    boundary: str
    stencil_order: int
    m_truncation: Optional[int]
    gamma0_per_s: Optional[float]
    rng_seed: int
    n_particles: int
    fredholm_tol: float
    fredholm_max_iter: int
    weight_cap: float
    mc_targets: tuple = ()
    output_directory: str = "out"
    snapshot_every: int = 0
    observables: tuple = OBSERVABLES
    binary_states: bool = True

    # ----- SI builders -------------------------------------------------

    def build_constants(self) -> PhysicalConstants:
        return PhysicalConstants(hbar=self.hbar_Js, charge=self.charge_C,
                                 mass=self.mass_kg)

    def build_grid(self) -> PhaseSpaceGrid:
        L = tuple(v * NM for v in self.coherence_length_nm)
        omega = tuple(v * NM for v in self.omega_extent_nm)
        return make_grid(self.dim, L, omega, self.n_x, self.n_p,
                         self.build_constants())

    def build_field(self) -> LinearEMField:
        return LinearEMField(e_grad=self.e_grad_V_per_m2, b0=self.b0_T,
                             b1=self.b1_T_per_m)

    def build_solver_config(self) -> SolverConfig:
        return SolverConfig(
            dt=self.dt_fs * FS,
            t_end=self.t_end_fs * FS,
            m_truncation=self.m_truncation,
            gamma0=self.gamma0_per_s,
            stencil_order=self.stencil_order,
            boundary=self.boundary,
            rng_seed=self.rng_seed,
            n_particles=self.n_particles,
            fredholm_tol=self.fredholm_tol,
            fredholm_max_iter=self.fredholm_max_iter,
            weight_cap=self.weight_cap,
        )

    def build_initial_state(self, grid: PhaseSpaceGrid):
        if self.state_type == "file":
            from .io import read_state
            state, _ = read_state(self.state_file)
            if state.values.shape != grid.state_shape:
                raise ConfigError("initial_state.file",
                                  f"state shape {state.values.shape} does not "
                                  f"match the configured grid {grid.state_shape}")
            return state
        from .states import gaussian_wigner
        g = self.gaussian
        return gaussian_wigner(
            grid,
            center=tuple(v * NM for v in g.center_nm),
            sigma_x=tuple(v * NM for v in g.sigma_nm),
            momentum_center=tuple(m * dp for m, dp in zip(g.momentum_dP, grid.dp)),
            sigma_p=tuple(s * dp for s, dp in zip(g.sigma_p_dP, grid.dp)),
        )

    # ----- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "grid": {
                "dim": self.dim,
                "coherence_length_nm": list(self.coherence_length_nm),
                "omega_extent_nm": list(self.omega_extent_nm),
                "n_x": list(self.n_x),
                "n_p": list(self.n_p),
            },
            "constants": {
                "hbar_Js": self.hbar_Js,
                "charge_C": self.charge_C,
                "mass_kg": self.mass_kg,
            },
            "field": {
                "type": "linear",
                "e_grad_V_per_m2": list(self.e_grad_V_per_m2),
                "b0_T": self.b0_T,
                "b1_T_per_m": self.b1_T_per_m,
            },
            "initial_state": {"type": self.state_type},
            "solver": {
                "method": self.method,
                "dt_fs": self.dt_fs,
                "t_end_fs": self.t_end_fs,
                "boundary": self.boundary,
                "stencil_order": self.stencil_order,
                "m_truncation": self.m_truncation,
                "gamma0_per_s": self.gamma0_per_s,
                "rng_seed": self.rng_seed,
                "n_particles": self.n_particles,
                "fredholm_tol": self.fredholm_tol,
                "fredholm_max_iter": self.fredholm_max_iter,
                "weight_cap": self.weight_cap,
            },
            "output": {
                "directory": self.output_directory,
                "snapshot_every": self.snapshot_every,
                "observables": list(self.observables),
                "binary_states": self.binary_states,
            },
        }
        if self.state_type == "gaussian":
            g = self.gaussian
            d["initial_state"].update({
                "center_nm": list(g.center_nm),
                "sigma_nm": list(g.sigma_nm),
                "momentum_dP": list(g.momentum_dP),
                "sigma_p_dP": list(g.sigma_p_dP),
            })
        else:
            d["initial_state"]["file"] = self.state_file
        if self.mc_targets:
            d["solver"]["mc_targets"] = [
                {"m_index": list(t.m_index), "position_nm": list(t.position_nm)}
                for t in self.mc_targets
            ]
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "SimulationConfig":
        from dataclasses import replace
        return replace(self, rng_seed=int(seed))


def config_from_dict(data: dict, base_dir: Optional[Path] = None) -> SimulationConfig:
    if not isinstance(data, dict):
        _fail("<root>", "top level must be an object")
    _require_keys(data, ("grid", "constants", "field", "initial_state",
                         "solver", "output"), "<root>")
    for name in ("grid", "field", "initial_state", "solver"):
        if name not in data:
            _fail(name, "required section missing")
        if not isinstance(data[name], dict):
            _fail(name, "must be an object")

    g = data["grid"]
    _require_keys(g, ("dim", "coherence_length_nm", "omega_extent_nm",
                      "n_x", "n_p"), "grid")
    dim = g.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim != 2:
        _fail("grid.dim", "must be 2; every solver runs on 2D grids")
    for key in ("coherence_length_nm", "omega_extent_nm", "n_x", "n_p"):
        if key not in g:
            _fail(f"grid.{key}", "required key missing")
    L = _axis_tuple(g["coherence_length_nm"], dim, "grid.coherence_length_nm")
    omega = _axis_tuple(g["omega_extent_nm"], dim, "grid.omega_extent_nm")
    n_x = _axis_tuple(g["n_x"], dim, "grid.n_x", int)
    n_p = _axis_tuple(g["n_p"], dim, "grid.n_p", int)
    for i in range(dim):
        if L[i] <= 0:
            _fail(f"grid.coherence_length_nm[{i}]", "must be positive")
        if omega[i] <= 0:
            _fail(f"grid.omega_extent_nm[{i}]", "must be positive")
        if omega[i] > L[i] / 2:
            _fail(f"grid.omega_extent_nm[{i}]",
                  f"bounded-domain constraint requires omega <= L/2 "
                  f"(got omega={omega[i]} nm, L={L[i]} nm)")
        if n_x[i] < 1:
            _fail(f"grid.n_x[{i}]", "must be at least 1")
        if n_p[i] < 1:
            _fail(f"grid.n_p[{i}]", "must be at least 1")

    cons = data.get("constants", {})
    if not isinstance(cons, dict):
        _fail("constants", "must be an object")
    _require_keys(cons, ("hbar_Js", "charge_C", "mass_kg"), "constants")
    defaults = PhysicalConstants()
    hbar, charge, mass = (
        float(_checked(cons.get(name, default), f"constants.{name}", float))
        for name, default in (("hbar_Js", defaults.hbar), ("charge_C", defaults.charge),
                              ("mass_kg", defaults.mass)))
    for name, v in (("hbar_Js", hbar), ("charge_C", charge), ("mass_kg", mass)):
        if v <= 0:
            _fail(f"constants.{name}", "must be positive")

    f = data["field"]
    if f.get("type", "linear") != "linear":
        _fail("field.type", "must be 'linear': the solvers need a linear profile, "
                            "and sampled tables drive the kernel API only")
    _require_keys(f, ("type", "e_grad_V_per_m2", "b0_T", "b1_T_per_m"), "field")
    e_grad = _axis_tuple(f.get("e_grad_V_per_m2", 0.0), 2, "field.e_grad_V_per_m2")
    b0 = float(_checked(f.get("b0_T", 0.0), "field.b0_T", float))
    b1 = float(_checked(f.get("b1_T_per_m", 0.0), "field.b1_T_per_m", float))

    s = data["initial_state"]
    stype = s.get("type", "gaussian")
    gaussian = None
    sfile = None
    if stype == "gaussian":
        _require_keys(s, ("type", "center_nm", "sigma_nm", "momentum_dP",
                          "sigma_p_dP"), "initial_state")
        gaussian = GaussianStateSpec(
            center_nm=_axis_tuple(s.get("center_nm", 0.0), dim,
                                  "initial_state.center_nm"),
            sigma_nm=_axis_tuple(s.get("sigma_nm", 10.0), dim,
                                 "initial_state.sigma_nm"),
            momentum_dP=_axis_tuple(s.get("momentum_dP", 0.0), dim,
                                    "initial_state.momentum_dP"),
            sigma_p_dP=_axis_tuple(s.get("sigma_p_dP", 1.5), dim,
                                   "initial_state.sigma_p_dP"),
        )
        for i, v in enumerate(gaussian.sigma_nm):
            if v <= 0:
                _fail(f"initial_state.sigma_nm[{i}]", "must be positive")
        for i, v in enumerate(gaussian.sigma_p_dP):
            if v <= 0:
                _fail(f"initial_state.sigma_p_dP[{i}]", "must be positive")
    elif stype == "file":
        _require_keys(s, ("type", "file"), "initial_state")
        if "file" not in s:
            _fail("initial_state.file", "state file path required")
        sfile = str(s["file"])
        if base_dir is not None:
            sfile = str((base_dir / sfile).resolve())
        if not Path(sfile).exists():
            _fail("initial_state.file", f"file not found: {sfile}")
    else:
        _fail("initial_state.type", "must be 'gaussian' or 'file'")

    sol = data["solver"]
    _require_keys(sol, ("method", "dt_fs", "t_end_fs", "boundary",
                        "stencil_order", "m_truncation", "gamma0_per_s",
                        "rng_seed", "n_particles", "fredholm_tol",
                        "fredholm_max_iter", "weight_cap", "mc_targets"),
                  "solver")
    method = sol.get("method")
    if method not in METHODS:
        _fail("solver.method", f"must be one of {', '.join(METHODS)}")
    if "dt_fs" not in sol or "t_end_fs" not in sol:
        _fail("solver.dt_fs", "dt_fs and t_end_fs are required")

    def solver_value(key, default, kind, nullable=False):
        value = sol.get(key, default)
        return None if nullable and value is None else _checked(value, f"solver.{key}", kind)

    dt_fs = float(solver_value("dt_fs", None, float))
    t_end_fs = float(solver_value("t_end_fs", None, float))
    m_trunc = solver_value("m_truncation", None, int, nullable=True)
    gamma0 = solver_value("gamma0_per_s", None, float, nullable=True)
    if gamma0 is not None:
        gamma0 = float(gamma0)
    mc_targets = sol.get("mc_targets", [])
    if not isinstance(mc_targets, list):
        _fail("solver.mc_targets", "must be a list")
    targets = []
    for k, t in enumerate(mc_targets):
        path = f"solver.mc_targets[{k}]"
        if not isinstance(t, dict):
            _fail(path, "must be an object with m_index and position_nm")
        _require_keys(t, ("m_index", "position_nm"), path)
        targets.append(McTarget(
            m_index=_axis_tuple(t.get("m_index", 0), dim, f"{path}.m_index", int),
            position_nm=_axis_tuple(t.get("position_nm", 0.0), dim,
                                    f"{path}.position_nm"),
        ))
    if method == "mc" and not targets:
        _fail("solver.mc_targets", "mc runs need at least one target")

    out = data.get("output", {})
    if not isinstance(out, dict):
        _fail("output", "must be an object")
    _require_keys(out, ("directory", "snapshot_every", "observables",
                        "binary_states"), "output")
    observables = out.get("observables", list(OBSERVABLES))
    if not isinstance(observables, list) or not observables:
        _fail("output.observables", "must be a non-empty list")
    for i, name in enumerate(observables):
        if name not in OBSERVABLES:
            _fail(f"output.observables[{i}]",
                  f"unknown observable; choose from {', '.join(OBSERVABLES)}")
    snapshot_every = _checked(out.get("snapshot_every", 0), "output.snapshot_every", int)
    if snapshot_every < 0:
        _fail("output.snapshot_every", "must be a non-negative integer")

    cfg = SimulationConfig(
        dim=dim,
        coherence_length_nm=L,
        omega_extent_nm=omega,
        n_x=n_x,
        n_p=n_p,
        hbar_Js=hbar,
        charge_C=charge,
        mass_kg=mass,
        e_grad_V_per_m2=e_grad,
        b0_T=b0,
        b1_T_per_m=b1,
        state_type=stype,
        gaussian=gaussian,
        state_file=sfile,
        method=method,
        dt_fs=dt_fs,
        t_end_fs=t_end_fs,
        boundary=solver_value("boundary", "zero", str),
        stencil_order=solver_value("stencil_order", 2, int),
        m_truncation=m_trunc,
        gamma0_per_s=gamma0,
        rng_seed=solver_value("rng_seed", 0, int),
        n_particles=solver_value("n_particles", 20000, int),
        fredholm_tol=solver_value("fredholm_tol", 1e-8, float),
        fredholm_max_iter=solver_value("fredholm_max_iter", 200, int),
        weight_cap=solver_value("weight_cap", 1e6, float),
        mc_targets=tuple(targets),
        output_directory=_checked(out.get("directory", "out"), "output.directory", str),
        snapshot_every=snapshot_every,
        observables=tuple(observables),
        binary_states=_checked(out.get("binary_states", True), "output.binary_states", bool),
    )
    _validate_cross(cfg)
    return cfg


def _validate_cross(cfg: SimulationConfig):
    """Checks that need several sections at once (solver limits, CFL)."""
    try:
        solver_cfg = cfg.build_solver_config()
    except SolverConfigError as exc:
        raise ConfigError(f"solver.{SOLVER_KEYS.get(exc.field, exc.field)}", exc.rule) from exc
    n_steps = cfg.t_end_fs / cfg.dt_fs
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        _fail("solver.t_end_fs",
              f"must be an integer multiple of dt_fs (t_end/dt = {n_steps:.6g})")
    grid = cfg.build_grid()
    try:
        solver_cfg.validate(grid)
    except ValueError as exc:
        raise ConfigError("solver.dt_fs", str(exc)) from exc


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
