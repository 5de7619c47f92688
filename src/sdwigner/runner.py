"""Run orchestration: dispatch a validated config to a solver, persist results.

Single-threaded by design.  Numeric output files never contain timestamps
and every estimate depends only on the config and seed, so a rerun with the
same config and seed is byte-identical; wall-clock data lives in
run_meta.json only.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import NM, SimulationConfig
from .io import write_state, write_table
from .kernels import linear_coefficients, term_magnitudes
from .solvers import (continuum, evolve, mc_estimate_point, semidiscrete,
                      solve_fredholm_resolvent)
from .transform import WignerState

# the stepped routes: each module's make_rhs(coeffs, grid, config) feeds evolve
STEPPED_ROUTES = {"semidiscrete": semidiscrete, "continuum": continuum}

# each observable of `output.observables`: its columns in observables.tsv, and
# its values at record k of evolve's result
OBSERVABLE_TABLE = {
    "mass": (["mass"], lambda res, k: [res.masses[k]]),
    "mean_momentum": (["px_mean(kg*m/s)", "py_mean(kg*m/s)"],
                      lambda res, k: res.mean_momenta[k]),
    "boundary_fraction": (["boundary_fraction"],
                          lambda res, k: [res.boundary_fractions[k]]),
}


class RunnerError(RuntimeError):
    """Raised when a config reaches a solver it cannot drive."""


@dataclass(frozen=True)
class RunProduct:
    status: str
    out_dir: Path
    meta_path: Path
    files: tuple
    config_hash: str


def _utc_stamp() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())


def _write_meta(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_simulation(cfg: SimulationConfig, out_dir=None, seed: Optional[int] = None,
                   workers: int = 1) -> RunProduct:
    """Execute the configured solver and write all result files.

    out_dir and seed override the config without entering it; the config hash
    is computed over the effective config (seed applied) so identical numeric
    setups share a hash regardless of where results land.  `workers` is
    ignored.
    """
    effective = cfg.with_seed(seed) if seed is not None else cfg
    run_hash = effective.sha256()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "run_meta.json"

    meta = {
        "status": "incomplete",
        "config_sha256": run_hash,
        "package_version": __version__,
        "method": effective.method,
        "effective_seed": effective.rng_seed,
        "started_utc": _utc_stamp(),
        "files": [],
    }
    _write_meta(meta_path, meta)

    files = []
    try:
        files = _dispatch(effective, out, run_hash, meta)
    except Exception as exc:
        meta["status"] = "failed"
        meta["error"] = f"{type(exc).__name__}: {exc}"
        meta["finished_utc"] = _utc_stamp()
        _write_meta(meta_path, meta)
        raise

    meta["status"] = "complete"
    meta["finished_utc"] = _utc_stamp()
    meta["files"] = sorted(str(f.relative_to(out)) for f in files)
    _write_meta(meta_path, meta)
    return RunProduct(status="complete", out_dir=out, meta_path=meta_path,
                      files=tuple(files), config_hash=run_hash)


def _dispatch(cfg: SimulationConfig, out: Path, run_hash: str, meta: dict) -> list:
    grid = cfg.build_grid()
    field = cfg.build_field()
    scfg = cfg.build_solver_config()
    files = []

    if cfg.method in STEPPED_ROUTES:
        rhs = STEPPED_ROUTES[cfg.method].make_rhs(linear_coefficients(field, grid),
                                                  grid, scfg)
        n_steps = int(round(scfg.t_end / scfg.dt))

        def observer(step, t, values):
            if (cfg.binary_states and cfg.snapshot_every
                    and step % cfg.snapshot_every == 0 and step < n_steps):
                # written before evolve takes its next step, so the live
                # state needs no copy
                snap = WignerState(grid=grid, values=values, time=t)
                files.append(write_state(out / f"state_{step:06d}.sdwg",
                                         snap, run_hash))

        # the initial state is handed over unnamed: once evolve has copied it,
        # nothing holds it
        result = evolve(cfg.build_initial_state(grid).values, rhs, grid, scfg,
                        n_steps=n_steps, observer=observer)
        table = [OBSERVABLE_TABLE[name] for name in cfg.observables]
        files.append(write_table(
            out / "observables.tsv",
            ["t(s)"] + [c for cols, _ in table for c in cols],
            ([t] + [v for _, values in table for v in values(result, k)]
             for k, t in enumerate(result.times)),
            run_hash))
        if cfg.binary_states:
            final = WignerState(grid=grid, values=result.values,
                                time=n_steps * scfg.dt)
            files.append(write_state(out / "state_final.sdwg", final, run_hash))

    elif cfg.method == "fredholm":
        res = solve_fredholm_resolvent(cfg.build_initial_state(grid), field,
                                       grid, scfg)
        meta["fredholm_sweeps"] = res.n_sweeps     # local passes over all levels
        meta["gamma0_per_s"] = res.gamma0
        files.append(write_table(
            out / "fredholm_residuals.tsv", ["level", "relative_residual"],
            [[float(k + 1), r] for k, r in enumerate(res.residuals)], run_hash))
        if cfg.binary_states:
            files.append(write_state(out / "state_final.sdwg", res.state, run_hash))

    elif cfg.method == "mc":
        f0 = cfg.build_initial_state(grid)     # every estimate scores against it
        rows = []
        for t in cfg.mc_targets:
            target = (np.asarray(t.m_index, dtype=int),
                      np.asarray([v * NM for v in t.position_nm], dtype=float))
            est = mc_estimate_point(target, f0, field, grid, scfg)
            rows.append(list(map(float, t.m_index))
                        + [v * NM for v in t.position_nm]
                        + [est.value, est.stderr, float(est.n_particles),
                           float(est.n_capped), float(est.n_retired),
                           est.gamma0])
        cols = (["m_x", "m_y"][:grid.dim]
                + [f"{ax}(m)" for ax in "xy"[:grid.dim]]
                + ["estimate", "stderr", "n_particles", "n_capped",
                   "n_retired", "gamma0(1/s)"])
        files.append(write_table(out / "mc_results.tsv", cols, rows, run_hash))

    else:
        raise RunnerError(f"unknown solver method {cfg.method!r}")

    return files


def magnitude_report(cfg: SimulationConfig, out_dir=None):
    """Appendix-style per-term rate table; returns (rows, written path or None)."""
    grid = cfg.build_grid()
    field = cfg.build_field()
    report = term_magnitudes(field, grid, m_typical=max(cfg.n_p))
    rows = [[name + ("" if name.startswith("ratio") else "(1/s)"), value]
            for name, value in report.rows()]
    path = None
    if out_dir is not None:
        path = write_table(Path(out_dir) / "magnitude_report.tsv",
                           ["term", "value"], rows, cfg.sha256())
    return report, path
