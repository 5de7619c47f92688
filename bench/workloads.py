"""The benchmark's workloads: generated configs, work counts and size variants.

Each workload is derived from a config shipped in `configs/` and is written
out here in full, so that a later change to a shipped config cannot change
what the benchmark measures.  The workload seed moves the Gaussian packet's
centre and momentum offset inside a small fixed range and sets the Monte
Carlo `rng_seed`.  The canonical input (no seed) is the one the stored
references in `refs/` were generated from.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Optional

CENTRE_RANGE_NM = 4.0     # seed moves the packet centre by at most this, per axis
MOMENTUM_RANGE_DP = 0.25  # and its momentum offset by at most this, per axis


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict           # the canonical config, in the schema of docs/config_schema.md
    tiny: dict           # overrides that shrink it for the benchmark's own test

    @property
    def method(self) -> str:
        return self.base["solver"]["method"]

    def config(self, seed: Optional[int] = None, tiny: bool = False) -> dict:
        """Config dict for one seed; seed None gives the canonical input."""
        cfg = copy.deepcopy(self.base)
        if tiny:
            for section, values in self.tiny.items():
                cfg[section].update(values)
        if seed is not None:
            rng = random.Random(seed)
            state = cfg["initial_state"]
            state["center_nm"] = [c + round(rng.uniform(-CENTRE_RANGE_NM, CENTRE_RANGE_NM), 3)
                                  for c in state["center_nm"]]
            state["momentum_dP"] = [m + round(rng.uniform(-MOMENTUM_RANGE_DP, MOMENTUM_RANGE_DP), 3)
                                    for m in state["momentum_dP"]]
            if self.method == "mc":
                cfg["solver"]["rng_seed"] = int(seed)
        return cfg


def steps(cfg: dict) -> int:
    solver = cfg["solver"]
    return int(round(solver["t_end_fs"] / solver["dt_fs"]))


def work(cfg: dict) -> float:
    """Work one run completes; fixed by the config, not by the algorithm.

    Grid routes: state cells times simulated steps.  Monte Carlo: walkers
    times targets times simulated steps.
    """
    if cfg["solver"]["method"] == "mc":
        return float(cfg["solver"]["n_particles"] * len(cfg["solver"]["mc_targets"])
                     * steps(cfg))
    grid = cfg["grid"]
    cells = 1
    for n_p, n_x in zip(grid["n_p"], grid["n_x"]):
        cells *= (2 * n_p + 1) * n_x
    return float(cells * steps(cfg))


def _grid(L, omega, n_x, n_p):
    return {"dim": 2, "coherence_length_nm": [L, L], "omega_extent_nm": [omega, omega],
            "n_x": [n_x, n_x], "n_p": [n_p, n_p]}


def _packet(sigma_nm, momentum_dP):
    return {"type": "gaussian", "center_nm": [0.0, 0.0], "sigma_nm": [sigma_nm, sigma_nm],
            "momentum_dP": list(momentum_dP), "sigma_p_dP": [1.5, 1.5]}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ladder_gradient",
        # derived from configs/gradient_resolvent.json (window and field)
        base={
            "grid": _grid(100.0, 50.0, 16, 10),
            "field": {"type": "linear", "b0_T": 1.0, "b1_T_per_m": 1.0e7},
            "initial_state": _packet(10.0, (1.0, 0.0)),
            "solver": {"method": "semidiscrete", "dt_fs": 5.0, "t_end_fs": 5.0,
                       "boundary": "periodic", "stencil_order": 4},
            "output": {"directory": "out/ladder_gradient", "snapshot_every": 0,
                       "observables": ["mass", "mean_momentum"]},
        },
        tiny={"grid": _grid(100.0, 50.0, 6, 3), "solver": {"t_end_fs": 5.0}},
    ),
    Workload(
        name="cyclotron_stream",
        # derived from configs/cyclotron.json
        base={
            "grid": _grid(200.0, 100.0, 40, 6),
            "field": {"type": "linear", "b0_T": 1.0},
            "initial_state": _packet(18.0, (2.0, 0.0)),
            "solver": {"method": "continuum", "dt_fs": 10.0, "t_end_fs": 40.0,
                       "boundary": "periodic", "stencil_order": 4},
            "output": {"directory": "out/cyclotron_stream", "snapshot_every": 4,
                       "observables": ["mass", "mean_momentum", "boundary_fraction"]},
        },
        tiny={"grid": _grid(200.0, 100.0, 8, 3), "solver": {"t_end_fs": 20.0},
              "output": {"snapshot_every": 1}},
    ),
    Workload(
        name="gradient_resolvent",
        # derived from configs/gradient_resolvent.json
        base={
            "grid": _grid(100.0, 50.0, 10, 8),
            "field": {"type": "linear", "b0_T": 1.0, "b1_T_per_m": 1.0e7},
            "initial_state": _packet(10.0, (1.0, 0.0)),
            "solver": {"method": "fredholm", "dt_fs": 20.0, "t_end_fs": 100.0,
                       "boundary": "periodic", "stencil_order": 4,
                       "gamma0_per_s": 2.0e13, "fredholm_tol": 1e-9,
                       "fredholm_max_iter": 400},
            "output": {"directory": "out/gradient_resolvent",
                       "observables": ["mass", "mean_momentum"]},
        },
        tiny={"grid": _grid(100.0, 50.0, 4, 3), "solver": {"t_end_fs": 40.0}},
    ),
    Workload(
        name="mc_probe",
        # derived from configs/mc_point_probe.json
        base={
            "grid": _grid(200.0, 100.0, 10, 6),
            "field": {"type": "linear", "b0_T": 1.0},
            "initial_state": _packet(20.0, (1.0, 0.0)),
            "solver": {"method": "mc", "dt_fs": 20.0, "t_end_fs": 400.0,
                       "boundary": "periodic", "stencil_order": 2,
                       "gamma0_per_s": 2.0e13, "rng_seed": 7, "n_particles": 15000,
                       "weight_cap": 64.0,
                       "mc_targets": [
                           {"m_index": [1, 0], "position_nm": [0.0, 0.0]},
                           {"m_index": [0, 0], "position_nm": [10.0, -10.0]},
                           {"m_index": [0, 1], "position_nm": [-15.0, 5.0]}]},
            "output": {"directory": "out/mc_probe"},
        },
        tiny={"solver": {"n_particles": 400}},
    ),
)}
