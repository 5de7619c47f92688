"""Integral-form solver: damped free flight plus a memory sum over collisions.

The evolution is rewritten with an auxiliary rate gamma0 so the propagator
becomes exp(-gamma0 (t - t')) times free flight, and the remaining coupling
K[f] = (force and gradient terms) + gamma0 f enters through a time integral
along each backward characteristic.  The trajectory is discretized on the
stepper's own dt with trapezoid weights and solved by plain iteration sweeps
over the whole time range (each sweep adds one order of the expansion in K).

Free flight by lag k dt moves each momentum row along its spatial axis by
linear interpolation between the two nearest cells, which is exact only for
whole-cell shifts.  Its matrices (`free_flight_operators`) are built once
per lag and reused by every sweep, as are the kernel's difference matrices
(`make_kernel`).  A solve holds three (n_t + 1)-state arrays: the current
iterate, the next one, and the kernel values, which double as scratch for
the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..kernels import linear_coefficients
from ..phasespace import LinearEMField, PhaseSpaceGrid
from ..transform import WignerState
from .common import (FredholmConvergenceError, SolverConfig, SolverInstabilityError,
                     advect_free_flight, default_gamma0, free_flight_operators)
from .continuum import make_kernel


@dataclass
class FredholmResult:
    state: WignerState
    residuals: List[float]
    n_sweeps: int
    gamma0: float


def solve_fredholm_resolvent(f0, field: LinearEMField, grid: PhaseSpaceGrid,
                             config: SolverConfig) -> FredholmResult:
    """Solve up to t_end on a uniform time mesh; returns the final state.

    t_end must be an integer multiple of dt.  Raises
    FredholmConvergenceError (with the residual history attached) if the
    sweeps fail to reach config.fredholm_tol within config.fredholm_max_iter,
    and SolverInstabilityError at the first sweep whose norm or residual is
    not finite.
    """
    if grid.dim != 2:
        raise ValueError("the integral-form solver requires a 2D grid")
    config.validate(grid)
    values0 = f0.values if isinstance(f0, WignerState) else np.asarray(f0)
    dt = config.dt
    steps = config.t_end / dt
    n_t = int(round(steps))
    if abs(steps - n_t) > 1e-9 * max(1.0, steps) or n_t < 1:
        raise ValueError(f"t_end={config.t_end!r} is not an integer multiple of dt={dt!r}")

    gamma0 = config.gamma0 if config.gamma0 is not None else default_gamma0(field, grid, config)
    kernel = make_kernel(linear_coefficients(field, grid), grid, config, gamma0)
    flights = [None] + [free_flight_operators(grid, lag * dt, config.boundary)
                        for lag in range(1, n_t + 1)]
    decay = np.exp(-gamma0 * dt * np.arange(n_t + 1))

    # three trajectories: current iterate, next iterate, kernel values; the
    # first starts as the damped free flight of f0, and f0 stays at level 0
    traj = np.empty((n_t + 1,) + values0.shape)
    traj[0] = values0
    for k in range(1, n_t + 1):
        np.multiply(advect_free_flight(flights[k], traj[0]), decay[k], out=traj[k])
    new = np.empty_like(traj)
    new[0] = traj[0]
    kvals = np.empty_like(traj)

    residuals: List[float] = []
    for sweep in range(1, config.fredholm_max_iter + 1):
        for j in range(n_t + 1):
            kernel(traj[j], kvals[j])
        _memory_sum(new, traj[0], kvals, flights, decay, dt)
        norm = float(np.linalg.norm(new))
        # kvals is spent: it holds the change of this sweep
        res = float(np.linalg.norm(np.subtract(new, traj, out=kvals))) \
            / (norm if norm > 0 else 1.0)
        if not (np.isfinite(norm) and np.isfinite(res)):
            raise SolverInstabilityError(
                f"integral solver turned non-finite at sweep {sweep}")
        residuals.append(res)
        traj, new = new, traj
        if res < config.fredholm_tol:
            return FredholmResult(
                state=WignerState(grid=grid, values=traj[n_t].copy(), time=config.t_end),
                residuals=residuals, n_sweeps=sweep, gamma0=gamma0)
    raise FredholmConvergenceError(
        f"integral solver stalled at residual {residuals[-1]:.3e} "
        f"after {config.fredholm_max_iter} sweeps (tol {config.fredholm_tol:.1e})",
        residuals)


def _memory_sum(new, f0, kvals, flights, decay, dt) -> None:
    """Write the next iterate into new[1:] from kvals = K f + gamma0 f.

    new[k] = decay[k] A(k) f0 + sum_j w_jk decay[k-j] A(k-j) kvals[j] with
    trapezoid weights w_jk over j = 0..k, A(lag) = flights[lag].  The source
    term and the j = 0 term share one flight, so kvals[0] is overwritten
    with f0 + (dt / 2) kvals[0].
    """
    kvals[0] *= 0.5 * dt
    kvals[0] += f0
    for k in range(1, len(new)):
        np.multiply(advect_free_flight(flights[k], kvals[0]), decay[k], out=new[k])
        for j in range(1, k):
            flight = advect_free_flight(flights[k - j], kvals[j])
            flight *= dt * decay[k - j]
            new[k] += flight
        new[k] += (0.5 * dt) * kvals[k]
