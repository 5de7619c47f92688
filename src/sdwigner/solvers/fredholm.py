"""Integral-form solver: damped free flight plus a memory sum over collisions.

The evolution is rewritten with an auxiliary rate gamma0 so the propagator
becomes exp(-gamma0 (t - t')) times free flight, and the remaining coupling
K[f] + gamma0 f (K: the force and gradient terms) enters through a time
integral along each backward characteristic.  The trajectory is discretized
on the stepper's own dt with trapezoid weights.  That system is
lower-triangular in time (level k reads only levels j <= k), so it is solved
by marching k = 1..n_t: the history of the accepted levels is summed once,
and only the diagonal term needs a local fixed point, with its gamma0 part
moved to the left-hand side,

    f_k = S_k / (1 - dt/2 gamma0) + h K f_k,   h = dt/2 / (1 - dt/2 gamma0),

which contracts by h |K| per pass.  The factor 1 / (1 - dt/2 gamma0) is
folded into the flight weights and the kernel's scale, so a pass is one
kernel call.  The kernel values are stored as kvals[j] = h (K f_j +
gamma0 f_j), and each one is formed without a kernel call of its own:

- the first pass of level k takes h K f_{k-1} = kvals[k-1] - h gamma0 f_{k-1}
  from the stored value (at k = 1 it reads kvals[0], which holds the source
  term too), and counts as a pass like the others;
- the last pass of level k wrote f_k = S_k / (1 - dt/2 gamma0) + h K x, x its
  input, so kvals[k] = f_k - S_k / (1 - dt/2 gamma0) + h gamma0 f_k.

So a solve calls the kernel n_sweeps - n_t + 1 times: once on f0, and once
per pass but the first of each level.

Free flight by lag k dt moves each momentum row along its spatial axis by
linear interpolation between the two nearest cells, which is exact only for
whole-cell shifts.  Its matrices (`free_flight_operators`) are built once
per lag, and each (level, lag) flight runs once per solve.  A solve holds
the n_t + 1 kernel values, the iterate and the history of the level being
solved: n_t + 3 states.  The slot of the level being solved is the output
of its passes, and the iterate and that slot swap buffers after each pass.
The kernel's workspace holds the rest, two scratch blocks: its only
momentum-x matrix is the tridiagonal d/dP_x, whose product it forms block
by block.  A flight sweeps the same blocks on that memory, since the two
never run at once, so neither a kernel pass nor a flight allocates a state
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..kernels import linear_coefficients
from ..phasespace import LinearEMField, PhaseSpaceGrid
from ..transform import WignerState
from .common import (FredholmConvergenceError, SolverConfig, SolverInstabilityError,
                     advect_free_flight, default_gamma0, free_flight_operators,
                     l2_norm)
from .continuum import force_and_quantum, make_kernel


@dataclass
class FredholmResult:
    """The final state; residuals[k - 1] is level k's last local residual and
    n_sweeps the local passes summed over all levels, each level's first
    pass, taken from stored kernel values, among them.  The solve called the
    kernel n_sweeps - n_t + 1 times."""

    state: WignerState
    residuals: List[float]
    n_sweeps: int
    gamma0: float


def solve_fredholm_resolvent(f0, field: LinearEMField, grid: PhaseSpaceGrid,
                             config: SolverConfig) -> FredholmResult:
    """Solve up to t_end on a uniform time mesh; returns the final state.

    t_end must be an integer multiple of dt.  Each level iterates from the
    previous level's state until one pass changes it by less than
    config.fredholm_tol (relative), within config.fredholm_max_iter passes.
    Raises FredholmConvergenceError (with the stalled level's residual
    history attached) otherwise, and SolverInstabilityError at the first pass
    whose norm or residual is not finite, or before the first when
    dt/2 gamma0 = 1 leaves the diagonal term no left-hand side.
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
    half = 0.5 * dt
    scale = 1.0 - half * gamma0
    if scale == 0.0:
        raise SolverInstabilityError(
            "dt/2 gamma0 = 1 makes the diagonal weight dt/2 / (1 - dt/2 gamma0) infinite: "
            "integral solver turned non-finite at level 1")
    h = half / scale
    work = make_kernel(linear_coefficients(field, grid), grid, config)
    flights = [None] + [free_flight_operators(grid, lag * dt, config.boundary)
                        for lag in range(1, n_t + 1)]
    decay = np.exp(-gamma0 * dt * np.arange(n_t + 1))

    # kvals[j] = h (K f_j + gamma0 f_j) of each accepted level; the source
    # term and the j = 0 term share one flight, so kvals[0] holds
    # (f0 + dt/2 (K f0 + gamma0 f0)) / scale = f0 + h (K + 2 gamma0) f0
    x = np.array(values0, dtype=float)
    kvals = [np.empty_like(x) for _ in range(n_t + 1)]
    history = np.empty_like(x)
    force_and_quantum(x, kvals[0], work, h, x, 2.0 * gamma0)

    residuals: List[float] = []
    n_passes = 0
    for k in range(1, n_t + 1):
        _history(history, k, kvals, flights, decay, work)
        # passes x <- history + h K x from the previous level's state, each
        # written into kvals[k]; the first reads h K x off kvals[k - 1]
        level = []
        for _ in range(config.fredholm_max_iter):
            trial = kvals[k]
            if level:
                force_and_quantum(x, trial, work, h, history)
            else:
                # kvals[0] - x / scale - h gamma0 x at k = 1
                lead = h * gamma0 if k > 1 else (1.0 + half * gamma0) / scale
                np.multiply(x, -lead, out=trial)
                trial += kvals[k - 1]
                trial += history
            norm = l2_norm(trial)
            x -= trial      # x is spent: it holds the change of this pass
            res = l2_norm(x) / (norm if norm > 0 else 1.0)
            x, kvals[k] = trial, x
            if not (np.isfinite(norm) and np.isfinite(res)):
                raise SolverInstabilityError(
                    f"integral solver turned non-finite at level {k}")
            level.append(res)
            if res < config.fredholm_tol:
                break
        else:
            raise FredholmConvergenceError(
                f"integral solver stalled at level {k} of {n_t}, residual {res:.3e} "
                f"after {config.fredholm_max_iter} passes (tol {config.fredholm_tol:.1e})",
                level)
        n_passes += len(level)
        residuals.append(res)
        if k < n_t:
            # the last pass wrote x = history + h K x_last, so its h K x_last
            # stands in for h K f_k, within tol
            np.multiply(x, h * gamma0, out=kvals[k])
            kvals[k] += x
            kvals[k] -= history
    return FredholmResult(state=WignerState(grid=grid, values=x, time=config.t_end),
                          residuals=residuals, n_sweeps=n_passes, gamma0=gamma0)


def _history(out, k, kvals, flights, decay, work) -> None:
    """Write level k's history into out: every term of its trapezoid sum but
    the diagonal one, divided by 1 - dt/2 gamma0, each flight swept on the
    kernel's workspace `work`.

    out = decay[k] A(k) kvals[0] + sum_{j=1}^{k-1} 2 decay[k-j] A(k-j) kvals[j],
    A(lag) = flights[lag]: kvals[j] holds h = dt/2 / (1 - dt/2 gamma0) times
    K f_j + gamma0 f_j, so its trapezoid weight dt is 2 h.
    """
    advect_free_flight(flights[k], kvals[0], out, decay[k], work)
    for j in range(1, k):
        advect_free_flight(flights[k - j], kvals[j], out, 2.0 * decay[k - j], work,
                           accumulate=True)
