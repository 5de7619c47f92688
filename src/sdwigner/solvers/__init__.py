"""Evolution solvers: the ladder and finite-difference right-hand sides with
their one stepping loop, the integral-form resolvent, the backward-walk point
estimator, and a kernel-table reference RHS.

Each deterministic route builds its operators once: `semidiscrete.make_rhs`,
`continuum.make_rhs` and the kernel-table `general.make_rhs` bind a
right-hand side for `evolve`."""

from .common import (EvolutionResult, FredholmConvergenceError, ObservableRecord,
                     SolverConfig, SolverInstabilityError, boundary_mass_fraction,
                     default_gamma0, evolve, mean_momentum_global, observables)
from .fredholm import FredholmResult, solve_fredholm_resolvent
from .montecarlo import MCEstimate, mc_estimate_point

__all__ = [
    "EvolutionResult", "FredholmConvergenceError", "FredholmResult",
    "MCEstimate", "ObservableRecord", "SolverConfig",
    "SolverInstabilityError", "boundary_mass_fraction", "default_gamma0",
    "evolve", "mc_estimate_point", "mean_momentum_global", "observables",
    "solve_fredholm_resolvent",
]
