"""Evolution solvers: the ladder and finite-difference right-hand sides with
their one stepping loop, the integral-form resolvent and the backward-walk
point estimator.

Each deterministic route builds its operators once: `semidiscrete.make_rhs`
and `continuum.make_rhs` bind a right-hand side for `evolve`.  The
kernel-table reference route, which no run reaches, lives with the tests."""

from .common import (EvolutionResult, FredholmConvergenceError, ObservableRecord,
                     SolverConfig, SolverInstabilityError, boundary_mass_fraction, evolve,
                     mean_momentum_global, observables)
from .continuum import default_gamma0
from .fredholm import FredholmResult, solve_fredholm_resolvent
from .montecarlo import MCEstimate, mc_estimate_point

__all__ = [
    "EvolutionResult", "FredholmConvergenceError", "FredholmResult",
    "MCEstimate", "ObservableRecord", "SolverConfig",
    "SolverInstabilityError", "boundary_mass_fraction", "default_gamma0",
    "evolve", "mc_estimate_point", "mean_momentum_global", "observables",
    "solve_fredholm_resolvent",
]
