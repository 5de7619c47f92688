"""Evolution solvers: the ladder and finite-difference right-hand sides with
their one stepping loop, the integral-form resolvent, the backward-walk point
estimator, and a kernel-table reference RHS."""

from .common import (EvolutionResult, FredholmConvergenceError, ObservableRecord,
                     SolverConfig, SolverInstabilityError, Trajectory,
                     advect_free_flight, advection_term, boundary_mass_fraction,
                     default_gamma0, evolve, free_flight, mean_momentum_global,
                     observables, rk4_step, sample_shift, spatial_derivative)
from .continuum import force_and_quantum, rhs_continuum_fd
from .fredholm import FredholmResult, solve_fredholm_resolvent
from .general import rhs_general
from .montecarlo import MCEstimate, ParticleEnsemble, mc_estimate_point
from .semidiscrete import rhs_semidiscrete

__all__ = [
    "EvolutionResult", "FredholmConvergenceError", "FredholmResult",
    "MCEstimate", "ObservableRecord", "ParticleEnsemble", "SolverConfig",
    "SolverInstabilityError", "Trajectory", "advect_free_flight",
    "advection_term", "boundary_mass_fraction", "default_gamma0", "evolve",
    "force_and_quantum", "free_flight", "mc_estimate_point",
    "mean_momentum_global", "observables", "rhs_continuum_fd", "rhs_general",
    "rhs_semidiscrete", "rk4_step", "sample_shift", "spatial_derivative",
    "solve_fredholm_resolvent",
]
