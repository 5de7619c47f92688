"""Finite-difference evolution of the small-spacing limit equation (2D).

Momentum derivatives are central differences on the index lattice with
zero fill beyond the edges; spatial derivatives share the stencil settings
of the ladder solver.  With no field gradient the right-hand side reduces
exactly to advection plus the classical force term.
"""

from __future__ import annotations

import numpy as np

from ..kernels import LinearKernelCoefficients
from ..phasespace import PhaseSpaceGrid
from .common import (BandedOperators, BlockedStencil, SolverConfig, Workspace,
                     add_momentum_terms, band_matrix, banded_rhs)


def difference_operators(coeffs: LinearKernelCoefficients,
                         grid: PhaseSpaceGrid) -> BandedOperators:
    """The small-spacing route's momentum-axis matrices.

    Force terms carry the tridiagonal first central difference on each axis;
    the gradient block carries kappa times the second difference in P_y on
    the x gradient and minus kappa times the mixed first differences on the
    y gradient, kappa = -cross_dx.  Terms whose coefficients vanish are left out.
    """
    if grid.dim != 2:
        raise ValueError("the finite-difference solver requires a 2D grid")
    (n_x, n_y), (dp_x, dp_y) = grid.n_s, grid.dp
    d1x = band_matrix(n_x, [-0.5 / dp_x], -1)
    d1y = band_matrix(n_y, [-0.5 / dp_y], -1)
    force = (d1x if np.any(coeffs.force_x) else None,
             d1y if np.any(coeffs.force_y) else None)
    kappa = -coeffs.cross_dx
    gradient = ()
    if kappa != 0.0:
        d2y = band_matrix(n_y, [dp_y ** -2], 1, centre=-2.0 * dp_y ** -2)
        gradient = ((0, kappa, None, d2y), (1, -kappa, d1x, d1y))
    return BandedOperators(force, gradient)


def force_and_quantum(values: np.ndarray, out: np.ndarray, work: np.ndarray,
                      coeffs: LinearKernelCoefficients, force: BandedOperators,
                      gradient: list, stencil: BlockedStencil) -> np.ndarray:
    """Add K[values] into `out`: the right-hand side minus advection, from the
    matrices `make_kernel` split once per solve.

    `force` carries the force terms alone, and each (s, ops) of `gradient`
    the gradient terms of spatial axis s.  The force terms, then each axis's
    gradient terms, are added over the whole state, one derivative at a
    time, in the held (2,) + state-shape `work`: slot 0 is the temporary
    every term passes through and slot 1 the derivative of the axis being
    added.  So a call allocates no state; `work` overlaps neither `values`
    nor `out`.
    """
    temp, derivative = work[0], work[1]
    add_momentum_terms(out, values, None, coeffs, force, temp)
    for s, terms in gradient:
        stencil.derivative(values, s, derivative)
        add_momentum_terms(out, values, {s: derivative}, coeffs, terms, temp)
    return out


def make_kernel(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
                config: SolverConfig):
    """Build the difference and derivative matrices once, split the
    difference terms into the force terms and each spatial axis's gradient
    terms, and bind them into a closure (values, out, work, gamma0=0) ->
    K[values] + gamma0 values, written into `out` with `work` as the
    (2,) + state-shape working memory of `force_and_quantum`.

    K is the right-hand side minus advection, the coupling the integral
    solver sums along each backward characteristic.
    """
    ops = difference_operators(coeffs, grid)
    force = BandedOperators(ops.force, ())
    gradient = []
    for s in range(grid.dim):
        terms = tuple(term for term in ops.gradient if term[0] == s)
        if terms:
            gradient.append((s, BandedOperators((None, None), terms)))
    stencil = BlockedStencil(grid.state_shape, grid, config.stencil_order, config.boundary)

    def kernel(values: np.ndarray, out: np.ndarray, work: np.ndarray,
               gamma0: float = 0.0) -> np.ndarray:
        np.multiply(values, gamma0, out=out)
        return force_and_quantum(values, out, work, coeffs, force, gradient, stencil)
    return kernel


def rhs_continuum_fd(values: np.ndarray, out: np.ndarray,
                     coeffs: LinearKernelCoefficients, ops: BandedOperators,
                     work: Workspace) -> np.ndarray:
    """d/dt values on the small-spacing route, written into `out`, from the
    matrices `difference_operators` built; named per route so its time is
    told apart from the other route's."""
    return banded_rhs(values, out, coeffs, ops, work)


def make_rhs(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
             config: SolverConfig):
    """Build the difference matrices and the workspace once and bind them
    into a closure (values, out) -> d/dt values, written into `out`."""
    ops = difference_operators(coeffs, grid)
    work = Workspace(grid, config, ops)

    def rhs(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        return rhs_continuum_fd(values, out, coeffs, ops, work)
    return rhs
