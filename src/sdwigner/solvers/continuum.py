"""Finite-difference evolution of the small-spacing limit equation (2D).

Momentum derivatives are central differences on the index lattice with
zero fill beyond the edges; spatial derivatives share the stencil settings
of the ladder solver.  With no field gradient the right-hand side reduces
exactly to advection plus the classical force term.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..kernels import LinearKernelCoefficients
from ..phasespace import PhaseSpaceGrid
from .common import (BandedOperators, SolverConfig, Workspace, band_matrix, banded_rhs,
                     derivative_matrix)


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


def _centre_taps(matrix: Optional[np.ndarray]):
    """Nonzero (offset, entry) pairs of a square lattice matrix's centre row
    in descending offset; the identity, None, is the one pair (0, 1.0)."""
    if matrix is None:
        return ((0, 1.0),)
    c = len(matrix) // 2
    return [(k - c, t) for k, t in reversed(list(enumerate(matrix[c]))) if t != 0.0]


def curvature_branches(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
                       order: int):
    """The gradient terms of `difference_operators` as the backward walk's
    curvature branches: a term (s, w, A_x, A_y), D the `order` stencil along
    x_s, gives per nonzero tap a of A_x, b of A_y and e of D, in descending
    a, b, e, the index move (a, b), position move e dx_s and coefficient
    w A_x[a] A_y[b] D[e].  Returns them as (k, 2), (k, 2) and (k,) arrays;
    k is 0 without a field gradient."""
    moves, steps, weights = [], [], []
    for s, w, a_x, a_y in difference_operators(coeffs, grid).gradient:
        stencil = derivative_matrix(5, grid.dx[s], order, "zero")   # centre row: all taps
        for (a, t_a), (b, t_b), (e, t_e) in itertools.product(
                _centre_taps(a_x), _centre_taps(a_y), _centre_taps(stencil)):
            moves.append((a, b))
            steps.append((e * grid.dx[0], 0.0) if s == 0 else (0.0, e * grid.dx[1]))
            weights.append(w * t_a * t_b * t_e)
    return (np.array(moves, dtype=np.int64).reshape(-1, 2),
            np.array(steps).reshape(-1, 2), np.array(weights))


def default_gamma0(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
                   config: SolverConfig) -> float:
    """Auto event rate: max over the grid of the l1 coefficient mass of the
    discretized force-plus-gradient operator of `coeffs`
    (`kernels.linear_coefficients`), the gradient's from its
    `curvature_branches`.  Falls back to 1/t_end when the field vanishes (so
    the rate is positive even for free streaming)."""
    dpx, dpy = grid.dp
    # force tables depend on one momentum index each; reduce those first
    fx = np.max(np.abs(coeffs.force_x), axis=0)
    fy = np.max(np.abs(coeffs.force_y), axis=0)
    base = float(np.max(fx / dpx + fy / dpy))
    base += float(np.abs(curvature_branches(coeffs, grid, config.stencil_order)[2]).sum())
    return base if base > 0.0 else 1.0 / config.t_end


def force_and_quantum(values: np.ndarray, out: np.ndarray, work: Workspace,
                      scale: float = 1.0, base: Optional[np.ndarray] = None,
                      gamma0: float = 0.0) -> np.ndarray:
    """Write base + scale (K + gamma0) values into `out` (base left out when
    None), K the right-hand side minus advection, on the workspace
    `make_kernel` built once per solve.  The workspace holds the sweep's
    scratch blocks, and the momentum-x product is formed per block in one
    of them, so a call allocates no state."""
    return banded_rhs(values, out, work, scale, base, gamma0)


def make_kernel(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
                config: SolverConfig) -> Workspace:
    """Build the difference and derivative matrices once into the kernel's
    workspace, which `force_and_quantum` applies and whose memory the free
    flights reuse.

    K is the right-hand side minus advection, the coupling the integral
    solver sums along each backward characteristic.  The small-spacing
    matrices share d/dP_x between the force and gradient terms, so K needs
    one momentum-x product, and as d/dP_x is tridiagonal the sweep forms it
    per block.  The solve never calls K in place, so the workspace, built
    without advection, holds the two blocks of an out-of-place sweep and of
    a free flight.
    """
    return Workspace(grid, config, difference_operators(coeffs, grid), coeffs,
                     advection=False)


def rhs_continuum_fd(values: np.ndarray, out: np.ndarray, work: Workspace,
                     scale: float = 1.0, base: Optional[np.ndarray] = None) -> np.ndarray:
    """base + scale d/dt values on the small-spacing route, written into
    `out`, from the matrices `difference_operators` built; named per route
    so its time is told apart from the other route's."""
    return banded_rhs(values, out, work, scale, base)


def make_rhs(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
             config: SolverConfig):
    """Build the difference matrices and the workspace once and bind them
    into a closure rhs(values, out, scale=1.0, base=None) that writes
    base + scale d/dt values into `out` (d/dt values by default)."""
    work = Workspace(grid, config, difference_operators(coeffs, grid), coeffs)

    def rhs(values: np.ndarray, out: np.ndarray, scale: float = 1.0,
            base: Optional[np.ndarray] = None) -> np.ndarray:
        return rhs_continuum_fd(values, out, work, scale, base)
    return rhs
