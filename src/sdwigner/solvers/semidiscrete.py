"""Harmonic-ladder evolution on the momentum lattice (2D spatial plane).

The momentum coupling uses the closed-form odd/even coefficient families from
`kernels.linear_coefficients`; spatial gradients use central differences.  The
gradient-field terms follow the component layout produced by that table:
the mixed odd-odd ladder acts on the x gradient and the even family, tiled
over every x offset, acts on the y gradient together with its zero-offset
companion term.  `linear_term_report` documents how that layout relates to
the direct quadrature route.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels import (LinearKernelCoefficients, harmonic_coefficient,
                       quadratic_coefficient)
from ..phasespace import PhaseSpaceGrid
from .common import BandedOperators, SolverConfig, Workspace, band_matrix, banded_rhs


def ladder_operators(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
                     config: SolverConfig) -> BandedOperators:
    """The ladder route's momentum-axis matrices, cut at `momentum_cutoff`.

    Force terms carry the odd harmonic band on each axis.  The gradient block
    carries the odd-odd ladder on the x gradient, and on the y gradient the
    even quadratic band on y tiled over every x offset (the all-ones box on
    x) plus the zero-offset companion term.  Terms whose coefficients vanish
    are left out, so a field-free configuration costs exactly one advection
    evaluation.
    """
    if grid.dim != 2:
        raise ValueError("harmonic-ladder evolution requires a 2D grid")
    cut_x, cut_y = config.momentum_cutoff(grid, 0), config.momentum_cutoff(grid, 1)
    n_x, n_y = grid.n_s

    # built from the closed forms rather than sliced out of the stored table:
    # a cutoff past n_p reaches offsets the lattice-sized table does not carry
    odd_x = band_matrix(n_x, harmonic_coefficient(np.arange(1.0, cut_x + 1), grid.dp[0]), -1)
    odd_y = band_matrix(n_y, harmonic_coefficient(np.arange(1.0, cut_y + 1), grid.dp[1]), -1)
    force = (odd_x if np.any(coeffs.force_x) else None,
             odd_y if np.any(coeffs.force_y) else None)

    gradient = []
    if coeffs.cross_dx != 0.0:
        pair = coeffs.cross_dx * quadratic_coefficient(np.arange(1.0, cut_y + 1), grid.dp[1])
        gradient.append((0, coeffs.cross_dx, odd_x, odd_y))
        gradient.append((1, 1.0, band_matrix(n_x, np.ones(cut_x), 1, centre=1.0),
                         band_matrix(n_y, pair, 1)))
    if coeffs.zero_dy != 0.0:
        gradient.append((1, coeffs.zero_dy, None, None))
    return BandedOperators(force, tuple(gradient))


def rhs_semidiscrete(values: np.ndarray, out: np.ndarray, work: Workspace,
                     scale: float = 1.0, base: Optional[np.ndarray] = None) -> np.ndarray:
    """base + scale d/dt values on the ladder route, written into `out`, from
    the matrices `ladder_operators` built; named per route so its time is
    told apart from the other route's."""
    return banded_rhs(values, out, work, scale, base)


def make_rhs(coeffs: LinearKernelCoefficients, grid: PhaseSpaceGrid,
             config: SolverConfig):
    """Build the ladder matrices and the workspace once and bind them into a
    closure rhs(values, out, scale=1.0, base=None) that writes
    base + scale d/dt values into `out` (d/dt values by default)."""
    work = Workspace(grid, config, ladder_operators(coeffs, grid, config), coeffs)

    def rhs(values: np.ndarray, out: np.ndarray, scale: float = 1.0,
            base: Optional[np.ndarray] = None) -> np.ndarray:
        return rhs_semidiscrete(values, out, work, scale, base)
    return rhs
