"""Canonical test states: Gaussian packets as density matrices and phase-space functions."""

from __future__ import annotations

import functools

import numpy as np

from .phasespace import PhaseSpaceGrid, per_axis
from .transform import DensityMatrix, WignerState, offset_points


def gaussian_density(grid: PhaseSpaceGrid,
                     center=0.0,
                     sigma=1.0,
                     momentum=0.0) -> DensityMatrix:
    """Pure-state density matrix of a normalized Gaussian packet.

    psi(r) = prod_c (2 pi sigma_c^2)^(-1/4) exp(-(r_c - c_c)^2/(4 sigma_c^2)
             + i p_c r_c / hbar), rho = psi(x + s/2) conj(psi)(x - s/2).

    Entries where either endpoint x +- s/2 leaves the domain are zeroed; the
    mask is symmetric under s -> -s, so Hermiticity survives exactly.  Choose
    sigma small against the domain so the clipped tail is negligible.
    """
    c = grid.constants
    d = grid.dim
    center = per_axis(center, d, "center")
    sigma = per_axis(sigma, d, "sigma")
    momentum = per_axis(momentum, d, "momentum")

    def psi(pos):
        out = np.ones(pos.shape[:-1], dtype=complex)
        for k in range(d):
            r = pos[..., k]
            out = out * (2 * np.pi * sigma[k] ** 2) ** (-0.25) * np.exp(
                -((r - center[k]) ** 2) / (4 * sigma[k] ** 2) + 1j * momentum[k] * r / c.hbar)
        return out

    r1 = offset_points(grid, +0.5)
    r2 = offset_points(grid, -0.5)
    values = psi(r1) * np.conj(psi(r2))
    inside = np.ones(values.shape, dtype=bool)
    for k in range(d):
        half = 0.5 * grid.omega_extent[k]
        inside &= (np.abs(r1[..., k]) <= half) & (np.abs(r2[..., k]) <= half)
    values[~inside] = 0.0
    return DensityMatrix(grid, values)


def gaussian_wigner(grid: PhaseSpaceGrid,
                    center=0.0,
                    sigma_x=1.0,
                    momentum_center=0.0,
                    sigma_p=1.0) -> WignerState:
    """Separable Gaussian directly in phase space, for exercising the solvers.

    Not constrained to be a pure state.  Normalized so that the discrete mass
    sum(f) * prod(dx) equals 1.
    """
    d = grid.dim
    center = per_axis(center, d, "center")
    sigma_x = per_axis(sigma_x, d, "sigma_x")
    momentum_center = per_axis(momentum_center, d, "momentum_center")
    sigma_p = per_axis(sigma_p, d, "sigma_p")

    # one outer product of the per-axis factors, momentum axes first: the
    # same products in the same order as broadcasting them, and no state
    # besides the result
    factors = [np.exp(-((p - p0) ** 2) / (2 * sp ** 2))
               for p, p0, sp in zip(grid.p_axes, momentum_center, sigma_p)]
    factors += [np.exp(-((x - x0) ** 2) / (2 * sx ** 2))
                for x, x0, sx in zip(grid.x_axes, center, sigma_x)]
    values = functools.reduce(np.multiply.outer, factors)
    total = values.sum() * float(np.prod(grid.dx))
    if total > 0:
        values /= total
    return WignerState(grid, values)
