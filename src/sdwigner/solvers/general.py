"""Reference evolution assembled directly from windowed field tables.

This route makes no closed-form assumptions about the field profile: the
momentum coupling at every offset is read off the numeric kernel tables
(weighted over their quadrature nodes), so it serves as an independent
cross-check of the ladder solver's analytic coefficient families.  It is
deliberately simple and costs one full-state pass per lattice offset; use
it on small grids.

The double-window term assembled from the squared-field table is off by
default, matching the evolution operators used elsewhere; pass
include_square=True to add it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels import KernelSet
from ..phasespace import PhaseSpaceGrid
from ..transform import WignerState
from .common import SolverConfig, advection_term, sample_shift, spatial_derivative


def _field_tables(kernels: KernelSet, grid: PhaseSpaceGrid):
    """Quadrature-reduced coupling tables, transposed to (m..., x...)."""
    d = grid.dim
    w = kernels.tau_weights
    half_tau = 0.5 * kernels.tau_nodes
    perm = tuple(range(d, 2 * d)) + tuple(range(d))

    dbar = np.transpose(np.tensordot(kernels.electric, w, axes=([-1], [0])), perm)
    hbar = []
    htau = []
    for c in range(d):
        comp = kernels.magnetic[..., c]
        hbar.append(np.transpose(np.tensordot(comp, w, axes=([-1], [0])), perm))
        htau.append(np.transpose(np.tensordot(comp, w * half_tau, axes=([-1], [0])), perm))
    ibar = None
    if kernels.magnetic_square is not None:
        we = kernels.eta_weights
        red = np.tensordot(kernels.magnetic_square, we, axes=([-1], [0]))
        ibar = np.transpose(np.tensordot(red, w * half_tau, axes=([-1], [0])), perm)
    return dbar, hbar, htau, ibar


def rhs_general(f, kernels: KernelSet, grid: PhaseSpaceGrid,
                config: Optional[SolverConfig] = None,
                include_square: bool = False) -> np.ndarray:
    """Time derivative with every momentum offset weighted by the kernel tables.

    Requires kernel tables computed on the full spatial grid (x_points=None).
    """
    values = f.values if isinstance(f, WignerState) else np.asarray(f)
    cons = grid.constants
    if kernels.x_points.shape[:-1] != tuple(grid.n_x):
        raise ValueError("kernel tables must cover the full spatial grid")
    if include_square and kernels.magnetic_square is None:
        raise ValueError("kernel set was built without the squared-field table")
    order = config.stencil_order if config else 2
    boundary = config.boundary if config else "zero"

    dbar, hbar, htau, ibar = _field_tables(kernels, grid)
    e = cons.charge
    pref_d = e / (2j * cons.hbar)
    pref_hp = e / (2j * cons.hbar * cons.mass)
    pref_hg = -e / (2.0 * cons.mass)
    pref_i = e ** 2 / (4j * cons.mass * cons.hbar)

    grads = [spatial_derivative(values, grid, c, order, boundary) for c in range(grid.dim)]
    p_broadcast = []
    for c in range(grid.dim):
        shape = [1] * values.ndim
        shape[c] = len(grid.p_axes[c])
        p_broadcast.append(grid.p_axes[c].reshape(shape))

    acc = np.zeros(values.shape, dtype=complex)
    for m_multi in np.ndindex(*grid.n_s):
        offsets = tuple(m_multi[c] - grid.n_p[c] for c in range(grid.dim))
        g = values
        for c, m in enumerate(offsets):
            if m != 0:
                g = sample_shift(g, c, -m)
        coef = pref_d * dbar[m_multi]
        if include_square:
            coef = coef + pref_i * ibar[m_multi]
        term = coef * g
        for c in range(grid.dim):
            hb = hbar[c][m_multi]
            if np.any(hb):
                term = term + (pref_hp * hb) * (p_broadcast[c] * g)
            ht = htau[c][m_multi]
            if np.any(ht):
                gg = grads[c]
                for cc, m in enumerate(offsets):
                    if m != 0:
                        gg = sample_shift(gg, cc, -m)
                term = term + (pref_hg * ht) * gg
        acc += term
    out = advection_term(values, grid, order, boundary).astype(complex)
    out += acc
    return out.real
