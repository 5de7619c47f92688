"""Kernel-table reference route: the evolution right-hand side assembled
directly from windowed field tables.

This route makes no closed-form assumptions about the field profile: the
momentum coupling at every offset is read off the numeric kernel tables
(weighted over their quadrature nodes), so it serves as an independent
cross-check of the ladder solver's analytic coefficient families.  No config
or run reaches it.  Unlike `oracles`, it builds on package internals: the
kernel tables and the blocked spatial stencil.

`make_rhs` reduces the tables once and turns each into its spectrum along
the momentum axes.  Every offset sum sum_m T(m, x) g(M - m, x) is then one
zero-padded FFT product per spatial point, cropped back to the lattice: the
padding to 2 n_s - 1 slots per axis keeps the sum from wrapping, so entries
past the lattice edge read zero as in the other routes.  The double-window
term of the squared-field table is not part of this operator.
"""

from __future__ import annotations

import numpy as np

from sdwigner.kernels import KernelSet
from sdwigner.phasespace import PhaseSpaceGrid
from sdwigner.solvers.common import BlockedStencil, SolverConfig


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
    return dbar, hbar, htau


def make_rhs(kernels: KernelSet, grid: PhaseSpaceGrid, config: SolverConfig):
    """Build the table spectra, the stencil and the derivative arrays once and
    bind them into a closure (values, out) -> d/dt values, written into `out`.

    Requires kernel tables computed on the full spatial grid (x_points=None).
    """
    if kernels.x_points.shape[:-1] != tuple(grid.n_x):
        raise ValueError("kernel tables must cover the full spatial grid")
    d = grid.dim
    axes = tuple(range(d))
    pad = tuple(2 * n - 1 for n in grid.n_s)
    # table slot n_p + m holds offset m, so lattice slot M lands at n_p + M
    crop = tuple(slice(n, n + s) for n, s in zip(grid.n_p, grid.n_s))
    cons = grid.constants
    e = cons.charge

    def spectrum(table, pref):
        return np.fft.fftn(pref * table, s=pad, axes=axes) if np.any(table) else None

    dbar, hbar, htau = _field_tables(kernels, grid)
    electric = spectrum(dbar, e / (2j * cons.hbar))
    lorentz = [spectrum(t, e / (2j * cons.hbar * cons.mass)) for t in hbar]
    gradient = [spectrum(t, -e / (2.0 * cons.mass)) for t in htau]
    momenta = [p.reshape([-1 if a == c else 1 for a in range(2 * d)])
               for c, p in enumerate(grid.p_axes)]

    stencil = BlockedStencil(grid.state_shape, grid, config.stencil_order, config.boundary)
    speeds = [-p / cons.mass for p in momenta]
    grads = [np.empty(grid.state_shape) for _ in range(d)]
    # padded spectra, accumulator and product: built once, reused by every
    # call.  `padded` is zero outside its lattice block, which alone is
    # rewritten, so every transform of it is the zero-padded one.
    padded, f_hat, acc, prod = (np.zeros(pad + grid.state_shape[d:], dtype=complex)
                                for _ in range(4))
    lattice = padded[tuple(slice(0, n) for n in grid.n_s)]

    def transform(values, spec):
        lattice[...] = values
        return np.fft.fftn(padded, axes=axes, out=spec)

    def inverse(spec):
        """The inverse transform cropped to the lattice; overwrites spec."""
        return np.fft.ifftn(spec, axes=axes, out=spec)[crop]

    def rhs(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        for axis, g in enumerate(grads):
            stencil(values, axis, g)
        transform(values, f_hat)
        if electric is not None:
            np.multiply(electric, f_hat, out=acc)
        else:
            acc.fill(0.0)
        for spec, g in zip(gradient, grads):
            if spec is not None:
                np.add(acc, np.multiply(spec, transform(g, prod), out=prod), out=acc)
        # advection, -(P / m) . grad f, once the gradient spectra have read
        # the derivatives: the second one is spent as its term
        np.multiply(grads[0], speeds[0], out=out)
        for g, v in zip(grads[1:], speeds[1:]):
            out += np.multiply(g, v, out=g)
        out += inverse(acc).real
        for spec, p in zip(lorentz, momenta):
            if spec is not None:
                part = inverse(np.multiply(spec, f_hat, out=prod)).real
                np.multiply(part, p, out=part)
                out += part
        return out
    return rhs
