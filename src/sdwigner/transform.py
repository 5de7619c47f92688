"""Discrete Weyl and Weyl-Stratonovich transforms on the bounded geometry.

The forward map takes a density matrix sampled in center-of-mass coordinates
(x on the Omega grid, s on the symmetric relative lattice) to a real
phase-space function of the discrete kinetic momentum:

    f(M, x) = (1/N) sum_j exp(-i P_M . s_j / hbar) Phi(x, s_j) rho(x; s_j)

with the Stratonovich phase

    Phi(x, s) = exp(-(i e / 2 hbar) s . int_{-1}^{1} A(x + s tau / 2) dtau)

making the momentum argument kinetic rather than canonical.  On the uniform
symmetric s lattice the sum is an exact scaled DFT per axis, so forward and
inverse compose to the identity at machine precision.  The tau line integral
uses fixed-order Gauss-Legendre nodes; they are symmetric in tau, which keeps
Phi(x, -s) = conj(Phi(x, s)) exact and hence the output real for Hermitian
input even when the quadrature itself is inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phasespace import GaugeSpec, PhaseSpaceGrid

DEFAULT_TAU_ORDER = 16
DEFAULT_REALNESS_TOL = 1e-10


class TransformConsistencyError(ValueError):
    """Imaginary residue above tolerance: inconsistent rho/gauge or too few tau nodes."""


@dataclass(frozen=True)
class DensityMatrix:
    """rho(x + s/2, x - s/2) sampled over (x grid) x (s lattice), complex.

    Array axes: spatial axes first, then relative axes, shape grid.n_x + grid.n_s.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        expected = self.grid.n_x + self.grid.n_s
        if self.values.shape != expected:
            raise ValueError(f"values: expected shape {expected}, got {self.values.shape}")

    def hermiticity_defect(self) -> float:
        """Max |rho(x, s) - conj(rho(x, -s))| relative to the largest magnitude."""
        d = self.grid.dim
        return conjugate_flip_defect(self.values, tuple(range(d, 2 * d)))

    def diagonal(self) -> np.ndarray:
        """rho(x, x), i.e. the s = 0 slice: the position-space density."""
        return self.values[(Ellipsis,) + self.grid.n_p]


@dataclass(frozen=True)
class WignerState:
    """Real phase-space function over (momentum lattice) x (x grid).

    Array axes: momentum axes first, then spatial axes, shape grid.n_s + grid.n_x.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.values.shape != self.grid.state_shape:
            raise ValueError(
                f"values: expected shape {self.grid.state_shape}, got {self.values.shape}")
        if np.iscomplexobj(self.values):
            raise ValueError("WignerState values must be real; take the checked transform output")


@dataclass(frozen=True)
class WignerPotentialTable:
    """Momentum-transfer table of a scalar potential.

    values[m..., x...] is real-valued up to roundoff and odd in m for real
    potentials; kept complex so the antisymmetry can be asserted, not assumed.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray


def gauss_legendre_nodes(n_tau: int):
    """Nodes and weights on (-1, 1). Symmetric by construction."""
    if n_tau < 2:
        raise ValueError("need at least 2 tau nodes")
    return np.polynomial.legendre.leggauss(n_tau)


def _dft_matrix(n_p: int, sign: int) -> np.ndarray:
    """exp(sign 2 pi i M j / N) on symmetric indices M, j = -n_p..n_p, N = 2 n_p + 1.

    The forward matrix (sign -1) carries the 1/N, so forward then inverse is the identity.
    """
    n = 2 * n_p + 1
    idx = np.arange(-n_p, n_p + 1)
    mat = np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n)
    return mat / n if sign < 0 else mat


def lattice_dft(values: np.ndarray, grid: PhaseSpaceGrid, first_axis: int, sign: int) -> np.ndarray:
    """DFT over the grid.dim lattice axes starting at first_axis, each left in place.

    sign -1 maps s to M: g(M) = (1/N) sum_j exp(-2 pi i M j / N) values(s_j);
    sign +1 maps M back to s.
    """
    out = np.asarray(values, dtype=complex)
    for c in range(grid.dim):
        mat = _dft_matrix(grid.n_p[c], sign)
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, first_axis + c)), 0, first_axis + c)
    return out


def _swap_halves(values: np.ndarray, d: int) -> np.ndarray:
    """(x..., s...) <-> (M..., x...): exchange the two d-axis halves."""
    return values.transpose(tuple(range(d, 2 * d)) + tuple(range(d)))


def s_axis(grid: PhaseSpaceGrid, c: int, batch: int) -> np.ndarray:
    """Component c of the s lattice, shaped to broadcast over batch axes + n_s."""
    return grid.s_axes[c].reshape((1,) * (batch + c) + (-1,) + (1,) * (grid.dim - c - 1))


def s_dot(grid: PhaseSpaceGrid, vectors: np.ndarray, batch: int) -> np.ndarray:
    """s . v over batch axes + n_s for vectors shaped batch + n_s + (>= dim,)."""
    return sum(s_axis(grid, c, batch) * vectors[..., c] for c in range(grid.dim))


def offset_points(grid: PhaseSpaceGrid, scale, x_points=None) -> np.ndarray:
    """Points x + scale * s over (x batch) x (s lattice), shape batch + n_s + (dim,).

    x_points has shape batch + (dim,); None means the cell centres, batch grid.n_x.
    """
    if x_points is None:
        x_points = np.stack(np.meshgrid(*grid.x_axes, indexing="ij"), axis=-1)
    batch = x_points.shape[:-1]
    x = x_points.reshape(batch + (1,) * grid.dim + (grid.dim,))
    out = np.empty(batch + grid.n_s + (grid.dim,))
    for c in range(grid.dim):
        out[..., c] = x[..., c] + scale * s_axis(grid, c, len(batch))
    return out


def conjugate_flip_defect(values: np.ndarray, axes) -> float:
    """Max |v(-s) - conj(v(s))| with s flipped along axes, relative to the largest magnitude."""
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.flip(values, axis=axes) - np.conj(values))) / scale)


def stratonovich_phase(grid: PhaseSpaceGrid,
                       gauge: Optional[GaugeSpec],
                       n_tau: int = DEFAULT_TAU_ORDER) -> np.ndarray:
    """The line-integral phase Phi(x, s) on (x grid) x (s lattice).

    Returns the unit array when the gauge carries no vector potential, which
    reduces the transform to the plain Weyl form through the same code path.
    n_tau is checked first, so a bad order fails with or without a gauge.
    """
    c = grid.constants
    nodes, weights = gauss_legendre_nodes(n_tau)
    if gauge is None or not gauge.has_vector_potential():
        return np.ones(grid.n_x + grid.n_s, dtype=complex)
    exponent = np.zeros(grid.n_x + grid.n_s)
    for tau, w in zip(nodes, weights):
        a = gauge.vector_potential(offset_points(grid, 0.5 * tau))
        exponent += w * s_dot(grid, a, grid.dim)
    return np.exp(-1j * (c.charge / (2.0 * c.hbar)) * exponent)


def wigner_from_density(rho: DensityMatrix,
                        gauge: Optional[GaugeSpec] = None,
                        n_tau: int = DEFAULT_TAU_ORDER) -> WignerState:
    """Forward transform; gauge None (or A = None) gives the electrostatic Weyl limit.

    Raises TransformConsistencyError when the imaginary residue of the result
    exceeds DEFAULT_REALNESS_TOL relative to the largest real magnitude.
    """
    grid = rho.grid
    phase = stratonovich_phase(grid, gauge, n_tau)
    f = _swap_halves(lattice_dft(phase * rho.values, grid, grid.dim, -1), grid.dim)
    scale = np.max(np.abs(f.real))
    residue = np.max(np.abs(f.imag)) / scale if scale > 0.0 else np.max(np.abs(f.imag))
    if residue > DEFAULT_REALNESS_TOL:
        raise TransformConsistencyError(
            f"imaginary residue {residue:.3e} exceeds tolerance {DEFAULT_REALNESS_TOL:.3e}; "
            "check Hermiticity of rho, the gauge, and n_tau")
    return WignerState(grid, np.ascontiguousarray(f.real), rho.time)


def density_from_wigner(f: WignerState,
                        gauge: Optional[GaugeSpec] = None,
                        n_tau: int = DEFAULT_TAU_ORDER) -> DensityMatrix:
    """Inverse transform: rho(x; s) = conj(Phi(x, s)) sum_M exp(+i P_M . s / hbar) f(M, x)."""
    grid = f.grid
    phase = stratonovich_phase(grid, gauge, n_tau)
    core = lattice_dft(_swap_halves(f.values, grid.dim), grid, grid.dim, +1)
    return DensityMatrix(grid, np.conj(phase) * core, f.time)


def weyl_from_density(rho: DensityMatrix, **kwargs) -> WignerState:
    """Electrostatic Weyl transform: the A = 0 specialization of the forward map."""
    return wigner_from_density(rho, gauge=None, **kwargs)


def apply_gauge_change(rho: DensityMatrix, chi: Callable) -> DensityMatrix:
    """Relabel rho under A -> A + grad(chi):

        rho'(r1, r2) = exp(+(i e/hbar) chi(r1)) rho(r1, r2) exp(-(i e/hbar) chi(r2))

    The sign pairs with the forward transform's phase so that transforming
    rho' with the shifted potential reproduces the original phase-space
    function; the diagonal r1 = r2 is untouched.
    """
    grid = rho.grid
    c = grid.constants
    r1 = offset_points(grid, +0.5)
    r2 = offset_points(grid, -0.5)
    factor = np.exp(1j * (c.charge / c.hbar) * (np.asarray(chi(r1)) - np.asarray(chi(r2))))
    return DensityMatrix(grid, factor * rho.values, rho.time)


def wigner_potential(potential: Callable, grid: PhaseSpaceGrid) -> WignerPotentialTable:
    """Momentum-transfer table of a scalar potential energy V:

        V_w(m, x) = (1/(i hbar)) (1/N) sum_j exp(-i m dp . s_j / hbar)
                    [V(x - s_j/2) - V(x + s_j/2)]

    V is a callable on positions (..., dim) and must be defined on the
    s-reachable neighborhood of the domain (half extent omega/2 + L/4).
    Odd in m and real-valued for real V.
    """
    c = grid.constants
    minus = np.asarray(potential(offset_points(grid, -0.5)), dtype=float)
    plus = np.asarray(potential(offset_points(grid, +0.5)), dtype=float)
    table = _swap_halves(lattice_dft(minus - plus, grid, grid.dim, -1), grid.dim) / (1j * c.hbar)
    return WignerPotentialTable(grid, table)
