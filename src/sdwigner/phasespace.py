"""Bounded phase-space geometry, physical constants, and field descriptions.

The theory lives on a finite coherence window of length L per axis: the
center-of-mass coordinate is restricted to a sub-domain Omega (centered here,
|x_i| <= omega_extent_i / 2 <= L_i / 4 ... L_i / 2), the relative coordinate
spans (-L/2, L/2), and momentum is an exact lattice with spacing

    dp_i = 2 pi hbar / L_i

per axis, symmetric indices M in {-n_p, ..., +n_p}.  The relative-coordinate
grid carries 2 n_p + 1 uniformly spaced points s_j = j L / (2 n_p + 1), which
makes the forward/inverse transform pair an exact (scaled) unitary DFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np


class FieldCoverageError(ValueError):
    """Raised when a sampled field is evaluated outside its tabulated window."""


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used throughout. Override for natural-unit tests."""

    hbar: float = 1.054571817e-34   # J s
    charge: float = 1.602176634e-19  # C, magnitude of the electron charge
    mass: float = 9.1093837015e-31   # kg, free electron mass

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")


SI = PhysicalConstants()


def per_axis(value, dim: int, name: str) -> tuple:
    """A scalar repeated on every axis, or a sequence checked to hold dim entries."""
    if np.isscalar(value):
        return (value,) * dim
    out = tuple(value)
    if len(out) != dim:
        raise ValueError(f"{name}: expected scalar or length-{dim} sequence, got {value!r}")
    return out


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Discrete phase-space geometry for one simulation.

    Attributes
    ----------
    dim : spatial dimensionality (1, 2 or 3)
    coherence_length : L per axis (m); sets the momentum spacing exactly
    omega_extent : extent of the centered spatial domain Omega per axis (m)
    n_x : spatial cell count per axis
    n_p : momentum half-range per axis; lattice has 2 n_p + 1 indices
    constants : the PhysicalConstants the momentum spacing was derived with
    """

    dim: int
    coherence_length: tuple
    omega_extent: tuple
    n_x: tuple
    n_p: tuple
    constants: PhysicalConstants = field(default=SI)

    @property
    def dp(self) -> tuple:
        # exact by construction: dp * L = 2 pi hbar
        return tuple(2.0 * np.pi * self.constants.hbar / L for L in self.coherence_length)

    @property
    def dx(self) -> tuple:
        return tuple(w / n for w, n in zip(self.omega_extent, self.n_x))

    @property
    def n_s(self) -> tuple:
        return tuple(2 * n + 1 for n in self.n_p)

    @property
    def ds(self) -> tuple:
        return tuple(L / n for L, n in zip(self.coherence_length, self.n_s))

    @cached_property
    def x_axes(self) -> tuple:
        """Cell-centered spatial coordinates per axis."""
        return tuple(
            (-0.5 * w) + (np.arange(n) + 0.5) * (w / n)
            for w, n in zip(self.omega_extent, self.n_x)
        )

    @cached_property
    def s_axes(self) -> tuple:
        """Symmetric relative-coordinate grid per axis, s_j = j ds, j = -n_p..n_p."""
        return tuple(
            np.arange(-n, n + 1) * d for n, d in zip(self.n_p, self.ds)
        )

    @cached_property
    def momentum_indices(self) -> tuple:
        return tuple(np.arange(-n, n + 1) for n in self.n_p)

    @cached_property
    def p_axes(self) -> tuple:
        """Momentum lattice values per axis, P_M = M dp."""
        return tuple(idx * d for idx, d in zip(self.momentum_indices, self.dp))

    @property
    def state_shape(self) -> tuple:
        """Array shape of a phase-space function: momentum axes then spatial axes."""
        return self.n_s + self.n_x

    def momentum_slot(self, axis: int, m_index: int) -> int:
        """Array position of lattice index m_index on a momentum axis."""
        n = self.n_p[axis]
        if not -n <= m_index <= n:
            raise IndexError(f"momentum index {m_index} outside lattice (|M| <= {n})")
        return m_index + n


def make_grid(dim: int,
              coherence_length,
              omega_extent,
              n_x,
              n_p,
              constants: PhysicalConstants = SI) -> PhaseSpaceGrid:
    """Validate and build a PhaseSpaceGrid.

    Requires 0 < omega_extent_i <= coherence_length_i / 2 per axis so that both
    density-matrix endpoints x +- s/2 stay inside the coherence window, and
    positive cell counts.  Momentum spacing is fixed to 2 pi hbar / L exactly.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    L = per_axis(coherence_length, dim, "coherence_length")
    omega = per_axis(omega_extent, dim, "omega_extent")
    nx = per_axis(n_x, dim, "n_x")
    npp = per_axis(n_p, dim, "n_p")
    for i in range(dim):
        if not L[i] > 0:
            raise ValueError(f"coherence_length[{i}] must be positive, got {L[i]}")
        if not 0 < omega[i] <= 0.5 * L[i]:
            raise ValueError(
                f"omega_extent[{i}]={omega[i]} must satisfy 0 < omega <= coherence_length/2={0.5 * L[i]}"
            )
        if not (isinstance(nx[i], (int, np.integer)) and nx[i] >= 1):
            raise ValueError(f"n_x[{i}] must be a positive integer, got {nx[i]}")
        if not (isinstance(npp[i], (int, np.integer)) and npp[i] >= 1):
            raise ValueError(f"n_p[{i}] must be a positive integer, got {npp[i]}")
    return PhaseSpaceGrid(dim, tuple(map(float, L)), tuple(map(float, omega)),
                          tuple(map(int, nx)), tuple(map(int, npp)), constants)


def grid_difference(a: PhaseSpaceGrid, b: PhaseSpaceGrid):
    """The first quantity in which grid a differs from grid b, as (name,
    a's value, b's value), or None.  dim, n_p and n_x must be equal; the
    lengths and hbar, charge and mass must agree to 1e-12 relative, with no
    absolute term, so a length in metres is compared at its own scale."""
    for name in ("dim", "n_p", "n_x", "coherence_length", "omega_extent",
                 "hbar", "charge", "mass"):
        x, y = (getattr(g if hasattr(g, name) else g.constants, name) for g in (a, b))
        if name in ("dim", "n_p", "n_x"):
            same = x == y
        else:
            # dim is compared first, so the per-axis tuples here have one length
            same = all(math.isclose(p, q, rel_tol=1e-12)
                       for p, q in zip(*((v if isinstance(v, tuple) else (v,)) for v in (x, y))))
        if not same:
            return name, x, y
    return None


# ---------------------------------------------------------------------------
# electromagnetic fields
# ---------------------------------------------------------------------------

def _component(positions: np.ndarray, axis: int) -> np.ndarray:
    """Coordinate component of a (..., dim) position array; 0 where absent."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape[-1] > axis:
        return positions[..., axis]
    return np.zeros(positions.shape[:-1])


@dataclass(frozen=True)
class LinearEMField:
    """Linear-profile field: E = (E_grad_x * x, E_grad_y * y, 0), B = (0, 0, B0 + B1 * y).

    Defined for every position, so no coverage restriction applies.
    Units: e_grad in V/m^2, b0 in T, b1 in T/m.
    """

    e_grad: tuple = (0.0, 0.0)
    b0: float = 0.0
    b1: float = 0.0

    def electric(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        out = np.zeros(positions.shape[:-1] + (3,))
        out[..., 0] = self.e_grad[0] * _component(positions, 0)
        if len(self.e_grad) > 1:
            out[..., 1] = self.e_grad[1] * _component(positions, 1)
        return out

    def magnetic(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        out = np.zeros(positions.shape[:-1] + (3,))
        out[..., 2] = self.b0 + self.b1 * _component(positions, 1)
        return out


@dataclass(frozen=True)
class SampledEMField:
    """Fields tabulated on a uniform rectilinear position grid.

    ``axes`` are strictly increasing uniform 1D coordinate arrays; ``electric``
    and ``magnetic`` have shape axes-shape + (3,).  Evaluation interpolates
    multilinearly and refuses to extrapolate: any query outside the tabulated
    window raises FieldCoverageError.
    """

    axes: tuple
    electric_samples: np.ndarray
    magnetic_samples: np.ndarray

    def __post_init__(self):
        shape = tuple(len(a) for a in self.axes)
        for name, arr in (("electric_samples", self.electric_samples),
                          ("magnetic_samples", self.magnetic_samples)):
            if arr.shape != shape + (3,):
                raise ValueError(f"{name}: expected shape {shape + (3,)}, got {arr.shape}")
        for a in self.axes:
            if len(a) < 2 or np.any(np.diff(a) <= 0):
                raise ValueError("axes must be strictly increasing with at least 2 points")

    @classmethod
    def from_callables(cls, axes: Sequence[np.ndarray],
                       electric: Optional[Callable] = None,
                       magnetic: Optional[Callable] = None) -> "SampledEMField":
        """Tabulate callables (position -> 3-vector) on a tensor grid."""
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        shape = mesh.shape[:-1]
        e = np.zeros(shape + (3,)) if electric is None else np.asarray(electric(mesh), dtype=float)
        b = np.zeros(shape + (3,)) if magnetic is None else np.asarray(magnetic(mesh), dtype=float)
        return cls(axes, e, b)

    def _interpolate(self, table: np.ndarray, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        ndim = len(self.axes)
        if positions.shape[-1] < ndim:
            raise ValueError(f"positions need {ndim} components, got {positions.shape[-1]}")
        # locate each component; strict bounds, no extrapolation
        idx = []
        frac = []
        for k, axis in enumerate(self.axes):
            q = positions[..., k]
            lo, hi = axis[0], axis[-1]
            if np.any(q < lo) or np.any(q > hi):
                raise FieldCoverageError(
                    f"axis {k}: query range [{np.min(q):.6g}, {np.max(q):.6g}] exceeds "
                    f"sampled window [{lo:.6g}, {hi:.6g}]"
                )
            step = axis[1] - axis[0]
            t = (q - lo) / step
            i0 = np.clip(np.floor(t).astype(int), 0, len(axis) - 2)
            idx.append(i0)
            frac.append(t - i0)
        out = np.zeros(positions.shape[:-1] + (3,))
        # accumulate the 2^ndim corner contributions
        for corner in range(1 << ndim):
            w = np.ones(positions.shape[:-1])
            sel = []
            for k in range(ndim):
                if corner >> k & 1:
                    w = w * frac[k]
                    sel.append(idx[k] + 1)
                else:
                    w = w * (1.0 - frac[k])
                    sel.append(idx[k])
            out += w[..., None] * table[tuple(sel)]
        return out

    def electric(self, positions: np.ndarray) -> np.ndarray:
        return self._interpolate(self.electric_samples, positions)

    def magnetic(self, positions: np.ndarray) -> np.ndarray:
        return self._interpolate(self.magnetic_samples, positions)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeSpec:
    """A choice of vector potential A(x) (3-vector), and an optional gauge
    function chi such that A_this = A_other + grad(chi) for the companion gauge
    the factory documents.  A scalar potential enters through
    transform.wigner_potential, which takes it as a callable."""

    vector_potential: Optional[Callable] = None
    gauge_function: Optional[Callable] = None

    def has_vector_potential(self) -> bool:
        return self.vector_potential is not None


def zero_gauge() -> GaugeSpec:
    """A = 0: the transform degenerates to the plain discrete Weyl transform."""
    return GaugeSpec()


def landau_gauge(b0: float) -> GaugeSpec:
    """A = (-B0 y, 0, 0), curl A = (0, 0, B0).

    ``gauge_function`` holds chi(x, y) = -B0 x y / 2 with
    A_landau = A_symmetric + grad(chi).
    """
    def vector_potential(pos):
        pos = np.asarray(pos, dtype=float)
        out = np.zeros(pos.shape[:-1] + (3,))
        out[..., 0] = -b0 * _component(pos, 1)
        return out

    def chi(pos):
        pos = np.asarray(pos, dtype=float)
        return -0.5 * b0 * _component(pos, 0) * _component(pos, 1)

    return GaugeSpec(vector_potential=vector_potential, gauge_function=chi)


def symmetric_gauge(b0: float) -> GaugeSpec:
    """A = (-B0 y / 2, B0 x / 2, 0), curl A = (0, 0, B0)."""
    def vector_potential(pos):
        pos = np.asarray(pos, dtype=float)
        out = np.zeros(pos.shape[:-1] + (3,))
        out[..., 0] = -0.5 * b0 * _component(pos, 1)
        out[..., 1] = 0.5 * b0 * _component(pos, 0)
        return out

    return GaugeSpec(vector_potential=vector_potential)
