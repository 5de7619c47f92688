"""Shared solver plumbing: configuration, spatial derivative matrices, banded
momentum operators, stepping, observables.

Conventions used by every solver in this package:
  state arrays carry momentum axes first, spatial axes last (WignerState layout);
  momentum-offset sums treat indices beyond the lattice as zeros (bounded-state
  premise), independent of the spatial boundary policy;
  on the finite lattice every momentum-offset sum is a finite sum, so the
  deterministic routes apply each one as a banded Toeplitz matrix along its
  momentum axis; the order in which the offsets are added changes only
  rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..phasespace import PhaseSpaceGrid
from ..transform import WignerState


class SolverInstabilityError(RuntimeError):
    """A step left a non-finite state or grew its L2 norm, which a stable
    step of either route's skew-symmetric generator never does."""


class SolverConfigError(ValueError):
    """A SolverConfig value out of range: `field` breaks `rule`.

    The message names the field; a config file reports `rule` at its own key.
    """

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


class FredholmConvergenceError(RuntimeError):
    """A resolvent level failed to reach tolerance; the message names the
    level, and `residuals` carries that level's residual history."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for all evolution solvers.

    dt, t_end in seconds.  m_truncation bounds the symmetric momentum-offset
    sums (None means the full lattice half-range).  gamma0 is the auxiliary
    event rate of the integral-form solvers (None means the automatic bound
    from the finite-difference coefficients).  boundary applies to spatial
    axes only; momentum overflow is always treated as zero.
    """

    dt: float
    t_end: float
    m_truncation: Optional[int] = None
    gamma0: Optional[float] = None
    stencil_order: int = 2
    boundary: str = "zero"
    rng_seed: int = 0
    n_particles: int = 20000
    fredholm_tol: float = 1e-8
    fredholm_max_iter: int = 200
    weight_cap: float = 1e6

    def __post_init__(self):
        for name, ok, rule in (
            ("dt", self.dt > 0, "must be positive"),
            ("t_end", self.t_end > 0, "must be positive"),
            ("stencil_order", self.stencil_order in (2, 4),
             f"must be 2 or 4, got {self.stencil_order}"),
            ("boundary", self.boundary in ("zero", "periodic"),
             f"must be 'zero' or 'periodic', got {self.boundary!r}"),
            ("m_truncation", self.m_truncation is None or self.m_truncation >= 1,
             "must be None or >= 1"),
            ("gamma0", self.gamma0 is None or self.gamma0 > 0, "must be positive when given"),
            ("rng_seed", self.rng_seed >= 0, "must be >= 0"),
            ("n_particles", self.n_particles >= 1, "must be >= 1"),
            ("fredholm_tol", self.fredholm_tol > 0, "must be positive"),
            ("fredholm_max_iter", self.fredholm_max_iter >= 1, "must be >= 1"),
            ("weight_cap", self.weight_cap > 1, "must exceed 1"),
        ):
            if not ok:
                raise SolverConfigError(name, rule)

    def validate(self, grid: PhaseSpaceGrid) -> None:
        """Advective stability: dt * v_max / dx <= 0.5 per spatial axis."""
        mass = grid.constants.mass
        for c in range(grid.dim):
            v_max = grid.n_p[c] * grid.dp[c] / mass
            cap = 0.5 * grid.dx[c] / v_max if v_max > 0 else np.inf
            if self.dt > cap * (1 + 1e-12):
                raise ValueError(
                    f"dt={self.dt:.3e} s exceeds the advective cap {cap:.3e} s on axis {c} "
                    f"(v_max={v_max:.3e} m/s, dx={grid.dx[c]:.3e} m)"
                )

    def momentum_cutoff(self, grid: PhaseSpaceGrid, axis: int) -> int:
        # offsets beyond 2 n_p cannot touch any lattice point, so cap there;
        # the default half-range keeps the pair sum inside the stored lattice
        n = grid.n_p[axis]
        return n if self.m_truncation is None else min(self.m_truncation, 2 * n)


def l2_norm(values: np.ndarray) -> float:
    """L2 norm of a contiguous array in NumPy's own loop.

    np.linalg.norm goes through BLAS, whose summation order depends on its
    thread count; this keeps a norm, and every decision taken on it, the
    same at every count.
    """
    flat = values.reshape(-1)
    return math.sqrt(np.einsum("i,i->", flat, flat))


def _values(f) -> np.ndarray:
    return f.values if isinstance(f, WignerState) else np.asarray(f)


def sample_shift(values: np.ndarray, axis: int, k: int, boundary: str = "zero") -> np.ndarray:
    """g with g[i] = values[i + k] along one array axis.

    boundary 'zero' fills vacated cells with 0; 'periodic' wraps.
    """
    if k == 0:
        return values
    if boundary == "periodic":
        return np.roll(values, -k, axis=axis)
    out = np.zeros_like(values)
    n = values.shape[axis]
    if abs(k) >= n:
        return out
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if k > 0:
        dst[axis] = slice(0, n - k)
        src[axis] = slice(k, n)
    else:
        dst[axis] = slice(-k, n)
        src[axis] = slice(0, n + k)
    out[tuple(dst)] = values[tuple(src)]
    return out


# A block of the right-hand side's sweep holds whole P_x slabs up to about
# this many bytes, so the block and its terms stay in cache while they are
# added.
_BLOCK_BYTES = 256 * 1024


def derivative_matrix(n: int, dx: float, order: int, boundary: str) -> np.ndarray:
    """n x n central-difference matrix D along one spatial axis of spacing dx.

    (D v)[i] = (v[i + 1] - v[i - 1]) / (2 dx) for order 2 and
    (-v[i + 2] + 8 v[i + 1] - 8 v[i - 1] + v[i - 2]) / (12 dx) for order 4.
    'zero' drops the taps off the axis; 'periodic' wraps them modulo n and
    adds the taps that land on one cell, so an axis shorter than the stencil
    wraps more than once.
    """
    if order not in (2, 4):
        raise ValueError(f"unsupported stencil order {order}")
    taps = {1: 1.0, -1: -1.0} if order == 2 else {1: 8.0, -1: -8.0, 2: -1.0, -2: 1.0}
    matrix = sum(weight * (np.roll(np.eye(n), k, axis=1) if boundary == "periodic"
                           else np.eye(n, k=k)) for k, weight in taps.items())
    return matrix / ((2.0 if order == 2 else 12.0) * dx)


class BlockedStencil:
    """Central differences along the spatial axes of states of one shape.

    A state is viewed as rows, one per momentum lattice point, each holding
    the spatial axes; consecutive rows are adjacent in memory.  The stencil
    is held as one `derivative_matrix` per spatial axis, built once, and the
    derivative of any run of consecutive rows (a block of the sweep, or a
    whole state) is one BLAS call: the last axis multiplies the rows, seen
    as a matrix of rows of that axis, from the right by D transposed; an
    earlier axis multiplies each row from the left by D.
    """

    def __init__(self, shape: Sequence[int], grid: PhaseSpaceGrid, order: int, boundary: str):
        self.row_shape = tuple(shape[grid.dim:])
        self.matrices = [derivative_matrix(n, dx, order, boundary)
                         for n, dx in zip(self.row_shape, grid.dx)]
        self.matrices[-1] = np.ascontiguousarray(self.matrices[-1].T)

    def __call__(self, block: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """d/dx along spatial `axis` of the rows `block`, written into `out`;
        both must be C-contiguous."""
        n, after = self.row_shape[axis], math.prod(self.row_shape[axis + 1:])
        if axis == len(self.row_shape) - 1:
            np.matmul(block.reshape(-1, n), self.matrices[axis], out=out.reshape(-1, n))
        else:
            np.matmul(self.matrices[axis], block.reshape(-1, n, after),
                      out=out.reshape(-1, n, after))
        return out


def momentum_difference(values: np.ndarray, grid: PhaseSpaceGrid, axis: int) -> np.ndarray:
    """Central first difference on the momentum lattice, zero-filled ends."""
    return (sample_shift(values, axis, 1) - sample_shift(values, axis, -1)) \
        / (2.0 * grid.dp[axis])


def momentum_second_difference(values: np.ndarray, grid: PhaseSpaceGrid, axis: int) -> np.ndarray:
    """Central second difference on the momentum lattice, zero-filled ends."""
    return (sample_shift(values, axis, 1) - 2.0 * values + sample_shift(values, axis, -1)) \
        / grid.dp[axis] ** 2


def odd_pair_ladder(values: np.ndarray, axis: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_m c(m) f(M - m) for an odd coefficient family, pairs summed together.

    coeffs[k] holds c(m = k + 1); the -m partner enters with opposite sign.
    """
    out = np.zeros_like(values)
    for k, c in enumerate(coeffs):
        m = k + 1
        if c == 0.0:
            continue
        out += c * (sample_shift(values, axis, -m) - sample_shift(values, axis, m))
    return out


def even_pair_ladder(values: np.ndarray, axis: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_m c(m) f(M - m) for an even family, m = 0 excluded, pairs together."""
    out = np.zeros_like(values)
    for k, c in enumerate(coeffs):
        m = k + 1
        if c == 0.0:
            continue
        out += c * (sample_shift(values, axis, -m) + sample_shift(values, axis, m))
    return out


def box_offset_sum(values: np.ndarray, axis: int, m_max: int) -> np.ndarray:
    """sum over every offset -m_max..m_max of f(M - m), zero-filled, pairs together."""
    out = values.copy()
    for m in range(1, m_max + 1):
        out += sample_shift(values, axis, -m) + sample_shift(values, axis, m)
    return out


def band_matrix(n: int, coeffs, parity: int, centre: float = 0.0) -> np.ndarray:
    """n x n Toeplitz matrix T of a momentum-offset sum along one lattice axis.

    (T v)[i] = centre v[i] + sum_m coeffs[m - 1] (v[i - m] + parity v[i + m])
    over m = 1, 2, ...  Entries past the lattice edge are zero-filled, and an
    offset m >= n touches nothing, so coefficients beyond n - 1 are dropped.
    parity -1 gives the odd pair sums (harmonic ladder, first difference),
    +1 the even ones (quadratic ladder, box sum, second difference).
    """
    coeffs = np.asarray(coeffs, dtype=float)[:n - 1]
    k = len(coeffs)
    taps = np.zeros(2 * n - 1)       # taps[n - 1 + d] weighs v[i - d]
    taps[n - 1] = centre
    taps[n:n + k] = coeffs
    taps[n - 1 - k:n - 1] = parity * coeffs[::-1]
    return taps[n - 1 + np.subtract.outer(np.arange(n), np.arange(n))]


@dataclass(frozen=True)
class BandedOperators:
    """The momentum-axis matrices of one deterministic route (2D grids).

    force[c] is the matrix A_c of the force term -F_c (A_c f) along momentum
    axis c, or None where the force table F_c vanishes.  Each gradient entry
    (s, w, A_x, A_y) adds w A_x A_y (df/dx_s), with None for the identity.
    """

    force: Tuple[Optional[np.ndarray], Optional[np.ndarray]]
    gradient: Tuple[Tuple[int, float, Optional[np.ndarray], Optional[np.ndarray]], ...]


class Workspace:
    """How one banded right-hand side is swept, worked out once from the
    state shape of `grid`, the momentum operators `ops` and the force tables
    of `coeffs`, and reused by every call.  2D grids only.

    Momentum and spatial operators act on different axes, so they commute,
    and only a matrix along P_x couples more than one P_x slab of the state.
    Everything runs in one sweep over `blocks` of whole P_x slabs, each at
    most about 256 KiB and at least one slab, while the block is in cache.
    Each distinct momentum-x matrix (`x_matrices`, told apart by identity)
    is applied in one of two ways, chosen from the matrix itself:

    - spans[k][b] = (lo, hi): the slabs that block b's rows of matrix k
      touch.  When these spans sum to at most 3 n (n the number of P_x
      slabs), about what a whole-state product moves (the state read, the
      product written and read back), the sweep forms the product per block
      from slabs lo..hi-1 into a scratch block.  Every tridiagonal matrix
      qualifies, and so does a ladder cut at a small offset;
    - spans[k] = None: a wide band, whose blocks would each re-read most
      of the state, or, on a workspace that runs `in_place`, a band whose
      span reaches back past the previous block (a ladder cut at a middle
      offset on blocks of a few slabs).  It is applied to the whole state
      once per call into a product of `products`, which is formed before
      the sweep, so an in-place call stays correct.

    The sweep's terms are:

    - product_terms[k]: the gradient terms (s, w, A_y) that read product k,
      taken as d/dx_s of w A_y (A_x f); force_x[k]: whether the force-x
      term F_x (A_x f) reads it too;
    - state_terms: the gradient terms (s, w, A_y) whose A_x is the identity;
    - speeds[c][row]: the weight of df/dx_c on each momentum row along
      axis c: -v_c when `advection`, plus the weights of the gradient terms
      that carry no matrix; None where it is zero everywhere.  Each call
      folds them, times its scale, into the derivative matrices (`stacks`).

    A force table that is the same at every cell of each momentum row (no
    b1, and no E gradient along its axis) is folded into its momentum
    matrix, decided from the table alone: row_forces[c] holds F_c per row
    of the other momentum axis, and tables[c], the table the sweep
    multiplies by, is None, as it is where the force term vanishes.  A
    table with a non-finite entry does not fold.  Folded, a force-x term
    that is a narrow product's only reader is one matmul per block by a
    (P_y rows, slabs, span) stack of F_x[j] A_x into the block's sum, and
    the force-y term one by a (slabs, P_y rows, P_y rows) stack of
    F_y[i] A_y (`force_stacks`, filled per block); a folded force x on a
    wide band or a shared product multiplies by F_x per P_y row.

    A workspace with `advection` is a stepped route's, and runs `in_place`:
    it takes calls that write over their input (`banded_rhs` with
    `out is values`).  One without is the resolvent kernel's, which the
    solve never calls in place.

    The workspace owns all of its callers' scratch memory, allocated once
    here as one array (`arena`): one whole-state product per wide-band
    momentum-x matrix (`products`), then exactly the scratch blocks
    (`scratch`, each `block_size` doubles) that the sweep holds at its
    peak.  That count comes from the sweep itself, run once here on two
    empty blocks, which take and give back scratch in the order of every
    call's blocks; a shift term is swept too, since any call may ask for
    one.  A folded force-x term forms no product block, so a uniform field
    on the small-spacing route takes one block fewer.  Between calls all of
    it is spent, so a free flight (`advect_free_flight`) sweeps the same
    blocks on the same memory: the kernel's workspace holds at least the
    flight's two blocks.
    """

    def __init__(self, grid: PhaseSpaceGrid, config: "SolverConfig", ops: BandedOperators,
                 coeffs, advection: bool = True):
        shape = grid.state_shape
        self.stencil = BlockedStencil(shape, grid, config.stencil_order, config.boundary)
        slab = math.prod(shape[1:])
        step = max(1, min(_BLOCK_BYTES // (8 * slab), shape[0]))
        self.blocks = [slice(i, i + step) for i in range(0, shape[0], step)]
        self.block_size = step * slab
        self.in_place = advection

        self.x_matrices, self.product_terms, self.force_x = [], [], []

        def product(matrix) -> int:
            for k, known in enumerate(self.x_matrices):
                if known is matrix:
                    return k
            self.x_matrices.append(matrix)
            self.product_terms.append([])
            self.force_x.append(False)
            return len(self.x_matrices) - 1

        if ops.force[0] is not None:
            self.force_x[product(ops.force[0])] = True
        self.state_terms = []
        speeds = [-p / grid.constants.mass if advection else np.zeros(len(p))
                  for p in grid.p_axes]
        for s, weight, mx, my in ops.gradient:
            if mx is not None:
                self.product_terms[product(mx)].append((s, weight, my))
            elif my is not None:
                self.state_terms.append((s, weight, my))
            else:
                speeds[s] = speeds[s] + weight
        self.speeds = [u if np.any(u) else None for u in speeds]
        self.y_force = ops.force[1]
        tables = (coeffs.force_x, coeffs.force_y[:, None])
        self.row_forces = tuple(None if matrix is None else _row_force(table)
                                for matrix, table in zip(ops.force, tables))
        self.tables = tuple(None if matrix is None or rows is not None else table
                            for matrix, rows, table in zip(ops.force, self.row_forces, tables))
        # slab i's first-axis matrix for one block; P_y row j's last-axis one
        d_x, d_y = self.stencil.matrices
        self.stacks = (None if self.speeds[0] is None else np.empty((step,) + d_x.shape),
                       None if self.speeds[1] is None else np.empty((len(speeds[1]),) + d_y.shape))
        self.spans = [self._spans(matrix) for matrix in self.x_matrices]
        # a folded force-x term that is its narrow product's only reader is
        # one matmul per block by a (P_y rows, slabs, span) stack; a folded
        # force y one by a (slabs, P_y rows, P_y rows) stack
        rows_x, rows_y = self.row_forces
        direct_x = rows_x is not None and self.spans[0] is not None and not self.product_terms[0]
        self.force_stacks = (
            np.empty(len(rows_x) * step * max(hi - lo for lo, hi in self.spans[0]))
            if direct_x else None,
            None if rows_y is None else np.empty((step,) + ops.force[1].shape))

        # count the sweep's scratch by sweeping two empty blocks: every
        # block after the first takes and gives back as the second does
        empty = np.empty((0,) + shape[1:])
        blocks = [slice(0, 0)] * min(2, len(self.blocks))
        self.scratch = _Tally()
        _sweep(empty, empty if self.in_place else np.empty_like(empty), self, blocks,
               [None if spans is None else [(0, 0)] * len(blocks) for spans in self.spans],
               [empty if spans is None else None for spans in self.spans], 1.0, None, 1.0)
        count = len(self.scratch)
        if not advection:
            count = max(count, 2)
        state = math.prod(shape)
        n_products = self.spans.count(None)
        self.arena = np.empty(n_products * state + count * self.block_size)
        self.products = self.arena[:n_products * state].reshape((n_products,) + shape)
        self.scratch = list(self.arena[n_products * state:].reshape(count, self.block_size))

    def _spans(self, matrix: np.ndarray):
        """Each block's [lo, hi) of slabs that `matrix`'s rows touch, or None
        when the spans sum to more than 3 n, or when, on a workspace that
        runs in place, one reaches back past the previous block."""
        spans = []
        for block in self.blocks:
            cols = np.flatnonzero(matrix[block].any(axis=0))
            spans.append((int(cols[0]), int(cols[-1]) + 1) if len(cols) else (block.start,) * 2)
        if sum(hi - lo for lo, hi in spans) > 3 * len(matrix):
            return None
        if self.in_place and any(lo < previous.start
                                 for previous, (lo, _) in zip(self.blocks, spans[1:])):
            return None
        return spans


def _row_force(table: np.ndarray) -> Optional[np.ndarray]:
    """The force of each momentum row of `table` (rows first, cells after)
    when it is one finite value at every cell of the row, else None."""
    flat = table.reshape(len(table), -1)
    rows = flat[:, :1]
    if np.isfinite(rows).all() and (flat == rows).all():
        return rows[:, 0].copy()
    return None


def _along_y(matrix: np.ndarray, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`matrix`, or a stack of one matrix per slab, applied along the P_y
    axis of a C-contiguous block of slabs."""
    rows = (-1, matrix.shape[-1], math.prod(block.shape[2:]))
    np.matmul(matrix, block.reshape(rows), out=out.reshape(rows))
    return out


def _weighted_stack(weights: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = weights[i] matrix, as one outer-product matmul: a broadcast
    multiply would buffer the whole stack."""
    np.matmul(weights[:, None], matrix.reshape(1, -1), out=out.reshape(-1, matrix.size))
    return out


def advection_term(block: np.ndarray, out: np.ndarray, stacks, scratch: np.ndarray,
                   accumulate: bool = False) -> np.ndarray:
    """Write, or with `accumulate` add, the spatial-derivative terms of the
    row weights of one block of whole P_x slabs into `out`.

    stacks[0][i] is the first spatial axis's derivative matrix times slab
    i's weight, applied from the left; stacks[1][j] the last axis's
    transposed matrix times P_y row j's weight, applied from the right;
    None skips an axis.  So each axis is one batched matmul with its
    velocities folded in.  `scratch` takes the axis not written into `out`;
    all arrays are C-contiguous and shaped like `block`.
    """
    for axis, stack in enumerate(stacks):
        if stack is None:
            continue
        term = scratch if accumulate else out
        if axis == 0:
            np.matmul(stack[:len(block), None], block, out=term)
        else:
            np.matmul(block, stack, out=term)
        if accumulate:
            out += term
        accumulate = True
    return out


def banded_rhs(values: np.ndarray, out: np.ndarray, work: Workspace, scale: float = 1.0,
               base: Optional[np.ndarray] = None, shift: float = 0.0) -> np.ndarray:
    """Write base + scale (L + shift) values into `out`, or leave base out
    when it is None: the right-hand side L shared by both deterministic
    routes and the resolvent kernel, as `work` lays it out.

    One matmul over the whole state into `work.products` per wide-band
    momentum-x matrix, then one sweep over the blocks of whole P_x slabs.
    In each block a narrow-band matrix's product is formed first, from the
    slabs its rows touch, into a scratch block (scale and sign are folded
    into the matrix either way), but for a force-x term folded into its
    matrix that is the product's only reader: that term is formed directly
    from those slabs, with F_x folded in too.  A folded force-y term is
    likewise one matmul, by per-slab matrices.  The first term is written
    into the block's sum and every other one is taken into a scratch block
    and added: a product block once its last term has read it, else a block of
    `work.scratch`.  Scale is folded into the small matrices, weights and
    velocity stacks, so it costs no pass over the state.

    The sum is `out`'s block, or with `out is values` (an in-place call, on
    a stepped route's workspace) a scratch block, written back with base
    once no later read needs the old slabs: the whole-state products are
    formed before the sweep, a block's other terms read only its own slabs,
    and the next block's narrow-band products reach back no further than
    this block, so the write-back lags one block when there are any.
    `values` and `base` may be one array; `out` is `values` or shares
    memory with neither nor with `work`, and every array is C-contiguous.
    """
    if out is values and not work.in_place:
        raise ValueError("the resolvent kernel's workspace takes no in-place call")
    n = len(values)
    whole = iter(work.products)
    products = [next(whole) if spans is None else None for spans in work.spans]
    for matrix, product in zip(work.x_matrices, products):
        if product is not None:
            np.matmul(-scale * matrix, values.reshape(n, -1), out=product.reshape(n, -1))
    return _sweep(values, out, work, work.blocks, work.spans, products, scale, base, shift)


def _sweep(values: np.ndarray, out: np.ndarray, work: Workspace, blocks: list, spans: list,
           products: list, scale: float, base: Optional[np.ndarray],
           shift: float) -> np.ndarray:
    """The sweep of `banded_rhs` over `blocks`, whose narrow-band spans are
    spans[k] and whose whole-state products are products[k] (None where
    the band is narrow), taking its scratch from `work.scratch`."""
    in_place = out is values
    width = math.prod(values.shape[1:])
    # product k holds -scale A_x f, so its terms take -w
    product_terms = [[(s, -w if my is None else -w * my) for s, w, my in terms]
                     for terms in work.product_terms]
    state_terms = [(s, scale * w if my is None else scale * w * my)
                   for s, w, my in work.state_terms]
    stack_x, stack_y = work.stacks
    if stack_y is not None:
        _weighted_stack(scale * work.speeds[1], work.stencil.matrices[1], stack_y)
    force_x, force_y = work.tables
    y_force = None if force_y is None else -scale * work.y_force
    rows_x, rows_y = work.row_forces
    if rows_x is not None:
        # a wide band or a shared product multiplies by F_x[j] per P_y row j
        force_x = rows_x[:, None, None]
        weights_x = -scale * rows_x
    if rows_y is not None:
        weights_y = -scale * rows_y
    stack_fx, stack_fy = work.force_stacks
    n_rows, plane = values.shape[1], math.prod(values.shape[2:])
    last_narrow = max((k for k, block_spans in enumerate(spans) if block_spans is not None),
                      default=None)
    pending = None      # (block, the scratch block of its sum), not yet written back
    for b, block in enumerate(blocks):
        f = values[block]
        free = _Free(work.scratch, None if pending is None else pending[1])
        if in_place:
            held = free.pop()
            acc = _Block(_shaped(held, f.shape), free)
        else:
            acc = _Block(out[block], free)
        for k, (matrix, block_spans, product, terms, reads_force) in enumerate(zip(
                work.x_matrices, spans, products, product_terms, work.force_x)):
            direct = reads_force and stack_fx is not None
            if product is None:
                lo, hi = block_spans[b]
                if direct:
                    # the force is the product's only reader: one matmul
                    # per P_y row j writes F_x[j] (-scale A_x f) as the term
                    p = acc.target()
                    stack = _shaped(stack_fx, (n_rows, len(f), hi - lo))
                    np.multiply.outer(weights_x, matrix[block, lo:hi], out=stack)
                    np.matmul(stack, values[lo:hi].reshape(hi - lo, n_rows, plane)
                              .transpose(1, 0, 2),
                              out=p.reshape(len(f), n_rows, plane).transpose(1, 0, 2))
                else:
                    p = acc.take()
                    np.matmul(-scale * matrix[block, lo:hi], values[lo:hi].reshape(-1, width),
                              out=p.reshape(-1, width))
                if k == last_narrow and pending is not None:
                    # that was the last read of the previous block's old slabs
                    _write_back(values, *pending, base)
                    free.append(pending[1])
                    pending = None
                if direct:
                    acc.add(p)
                    continue
            else:
                p = product[block]
            for s, weight in terms:
                acc.gradient(work.stencil, p, s, weight)
            term = None
            if reads_force:
                term = acc.target(p)
                acc.add(np.multiply(p, force_x, out=term))
            if term is not p:
                acc.free.append(p)
        if stack_x is not None:
            _weighted_stack(scale * work.speeds[0][block], work.stencil.matrices[0],
                            stack_x[:len(f)])
        if stack_x is not None or stack_y is not None:
            scratch = acc.take()
            advection_term(f, acc.out, work.stacks, scratch, accumulate=acc.written)
            acc.free.append(scratch)
            acc.written = True
        for s, weight in state_terms:
            acc.gradient(work.stencil, f, s, weight)
        if rows_y is not None:
            # folded: slab i's matrix is F_y[i] (-scale A_y)
            stack = _weighted_stack(weights_y[block], work.y_force, stack_fy[:len(f)])
            acc.add(_along_y(stack, f, acc.target()))
        elif force_y is not None:
            term = _along_y(y_force, f, acc.target())
            acc.add(np.multiply(term, force_y[block], out=term))
        if shift:
            acc.add(np.multiply(f, scale * shift, out=acc.target()))
        if not acc.written:
            acc.out.fill(0.0)
        if not in_place:
            if base is not None:
                acc.out += base[block]
        elif last_narrow is None:
            _write_back(values, block, held, base)
        else:
            pending = (block, held)
    if pending is not None:
        _write_back(values, *pending, base)
    return out


def _shaped(block: np.ndarray, shape) -> np.ndarray:
    """The leading part of a contiguous scratch block, viewed in `shape`."""
    return block.reshape(-1)[:math.prod(shape)].reshape(shape)


def _write_back(values: np.ndarray, block: slice, held: np.ndarray,
                base: Optional[np.ndarray]) -> None:
    """values[block] = the sum in scratch block `held` + base[block], or the
    sum alone when base is None."""
    total = _shaped(held, values[block].shape)
    if base is None:
        values[block] = total
    else:
        np.add(total, base[block], out=values[block])


class _Tally(list):
    """The scratch blocks of a sweep that sizes a workspace: they are made
    as it asks for them (see `_Free`), so it leaves as many as it held at
    once."""


class _Free(list):
    """One block's free scratch blocks: those of `scratch` but `busy`.
    Popped empty, it raises, unless `scratch` is a `_Tally`: then it makes
    an empty block there and gives that."""

    def __init__(self, scratch: list, busy: Optional[np.ndarray] = None):
        super().__init__(s for s in scratch if s is not busy)
        self.scratch = scratch

    def pop(self) -> np.ndarray:
        if self or not isinstance(self.scratch, _Tally):
            return super().pop()
        self.scratch.append(np.empty(0))
        return self.scratch[-1]


class _Block:
    """One block of the sweep: its first term is written into `out` and every
    later one into a scratch block, then added.  A scratch block comes from
    `free`, the spent blocks of the workspace and of this block's products."""

    def __init__(self, out: np.ndarray, free: list):
        self.out, self.free = out, free
        self.written = False

    def take(self) -> np.ndarray:
        return _shaped(self.free.pop(), self.out.shape)

    def target(self, spare: Optional[np.ndarray] = None) -> np.ndarray:
        """Where the next term goes: `out` while nothing is written, else
        `spare` when given, else a scratch block."""
        if not self.written:
            return self.out
        return self.take() if spare is None else spare

    def add(self, term: np.ndarray) -> None:
        if term is not self.out:
            self.out += term
            self.free.append(term)
        self.written = True

    def gradient(self, stencil: BlockedStencil, source: np.ndarray, s: int, weight) -> None:
        """Add d/dx_s of `weight` (a P_y matrix or a number) times `source`."""
        g = self.take()
        if np.ndim(weight):
            _along_y(weight, source, g)
        else:
            np.multiply(source, weight, out=g)
        term = stencil(g, s, self.target())
        self.free.append(g)
        self.add(term)


def rk4_step(values: np.ndarray, dt: float, rhs: Callable[..., np.ndarray],
             out: np.ndarray) -> np.ndarray:
    """One classical RK4 step of d/dt values = L values, for a linear,
    homogeneous (autonomous) L, written into `out`.

    For such an L the step is exactly the degree-4 Taylor polynomial of
    exp(dt L), evaluated here in Horner form,
    f + dt L(f + dt/2 L(f + dt/3 L(f + dt/4 L f))): the same four rhs calls
    as the k1..k4 form, with none of the k kept.  Each stage is one call
    rhs(step, target, dt / fraction, values), which writes
    values + dt / fraction L(step) into target, so the stage costs no pass
    of its own.  The first stage reads `values` and writes `out`; the other
    three read and write `out` in place, so rhs must accept target is step
    (as `banded_rhs` does) and the step holds two states.  `values` is never
    changed, and `out` may not share memory with it.
    """
    step = values
    for fraction in (4.0, 3.0, 2.0, 1.0):
        rhs(step, out, dt / fraction, values)
        step = out
    return out


def _interpolation_stack(deltas: np.ndarray, n: int, boundary: str) -> np.ndarray:
    """One n x n linear-interpolation matrix per entry of `deltas`, stacked.

    Row i of matrix r reads g[i] = v[i - d] with d = deltas[r]: weight
    1 - frac on cell i - k and frac on cell i - k - 1, k = floor(d).  A
    'periodic' boundary wraps those cells; 'zero' drops the ones off the axis.
    """
    k = np.floor(deltas)
    frac = deltas - k
    stack = np.zeros((len(deltas), n, n))
    for step, weight in ((k, 1.0 - frac), (k + 1.0, frac)):
        cols = np.arange(n)[None, :] - step.astype(int)[:, None]
        if boundary == "periodic":
            cols %= n
        # each (r, i) meets one column per step, so no index repeats in a +=
        r, i = np.nonzero((cols >= 0) & (cols < n))
        stack[r, i, cols[r, i]] += weight[r]
    return stack


def free_flight_operators(grid: PhaseSpaceGrid, delta_t: float, boundary: str) -> tuple:
    """Free flight by delta_t as one interpolation stack per spatial axis.

    Applied by `advect_free_flight`, it maps f(M, x) to f(M, x - v_M delta_t),
    v_M = P_M / m, by linear interpolation along each axis, exact only for
    whole-cell shifts.  Entry `ax` holds the (2 n_p + 1, n_x, n_x) matrices
    of momentum rows P_M along axis `ax`, shifting by v_M delta_t / dx cells.
    The last axis's stack is stored transposed and contiguous, so
    `advect_free_flight` multiplies it from the right.
    """
    stacks = []
    for ax in range(grid.dim):
        deltas = grid.p_axes[ax] * delta_t / (grid.constants.mass * grid.dx[ax])
        stack = _interpolation_stack(deltas, grid.n_x[ax], boundary)
        if ax == grid.dim - 1:
            stack = np.ascontiguousarray(stack.transpose(0, 2, 1))
        stacks.append(stack)
    return tuple(stacks)


def advect_free_flight(ops: tuple, values: np.ndarray, out: np.ndarray, weight: float,
                       work: Workspace, accumulate: bool = False) -> np.ndarray:
    """Write, or with `accumulate` add, `weight` times the free flight of a
    2D state by `free_flight_operators` into `out`, and return `out`.

    The flight sweeps the blocks of whole P_x slabs of the workspace `work`
    (the resolvent kernel's): in each block every slab meets its x matrix
    and then every P_y row its y matrix, each as one batched matmul, and
    the weighted result reaches `out` while the block is in cache.  The two
    intermediates are scratch blocks of the workspace, which a workspace
    without advection always holds, so a flight allocates no state.  `out`
    shares memory with neither `values` nor `work`; all arrays are
    C-contiguous.
    """
    x_stack, y_stack = ops
    for block in work.blocks:
        pool = _Block(out[block], list(work.scratch))
        flown = np.matmul(x_stack[block, None], values[block], out=pool.take())
        flown = np.matmul(flown, y_stack, out=pool.take())
        if accumulate:
            flown *= weight
            pool.out += flown
        else:
            np.multiply(flown, weight, out=pool.out)
    return out


# ---------------------------------------------------------------------------
# observables and evolution loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableRecord:
    """density n(x), per-point mean momentum (NaN where density underflows), total mass."""

    density: np.ndarray
    mean_momentum: np.ndarray   # (dim,) + spatial shape
    total_mass: float


def observables(f, grid: PhaseSpaceGrid) -> ObservableRecord:
    values = _values(f)
    m_axes = tuple(range(grid.dim))
    density = values.sum(axis=m_axes)
    cell = float(np.prod(grid.dx))
    mean = np.empty((grid.dim,) + grid.n_x)
    guard = np.abs(density) < max(1e-14 * np.max(np.abs(density), initial=0.0), 1e-300)
    axes = "ijk"[:grid.dim]
    for c in range(grid.dim):
        # einsum sums in the order of (values * p_c).sum(m_axes), bit for
        # bit, with no state-sized product and no BLAS call
        num = np.einsum(f"{axes}...,{axes[c]}->...", values, grid.p_axes[c])
        with np.errstate(divide="ignore", invalid="ignore"):
            mean[c] = np.where(guard, np.nan, num / np.where(guard, 1.0, density))
    return ObservableRecord(density=density, mean_momentum=mean,
                            total_mass=float(values.sum() * cell))


def mean_momentum_global(f, grid: PhaseSpaceGrid) -> np.ndarray:
    """Ensemble-mean momentum vector over all of phase space."""
    values = _values(f)
    marginal = values.sum(axis=tuple(range(grid.dim, values.ndim)))
    total = marginal.sum()
    if abs(total) < 1e-300:
        return np.full(grid.dim, np.nan)
    out = np.empty(grid.dim)
    for c in range(grid.dim):
        others = tuple(a for a in range(grid.dim) if a != c)
        out[c] = marginal.sum(axis=others) @ grid.p_axes[c] / total
    return out


def boundary_mass_fraction(f, grid: PhaseSpaceGrid) -> float:
    """|f| fraction sitting on the outermost momentum shells (leakage monitor).

    |f| is taken one P_x slab at a time, so no state-sized copy is made.
    """
    values = _values(f)
    total = edge = 0.0
    last = len(values) - 1
    for i, slab in enumerate(values):
        slab = np.abs(slab)
        mass = slab.sum()
        total += mass
        edge += mass * ((i == 0) + (i == last))
        for c in range(grid.dim - 1):
            edge += slab.take(0, axis=c).sum() + slab.take(-1, axis=c).sum()
    if total == 0.0:
        return 0.0
    return float(edge / total)


@dataclass
class EvolutionResult:
    values: np.ndarray
    times: list
    masses: list
    mean_momenta: list      # entries are (dim,) vectors
    boundary_fractions: list


def evolve(f0, rhs: Callable[..., np.ndarray], grid: PhaseSpaceGrid,
           config: SolverConfig, n_steps: Optional[int] = None,
           record_every: int = 1,
           observer: Optional[Callable[[int, float, np.ndarray], None]] = None) -> EvolutionResult:
    """March f0 with RK4, recording observable traces and guarding stability.

    The only stepping loop of the deterministic routes: a step that leaves a
    non-finite state or grows the L2 norm by more than 1e-12 relative (a
    margin for rounding) raises SolverInstabilityError.  The rule rests on
    both routes' skew-symmetric generators: their flow keeps the norm, and a
    stable RK4 step never grows it.  n_steps (default t_end / dt) must be
    >= 0 and record_every >= 1.  rhs(values, out, scale, base) writes
    base + scale d/dt values into `out`, which may be `values` (see
    `rk4_step`).

    The state and one step buffer are allocated once and swapped each step,
    since `rk4_step` runs its last three stages in place; f0 is never
    written, and no reference to it is kept past its copy, so a caller that
    hands f0 over without naming it holds two states, not three.  The
    array handed to `observer` is reused by the steps that follow, so an
    observer must copy what it keeps.
    """
    if n_steps is None:
        n_steps = int(round(config.t_end / config.dt))
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    config.validate(grid)
    values = np.array(_values(f0), dtype=float, copy=True)
    del f0
    cell = float(np.prod(grid.dx))
    result = EvolutionResult(values, [], [], [], [])

    def record(step, t):
        result.times.append(t)
        result.masses.append(float(values.sum() * cell))
        result.mean_momenta.append(mean_momentum_global(values, grid))
        result.boundary_fractions.append(boundary_mass_fraction(values, grid))
        if observer is not None:
            observer(step, t, values)

    record(0, 0.0)
    norm_prev = l2_norm(values)
    # taken after the first record, so an observer's work on f0 (a snapshot
    # written to disk, say) does not stack on the step buffer
    out = np.empty_like(values)
    for step in range(1, n_steps + 1):
        rk4_step(values, config.dt, rhs, out)
        values, out = out, values
        norm = l2_norm(values)
        if not np.isfinite(norm) or (norm_prev > 0 and norm > norm_prev * (1 + 1e-12)):
            what = ("state turned non-finite" if not np.isfinite(norm)
                    else f"norm grew by {norm / norm_prev - 1:.3e} relative")
            raise SolverInstabilityError(
                f"{what} at step {step} (t={step * config.dt:.3e} s); "
                f"dt likely violates stability")
        norm_prev = norm
        if step % record_every == 0 or step == n_steps:
            record(step, step * config.dt)
    result.values = values
    return result
