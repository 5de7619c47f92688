"""Backward walk estimator for a single phase-space point of the solution.

Walkers start at the requested point at the final time and trace constant
momentum characteristics backward.  Collisions arrive at an auxiliary rate
gamma0; each one either keeps the walker in place (the rate-compensation
branch) or hops it by one stencil move of the discretized force/gradient
operator, with the signed weight update that keeps the estimator unbiased.
A walker that survives to t = 0 scores weight times the interpolated initial
condition; the exponential survival mass cancels against the damping factor,
so no explicit decay factor appears at scoring time.

A walker leaves the walker table when its walk ends: it reaches t = 0, is
retired off the momentum lattice, or is capped over the weight cap.  A walk
that reaches t = 0 records its weight and end point, and each chunk is
scored in one pass after its walk.  Walker arrays hold one row per axis and
one column per walker.  Branches 1-4 hop the momentum index at the force
rates; the curvature branches from 5 on are `continuum.curvature_branches`
at the config's stencil_order (14 at order 2, 28 at order 4, none without
b1).  A collision reads the hop rates as per-walker arrays and the curvature
coefficients as constants.  Its running sums go left to right; the row total
is the last running sum for 5 branches (NumPy sums a 5-column row left to
right) and NumPy's row sum of the (walkers, branches) |coefficient| table
otherwise, so the walk matches a walk over that table bit for bit.

The walkers are split evenly over ceil(n / 10000) chunks, walked one after
another from the seed streams [rng_seed, k] with a fixed draw order (one
exponential and one uniform array per round).  So the layout follows from
the walker count alone, an estimate depends only on the config and seed,
and no walk holds tables for more than 10000 walkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..kernels import linear_coefficients
from ..phasespace import LinearEMField, PhaseSpaceGrid
from ..transform import WignerState
from .common import SolverConfig, SolverInstabilityError, default_gamma0
from .continuum import curvature_branches

_MAX_ROUNDS = 100000
_CHUNK_WALKERS = 10000   # most walkers one chunk's tables hold


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    n_particles: int
    n_capped: int
    n_retired: int
    gamma0: float

    def __iter__(self):
        # unpacks as (value, stderr)
        yield self.value
        yield self.stderr


def _corners(x: np.ndarray, c: int, grid: PhaseSpaceGrid, stride: int, periodic: bool):
    """Weights, flat offsets (index times stride) and in-lattice masks (None
    if periodic) of the two cells around positions x along axis c."""
    omega, n_cells = grid.omega_extent[c], grid.n_x[c]
    x = x + 0.5 * omega
    if periodic:
        x = np.mod(x, omega)
    fi = x / grid.dx[c] - 0.5
    i0 = np.floor(fi).astype(np.int64)
    t = fi - i0
    cells = (i0, i0 + 1)
    if periodic:
        return (1.0 - t, t), [(i % n_cells) * stride for i in cells], None
    inside = [(i >= 0) & (i < n_cells) for i in cells]
    return (1.0 - t, t), [np.clip(i, 0, n_cells - 1) * stride for i in cells], inside


def _interp_initial(values: np.ndarray, grid: PhaseSpaceGrid,
                    midx: np.ndarray, pos: np.ndarray, boundary: str) -> np.ndarray:
    """Bilinear sample of f0 at lattice momentum rows and continuous positions."""
    nx, ny = grid.n_x
    periodic = boundary == "periodic"
    # flat index of each walker's momentum row, then of its corner cells
    plane = midx[0].astype(np.intp)
    plane += grid.n_p[0]
    plane *= grid.n_s[1]
    plane += midx[1]
    plane += grid.n_p[1]
    plane *= nx * ny
    w_x, off_x, in_x = _corners(pos[0], 0, grid, ny, periodic)
    w_y, off_y, in_y = _corners(pos[1], 1, grid, 1, periodic)
    flat_values = values.reshape(-1)
    out = np.zeros(midx.shape[1])
    for a in range(2):
        for b in range(2):
            flat = off_x[a] + off_y[b]
            flat += plane
            term = w_x[a] * w_y[b]
            term *= flat_values.take(flat)
            if not periodic:
                np.copyto(term, 0.0, where=~(in_x[a] & in_y[b]))
            out += term
    return out


def _hop_rates(p: np.ndarray, pos: np.ndarray, field: LinearEMField,
               grid: PhaseSpaceGrid) -> Tuple[np.ndarray, np.ndarray]:
    """f_x / (2 dpx) and f_y / (2 dpy) at each walker, from p = midx dp (one row per axis).

    Branches 1-4 hop the momentum index with coefficients -h_x, h_x, -h_y, h_y.
    """
    c = grid.constants
    dpx, dpy = grid.dp
    bz = field.b1 * pos[1]
    bz += field.b0
    h_x = p[1] * bz
    h_x /= c.mass
    h_x += field.e_grad[0] * pos[0]
    h_x *= c.charge
    h_x /= 2.0 * dpx
    h_y = p[0] * bz
    h_y /= c.mass
    np.subtract(field.e_grad[1] * pos[1], h_y, out=h_y)
    h_y *= c.charge
    h_y /= 2.0 * dpy
    return h_x, h_y


def _row_total(a_x: np.ndarray, a_y: np.ndarray, gamma0: float, k: np.ndarray) -> np.ndarray:
    """Row sums of the (n, nb) |coefficient| table, summed by NumPy in its own order.

    a_x, a_y are |h_x|, |h_y|, and k holds the nb |coefficients| with
    entries 0-4 unused (column 0 is gamma0).
    """
    table = np.empty((a_x.size, k.size))
    table[:, 0] = gamma0
    table[:, 1] = table[:, 2] = a_x
    table[:, 3] = table[:, 4] = a_y
    table[:, 5:] = k[5:]
    return table.sum(axis=1)


class _Branches:
    """Tables of the nb collision branches, built once per estimate: the
    rate compensation, the four force hops and the `curvature_branches`.

    A collision is looked up at index branch + nb * bits, where bits holds
    the signs of h_x (1) and h_y (2): `moves` and `position_moves` give its
    displacement (one row per axis), `sign` the sign of its coefficient.
    `power` holds the nb |coefficients| that are the same at every walker.
    """

    def __init__(self, field: LinearEMField, grid: PhaseSpaceGrid, config: SolverConfig):
        d_m, d_x, curv = curvature_branches(linear_coefficients(field, grid), grid,
                                            config.stencil_order)
        self.nb = nb = 5 + curv.size
        # momentum indices reach +-(n_p + 1) before a walker is retired, and
        # np.abs of -(n_p + 1) must not wrap
        m_type = np.min_scalar_type(-(max(grid.n_p) + 2))
        hops = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
        self.moves = np.tile(np.concatenate([hops, d_m]).T, 4).astype(m_type)
        self.position_moves = np.tile(np.concatenate([np.zeros((5, 2)), d_x]).T, 4)
        coef = np.concatenate([np.zeros(5), curv])
        sign = np.tile(np.sign(coef), (4, 1))
        for bits in range(4):
            s_x, s_y = (-1.0 if bits & 1 else 1.0), (-1.0 if bits & 2 else 1.0)
            sign[bits, :5] = (1.0, -s_x, s_x, -s_y, s_y)
        self.sign = sign.ravel()
        self.power = np.abs(coef)


def _collide(midx: np.ndarray, pos: np.ndarray, weight: np.ndarray, p: np.ndarray,
             u: np.ndarray, field: LinearEMField, grid: PhaseSpaceGrid, gamma0: float,
             br: _Branches) -> None:
    """Pick each walker's branch by cumulative |coefficient| at u and apply
    its move and signed weight factor sign * total / gamma0 in place.

    The sums are those of the (n, nb) |coefficient| table: running sums
    left to right, and the row total as NumPy sums the table.  u is spent.
    """
    nb, k = br.nb, br.power
    h_x, h_y = _hop_rates(p, pos, field, grid)
    sel = (h_x < 0) * nb
    sel += (h_y < 0) * (2 * nb)
    a_x = np.abs(h_x, out=h_x)
    a_y = np.abs(h_y, out=h_y)
    total = _row_total(a_x, a_y, gamma0, k) if nb > 5 else None
    # running sums over branches 0-4; for 5 branches the last is the row
    # total, which NumPy sums left to right
    s_1 = a_x + gamma0
    s_2 = np.add(s_1, a_x, out=a_x)
    s_3 = s_2 + a_y
    s_4 = np.add(s_3, a_y, out=a_y)
    if total is None:
        total = s_4
    r = np.multiply(u, total, out=u)
    # branch = count of the running sums before the last one that are <= r
    sel += gamma0 <= r
    for s in (s_1, s_2, s_3):
        sel += s <= r
    if nb > 5:
        sel += s_4 <= r
        for j in range(5, nb - 1):
            s_4 += k[j]
            sel += s_4 <= r
    step = br.sign.take(sel)
    step *= total
    step /= gamma0
    weight *= step
    midx += br.moves.take(sel, 1)
    if nb > 5:
        # branches 0-4 leave the position where it is
        pos += br.position_moves.take(sel, 1)


def _run_chunk(n: int, seed_pair, target_m, target_x, f0_values: np.ndarray,
               field: LinearEMField, grid: PhaseSpaceGrid, config: SolverConfig,
               gamma0: float, br: _Branches) -> Tuple[np.ndarray, int, int]:
    """Scores of n walks over br from one seed stream, with the capped and retired counts.

    Live walkers stay in ascending walker order, so each round hands its
    draws to the same walkers as a full table masked by liveness would.  A
    walk that reaches t = 0 leaves its weight in `scores` and its end point
    in `end_m`, `end_x`; the chunk is scored in one pass after the walk.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    dp, mass = np.array(grid.dp)[:, None], grid.constants.mass
    n_p = np.array(grid.n_p)[:, None]
    m_type = br.moves.dtype

    scores = np.zeros(n)
    scored = np.zeros(n, dtype=bool)
    end_m = np.zeros((2, n), dtype=m_type)
    end_x = np.zeros((2, n))
    ids = np.arange(n)
    midx = np.repeat(np.asarray(target_m, dtype=m_type)[:, None], n, axis=1)
    pos = np.repeat(np.asarray(target_x, dtype=float)[:, None], n, axis=1)
    weight = np.ones(n)
    t_left = np.full(n, float(config.t_end))
    n_capped = 0
    n_retired = 0
    for _ in range(_MAX_ROUNDS):
        if ids.size == 0:
            break
        delta = rng.exponential(1.0 / gamma0, size=ids.size)
        u = rng.uniform(size=ids.size)

        absorbed = delta >= t_left
        if absorbed.any():
            hit = np.flatnonzero(absorbed)
            done = ids[hit]
            m_hit = midx.take(hit, 1)
            end_m[:, done] = m_hit
            end_x[:, done] = pos.take(hit, 1) - m_hit * dp / mass * t_left[hit]
            scores[done] = weight[hit]
            scored[done] = True
            keep = np.flatnonzero(~absorbed)
            ids, midx, pos, weight, t_left, delta, u = (
                a.take(keep, -1) for a in (ids, midx, pos, weight, t_left, delta, u))
            if ids.size == 0:
                continue
        p = midx * dp
        pos -= p / mass * delta
        t_left -= delta
        # free each of the round's arrays once spent: compaction copies the table
        del delta
        _collide(midx, pos, weight, p, u, field, grid, gamma0, br)
        del p, u

        # hopping off the momentum lattice reads f = 0: score nothing
        off = (np.abs(midx) > n_p).any(axis=0)
        heavy = ~off & (np.abs(weight) > config.weight_cap)
        n_retired += int(off.sum())
        n_capped += int(heavy.sum())
        ended = off | heavy
        if ended.any():
            keep = np.flatnonzero(~ended)
            ids, midx, pos, weight, t_left = (
                a.take(keep, -1) for a in (ids, midx, pos, weight, t_left))
    # the last allowed round may have ended every walk
    if ids.size:
        raise SolverInstabilityError(
            "backward walk failed to terminate; check gamma0 and weight_cap")
    # capped and retired walks keep the score 0
    np.multiply(scores, _interp_initial(f0_values, grid, end_m, end_x, config.boundary),
                out=scores, where=scored)
    return scores, n_capped, n_retired


def mc_estimate_point(target, f0, field: LinearEMField, grid: PhaseSpaceGrid,
                      config: SolverConfig, workers: int = 1) -> MCEstimate:
    """Estimate the solution at t_end for one (momentum index, position) target.

    target is a pair (2 integer momentum indices, 2 positions).  Returns an
    MCEstimate that unpacks as (value, stderr).  The estimate depends only
    on the config (seed included); `workers` is ignored.
    """
    if grid.dim != 2:
        raise ValueError("the backward walk estimator requires a 2D grid")
    if not isinstance(field, LinearEMField):
        raise ValueError("the walk needs closed-form fields; sampled tables are not supported")
    config.validate(grid)
    target_m, target_x = np.asarray(target[0]), np.asarray(target[1], dtype=float)
    if target_m.shape != (2,) or target_x.shape != (2,) or target_m.dtype.kind not in "iu":
        raise ValueError(f"target ({target[0]!r}, {target[1]!r}) must be 2 integer "
                         f"momentum indices and 2 positions")
    if np.any(np.abs(target_m) > np.array(grid.n_p)):
        raise ValueError("target momentum index lies outside the lattice")
    values0 = np.asarray(f0.values if isinstance(f0, WignerState) else f0, dtype=float)

    gamma0 = config.gamma0 if config.gamma0 is not None else default_gamma0(field, grid, config)
    br = _Branches(field, grid, config)
    n = config.n_particles
    n_chunks = -(-n // _CHUNK_WALKERS)
    base, extra = divmod(n, n_chunks)

    chunks = []
    n_capped = 0
    n_retired = 0
    for k in range(n_chunks):
        s, cap, ret = _run_chunk(base + (k < extra), [config.rng_seed, k], target_m,
                                 target_x, values0, field, grid, config, gamma0, br)
        chunks.append(s)
        n_capped += cap
        n_retired += ret
    scores = np.concatenate(chunks)
    del chunks   # so that std's temporary does not add to the chunks' scores
    value = float(scores.mean())
    stderr = float(scores.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(stderr)):
        raise SolverInstabilityError(
            f"backward walk estimate turned non-finite (value {value}, stderr {stderr})")
    return MCEstimate(value=value, stderr=stderr, n_particles=n,
                      n_capped=n_capped, n_retired=n_retired, gamma0=gamma0)
