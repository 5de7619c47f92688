"""Backward walk estimator for a single phase-space point of the solution.

Walkers start at the requested point at the final time and trace constant
momentum characteristics backward.  Collisions arrive at an auxiliary rate
gamma0; each one either keeps the walker in place (the rate-compensation
branch) or hops it by one stencil move of the discretized force/gradient
operator, with the signed weight update that keeps the estimator unbiased.
A walker that survives to t = 0 scores weight times the interpolated initial
condition; the exponential survival mass cancels against the damping factor,
so no explicit decay factor appears at scoring time.

A walker leaves the walker table when its walk ends: it scores at t = 0,
is retired off the momentum lattice, or is capped over the weight cap.
Walker arrays hold one row per axis and one column per walker.  The
curvature branches 5-18 carry b1, so a field without b1 samples 5 branches.

Walks are split into `workers` chunks with independent seed streams, run one
after another, and a fixed draw order (one exponential and one uniform
array per round), so the result is bitwise reproducible for a fixed seed
and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..phasespace import LinearEMField, PhaseSpaceGrid
from ..transform import WignerState
from .common import SolverConfig, SolverInstabilityError, default_gamma0

_MAX_ROUNDS = 100000


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


def _interp_initial(values: np.ndarray, grid: PhaseSpaceGrid,
                    midx: np.ndarray, pos: np.ndarray, boundary: str) -> np.ndarray:
    """Bilinear sample of f0 at lattice momentum rows and continuous positions."""
    n = midx.shape[1]
    out = np.zeros(n)
    slot = midx + np.array(grid.n_p)[:, None]
    corner_w = []
    corner_i = []
    for c in range(2):
        omega = grid.omega_extent[c]
        h = grid.dx[c]
        x = pos[c] + 0.5 * omega
        if boundary == "periodic":
            x = np.mod(x, omega)
        fi = x / h - 0.5
        i0 = np.floor(fi).astype(np.int64)
        t = fi - i0
        corner_i.append((i0, i0 + 1))
        corner_w.append((1.0 - t, t))
    nx, ny = grid.n_x
    for a in range(2):
        for b in range(2):
            ix = corner_i[0][a].copy()
            iy = corner_i[1][b].copy()
            w = corner_w[0][a] * corner_w[1][b]
            if boundary == "periodic":
                ix %= nx
                iy %= ny
                valid = np.ones(n, dtype=bool)
            else:
                valid = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
                ix = np.clip(ix, 0, nx - 1)
                iy = np.clip(iy, 0, ny - 1)
            vals = values[slot[0], slot[1], ix, iy]
            out += np.where(valid, w * vals, 0.0)
    return out


def _branch_moves(grid: PhaseSpaceGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Index and position displacement of the 19 collision branches, one row per axis."""
    dx, dy = grid.dx
    d_m = np.zeros((19, 2), dtype=np.int64)
    d_x = np.zeros((19, 2))
    # 0: rate-compensation branch, no move
    d_m[1] = (1, 0); d_m[2] = (-1, 0)
    d_m[3] = (0, 1); d_m[4] = (0, -1)
    row = 5
    for dmy in (1, 0, -1):
        for sx in (1.0, -1.0):
            d_m[row] = (0, dmy)
            d_x[row] = (sx * dx, 0.0)
            row += 1
    for smx in (1, -1):
        for smy in (1, -1):
            for sy in (1.0, -1.0):
                d_m[row] = (smx, smy)
                d_x[row] = (0.0, sy * dy)
                row += 1
    return d_m.T, d_x.T


def _branch_coefficients(midx: np.ndarray, pos: np.ndarray, field: LinearEMField,
                         grid: PhaseSpaceGrid, gamma0: float, nb: int) -> np.ndarray:
    """Signed stencil coefficients (n, nb) of the first nb branches at each walker."""
    c = grid.constants
    dpx, dpy = grid.dp
    dx, dy = grid.dx
    px = midx[0] * dpx
    py = midx[1] * dpy
    bz = field.b0 + field.b1 * pos[1]
    f_x = c.charge * (field.e_grad[0] * pos[0] + py * bz / c.mass)
    f_y = c.charge * (field.e_grad[1] * pos[1] - px * bz / c.mass)
    kappa = field.b1 * c.hbar ** 2 * c.charge / (12.0 * c.mass)

    out = np.empty((midx.shape[1], nb))
    out[:, 0] = gamma0
    out[:, 1] = -f_x / (2.0 * dpx)
    out[:, 2] = f_x / (2.0 * dpx)
    out[:, 3] = -f_y / (2.0 * dpy)
    out[:, 4] = f_y / (2.0 * dpy)
    if nb > 5:
        # the same at every walker: one row broadcast over the table
        curv = [kappa * wmy / dpy ** 2 * (sx / (2.0 * dx))
                for wmy in (1.0, -2.0, 1.0) for sx in (1.0, -1.0)]
        curv += [-kappa * (smx / (2.0 * dpx)) * (smy / (2.0 * dpy)) * (sy / (2.0 * dy))
                 for smx in (1.0, -1.0) for smy in (1.0, -1.0) for sy in (1.0, -1.0)]
        out[:, 5:] = curv
    return out


def _run_chunk(n: int, seed_pair, target_m, target_x, f0_values: np.ndarray,
               field: LinearEMField, grid: PhaseSpaceGrid, config: SolverConfig,
               gamma0: float) -> Tuple[np.ndarray, int, int]:
    """Scores of n walks from one seed stream, with the capped and retired counts.

    Live walkers stay in ascending walker order, so each round hands its
    draws to the same walkers as a full table masked by liveness would.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    dp, mass = np.array(grid.dp)[:, None], grid.constants.mass
    n_p = np.array(grid.n_p)[:, None]
    nb = 5 if field.b1 == 0.0 else 19
    d_m, d_x = (a[:, :nb] for a in _branch_moves(grid))
    scores = np.zeros(n)
    ids = np.arange(n)
    midx = np.repeat(np.asarray(target_m, dtype=np.int64)[:, None], n, axis=1)
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
        vel = midx * dp / mass

        absorbed = delta >= t_left
        if absorbed.any():
            hit = np.flatnonzero(absorbed)
            end_pos = pos.take(hit, 1) - vel.take(hit, 1) * t_left[hit]
            scores[ids[hit]] = weight[hit] * _interp_initial(
                f0_values, grid, midx.take(hit, 1), end_pos, config.boundary)
            keep = np.flatnonzero(~absorbed)
            ids, midx, pos, weight, t_left, vel, delta, u = (
                a.take(keep, -1) for a in (ids, midx, pos, weight, t_left, vel, delta, u))
            if ids.size == 0:
                continue
        pos -= vel * delta
        t_left -= delta

        coef = _branch_coefficients(midx, pos, field, grid, gamma0, nb)
        acc = np.abs(coef)
        total = acc.sum(axis=1)
        r = u * total
        # sel = min(count, nb - 1) of the running sums <= r, summed in place
        # column by column: row-wise cumsum and count over so few columns
        # cost NumPy several times more
        sel = np.zeros(ids.size, dtype=np.intp)
        for j in range(nb - 1):
            sel += acc[:, j] <= r
            acc[:, j + 1] += acc[:, j]
        weight *= np.sign(coef[np.arange(ids.size), sel]) * total / gamma0
        midx += d_m.take(sel, 1)
        pos += d_x.take(sel, 1)

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
    return scores, n_capped, n_retired


def mc_estimate_point(target, f0, field: LinearEMField, grid: PhaseSpaceGrid,
                      config: SolverConfig, workers: int = 1) -> MCEstimate:
    """Estimate the solution at t_end for one (momentum index, position) target.

    target is a pair (index vector, position vector).  Returns an MCEstimate
    that unpacks as (value, stderr).
    """
    if grid.dim != 2:
        raise ValueError("the backward walk estimator requires a 2D grid")
    if not isinstance(field, LinearEMField):
        raise ValueError("the walk needs closed-form fields; sampled tables are not supported")
    config.validate(grid)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    target_m = np.asarray(target[0], dtype=np.int64)
    target_x = np.asarray(target[1], dtype=float)
    if np.any(np.abs(target_m) > np.array(grid.n_p)):
        raise ValueError("target momentum index lies outside the lattice")
    values0 = np.asarray(f0.values if isinstance(f0, WignerState) else f0, dtype=float)

    gamma0 = config.gamma0 if config.gamma0 is not None else default_gamma0(field, grid, config)
    n = config.n_particles
    base, extra = divmod(n, workers)
    sizes = [base + (1 if i < extra else 0) for i in range(workers)]

    scores = []
    n_capped = 0
    n_retired = 0
    for chunk, size in enumerate(sizes):
        if size == 0:
            continue
        s, cap, ret = _run_chunk(size, [config.rng_seed, chunk], target_m, target_x,
                                 values0, field, grid, config, gamma0)
        scores.append(s)
        n_capped += cap
        n_retired += ret
    all_scores = np.concatenate(scores)
    value = float(all_scores.mean())
    stderr = float(all_scores.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(stderr)):
        raise SolverInstabilityError(
            f"backward walk estimate turned non-finite (value {value}, stderr {stderr})")
    return MCEstimate(value=value, stderr=stderr, n_particles=n,
                      n_capped=n_capped, n_retired=n_retired, gamma0=gamma0)
