"""Backward walk estimator for a single phase-space point of the solution.

Walkers start at the requested point at the final time and trace constant
momentum characteristics backward.  The walk samples the collisions of an
auxiliary rate gamma0: each either keeps the walker in place (the
rate-compensation branch) or hops it by one stencil move of the discretized
force/gradient operator, with the signed weight update that keeps the
estimator unbiased.  A walker that survives to t = 0 scores weight times
the initial condition interpolated at its end point, bilinearly at
stencil_order 2 and bicubically at order 4, so that scoring is as accurate
in the cell size as the order's spatial stencil; the exponential survival
mass cancels against the damping factor, so no explicit decay factor
appears at scoring time.

The walk goes from hop to hop (`_walk`): the rate-compensation collisions
between two hops are integrated out, which leaves hops at the rate
`_hop_rate` and an exact weight factor.  Hop times are proposed at a
constant rate that bounds the hop rate along the flight, and a hop takes
the ratio of the two rates; in a field without b1 or an E gradient the
rates follow the momentum alone and the ratio is 1.  The walk checks the
weight cap after each hop.

A walker leaves the walker table when its walk ends: it reaches t = 0, is
retired off the momentum lattice, or is capped over the weight cap.  A
round flies every walker (one that reaches t = 0 for the time it has
left), records the walks that reached t = 0, hops every walker and
compacts the table once.  A chunk's float walker arrays, draws and
scratch are rows of one table allocated for its walk, so a round allocates
no walker-sized float array and the heap does not grow and shrink with the
rounds, but for an E gradient's terms of the hop rates (`_hop_rates`):
one temporary per axis of the gradient per rate evaluation, as at the
flight's end no table row is free for it.  After its walk a chunk scores
its records, in one pass at stencil_order 2 and in passes of 2500 at
order 4 (16 cells per walk), and scatters the scores to walker order.
Every walker does its floating-point operations in the order of a walk
over the full table.
Walker arrays hold one row per axis and one column per walker.

Branches 1-4 hop the momentum index at the force rates; the curvature
branches from 5 on are `continuum.curvature_branches` at the config's
stencil_order (14 at order 2, 28 at order 4, none without b1).  A hop
reads the hop rates as per-walker arrays and the curvature coefficients as
constants.  Its running sums go left to right, and its row total is the
running sum of branches 0-4 plus the curvature branches' total |coefficient|,
summed once per estimate.

An estimate's setup is one `_Branches`, built once: field, grid, config,
gamma0 and the branch tables.  It splits the walkers evenly over
ceil(n / 10000) chunks (`_Branches.chunks`), and `_walk` walks chunk k from
the seed stream [rng_seed, k] with a fixed draw order (one exponential and
one uniform array per round); the chunks are walked one after another.  So
a chunk is a function of the setup and k, the layout follows from the
walker count alone, an estimate depends only on the config and seed, and
no walk holds tables for more than 10000 walkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..kernels import linear_coefficients
from ..phasespace import LinearEMField, PhaseSpaceGrid
from ..transform import WignerState
from .common import SolverConfig, SolverInstabilityError
from .continuum import curvature_branches, default_gamma0

_MAX_ROUNDS = 100000
_CHUNK_WALKERS = 10000   # most walkers one chunk's tables hold
# most cell taps (order**2 per walk) one scoring pass holds, so that scoring
# stays under the walk's own peak: one pass per chunk at stencil_order 2,
# passes of 2500 walks at order 4
_SCORE_TAPS = 4 * _CHUNK_WALKERS


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


def _corners(x: np.ndarray, c: int, grid: PhaseSpaceGrid, stride: int, periodic: bool,
             order: int):
    """Weights, flat offsets (index times stride) and in-lattice masks (None
    if periodic) of the cells around positions x along axis c: the two of
    the linear interpolation at order 2, the four of the cubic Lagrange
    interpolation at order 4.

    A periodic position takes the float wrap np.mod only outside [0, omega)
    from the window's low edge, as np.mod returns the others unchanged.  It
    may round a tiny negative offset up to omega, so the linear
    interpolation's two cell indices lie in [-1, n] and wrap only at -1 and
    n; the cubic's four take an integer np.mod.
    """
    omega, n_cells = grid.omega_extent[c], grid.n_x[c]
    x = x + 0.5 * omega
    if periodic:
        out = (x < 0.0) | (x >= omega)
        if out.any():
            x[out] = np.mod(x[out], omega)
    x /= grid.dx[c]
    x -= 0.5
    i0 = np.floor(x)
    t = np.subtract(x, i0, out=x)
    i0 = i0.astype(np.intp)
    if order == 2:
        weights = (1.0 - t, t)
        cells = [i0, i0 + 1]
    else:
        # the Lagrange cubic through the cells i0 - 1, i0, i0 + 1, i0 + 2
        tp, tm, t2 = t + 1.0, t - 1.0, t - 2.0
        weights = (t * tm * t2 / -6.0, tp * tm * t2 / 2.0,
                   tp * t * t2 / -2.0, tp * t * tm / 6.0)
        cells = [i0 - 1, i0, i0 + 1, i0 + 2]
    if periodic:
        if order == 2:
            cells[0][cells[0] < 0] = n_cells - 1
            cells[1][cells[1] == n_cells] = 0
        else:
            for i in cells:
                np.mod(i, n_cells, out=i)
        inside = None
    else:
        inside = [(i >= 0) & (i < n_cells) for i in cells]
        cells = [np.clip(i, 0, n_cells - 1) for i in cells]
    for i in cells:
        i *= stride
    return weights, cells, inside


def _interp_initial(values: np.ndarray, grid: PhaseSpaceGrid, midx: np.ndarray,
                    pos: np.ndarray, boundary: str, order: int) -> np.ndarray:
    """Sample of f0 at lattice momentum rows and continuous positions:
    bilinear at stencil order 2, bicubic (the Lagrange cubic through four
    cells on each axis) at order 4.  At boundary "zero" a cell off the
    spatial lattice adds 0."""
    nx, ny = grid.n_x
    periodic = boundary == "periodic"
    # flat index of each walker's momentum row, then of its corner cells
    plane = midx[0].astype(np.intp)
    plane += grid.n_p[0]
    plane *= grid.n_s[1]
    plane += midx[1]
    plane += grid.n_p[1]
    plane *= nx * ny
    w_x, off_x, in_x = _corners(pos[0], 0, grid, ny, periodic, order)
    w_y, off_y, in_y = _corners(pos[1], 1, grid, 1, periodic, order)
    flat_values = values.reshape(-1)
    out = np.zeros(midx.shape[1])
    for a in range(len(w_x)):
        row = off_x[a] + plane
        for b in range(len(w_y)):
            term = w_x[a] * w_y[b]
            term *= flat_values.take(off_y[b] + row)
            if not periodic:
                np.copyto(term, 0.0, where=~(in_x[a] & in_y[b]))
            out += term
    return out


def _hop_rates(p: np.ndarray, pos: np.ndarray, field: LinearEMField,
               grid: PhaseSpaceGrid, h: np.ndarray) -> np.ndarray:
    """Write the rows f_x / (2 dpx) and f_y / (2 dpy) at each walker into
    the (2, n) array h and return it, from p = midx dp (one row per axis).

    Branches 1-4 hop the momentum index with coefficients -h_x, h_x, -h_y,
    h_y.  A zero b1 or E gradient adds no term: leaving it out changes at
    most the sign of a zero rate, which no sign test or |h| reads.  b_z
    takes no temporary, but each E gradient term takes one walker array.
    """
    c = grid.constants
    dpx, dpy = grid.dp
    e_x, e_y = field.e_grad
    bz = field.b0
    if field.b1:
        # b_z is built in h[1], which p_x b_z then overwrites
        bz = np.multiply(pos[1], field.b1, out=h[1])
        bz += field.b0
    np.multiply(p[1], bz, out=h[0])
    np.multiply(p[0], bz, out=h[1])
    h /= c.mass
    if e_x:
        h[0] += e_x * pos[0]
    if e_y:
        np.subtract(e_y * pos[1], h[1], out=h[1])
    h *= c.charge
    h[0] /= 2.0 * dpx
    # without its E term f_y is -p_x bz: dividing by -2 dpy negates exactly
    h[1] /= 2.0 * dpy if e_y else -2.0 * dpy
    return h


class _Branches:
    """One estimate's walk setup, built once: the field, grid and solver
    config, gamma0 (config.gamma0, else `default_gamma0`), the walker count
    of each chunk (`chunks`), and the tables of the nb collision branches:
    the rate compensation, the four force hops and the `curvature_branches`.
    The kernel tables they are taken from are dropped, as the walk reads the
    field's closed form.  `rates_move` tells whether the hop rates move with
    position, that is whether the field has b1 or an E gradient; it is the
    one field test of the walk.

    A branch is looked up at index branch + nb * bits, where bits holds the
    signs of h_x (1) and h_y (2): `moves` and `position_moves` give its
    displacement (one row per axis), `sign` the sign of its coefficient.
    `power` holds the nb |coefficients| that are the same at every walker,
    and `curvature_mass` the sum of those of the curvature branches.
    """

    def __init__(self, field: LinearEMField, grid: PhaseSpaceGrid, config: SolverConfig):
        self.field, self.grid, self.config = field, grid, config
        self.rates_move = bool(field.b1) or any(field.e_grad)
        coeffs = linear_coefficients(field, grid)
        self.gamma0 = (config.gamma0 if config.gamma0 is not None
                       else default_gamma0(coeffs, grid, config))
        d_m, d_x, curv = curvature_branches(coeffs, grid, config.stencil_order)
        # the walkers split evenly over the fewest chunks of at most _CHUNK_WALKERS
        n = config.n_particles
        n_chunks = -(-n // _CHUNK_WALKERS)
        base, extra = divmod(n, n_chunks)
        self.chunks = [base + (k < extra) for k in range(n_chunks)]
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
        self.curvature_mass = float(np.abs(curv).sum())


def _row_sums(p: np.ndarray, pos: np.ndarray, br: _Branches, scratch: np.ndarray):
    """The sign bits nb * bits and the running sums s_1-s_4 of branches 0-4
    at each walker, s_4 being gamma0 plus the hop rate.  Returns (sel,
    (s_1, s_2, s_3, s_4)); the sums are rows 2, 0, 3 and 1 of the float
    table scratch, summed left to right."""
    nb = br.nb
    h = _hop_rates(p, pos, br.field, br.grid, scratch[:2])
    # sel = branch + nb * bits is summed in bytes, as its 4 nb <= 132
    # values fit; bits holds the signs of h_x (1) and h_y (2)
    neg = (h < 0).view(np.uint8)
    sel = neg[0] * nb
    sel += neg[1] * (2 * nb)
    a_x, a_y = np.abs(h, out=h)
    s_1 = np.add(a_x, br.gamma0, out=scratch[2])
    s_2 = np.add(s_1, a_x, out=a_x)
    s_3 = np.add(s_2, a_y, out=scratch[3])
    s_4 = np.add(s_3, a_y, out=a_y)
    return sel, (s_1, s_2, s_3, s_4)


def _branch(midx: np.ndarray, pos: np.ndarray, weight: np.ndarray, sel: np.ndarray,
            sums, total: np.ndarray, r: np.ndarray, br: _Branches,
            scratch: np.ndarray) -> None:
    """Apply at each walker the branch whose running-sum interval holds r:
    its move and signed weight factor sign * total / gamma0, in place.

    sel holds the sign bits and sums the running sums of `_row_sums`; the
    curvature branches' sums run on from s_4, which they spend.  Row 4 of
    scratch takes the factor, rows 0-1 the position moves."""
    nb, k, gamma0 = br.nb, br.power, br.gamma0
    s_1, s_2, s_3, s_4 = sums
    # branch = count of the running sums before the last one that are <= r
    sel += (gamma0 <= r).view(np.uint8)
    for s in (s_1, s_2, s_3):
        sel += (s <= r).view(np.uint8)
    if nb > 5:
        sel += (s_4 <= r).view(np.uint8)
        for j in range(5, nb - 1):
            s_4 += k[j]
            sel += (s_4 <= r).view(np.uint8)
    sel = sel.astype(np.intp)
    # sel is in range: mode "wrap" only spares take a buffered copy
    step = br.sign.take(sel, out=scratch[4], mode="wrap")
    step *= total
    step /= gamma0
    weight *= step
    midx += br.moves.take(sel, 1)
    if nb > 5:
        # branches 0-4 leave the position where it is
        for c in range(2):
            pos[c] += br.position_moves[c].take(sel, out=scratch[c], mode="wrap")


def _hop_rate(total: np.ndarray, gamma0: float, out: np.ndarray) -> np.ndarray:
    """The rate lam = gamma0 R / total of the hops at each walker, R = total
    - gamma0 its hop mass, into out (not total): the collisions come at rate
    total and hop with probability R / total, each rate-compensation
    collision a factor total / gamma0, so integrating those out leaves hops
    at rate lam and the weight factor exp(lam t) over a flight of t."""
    lam = np.subtract(total, gamma0, out=out)
    lam *= gamma0
    lam /= total
    return lam


def _walk(br: _Branches, k: int, target_m, target_x):
    """Walk chunk k of br, its br.chunks[k] walkers from the seed stream
    [rng_seed, k], from hop to hop.

    A round draws a standard exponential e and a uniform u per walker.  The
    hops come at rate lam(t) (`_hop_rate`) along the flight back to t = 0,
    and the walk proposes them at a constant rate mu >= lam: lam grows with
    the row total, which in a linear field is convex in the time flown, so
    mu = lam at the larger of the totals at the flight's start and end
    bounds it.  A walker hops at tau = e / mu if e < mu t_left, else flies
    to t = 0; either way the weight takes exp(min(e, mu t_left)), and a
    hop the factor lam(tau) / mu, which samples the measure of the hops at
    rate lam.  At the hop, r = gamma0 + u (T - gamma0), T the row total
    there, picks a branch from 1 on (`_branch`).  Where br.rates_move is
    False the rates follow the momentum alone, which the flight keeps: the
    rates at the end and at the hop are those at the start to the bit, so
    the walk does not evaluate them again and the hop's factor is 1.  A
    walker without hop rate reaches t = 0 in its first round.

    Returns the walks that reached t = 0, one (ids, weights, momentum
    indices, end points) record per round, and the capped and retired
    counts.  Live walkers stay in ascending walker order, so each round
    hands its draws to the same walkers as a full table masked by liveness
    would.

    The walk's float arrays are rows of one table allocated per chunk, so
    that no round allocates a walker-sized float array but for the E
    gradient's terms of `_hop_rates`: at the flight's end rows 2-4 hold
    the end position and the start's total, so no row is free for them.
    Two 4-row halves take turns: one holds the live walkers (x, y, weight,
    t_left), the other the round's draws and momenta (e, u, p_x, p_y), and
    the compaction takes each walker row into the other half.  Five more
    rows hold the flight's end, the running sums, the row totals, mu and
    the hop's scratch.
    """
    grid, config, gamma0 = br.grid, br.config, br.gamma0
    n = br.chunks[k]
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, k]))
    dp, mass, (npx, npy) = np.array(grid.dp)[:, None], grid.constants.mass, grid.n_p

    # rows 0-7: the two halves, starting with the walkers; rows 8-12: the scratch
    table = np.empty((13, n))
    halves = [table[0:4], table[4:8]]
    table[0:2] = np.asarray(target_x, dtype=float)[:, None]
    table[2] = 1.0
    table[3] = float(config.t_end)
    ids = np.arange(n, dtype=np.min_scalar_type(n))
    midx = np.repeat(np.asarray(target_m, dtype=br.moves.dtype)[:, None], n, axis=1)
    ends = []
    n_capped = 0
    n_retired = 0
    for _ in range(_MAX_ROUNDS):
        m = ids.size
        if m == 0:
            break
        walkers, round_rows = halves[0][:, :m], halves[1][:, :m]
        pos, weight, t_left = walkers[:2], walkers[2], walkers[3]
        e, u, p = round_rows[0], round_rows[1], round_rows[2:]
        scratch = table[8:, :m]
        rng.standard_exponential(out=e)
        rng.random(out=u)
        np.multiply(midx, dp, out=p)

        sel, sums = _row_sums(p, pos, br, scratch)
        total = sums[3]
        if br.rates_move:
            # the larger row total of the flight's start and end, in row 1;
            # the start's sums are taken again at the hop
            np.copyto(scratch[4], total)
            end = np.divide(p, mass, out=scratch[2:4])
            end *= t_left
            np.subtract(pos, end, out=end)
            end_sums = _row_sums(p, end, br, scratch)[1]
            total = np.maximum(end_sums[3], scratch[4], out=scratch[1])
            total += br.curvature_mass
        x = _hop_rate(total, gamma0, scratch[4])
        x *= t_left                            # mu t_left
        live = e < x                           # the walkers that hop
        np.minimum(e, x, out=e)                # mu delta
        # delta / t_left: e / (mu t_left) at a hop, 1 at t = 0
        delta = np.divide(e, x, out=x, where=live)
        np.copyto(delta, 1.0, where=~live)
        delta *= t_left
        weight *= np.exp(e, out=e)
        drift = np.divide(p, mass, out=p)
        t_left -= delta
        drift *= delta
        pos -= drift
        hit = np.flatnonzero(~live)
        ends.append((ids.take(hit), weight.take(hit), midx.take(hit, 1),
                     pos.take(hit, 1)))
        # most walks end in their first rounds: free their index
        del hit
        if br.rates_move:
            # the rates at the hop, and its factor lam / mu
            mu = _hop_rate(total, gamma0, e)
            np.multiply(midx, dp, out=p)
            sel, sums = _row_sums(p, pos, br, scratch)
            total = np.add(sums[3], br.curvature_mass, out=p[0])
            lam = _hop_rate(total, gamma0, p[1])
            np.divide(lam, mu, out=lam, where=live)
            np.multiply(weight, lam, out=weight, where=live)
        # gamma0 + u R picks the hop among the branches from 1 on
        rate = np.subtract(total, gamma0, out=p[1])      # R
        r = np.multiply(u, rate, out=u)
        r += gamma0
        _branch(midx, pos, weight, sel, sums, total, r, br, scratch)

        # hopping off the momentum lattice reads f = 0: score nothing
        m_abs = np.abs(midx)
        off = m_abs[0] > npx
        off |= m_abs[1] > npy
        off &= live
        n_retired += int(np.count_nonzero(off))
        live ^= off
        heavy = np.abs(weight, out=scratch[0]) > config.weight_cap
        heavy &= live
        n_capped += int(np.count_nonzero(heavy))
        live ^= heavy
        keep = np.flatnonzero(live)
        if keep.size < m:
            # keep is in range: mode "clip" only spares take a buffered copy
            for a, row in zip(walkers, halves[1]):
                a.take(keep, out=row[:keep.size], mode="clip")
            halves.reverse()
            ids, midx = ids.take(keep), midx.take(keep, 1)
    # the last allowed round may have ended every walk
    if ids.size:
        raise SolverInstabilityError(
            "backward walk failed to terminate; check gamma0 and weight_cap")
    return ends, n_capped, n_retired


def _run_chunk(br: _Branches, k: int, target_m, target_x,
               f0_values: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """Scores of chunk k's walks (`_walk`), in walker order, with the capped
    and retired counts.  The walks that reached t = 0 are scored in the
    order they ended, once the walk's tables are freed, in passes of at most
    _SCORE_TAPS cell taps, and scattered to walker order."""
    ends, n_capped, n_retired = _walk(br, k, target_m, target_x)
    # capped and retired walks keep the score 0
    scores = np.zeros(br.chunks[k])
    done, end_w, end_m, end_x = (np.concatenate(a, axis=-1) for a in zip(*ends))
    del ends
    order = br.config.stencil_order
    step = _SCORE_TAPS // order ** 2
    for start in range(0, done.size, step):
        cut = slice(start, start + step)
        scores[done[cut]] = end_w[cut] * _interp_initial(
            f0_values, br.grid, end_m[:, cut], end_x[:, cut], br.config.boundary, order)
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

    br = _Branches(field, grid, config)
    chunks = []
    n_capped = 0
    n_retired = 0
    for k in range(len(br.chunks)):
        s, cap, ret = _run_chunk(br, k, target_m, target_x, values0)
        chunks.append(s)
        n_capped += cap
        n_retired += ret
    n = config.n_particles
    scores = np.concatenate(chunks)
    del chunks   # so that std's temporary does not add to the chunks' scores
    value = float(scores.mean())
    stderr = float(scores.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(stderr)):
        raise SolverInstabilityError(
            f"backward walk estimate turned non-finite (value {value}, stderr {stderr})")
    return MCEstimate(value=value, stderr=stderr, n_particles=n,
                      n_capped=n_capped, n_retired=n_retired, gamma0=br.gamma0)
