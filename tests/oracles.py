"""Independent reference computations for the test suite.

Everything here is deliberately brute force and free of package internals:
plain quadrature sums and hand-derived closed forms.  Implementation modules
must never import from this file.
"""

from __future__ import annotations

import numpy as np

HBAR = 1.054571817e-34


def weyl_quadrature(psi, L, x, p_values, hbar=HBAR, n_panels=1 << 14):
    """Brute-force (1/L) int_{-L/2}^{L/2} ds exp(-i p s / hbar) psi(x+s/2) conj(psi)(x-s/2).

    Composite trapezoid over a fine s grid, one value per entry of p_values.
    psi is a callable on scalar-or-array positions.
    """
    s = np.linspace(-L / 2, L / 2, n_panels + 1)
    w = np.full(n_panels + 1, L / n_panels)
    w[0] *= 0.5
    w[-1] *= 0.5
    rho = psi(x + s / 2) * np.conj(psi(x - s / 2))
    out = np.empty(len(p_values), dtype=complex)
    for i, p in enumerate(np.asarray(p_values)):
        out[i] = np.sum(w * np.exp(-1j * p * s / hbar) * rho) / L
    return out


def fourier_moment_trapezoid(power, m_values, L, n_panels=1 << 22, chunk=1 << 20):
    """(1/L) int_{-L/2}^{L/2} s^power exp(-i m (2 pi / L) s) ds by composite trapezoid.

    Evaluated for every integer m in m_values in one sweep per chunk: the phase
    for m is built incrementally as powers of the unit-step phase, avoiding one
    exp call per (m, s) pair.  m_values must be consecutive 0, 1, 2, ... so the
    incremental product lines up; negative m follow from conjugation by the
    caller if needed.
    """
    m_values = np.asarray(m_values)
    if not np.array_equal(m_values, np.arange(len(m_values))):
        raise ValueError("m_values must be 0..K for the incremental sweep")
    h = L / n_panels
    acc = np.zeros(len(m_values), dtype=complex)
    dk = 2 * np.pi / L
    for start in range(0, n_panels + 1, chunk):
        stop = min(start + chunk, n_panels + 1)
        idx = np.arange(start, stop)
        s = -L / 2 + idx * h
        w = np.full(len(idx), h)
        if start == 0:
            w[0] = h / 2
        if stop == n_panels + 1:
            w[-1] = h / 2
        base = w * s ** power          # m = 0 integrand including weights
        step = np.exp(-1j * dk * s)    # one extra factor per unit of m
        running = base.astype(complex)
        acc[0] += running.sum()
        for m in range(1, len(m_values)):
            running *= step
            acc[m] += running.sum()
    return acc / L


def lattice_first_moment(m, L, n_points):
    """Closed form of (1/N) sum_j s_j exp(-2 pi i m j / N), s_j = j L / N, j = -n..n.

    Dirichlet-kernel differentiation gives i L (-1)^m / (2 N sin(pi m / N))
    for m != 0 on the odd lattice N = 2n+1, and 0 at m = 0.
    """
    if m % n_points == 0:
        return 0.0j
    return 1j * L * (-1.0) ** m / (2.0 * n_points * np.sin(np.pi * m / n_points))


def lattice_second_moment(m, L, n_points):
    """Closed form of (1/N) sum_j s_j^2 exp(-2 pi i m j / N) on the same lattice.

    (L^2/12)(1 - 1/N^2) at m = 0; (L^2 / (2 N^2)) (-1)^m cos(pi m/N)/sin^2(pi m/N)
    otherwise.  Tends to the continuum values L^2/12 and 2(-1)^m/(m 2pi/L)^2.
    """
    if m % n_points == 0:
        return complex((L ** 2 / 12.0) * (1.0 - 1.0 / n_points ** 2))
    ang = np.pi * m / n_points
    return complex((L ** 2 / (2.0 * n_points ** 2)) * (-1.0) ** m * np.cos(ang) / np.sin(ang) ** 2)


def continuum_first_moment(m, L):
    """(1/L) int s exp(-i m 2pi s / L) ds = i L (-1)^m / (2 pi m), m != 0."""
    if m == 0:
        return 0.0j
    return 1j * L * (-1.0) ** m / (2.0 * np.pi * m)


def continuum_second_moment(m, L):
    """(1/L) int s^2 exp(-i m 2pi s/L) ds: L^2/12 at m = 0, else 2 (-1)^m / (m 2pi/L)^2."""
    if m == 0:
        return complex(L ** 2 / 12.0)
    return complex(2.0 * (-1.0) ** m / (m * 2.0 * np.pi / L) ** 2)


def dense_circular_convolution(a, b):
    """sum_{m'} a[m'] b[m - m'] with indices wrapped mod N on symmetric ranges.

    Direct O(N^2) per axis; reference for FFT-based implementations.  a and b
    are indexed by symmetric momentum offsets over their full shape.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shapes must match")
    out = np.zeros(a.shape, dtype=complex)
    shape = a.shape
    # positions p hold offset m = p - n//2; wrap (m_target - m_source) back to
    # a position, so a delta at m = 0 acts as the identity
    for target in np.ndindex(*shape):
        total = 0.0j
        for source in np.ndindex(*shape):
            wrapped = tuple((t - s + n // 2) % n for t, s, n in zip(target, source, shape))
            total += a[source] * b[wrapped]
        out[target] = total
    return out


def _shift_cells(values, axis, k, boundary):
    """g[i] = values[i + k] along one axis; 'zero' fills vacated cells, 'periodic' wraps."""
    if boundary == "periodic":
        return np.roll(values, -k, axis=axis)
    out = np.zeros_like(values)
    n = values.shape[axis]
    if abs(k) >= n:
        return out
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    src[axis] = slice(max(k, 0), n + min(k, 0))
    dst[axis] = slice(max(-k, 0), n - max(k, 0))
    out[tuple(dst)] = values[tuple(src)]
    return out


def free_flight_rows(values, deltas, boundary):
    """Linear-interpolation free flight, one momentum row at a time.

    deltas[ax][r] is the shift, in cells, of momentum row r along spatial
    axis ax (state layout: momentum axes first).  Each row moves by
    g[i] = v[i - d], read between cells i - floor(d) and i - floor(d) - 1.
    """
    dim = len(deltas)
    out = np.array(values, dtype=float, copy=True)
    for ax, row_deltas in enumerate(deltas):
        for r, d in enumerate(row_deltas):
            if d == 0.0:
                continue
            row = (slice(None),) * ax + (r,)
            plane, axis = out[row], dim + ax - 1
            k = int(np.floor(d))
            frac = d - k
            a = _shift_cells(plane, axis, -k, boundary)
            if frac != 0.0:
                a = (1.0 - frac) * a + frac * _shift_cells(plane, axis, -(k + 1), boundary)
            out[row] = a
    return out


def fredholm_sweeps(values0, kernel, flight, n_t, dt, gamma0, tol, max_iter):
    """Plain Picard sweeps of the damped free-flight integral equation.

    The trajectory f_k at t = k dt obeys
    f_k = e^{-gamma0 k dt} A(k) f_0 + sum_j w_jk e^{-gamma0 (k-j) dt} A(k-j) (K f_j + gamma0 f_j)
    with trapezoid weights w_jk over j = 0..k.  kernel(v) is K v and
    flight(v, lag) is A(lag) v.  Keeps the source, trajectory, update and
    kernel arrays in full.  Returns (final state, residual history); the
    history stops at the first sweep below tol or after max_iter sweeps.
    """
    decay = np.exp(-gamma0 * dt * np.arange(n_t + 1))
    source = np.empty((n_t + 1,) + np.shape(values0))
    source[0] = values0
    for k in range(1, n_t + 1):
        source[k] = decay[k] * flight(values0, k)
    traj = source.copy()
    kvals = np.empty_like(traj)
    residuals = []
    for _ in range(max_iter):
        for j in range(n_t + 1):
            kvals[j] = kernel(traj[j]) + gamma0 * traj[j]
        new = source.copy()
        for j in range(n_t + 1):
            for k in range(max(j, 1), n_t + 1):
                w = 0.5 * dt if j in (0, k) else dt
                lag = k - j
                new[k] += w * kvals[j] if lag == 0 else (w * decay[lag]) * flight(kvals[j], lag)
        norm = np.linalg.norm(new)
        residuals.append(float(np.linalg.norm(new - traj) / (norm if norm > 0 else 1.0)))
        traj = new
        if residuals[-1] < tol:
            break
    return traj[n_t], residuals


def fredholm_march(values0, kernel, flight, n_t, dt, gamma0, tol, max_iter):
    """The same integral equation marched level by level, each kernel value
    taken by its own kernel call.

    Level k sums the history S_k of the accepted levels j < k and iterates
    f_k <- (S_k + dt/2 K f_k) / (1 - dt/2 gamma0) from f_{k-1}, one kernel
    call per pass, until a pass changes f_k by less than tol (relative);
    one more call gives its K f_k + gamma0 f_k.  kernel(v) is K v and
    flight(v, lag) is A(lag) v.  Returns (final state, residual history of
    each level).
    """
    half = 0.5 * dt
    scale = 1.0 - half * gamma0
    decay = np.exp(-gamma0 * dt * np.arange(n_t + 1))
    x = np.array(values0, dtype=float)
    # the source term and the j = 0 trapezoid term share one flight
    kvals = [x + half * (kernel(x) + gamma0 * x)]
    levels = []
    for k in range(1, n_t + 1):
        history = decay[k] * flight(kvals[0], k)
        for j in range(1, k):
            history = history + dt * decay[k - j] * flight(kvals[j], k - j)
        level = []
        while len(level) < max_iter and not (level and level[-1] < tol):
            trial = (history + half * kernel(x)) / scale
            norm = np.linalg.norm(trial)
            level.append(float(np.linalg.norm(x - trial) / (norm if norm > 0 else 1.0)))
            x = trial
        levels.append(level)
        kvals.append(kernel(x) + gamma0 * x)
    return x, levels


def roll_derivative(values, dx, axis, order, boundary):
    """Central difference along array `axis` from whole-state shifted copies.

    g[i] = values[i + k] is `_shift_cells(values, axis, k, boundary)`; order 2
    is (g_1 - g_-1) / (2 dx), order 4 is (-g_2 + 8 g_1 - 8 g_-1 + g_-2) / (12 dx).
    """
    def g(k):
        return _shift_cells(values, axis, k, boundary)
    if order == 2:
        return (g(1) - g(-1)) / (2.0 * dx)
    return (-g(2) + 8.0 * g(1) - 8.0 * g(-1) + g(-2)) / (12.0 * dx)


def rk4_classic(values, dt, rhs):
    """One classical RK4 step of d/dt values = rhs(values), stage by stage."""
    k1 = rhs(values)
    k2 = rhs(values + 0.5 * dt * k1)
    k3 = rhs(values + 0.5 * dt * k2)
    k4 = rhs(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _spatial_taps(order):
    """(offset, numerator) pairs of the central first difference, descending
    offset, and their denominator times the spacing: +-1/2 at +-1 for order
    2; 8/12 at +-1 and -1/12 at +-2 for order 4."""
    if order == 2:
        return ((1, 1.0), (-1, -1.0)), 2.0
    return ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)), 12.0


def _walk_moves(dx, dy, order):
    """Lattice and position moves (nb, 2) of the walk's collision branches.

    0 is the rate-compensation branch; 1-4 hop the momentum index by one
    along x or y.  Then come the curvature branches, one per offset e of
    the order's spatial stencil (descending): first those moving x by e dx
    at a momentum-y hop of +1, 0, -1, then those hopping both momentum
    indices by +-1 and moving y by e dy.  nb is 19 at order 2, 33 at order 4.
    """
    taps = [e for e, _ in _spatial_taps(order)[0]]
    moves = [((0, 0), (0.0, 0.0)), ((1, 0), (0.0, 0.0)), ((-1, 0), (0.0, 0.0)),
             ((0, 1), (0.0, 0.0)), ((0, -1), (0.0, 0.0))]
    moves += [((0, dmy), (e * dx, 0.0)) for dmy in (1, 0, -1) for e in taps]
    moves += [((smx, smy), (0.0, e * dy))
              for smx in (1, -1) for smy in (1, -1) for e in taps]
    return (np.array([m for m, _ in moves], dtype=np.int64),
            np.array([x for _, x in moves]))


def walk_coefficients(midx, pos, *, gamma0, dp, dx, charge, mass, hbar, b0, b1=0.0,
                      e_grad=(0.0, 0.0), order=2):
    """Signed coefficients (k, nb) of the collision branches at k walkers.

    midx and pos have one row per walker.  Branch 0 is the rate compensation
    gamma0.  Branches 1-4 hop the momentum index (see _walk_moves) with
    -f_x/(2 dpx), f_x/(2 dpx), -f_y/(2 dpy), f_y/(2 dpy), where
    f = q (E'_x x + p_y B_z/m, E'_y y - p_x B_z/m) and B_z = b0 + b1 y.
    The curvature branches from 5 on are the terms of
    kappa = b1 hbar^2 q / (12 m) with the order's spatial taps, the same at
    every walker.
    """
    dpx, dpy = dp
    ddx, ddy = dx
    px = midx[:, 0] * dpx
    py = midx[:, 1] * dpy
    bz = b0 + b1 * pos[:, 1]
    f_x = charge * (e_grad[0] * pos[:, 0] + py * bz / mass)
    f_y = charge * (e_grad[1] * pos[:, 1] - px * bz / mass)
    kappa = b1 * hbar ** 2 * charge / (12.0 * mass)
    taps, denominator = _spatial_taps(order)
    curvature = ([kappa * wmy / dpy ** 2 * (t / (denominator * ddx))
                  for wmy in (1.0, -2.0, 1.0) for _, t in taps]
                 + [-kappa * (smx / (2.0 * dpx)) * (smy / (2.0 * dpy)) * (t / (denominator * ddy))
                    for smx in (1.0, -1.0) for smy in (1.0, -1.0) for _, t in taps])
    out = np.empty((len(midx), 5 + len(curvature)))
    out[:, 0] = gamma0
    out[:, 1] = -f_x / (2.0 * dpx)
    out[:, 2] = f_x / (2.0 * dpx)
    out[:, 3] = -f_y / (2.0 * dpy)
    out[:, 4] = f_y / (2.0 * dpy)
    out[:, 5:] = curvature
    return out


def walk_reference(n, seed_pair, target_m, target_x, *, t_end, gamma0, weight_cap,
                   dp, mass, n_p, dx, coefficients, interp, order=2, max_rounds=100000):
    """Backward walk on a full mutable walker table with an alive mask.

    Every round draws one exponential flight time and one uniform per live
    walker, in walker order.  A flight reaching t = 0 scores weight times
    interp(midx, pos); otherwise the walker moves back along its velocity
    midx dp / mass and picks one of all nb branches of coefficients(midx,
    pos), an (k, nb) signed table, by cumulative |coefficient|; the moves
    are those of the stencil `order` (see _walk_moves).  A hop off
    the momentum lattice |midx| <= n_p retires the walker; a weight above
    weight_cap caps it.  midx and pos have one row per walker.  Returns
    (scores, n_capped, n_retired).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    dp, n_p = np.asarray(dp, dtype=float), np.asarray(n_p)
    d_m, d_x = _walk_moves(*dx, order)
    midx = np.tile(np.asarray(target_m, dtype=np.int64), (n, 1))
    pos = np.tile(np.asarray(target_x, dtype=float), (n, 1))
    weight = np.ones(n)
    time_left = np.full(n, float(t_end))
    alive = np.ones(n, dtype=bool)
    scores = np.zeros(n)
    n_capped = n_retired = 0
    for _ in range(max_rounds):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        delta = rng.exponential(1.0 / gamma0, size=idx.size)
        u = rng.uniform(size=idx.size)
        t_left = time_left[idx]
        vel = midx[idx] * dp / mass

        absorbed = delta >= t_left
        ia = idx[absorbed]
        if ia.size:
            end_pos = pos[ia] - vel[absorbed] * t_left[absorbed, None]
            scores[ia] = weight[ia] * interp(midx[ia], end_pos)
            alive[ia] = False

        ib = idx[~absorbed]
        if ib.size == 0:
            continue
        dlt = delta[~absorbed]
        pos[ib] -= vel[~absorbed] * dlt[:, None]
        time_left[ib] = t_left[~absorbed] - dlt

        coef = coefficients(midx[ib], pos[ib])
        absc = np.abs(coef)
        total = np.cumsum(absc[:, :5], axis=1)[:, -1] + absc[:, 5:].sum(axis=1)
        r = u[~absorbed] * total
        sel = np.minimum((np.cumsum(absc, axis=1) <= r[:, None]).sum(axis=1), len(d_m) - 1)
        picked = coef[np.arange(ib.size), sel]
        weight[ib] *= np.sign(picked) * total / gamma0
        midx[ib] += d_m[sel]
        pos[ib] += d_x[sel]

        off = np.any(np.abs(midx[ib]) > n_p, axis=1)
        alive[ib[off]] = False
        n_retired += int(off.sum())
        heavy = alive[ib] & (np.abs(weight[ib]) > weight_cap)
        alive[ib[heavy]] = False
        n_capped += int(heavy.sum())
    if np.any(alive):
        raise RuntimeError("reference walk failed to terminate")
    return scores, n_capped, n_retired


def hop_walk_reference(n, seed_pair, target_m, target_x, *, t_end, gamma0, weight_cap,
                       dp, mass, n_p, dx, coefficients, interp, order=2, max_rounds=100000):
    """Backward walk from hop to hop on a full mutable walker table with an
    alive mask, for a linear field whose branch coefficients(midx, pos), an
    (k, nb) signed table, may move with position.

    Every round draws one standard exponential e and one uniform u per live
    walker, in walker order.  With the row total T (the running sum of the
    |coefficients| of branches 0-4 plus the total |coefficient| of the
    curvature branches) and lam(T) = gamma0 (T - gamma0) / T, the proposal
    rate mu is lam at the larger of the totals at the walker and at the end
    of its flight back to t = 0, along its velocity midx dp / mass.  The
    weight takes exp(min(e, mu t_left)).  A walker with e < mu t_left hops:
    it moves back for t_left e / (mu t_left), its weight takes lam(T) / mu
    at the total T there, and it picks the branch from 1 on whose
    running-sum interval holds gamma0 + u (T - gamma0), with the factor
    sign * T / gamma0 and the moves of the stencil `order` (see
    _walk_moves).  Otherwise it scores weight times interp(midx, pos) at
    the end of its flight.  A hop off the momentum lattice |midx| <= n_p
    retires the walker; a weight above weight_cap caps it.  midx and pos
    have one row per walker.  Returns (scores, n_capped, n_retired).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    dp, n_p = np.asarray(dp, dtype=float), np.asarray(n_p)
    d_m, d_x = _walk_moves(*dx, order)
    midx = np.tile(np.asarray(target_m, dtype=np.int64), (n, 1))
    pos = np.tile(np.asarray(target_x, dtype=float), (n, 1))
    weight = np.ones(n)
    time_left = np.full(n, float(t_end))
    alive = np.ones(n, dtype=bool)
    scores = np.zeros(n)
    n_capped = n_retired = 0

    def rows(m, x):
        # the signed table, its |coefficients| and the row total
        coef = coefficients(m, x)
        absc = np.abs(coef)
        return coef, absc, absc[:, :5].cumsum(axis=1)[:, -1] + absc[:, 5:].sum(axis=1)

    def rate(total):
        return (total - gamma0) * gamma0 / total

    for _ in range(max_rounds):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        e = rng.standard_exponential(size=idx.size)
        u = rng.uniform(size=idx.size)
        t_left = time_left[idx]
        vel = midx[idx] * dp / mass
        end_pos = pos[idx] - vel * t_left[:, None]
        mu = rate(np.maximum(rows(midx[idx], pos[idx])[2], rows(midx[idx], end_pos)[2]))
        mu_t = mu * t_left
        weight[idx] *= np.exp(np.minimum(e, mu_t))

        absorbed = e >= mu_t
        ia = idx[absorbed]
        if ia.size:
            scores[ia] = weight[ia] * interp(midx[ia], end_pos[absorbed])
            alive[ia] = False

        hop = ~absorbed
        ib = idx[hop]
        if ib.size == 0:
            continue
        dlt = t_left[hop] * (e[hop] / mu_t[hop])
        pos[ib] -= vel[hop] * dlt[:, None]
        time_left[ib] = t_left[hop] - dlt

        coef, absc, total = rows(midx[ib], pos[ib])
        weight[ib] *= rate(total) / mu[hop]
        r = u[hop] * (total - gamma0) + gamma0
        sel = np.minimum((np.cumsum(absc, axis=1) <= r[:, None]).sum(axis=1), len(d_m) - 1)
        picked = coef[np.arange(ib.size), sel]
        weight[ib] *= np.sign(picked) * total / gamma0
        midx[ib] += d_m[sel]
        pos[ib] += d_x[sel]

        off = np.any(np.abs(midx[ib]) > n_p, axis=1)
        alive[ib[off]] = False
        n_retired += int(off.sum())
        heavy = alive[ib] & (np.abs(weight[ib]) > weight_cap)
        alive[ib[heavy]] = False
        n_capped += int(heavy.sum())
    if np.any(alive):
        raise RuntimeError("reference walk failed to terminate")
    return scores, n_capped, n_retired


def _corner_cells(x, c, grid, stride, periodic, order):
    """Weights, flat offsets (index times stride) and in-lattice masks (None
    if periodic) of the `order` cells around positions x along axis c: every
    periodic position is wrapped by a float np.mod and every cell index by
    an integer %.  The weight of node j (cells i0 + j, j = 1 - order / 2 ..
    order / 2) is the Lagrange product over the other nodes k of
    (t - k) / (j - k), multiplied in ascending k; at order 2 these are
    1 - t and t to the bit."""
    omega, n_cells = grid.omega_extent[c], grid.n_x[c]
    x = x + 0.5 * omega
    if periodic:
        x = np.mod(x, omega)
    fi = x / grid.dx[c] - 0.5
    i0 = np.floor(fi).astype(np.int64)
    t = fi - i0
    nodes = range(1 - order // 2, order // 2 + 1)
    weights = []
    for j in nodes:
        w = 1.0
        for k in nodes:
            if k != j:
                w = w * (t - k) / (j - k)
        weights.append(w)
    cells = [i0 + j for j in nodes]
    if periodic:
        return weights, [(i % n_cells) * stride for i in cells], None
    inside = [(i >= 0) & (i < n_cells) for i in cells]
    return weights, [np.clip(i, 0, n_cells - 1) * stride for i in cells], inside


def interp_initial_reference(values, grid, midx, pos, boundary, order=2):
    """Lagrange sample of f0 (values on grid's (P_x, P_y, x, y) lattice) at
    momentum indices midx and positions pos, one row per axis and one column
    per point, through `order` cells per axis: bilinear at order 2, bicubic
    at order 4.  At boundary "zero" a cell off the spatial lattice adds 0.
    The sum runs over the cell pairs (x_a, y_b) with a outer and b inner,
    each term weight_x * weight_y * value, added to 0 in that order."""
    nx, ny = grid.n_x
    periodic = boundary == "periodic"
    plane = ((midx[0].astype(np.intp) + grid.n_p[0]) * grid.n_s[1]
             + midx[1] + grid.n_p[1]) * (nx * ny)
    w_x, off_x, in_x = _corner_cells(pos[0], 0, grid, ny, periodic, order)
    w_y, off_y, in_y = _corner_cells(pos[1], 1, grid, 1, periodic, order)
    flat_values = values.reshape(-1)
    out = np.zeros(midx.shape[1])
    for a in range(order):
        for b in range(order):
            term = w_x[a] * w_y[b]
            term *= flat_values.take(off_x[a] + off_y[b] + plane)
            if not periodic:
                np.copyto(term, 0.0, where=~(in_x[a] & in_y[b]))
            out += term
    return out


def apply_along(matrix, values, axis):
    """out[..., i, ...] = sum_j matrix[i, j] values[..., j, ...] on one array axis.

    One matmul over values viewed as (before, n, after); the result keeps the
    layout of `values` and is contiguous, with no axis moved.
    """
    shape = values.shape
    lead = int(np.prod(shape[:axis]))
    return (matrix @ values.reshape(lead, shape[axis], -1)).reshape(shape)


def fresh(rhs):
    """The values -> d/dt values form of an rhs(values, out) closure."""
    return lambda values: rhs(values, np.empty_like(values))


def gaussian_wigner_broadcast(grid, center, sigma_x, momentum_center, sigma_p):
    """The separable phase-space Gaussian as a broadcast product, unit discrete mass.

    A unit array times one exp factor per axis, momentum axes first, each
    factor shaped to broadcast along its own axis; divided by sum(f) prod(dx).
    Per-axis arguments are sequences of length grid.dim.
    """
    d = grid.dim
    values = np.ones(grid.state_shape)
    axes = list(zip(grid.p_axes, momentum_center, sigma_p)) + \
        list(zip(grid.x_axes, center, sigma_x))
    for k, (q, q0, width) in enumerate(axes):
        q = q.reshape((1,) * k + (-1,) + (1,) * (2 * d - k - 1))
        values = values * np.exp(-((q - q0) ** 2) / (2 * width ** 2))
    return values / (values.sum() * float(np.prod(grid.dx)))


def boundary_fraction(values, dim):
    """sum of |f| over each outermost momentum shell, over sum |f|, from one
    full |f| array; a cell on two shells counts twice."""
    a = np.abs(values)
    edge = sum(a.take(i, axis=c).sum() for c in range(dim) for i in (0, -1))
    return edge / a.sum()
