"""Solver tests: operator algebra against brute force, conservation laws,
cross-route consistency, and the stochastic estimator's statistics."""

import dataclasses
import inspect
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdwigner import kernels, make_grid
from sdwigner.config import load_config
from sdwigner.kernels import (LinearKernelCoefficients, compute_kernels,
                              harmonic_coefficient, linear_coefficients,
                              quadratic_coefficient)
from sdwigner.phasespace import (LinearEMField, PhysicalConstants,
                                 SampledEMField)
from sdwigner.solvers import common as solver_common
from sdwigner.solvers import continuum, fredholm, montecarlo, semidiscrete
from sdwigner.solvers import (FredholmConvergenceError, SolverConfig,
                              SolverInstabilityError, default_gamma0, evolve,
                              mc_estimate_point, mean_momentum_global, observables,
                              solve_fredholm_resolvent)
from sdwigner.solvers.common import (advect_free_flight, band_matrix, box_offset_sum,
                                     even_pair_ladder, free_flight_operators,
                                     momentum_difference, momentum_second_difference,
                                     odd_pair_ladder, rk4_step, sample_shift)
from sdwigner.states import gaussian_wigner

import table_route
from oracles import (apply_along, boundary_fraction, fredholm_march, fredholm_sweeps,
                     free_flight_rows, fresh, interp_initial_reference, lattice_first_moment,
                     hop_walk_reference, lattice_second_moment, rk4_classic, roll_derivative,
                     walk_coefficients, walk_reference)
from working_set import allocation_peak, bound_workspace

NAT = PhysicalConstants(hbar=1.0, charge=1.0, mass=1.0)
TAU = 2.0 * np.pi

# dP = 1 on both axes; dx = pi/8; velocities reach +-4
G2 = make_grid(2, (TAU, TAU), (np.pi, np.pi), (8, 8), (4, 4), NAT)
# coarse grid for the kernel-table reference route (49 offsets per term)
G2S = make_grid(2, (TAU, TAU), (np.pi, np.pi), (4, 4), (3, 3), NAT)
G1 = make_grid(1, TAU, np.pi, 16, 2, NAT)
# unequal axes, so a swapped axis or a transposed stack cannot pass unseen
G2U = make_grid(2, (TAU, 4.0), (np.pi, 2.0), (7, 5), (3, 2), NAT)
# 5 x 7 momentum slots on 6 x 5 cells: every order-4 tap lands on a cell of its own
GR = make_grid(2, (TAU, 5.0), (np.pi, 2.5), (6, 5), (2, 3), NAT)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def kernel_matrix(field, grid, cfg, gamma0):
    """K + gamma0 I of the small-spacing route, assembled column by column
    from `force_and_quantum`."""
    work = continuum.make_kernel(linear_coefficients(field, grid), grid, cfg)
    n = math.prod(grid.state_shape)
    matrix = np.empty((n, n))
    unit = np.zeros(grid.state_shape)
    for j in range(n):
        unit.flat[j] = 1.0
        matrix[:, j] = continuum.force_and_quantum(
            unit, np.empty_like(unit), work, gamma0=gamma0).ravel()
        unit.flat[j] = 0.0
    return matrix


def advection(f, grid, order, boundary):
    """Advection of f alone into a new array: the sweep of a workspace with no
    momentum terms, which is `advection_term` on each block."""
    cfg = SolverConfig(dt=1.0, t_end=1.0, stencil_order=order, boundary=boundary)
    work = solver_common.Workspace(grid, cfg, solver_common.BandedOperators((None, None), ()),
                                   linear_coefficients(LinearEMField(), grid))
    return solver_common.banded_rhs(f, np.empty_like(f), work)


def free_flight(ops, f, grid):
    """One free flight of f, weight 1, into a new array, swept on the blocks
    of a fresh zero-field kernel workspace."""
    work = continuum.make_kernel(linear_coefficients(LinearEMField(), grid), grid,
                                 SolverConfig(dt=1.0, t_end=1.0))
    return advect_free_flight(ops, f, np.empty_like(f), 1.0, work)


def spatial_derivative(f, grid, axis, order=2, boundary="zero"):
    """Central difference of f along spatial `axis`, into a new array."""
    stencil = solver_common.BlockedStencil(f.shape, grid, order, boundary)
    return stencil(f, axis, np.empty(f.shape))


def packet(grid, sigma_p=1.2, sigma_x=0.7, momentum=0.0, center=0.0):
    return gaussian_wigner(grid, center=center, sigma_x=sigma_x,
                           momentum_center=momentum, sigma_p=sigma_p)


class UniformField:
    """Constant E and B vectors; duck-typed like the field classes."""

    def __init__(self, e=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0)):
        self.e = np.asarray(e, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def electric(self, positions):
        positions = np.asarray(positions, dtype=float)
        return np.broadcast_to(self.e, positions.shape[:-1] + (3,)).copy()

    def magnetic(self, positions):
        positions = np.asarray(positions, dtype=float)
        return np.broadcast_to(self.b, positions.shape[:-1] + (3,)).copy()


# ---------------------------------------------------------------------------
# stencil operators
# ---------------------------------------------------------------------------

class TestShifts:
    def test_zero_fill(self):
        f = np.arange(5.0)
        assert np.array_equal(sample_shift(f, 0, 1), [1, 2, 3, 4, 0])
        assert np.array_equal(sample_shift(f, 0, -2), [0, 0, 0, 1, 2])
        assert np.array_equal(sample_shift(f, 0, 7), np.zeros(5))

    def test_periodic_is_roll(self):
        f = np.arange(6.0)
        assert np.array_equal(sample_shift(f, 0, 2, "periodic"), np.roll(f, -2))

    @given(st.integers(min_value=-10, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_periodic_roundtrip(self, k):
        f = np.sin(np.arange(7.0))
        g = sample_shift(sample_shift(f, 0, k, "periodic"), 0, -k, "periodic")
        assert np.allclose(g, f, atol=0, rtol=0)

    def test_ladders_match_bruteforce(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(9, 5))
        coeffs = rng.normal(size=4)
        n = 9

        def shifted(m):
            out = np.zeros_like(f)
            for i in range(n):
                if 0 <= i - m < n:
                    out[i] = f[i - m]
            return out

        odd = sum(c * (shifted(m + 1) - shifted(-(m + 1))) for m, c in enumerate(coeffs))
        even = sum(c * (shifted(m + 1) + shifted(-(m + 1))) for m, c in enumerate(coeffs))
        box = sum(shifted(m) for m in range(-2, 3))
        assert np.allclose(odd_pair_ladder(f, 0, coeffs), odd, atol=1e-15)
        assert np.allclose(even_pair_ladder(f, 0, coeffs), even, atol=1e-15)
        assert np.allclose(box_offset_sum(f, 0, 2), box, atol=1e-15)


class TestDerivatives:
    def test_linear_profile_interior_exact(self):
        x = G1.x_axes[0]
        f = np.broadcast_to(3.0 * x, G1.state_shape).copy()
        for order in (2, 4):
            d = spatial_derivative(f, G1, 0, order=order)
            pad = order // 2
            assert np.allclose(d[:, pad:-pad], 3.0, atol=1e-12)

    def test_periodic_sine_orders(self):
        x = G1.x_axes[0]
        f = np.broadcast_to(np.sin(2.0 * x), G1.state_shape).copy()
        exact = 2.0 * np.cos(2.0 * x)
        e2 = np.max(np.abs(spatial_derivative(f, G1, 0, 2, "periodic") - exact))
        e4 = np.max(np.abs(spatial_derivative(f, G1, 0, 4, "periodic") - exact))
        # (q dx)^2/6 ~ 2.6e-2 relative at q dx = pi/8
        assert e2 / 2.0 < 0.05
        assert e4 < e2 / 5.0

    def test_momentum_differences(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=G2.state_shape)
        d1 = momentum_difference(f, G2, 0)
        man = (sample_shift(f, 0, 1) - sample_shift(f, 0, -1)) / (2.0 * G2.dp[0])
        assert np.array_equal(d1, man)
        d2 = momentum_second_difference(f, G2, 1)
        man2 = (sample_shift(f, 1, 1) - 2 * f + sample_shift(f, 1, -1)) / G2.dp[1] ** 2
        assert np.array_equal(d2, man2)


# 99 momentum rows of 11.5 KB: the stencil sweeps them in several blocks,
# the last one shorter; THIN has a periodic axis shorter than the order-4 stencil
GB = make_grid(2, (TAU, TAU), (np.pi, np.pi), (40, 36), (4, 5), NAT)
THIN = make_grid(2, (TAU, TAU), (np.pi, np.pi), (1, 6), (1, 2), NAT)
# one cell on the last axis: the x derivative must still multiply from the left
FLAT = make_grid(2, (TAU, TAU), (np.pi, np.pi), (6, 1), (2, 1), NAT)
# 13 x 13 x 40 x 40 cells: one P_x slab per block of the sweep
MULTI_BLOCK = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (40, 40), (6, 6))
# 13 P_x slabs in blocks of 4: a ladder cut at 5 reaches two blocks back
REACH_BACK = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (24, 24), (6, 6))
# one y cell: a b1 field's force tables are the same along each momentum row
ONE_Y = make_grid(2, (TAU, TAU), (np.pi, np.pi), (40, 1), (4, 5), NAT)


class TestBlockedStencil:
    @pytest.mark.parametrize("grid", [G1, G2, G2U, GB, THIN, FLAT],
                             ids=["G1", "G2", "G2U", "GB", "THIN", "FLAT"])
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_roll_formula(self, grid, boundary, order):
        f = np.random.default_rng(31).normal(size=grid.state_shape)
        for axis in range(grid.dim):
            ref = roll_derivative(f, grid.dx[axis], grid.dim + axis, order, boundary)
            got = spatial_derivative(f, grid, axis, order, boundary)
            # relative to the input's scale: on a one-cell periodic axis the
            # exact derivative is 0 and the roll formula leaves only rounding
            scale = np.linalg.norm(f) / grid.dx[axis]
            assert np.linalg.norm(got - ref) / scale < 1e-14

    def test_spans_several_blocks(self):
        """The sweep's blocks of whole P_x slabs cover the state once, all of
        one size but a shorter last."""
        work = solver_common.Workspace(
            GB, SolverConfig(dt=1.0, t_end=1.0), solver_common.BandedOperators((None, None), ()),
            linear_coefficients(LinearEMField(), GB))
        n_slabs = GB.state_shape[0]
        sizes = [len(range(*b.indices(n_slabs))) for b in work.blocks]
        assert len(sizes) > 1 and sum(sizes) == n_slabs
        assert sizes[-1] < sizes[0] and len(set(sizes[:-1])) == 1
        assert work.block_size == sizes[0] * math.prod(GB.state_shape[1:])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_derivative_matrix_matches_roll_formula(self, n, boundary, order):
        # column j is the roll formula's derivative of unit vector e_j; n = 1..4
        # is shorter than the five-cell order-4 stencil, so periodic taps that
        # land on one cell must add
        dx = 0.3
        ref = roll_derivative(np.eye(n), dx, 0, order, boundary)
        got = solver_common.derivative_matrix(n, dx, order, boundary)
        assert np.max(np.abs(got - ref)) * dx < 1e-14

    @pytest.mark.parametrize("grid", [G2U, GB], ids=["G2U", "GB"])
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_advection_matches_roll_formula(self, grid, boundary):
        f = np.random.default_rng(37).normal(size=grid.state_shape)
        ref = np.zeros_like(f)
        for c in range(2):
            v = (grid.p_axes[c] / grid.constants.mass).reshape((-1, 1) if c == 0 else (-1,))
            ref -= v[..., None, None] * roll_derivative(f, grid.dx[c], 2 + c, 4, boundary)
        got = advection(f, grid, 4, boundary)
        assert rel_l2(got, ref) < 1e-14


class TestAdvection:
    def test_integer_shift_matches_roll(self):
        f = packet(G2).values
        dt = G2.dx[0]            # v_M dt / dx = M exactly (dP = 1, m = 1)
        out = free_flight(free_flight_operators(G2, dt, "periodic"), f, G2)
        for mx, my in ((-2, 0), (0, 1), (3, -4)):
            sx, sy = G2.momentum_slot(0, mx), G2.momentum_slot(1, my)
            expect = np.roll(np.roll(f[sx, sy], mx, axis=0), my, axis=1)
            assert np.allclose(out[sx, sy], expect, atol=1e-15)

    def test_half_cell_interpolates(self):
        f = packet(G2).values
        out = free_flight(free_flight_operators(G2, 0.5 * G2.dx[0], "periodic"), f, G2)
        sx, sy = G2.momentum_slot(0, 1), G2.momentum_slot(1, 0)
        plane = f[sx, sy]
        expect = 0.5 * (plane + np.roll(plane, 1, axis=0))
        assert np.allclose(out[sx, sy], expect, atol=1e-15)

    def test_mass_exact_periodic(self):
        f = packet(G2).values
        out = free_flight(free_flight_operators(G2, 0.37, "periodic"), f, G2)
        assert abs(out.sum() - f.sum()) < 1e-12 * abs(f.sum())


def row_deltas(grid, delta_t):
    """Cells each momentum row moves along each spatial axis in delta_t."""
    return [grid.p_axes[ax] * delta_t / (grid.constants.mass * grid.dx[ax])
            for ax in range(grid.dim)]


class TestFreeFlightOperators:
    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("grid", [G1, G2, G2U], ids=["1d", "2d", "2d-unequal"])
    @pytest.mark.parametrize("cells", [0.37, 1.0, 2.5, 3.0])
    def test_stacks_match_row_loop(self, grid, boundary, cells):
        # `cells` is the fastest x row's shift in units of n_x, so from 1.0 up
        # rows move past the whole axis; on the square grids 1.0 and 3.0 give
        # whole-cell shifts (frac == 0); P = 0 rows stay put and negative
        # momenta move the other way
        v_max = grid.n_p[0] * grid.dp[0] / grid.constants.mass
        delta_t = cells * grid.n_x[0] * grid.dx[0] / v_max
        values = np.random.default_rng(3).standard_normal(grid.state_shape)
        expect = free_flight_rows(values, row_deltas(grid, delta_t), boundary)
        ops = free_flight_operators(grid, delta_t, boundary)
        if grid.dim == 1:
            # the resolvent and its flight are 2D only, so each row meets its
            # (transposed, last-axis) matrix here, from the right
            out = (values[:, None] @ ops[0])[:, 0]
        else:
            out = free_flight(ops, values, grid)
        assert rel_l2(out, expect) < 1e-14

    def test_last_axis_stack_is_transposed_and_contiguous(self):
        x_stack, y_stack = free_flight_operators(G2U, 0.45, "periodic")
        assert x_stack.shape == (G2U.n_s[0], G2U.n_x[0], G2U.n_x[0])
        assert y_stack.shape == (G2U.n_s[1], G2U.n_x[1], G2U.n_x[1])
        assert y_stack.flags.c_contiguous
        # row r of the transposed y stack reads g[i] through column i
        d = row_deltas(G2U, 0.45)[1]
        r = int(np.argmax(d))
        k = int(np.floor(d[r]))
        assert y_stack[r, -k % G2U.n_x[1], 0] == pytest.approx(1.0 - (d[r] - k))


# dP = 1 and dx = 1/2 on both axes, so a lag of j / 2 moves momentum row M by
# exactly j M cells, more than the axis at j = 3
HALF_CELLS = make_grid(2, (TAU, TAU), (3.0, 2.0), (6, 4), (4, 3), NAT)


def whole_cell_lag(values, cells, boundary):
    """values with momentum row r moved by cells[ax][r] whole cells along
    spatial axis ax, g[i] = v[i - s]: np.roll, zeroed where i - s is off a
    'zero' axis."""
    out = values.copy()
    for ax, shifts in enumerate(cells):
        n = values.shape[2 + ax]
        for r, s in enumerate(shifts):
            row = (slice(None),) * ax + (r,)
            lagged = np.roll(out[row], s, axis=1 + ax)
            if boundary == "zero":
                off = ~((np.arange(n) - s >= 0) & (np.arange(n) - s < n))
                lagged[(slice(None),) * (1 + ax) + (off,)] = 0.0
            out[row] = lagged
    return out


class TestTapRule:
    """The one rule of shifts and stencils: `shift_taps`, `axis_cells`,
    `tap_matrix` and `STENCIL_TAPS`."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_shift_taps_reproduce_polynomials(self, order):
        # degree <= 1 at order 2 and <= 3 at order 4, to rounding, at any
        # cell coordinate, whole cells and a hair below one among them
        rng = np.random.default_rng(11)
        u = rng.uniform(-20.0, 20.0, 500)
        u[:4] = (-3.0, 0.0, 2.0, np.nextafter(5.0, 0.0))
        frac = u.copy()
        base, offsets, weights = solver_common.shift_taps(frac, order)
        assert len(offsets) == len(weights) == order
        assert np.array_equal(frac, u - np.floor(u)) and np.array_equal(base, np.floor(u))
        assert np.max(np.abs(sum(weights) - 1.0)) < 1e-14
        for degree in range(order):
            coeffs = rng.normal(size=degree + 1)
            got = sum(w * np.polyval(coeffs, base + o) for o, w in zip(offsets, weights))
            size = np.polyval(np.abs(coeffs), np.abs(u) + order)
            assert np.all(np.abs(got - np.polyval(coeffs, u)) <= 1e-14 * size)

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("lag", [1, 3])
    def test_whole_cell_flight_is_a_roll(self, lag, boundary):
        grid = HALF_CELLS
        assert grid.dp == (1.0, 1.0) and grid.dx == (0.5, 0.5)
        values = np.random.default_rng(17).standard_normal(grid.state_shape)
        got = free_flight(free_flight_operators(grid, 0.5 * lag, boundary), values, grid)
        cells = [lag * m for m in grid.momentum_indices]
        assert np.array_equal(got, whole_cell_lag(values, cells, boundary))

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_walk_scores_cell_centres(self, order, boundary):
        # every momentum row at every cell centre reads f0 back, the edge
        # cells too, whose far taps leave the axis with weight ~0
        grid = GR
        f0 = np.random.default_rng(23).standard_normal(grid.state_shape)
        points = np.meshgrid(*grid.momentum_indices, *grid.x_axes, indexing="ij")
        midx = np.stack(points[:2]).reshape(2, -1)
        pos = np.stack(points[2:]).reshape(2, -1)
        got = montecarlo._interp_initial(f0, grid, midx, pos, boundary, order)
        assert np.max(np.abs(got - f0.ravel())) <= 1e-14 * np.max(np.abs(f0))

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_tap_matrix_adds_taps_in_order(self, boundary):
        # a stack of two matrices on a 2-cell axis: periodic taps 2 apart
        # meet on one cell and add; zero taps off the axis drop
        offsets = np.array([[0, 2, -1], [1, -1, 3]])
        weights = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        got = solver_common.tap_matrix(offsets, weights, 2, boundary)
        expect = np.zeros((2, 2, 2))
        for r, i, j in np.ndindex(2, 2, 3):
            cell = i + offsets[r, j]
            if boundary == "periodic" or 0 <= cell < 2:
                expect[r, i, cell % 2] += weights[r, j]
        assert np.array_equal(got, expect)


class TestObservables:
    def test_point_state(self):
        f = np.zeros(G2.state_shape)
        f[G2.momentum_slot(0, 2), G2.momentum_slot(1, -1), 3, 4] = 1.0
        rec = observables(f, G2)
        assert rec.density[3, 4] == 1.0
        assert np.allclose(rec.mean_momentum[:, 3, 4], [2.0 * G2.dp[0], -1.0 * G2.dp[1]])
        assert np.isnan(rec.mean_momentum[0, 0, 0])
        assert rec.total_mass == pytest.approx(float(np.prod(G2.dx)))

    def test_gaussian_mass_and_mean(self):
        state = packet(G2, momentum=(1.0, -0.5), sigma_p=0.9)
        rec = observables(state, G2)
        assert rec.total_mass == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(mean_momentum_global(state, G2), [1.0, -0.5], atol=5e-3)


# a state on 12 x 12 cells handed over for a grid of 10 x 10
CELLS_10 = make_grid(2, (TAU, TAU), (np.pi, np.pi), (10, 10), (2, 2), NAT)
CELLS_12 = make_grid(2, (TAU, TAU), (np.pi, np.pi), (12, 12), (2, 2), NAT)


class TestStateGrid:
    """Every solver entry point and observable reads its state through one
    reader, which refuses a state whose shape is not the grid's."""

    ENTRY_POINTS = {
        "evolve": lambda f, cfg: evolve(
            f, continuum.make_rhs(linear_coefficients(LinearEMField(), CELLS_10), CELLS_10, cfg),
            CELLS_10, cfg, n_steps=0),
        "fredholm": lambda f, cfg: solve_fredholm_resolvent(f, LinearEMField(), CELLS_10, cfg),
        "mc": lambda f, cfg: mc_estimate_point((np.array([0, 0]), np.zeros(2)), f,
                                               LinearEMField(), CELLS_10, cfg),
        "observables": lambda f, cfg: observables(f, CELLS_10),
        "mean_momentum_global": lambda f, cfg: mean_momentum_global(f, CELLS_10),
        "boundary_mass_fraction": lambda f, cfg: solver_common.boundary_mass_fraction(
            f, CELLS_10),
    }

    @pytest.mark.parametrize("flat", [False, True], ids=["state", "flat"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_state_on_another_grid_is_refused(self, entry, flat):
        f = packet(CELLS_12)
        if flat:
            f = f.values.ravel()
        cfg = SolverConfig(dt=0.01, t_end=0.02, gamma0=1.0, n_particles=50)
        shape = f.shape if flat else f.values.shape
        with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*"
                                             rf"{re.escape(str(CELLS_10.state_shape))}"):
            self.ENTRY_POINTS[entry](f, cfg)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

class TestLadderRHS:
    def test_zero_field_is_pure_advection(self):
        field = LinearEMField()
        coeffs = linear_coefficients(field, G2)
        f = packet(G2).values
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        out = fresh(semidiscrete.make_rhs(coeffs, G2, cfg))(f)
        assert np.array_equal(out, advection(f, G2, 2, "periodic"))

    def test_spatially_uniform_state_periodic(self):
        field = LinearEMField()
        coeffs = linear_coefficients(field, G2)
        f = np.ones(G2.state_shape)
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        assert np.array_equal(fresh(semidiscrete.make_rhs(coeffs, G2, cfg))(f), np.zeros_like(f))

    def test_point_source_ladder_entries(self):
        # electric gradient only: F_x = g x, coupling spreads along M_x with
        # the alternating harmonic weights
        g = 0.7
        field = LinearEMField(e_grad=(g, 0.0))
        coeffs = linear_coefficients(field, G2)
        f = np.zeros(G2.state_shape)
        sx, sy, ix, iy = G2.momentum_slot(0, 0), G2.momentum_slot(1, 1), 2, 5
        f[sx, sy, ix, iy] = 1.0
        cfg = SolverConfig(dt=1e-3, t_end=1e-2)
        out = fresh(semidiscrete.make_rhs(coeffs, G2, cfg))(f)
        fx = g * G2.x_axes[0][ix]
        for m in (-3, -1, 1, 2):
            expect = -fx * harmonic_coefficient(m, G2.dp[0])
            assert out[G2.momentum_slot(0, m), sy, ix, iy] == pytest.approx(expect, rel=1e-13)

    def test_total_sum_vanishes_periodic(self):
        # symmetric packet kills the momentum-edge leak; periodic space kills
        # the gradient-term and advection sums
        field = LinearEMField(e_grad=(0.3, -0.2), b0=0.8, b1=0.4)
        coeffs = linear_coefficients(field, G2)
        f = packet(G2, sigma_p=0.9).values
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        out = fresh(semidiscrete.make_rhs(coeffs, G2, cfg))(f)
        assert abs(out.sum()) < 1e-13 * np.abs(out).sum()
        out_fd = fresh(continuum.make_rhs(coeffs, G2, cfg))(f)
        assert abs(out_fd.sum()) < 1e-13 * np.abs(out_fd).sum()


class TestFiniteDifferenceRHS:
    def test_no_gradient_reduces_to_force_plus_advection(self):
        field = LinearEMField(e_grad=(0.5, 0.1), b0=1.3)
        coeffs = linear_coefficients(field, G2)
        f = packet(G2).values
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        expect = advection(f, G2, 2, "periodic")
        expect -= coeffs.force_x[None] * momentum_difference(f, G2, 0)
        expect -= coeffs.force_y[:, None] * momentum_difference(f, G2, 1)
        assert np.allclose(fresh(continuum.make_rhs(coeffs, G2, cfg))(f), expect, atol=1e-15)

    def test_gradient_terms_assembled(self):
        field = LinearEMField(b0=0.6, b1=0.9)
        coeffs = linear_coefficients(field, G2)
        f = packet(G2).values
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        kappa = field.b1 * NAT.hbar ** 2 * NAT.charge / (12.0 * NAT.mass)
        assert kappa == pytest.approx(-coeffs.cross_dx, rel=1e-15)
        dxf = spatial_derivative(f, G2, 0, 2, "periodic")
        dyf = spatial_derivative(f, G2, 1, 2, "periodic")
        expect = advection(f, G2, 2, "periodic")
        expect -= coeffs.force_x[None] * momentum_difference(f, G2, 0)
        expect -= coeffs.force_y[:, None] * momentum_difference(f, G2, 1)
        expect += kappa * momentum_second_difference(dxf, G2, 1)
        expect -= kappa * momentum_difference(momentum_difference(dyf, G2, 1), G2, 0)
        assert np.allclose(fresh(continuum.make_rhs(coeffs, G2, cfg))(f), expect, atol=1e-15)

    def test_momentum_response_matches_force(self):
        # d<P>/dt from the RHS must equal <F>; holds to the momentum-edge tail
        # for central differences and to the band-limit tail for the ladder
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (6, 6), (10, 10), NAT)
        field = LinearEMField(b0=0.8)
        coeffs = linear_coefficients(field, grid)
        f = packet(grid, sigma_p=1.5, momentum=(1.0, 0.5)).values
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        # the alternating pair sum recovers the first moment only once it
        # spans every offset that can land on the lattice, i.e. 2 n_p
        cfg_full = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic",
                                m_truncation=2 * grid.n_p[0])
        mass_sum = f.sum()
        py = grid.p_axes[1].reshape(1, -1, 1, 1)
        px = grid.p_axes[0].reshape(-1, 1, 1, 1)
        fx_mean = (NAT.charge * field.b0 * py / NAT.mass * f).sum() / mass_sum
        fy_mean = (-NAT.charge * field.b0 * px / NAT.mass * f).sum() / mass_sum
        for rhs_vals, tol in (
            (fresh(continuum.make_rhs(coeffs, grid, cfg))(f), 1e-7),
            (fresh(semidiscrete.make_rhs(coeffs, grid, cfg_full))(f), 1e-4),
        ):
            dpx_dt = (px * rhs_vals).sum() / mass_sum
            dpy_dt = (py * rhs_vals).sum() / mass_sum
            assert dpx_dt == pytest.approx(fx_mean, rel=tol, abs=1e-12)
            assert dpy_dt == pytest.approx(fy_mean, rel=tol, abs=1e-12)


# uneven momentum axes (7 and 11 slots) so a matrix applied on the wrong axis shows
GA = make_grid(2, (TAU, TAU), (np.pi, np.pi), (6, 7), (3, 5), NAT)
GRADIENT_FIELD = LinearEMField(e_grad=(0.3, -0.2), b0=0.8, b1=0.4)


class TestBandedOperators:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("reach", ["n_p", "2n_p", "past_lattice"])
    def test_bands_match_loop_helpers(self, axis, reach):
        rng = np.random.default_rng(17 + axis)
        f = rng.normal(size=GA.state_shape)
        n_p, n = GA.n_p[axis], GA.n_s[axis]
        cut = {"n_p": n_p, "2n_p": 2 * n_p, "past_lattice": 2 * n_p + 3}[reach]
        coeffs = rng.normal(size=cut)
        for matrix, loop in (
            (band_matrix(n, coeffs, -1), odd_pair_ladder(f, axis, coeffs)),
            (band_matrix(n, coeffs, 1), even_pair_ladder(f, axis, coeffs)),
            (band_matrix(n, np.ones(cut), 1, centre=1.0), box_offset_sum(f, axis, cut)),
        ):
            assert rel_l2(apply_along(matrix, f, axis), loop) < 1e-14

    @pytest.mark.parametrize("m_truncation", [None, 10])
    def test_ladder_route_matches_loop_assembly(self, m_truncation):
        coeffs = linear_coefficients(GRADIENT_FIELD, GA)
        f = np.random.default_rng(23).normal(size=GA.state_shape)
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic",
                           stencil_order=4, m_truncation=m_truncation)
        cut_x, cut_y = cfg.momentum_cutoff(GA, 0), cfg.momentum_cutoff(GA, 1)
        c1x = harmonic_coefficient(np.arange(1.0, cut_x + 1), GA.dp[0])
        c1y = harmonic_coefficient(np.arange(1.0, cut_y + 1), GA.dp[1])
        pair = coeffs.cross_dx * quadratic_coefficient(np.arange(1.0, cut_y + 1), GA.dp[1])
        dxf = spatial_derivative(f, GA, 0, 4, "periodic")
        dyf = spatial_derivative(f, GA, 1, 4, "periodic")
        expect = advection(f, GA, 4, "periodic")
        expect -= coeffs.force_x[None] * odd_pair_ladder(f, 0, c1x)
        expect -= coeffs.force_y[:, None] * odd_pair_ladder(f, 1, c1y)
        expect += coeffs.cross_dx * odd_pair_ladder(odd_pair_ladder(dxf, 1, c1y), 0, c1x)
        expect += even_pair_ladder(box_offset_sum(dyf, 0, cut_x), 1, pair)
        expect += coeffs.zero_dy * dyf
        assert rel_l2(fresh(semidiscrete.make_rhs(coeffs, GA, cfg))(f), expect) < 1e-14

    def test_difference_matrices_match_loops(self):
        coeffs = linear_coefficients(GRADIENT_FIELD, GA)
        ops = continuum.difference_operators(coeffs, GA)
        f = np.random.default_rng(29).normal(size=GA.state_shape)
        for axis in (0, 1):
            assert rel_l2(apply_along(ops.force[axis], f, axis),
                          momentum_difference(f, GA, axis)) < 1e-14
        # the x-gradient term carries the second difference along P_y alone
        s, _, mx, my = ops.gradient[0]
        assert (s, mx) == (0, None)
        assert rel_l2(apply_along(my, f, 1), momentum_second_difference(f, GA, 1)) < 1e-14

    def test_ladder_shift_count_independent_of_lattice(self, monkeypatch):
        calls = []
        original = solver_common.sample_shift

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_common, "sample_shift", counting)
        for n_p in (4, 10):
            grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (8, 8), (n_p, n_p), NAT)
            coeffs = linear_coefficients(GRADIENT_FIELD, grid)
            cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic",
                               stencil_order=4, m_truncation=2 * n_p)
            f = packet(grid).values
            calls.clear()
            fresh(semidiscrete.make_rhs(coeffs, grid, cfg))(f)
            # momentum sums and spatial derivatives are matmuls:
            # no full-state shifted copy on any lattice
            assert calls == []


class TestWorkingMemory:
    @pytest.mark.parametrize("route", [semidiscrete, continuum],
                             ids=["semidiscrete", "continuum"])
    def test_rhs_call_allocates_less_than_a_state(self, route):
        """The workspace allocates all of its scratch at build, so a call,
        the first one too and one in place, allocates less than one block."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        rhs = route.make_rhs(linear_coefficients(GRADIENT_FIELD, GB), GB, cfg)
        work = bound_workspace(rhs)
        # the sweep covers GB in several blocks
        assert len(work.blocks) > 1
        f = packet(GB).values
        before = f.copy()
        out = np.empty_like(f)
        got = []
        allocated = [allocation_peak(lambda: got.append(rhs(f, out))) for _ in range(2)]
        assert got[0] is out
        assert max(allocated) < 8 * work.block_size
        assert np.array_equal(f, before)
        step = f.copy()
        assert allocation_peak(lambda: rhs(step, step, 0.5, f)) < 8 * work.block_size

    @pytest.mark.parametrize("field, products, blocks", [
        (GRADIENT_FIELD, {semidiscrete: 2, continuum: 0}, {semidiscrete: 2, continuum: 3}),
        (LinearEMField(b0=0.8), {semidiscrete: 1, continuum: 0}, {semidiscrete: 1, continuum: 2}),
        (LinearEMField(), {semidiscrete: 0, continuum: 0}, {semidiscrete: 2, continuum: 2})],
        ids=["gradient", "force_only", "free"])
    @pytest.mark.parametrize("route", [semidiscrete, continuum],
                             ids=["semidiscrete", "continuum"])
    def test_workspace_holds_a_temporary_only_for_momentum_terms(self, route, field, products,
                                                                 blocks):
        """State-sized memory is one whole-state product per distinct
        wide-band momentum-x matrix (the ladder's gradient block adds the
        box on P_x to the odd band); the small-spacing route's d/dP_x is
        tridiagonal, so it forms its product per block and holds none.  The
        arena holds them and the in-place sweep's scratch blocks: the
        block's sum and one term (none where a spent whole-state product
        block serves), two for a gradient term on a product; on the
        small-spacing route also, until the next block's momentum-x product
        is formed, the previous block's sum, and with a gradient a
        block-local product.  A uniform field's force-x term is written
        straight into the block's sum, so it takes no product block."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        work = bound_workspace(route.make_rhs(linear_coefficients(field, GB), GB, cfg))
        assert work.products.shape == (products[route],) + GB.state_shape
        assert len(work.scratch) == blocks[route]
        state = math.prod(GB.state_shape)
        assert work.arena.size == products[route] * state + blocks[route] * work.block_size
        for array in (work.products, *work.scratch):
            assert array.size == 0 or np.shares_memory(array, work.arena)
        assert all(block.size == work.block_size for block in work.scratch)

    @pytest.mark.parametrize("grid", [GB, MULTI_BLOCK, REACH_BACK],
                             ids=["GB", "MULTI_BLOCK", "REACH_BACK"])
    @pytest.mark.parametrize("m_truncation", [None, 1, 5],
                             ids=["default_cutoff", "cut_1", "cut_5"])
    @pytest.mark.parametrize("field", [GRADIENT_FIELD, LinearEMField(b0=0.8), LinearEMField()],
                             ids=["gradient", "force_only", "free"])
    @pytest.mark.parametrize("route", [semidiscrete, continuum],
                             ids=["semidiscrete", "continuum"])
    def test_arena_holds_exactly_the_blocks_a_sweep_takes(self, route, field, m_truncation,
                                                          grid):
        """The count the build's sweep of two empty blocks takes is what an
        in-place call on the whole state takes: with one scratch block fewer
        the sweep runs out."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4,
                           m_truncation=m_truncation)
        rhs = route.make_rhs(linear_coefficients(field, grid), grid, cfg)
        work = bound_workspace(rhs)
        f = np.random.default_rng(67).normal(size=grid.state_shape)
        step = f.copy()
        rhs(step, step, 0.5, f)
        work.scratch.pop()
        with pytest.raises(IndexError):
            rhs(step, step, 0.5, f)

    @pytest.mark.parametrize("route, field, products, blocks", [
        (semidiscrete, GRADIENT_FIELD, 2, 3), (continuum, LinearEMField(b0=0.8), 0, 3),
        (continuum, GRADIENT_FIELD, 0, 4)],
        ids=["ladder_gradient", "continuum_force_only", "continuum_gradient"])
    def test_stepped_working_set(self, route, field, products, blocks):
        """A run holds the state, one step buffer and one whole-state
        product per wide-band momentum-x matrix (none on the small-spacing
        route).  Beyond them come the velocity stacks, one (rows, n, n)
        array per spatial axis, and within `blocks` blocks the sweep's
        scratch plus one block for the small matrices and NumPy's buffers.
        A second step buffer took one state more."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        coeffs = linear_coefficients(field, GB)
        f0 = packet(GB, momentum=(1.0, -0.5)).values
        work = bound_workspace(route.make_rhs(coeffs, GB, cfg))
        stacks = sum(stack.nbytes for stack in work.stacks)
        peak = allocation_peak(
            lambda: evolve(f0, route.make_rhs(coeffs, GB, cfg), GB, cfg, n_steps=2))
        assert len(work.scratch) == blocks - 1
        assert peak <= (2 + products) * f0.nbytes + stacks + blocks * 8 * work.block_size

    @pytest.mark.parametrize("field", [GRADIENT_FIELD, LinearEMField(e_grad=(0.3, -0.2), b0=0.8)],
                             ids=["gradient", "force_only"])
    @pytest.mark.parametrize("route", ["ladder", "difference", "shared"])
    def test_blocked_momentum_terms_match_whole_state_matmuls(self, field, route):
        """The sweep without advection, added to a base, against each term
        applied over the whole state."""
        coeffs = linear_coefficients(field, GB)
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        ops = (continuum.difference_operators(coeffs, GB) if route == "difference"
               else semidiscrete.ladder_operators(coeffs, GB, cfg))
        if route == "shared":
            # every kind of term on derivative 0, and two on one product
            mx = band_matrix(GB.n_s[0], [0.6, -0.3], -1)
            my = band_matrix(GB.n_s[1], [0.4, 0.1], 1, centre=-0.5)
            ops = solver_common.BandedOperators(ops.force, (
                (0, 0.7, mx, my), (0, -0.4, None, None), (0, 1.3, None, my),
                (0, 0.9, mx, None), (1, 0.2, mx, my)))
        rng = np.random.default_rng(41)
        f, start = rng.normal(size=(2,) + GB.state_shape)
        grads = [spatial_derivative(f, GB, s, 4, "periodic") for s in range(2)]
        expect = start.copy()
        tables = (coeffs.force_x[None], coeffs.force_y[:, None])
        for axis, matrix in enumerate(ops.force):
            if matrix is not None:
                expect -= tables[axis] * apply_along(matrix, f, axis)
        for s, weight, mx, my in ops.gradient:
            term = grads[s] if my is None else apply_along(my, grads[s], 1)
            expect += weight * (term if mx is None else apply_along(mx, term, 0))
        work = solver_common.Workspace(GB, cfg, ops, coeffs, advection=False)
        got = solver_common.banded_rhs(f, np.empty_like(f), work, base=start)
        assert rel_l2(got, expect) < 1e-14

    def test_boundary_fraction_allocates_less_than_a_state(self):
        f = packet(GB, sigma_p=3.0).values
        got = []
        allocated = allocation_peak(
            lambda: got.append(solver_common.boundary_mass_fraction(f, GB)))
        assert allocated < f.nbytes / 4
        assert got[0] == pytest.approx(boundary_fraction(f, GB.dim), rel=1e-13)

    @pytest.mark.parametrize("grid", [G2U, G1], ids=["G2U", "G1"])
    def test_boundary_fraction_counts_every_shell(self, grid):
        f = packet(grid, sigma_p=3.0).values
        got = solver_common.boundary_mass_fraction(f, grid)
        assert got == pytest.approx(boundary_fraction(f, grid.dim), rel=1e-13)
        assert solver_common.boundary_mass_fraction(np.zeros_like(f), grid) == 0.0

    def test_evolve_reuses_its_buffers_safely(self):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        rhs = continuum.make_rhs(linear_coefficients(GRADIENT_FIELD, G2), G2, cfg)
        f0 = packet(G2, momentum=(1.0, -0.5)).values
        before = f0.tobytes()
        kept = {}
        final = evolve(f0, rhs, G2, cfg, n_steps=5,
                       observer=lambda step, t, values: kept.setdefault(step, values.copy()))
        assert f0.tobytes() == before
        assert sorted(kept) == list(range(6))
        for k, values in kept.items():
            assert np.array_equal(values, evolve(f0, rhs, G2, cfg, n_steps=k).values)
        assert np.array_equal(final.values, kept[5])

    def test_solvers_leave_a_kept_f0_intact(self):
        """evolve and the resolvent copy f0 and drop their own reference; a
        caller that keeps f0, as an array or a state, keeps its bits."""
        field = LinearEMField(b0=0.5, b1=0.3)
        f0 = packet(G2, momentum=(1.0, -0.5))
        before = f0.values.tobytes()
        stepped = SolverConfig(dt=1e-3, t_end=5e-3, boundary="periodic")
        for route in (semidiscrete, continuum):
            rhs = route.make_rhs(linear_coefficients(field, G2), G2, stepped)
            evolve(f0.values, rhs, G2, stepped)
            assert f0.values.tobytes() == before
        resolvent = SolverConfig(dt=0.04, t_end=0.16, gamma0=1.0, boundary="periodic",
                                 fredholm_max_iter=400)
        for given in (f0, f0.values):
            solve_fredholm_resolvent(given, field, G2, resolvent)
            assert f0.values.tobytes() == before


def generator_oracle(route, field, grid, cfg, f):
    """L f term by term over the whole state (K f, without advection, for
    the resolvent kernel): the route's matrices applied along their momentum
    axes by `apply_along` and roll-formula spatial derivatives, with none of
    the sweep's blocks, products or folded weights."""
    coeffs = linear_coefficients(field, grid)
    ops = (semidiscrete.ladder_operators(coeffs, grid, cfg) if route == "semidiscrete"
           else continuum.difference_operators(coeffs, grid))
    derivs = [roll_derivative(f, grid.dx[s], 2 + s, cfg.stencil_order, cfg.boundary)
              for s in range(2)]
    out = np.zeros_like(f)
    if route != "kernel":
        for c, shape in enumerate(((-1, 1, 1, 1), (-1, 1, 1))):
            out -= (grid.p_axes[c] / grid.constants.mass).reshape(shape) * derivs[c]
    tables = (coeffs.force_x[None], coeffs.force_y[:, None])
    for axis, matrix in enumerate(ops.force):
        if matrix is not None:
            out -= tables[axis] * apply_along(matrix, f, axis)
    for s, weight, mx, my in ops.gradient:
        term = derivs[s] if my is None else apply_along(my, derivs[s], 1)
        out += weight * (term if mx is None else apply_along(mx, term, 0))
    return out


GAMMA0 = 1.7   # the kernel's shift, K + gamma0


def stage_closure(route, field, grid, cfg):
    """(rhs(step, target, scale=1.0, base=None), its warmed Workspace)."""
    coeffs = linear_coefficients(field, grid)
    if route == "kernel":
        work = continuum.make_kernel(coeffs, grid, cfg)

        def rhs(step, target, scale=1.0, base=None):
            return continuum.force_and_quantum(step, target, work, scale, base, GAMMA0)
    else:
        rhs = {"semidiscrete": semidiscrete, "continuum": continuum}[route].make_rhs(
            coeffs, grid, cfg)
        work = bound_workspace(rhs)
    return rhs, work


STAGE_ROUTES = pytest.mark.parametrize("route", ["semidiscrete", "continuum", "kernel"])


class TestStageContract:
    """rhs(step, target, scale, base) writes base + scale L(step), or
    scale L(step) when base is None, on both routes and the kernel."""

    @STAGE_ROUTES
    @pytest.mark.parametrize("grid", [G2U, GB, MULTI_BLOCK], ids=["G2U", "GB", "MULTI_BLOCK"])
    @pytest.mark.parametrize("field", [GRADIENT_FIELD, LinearEMField(b0=0.8), LinearEMField()],
                             ids=["gradient", "force_only", "free"])
    def test_stage_matches_oracle(self, route, grid, field):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        self.check_stage(route, field, grid, cfg)

    @pytest.mark.parametrize("route, m_truncation, whole", [
        ("semidiscrete", None, [True, True]), ("semidiscrete", 1, [False, False]),
        ("continuum", None, [False]), ("kernel", None, [False])],
        ids=["ladder", "ladder_cut_1", "continuum", "kernel"])
    def test_narrow_bands_form_their_products_per_block(self, route, m_truncation, whole):
        """On 13 one-slab blocks, a momentum-x matrix whose blocks' column
        spans sum to at most 3 n is formed block by block and any other over
        the whole state: the ladder's odd band and P_x box at the default
        cutoff are whole-state, cut at one offset they are tridiagonal, as
        d/dP_x always is.  Either way the stage matches the oracle."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4,
                           m_truncation=m_truncation)
        work = self.check_stage(route, GRADIENT_FIELD, MULTI_BLOCK, cfg)
        assert len(work.blocks) == 13
        assert [spans is None for spans in work.spans] == whole
        assert len(work.products) == sum(whole)

    @staticmethod
    def check_stage(route, field, grid, cfg):
        """Assert the stage contract against `generator_oracle` at 1e-14;
        return the route's workspace."""
        rhs, work = stage_closure(route, field, grid, cfg)
        step, base = np.random.default_rng(47).normal(size=(2,) + grid.state_shape)
        generator = generator_oracle(route, field, grid, cfg, step)
        if route == "kernel":
            generator += GAMMA0 * step
        target = np.full_like(step, np.nan)
        assert rhs(step, target, 0.37, base) is target
        assert rel_l2(target, base + 0.37 * generator) < 1e-14
        assert rel_l2(rhs(step, target, -2.5), -2.5 * generator) < 1e-14
        assert rel_l2(rhs(step, target), generator) < 1e-14
        return work

    @STAGE_ROUTES
    def test_held_buffers_do_not_reach_a_stage(self, route):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="zero", stencil_order=4)
        rhs, work = stage_closure(route, GRADIENT_FIELD, GB, cfg)
        step, base = np.random.default_rng(53).normal(size=(2,) + GB.state_shape)
        for array in (work.arena, *(s for s in work.stacks if s is not None)):
            array.fill(np.nan)
        got = rhs(step, np.full_like(step, np.nan), 0.25, base)
        fresh_rhs, _ = stage_closure(route, GRADIENT_FIELD, GB, cfg)
        assert got.tobytes() == fresh_rhs(step, np.empty_like(step), 0.25, base).tobytes()

    @STAGE_ROUTES
    def test_stage_allocates_less_than_half_a_state(self, route):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        rhs, _ = stage_closure(route, GRADIENT_FIELD, GB, cfg)
        step, base = np.random.default_rng(59).normal(size=(2,) + GB.state_shape)
        before = step.tobytes(), base.tobytes()
        target = np.empty_like(step)
        assert allocation_peak(lambda: rhs(step, target, 0.5, base)) < 0.5 * step.nbytes
        assert (step.tobytes(), base.tobytes()) == before


# the generator on a tiny grid with unequal axes, assembled column by column
GS = make_grid(2, (TAU, 5.0), (np.pi, 2.5), (4, 3), (2, 1), NAT)
SKEW_FIELDS = {"zero": LinearEMField(), "e_gradient": LinearEMField(e_grad=(0.3, -0.2)),
               "uniform_b": LinearEMField(b0=0.8), "b_gradient": LinearEMField(b0=0.8, b1=0.4)}


def assembled_generator(rhs, grid):
    """L as a dense matrix: column j is rhs of the j-th unit state."""
    n = math.prod(grid.state_shape)
    matrix, unit, column = np.empty((n, n)), np.zeros(grid.state_shape), np.empty(grid.state_shape)
    for j in range(n):
        unit.flat[j] = 1.0
        matrix[:, j] = rhs(unit, column).reshape(-1)
        unit.flat[j] = 0.0
    return matrix


def resolvent_kernel(coeffs, grid, config):
    """The resolvent's kernel K (gamma0 = 0) as rhs(values, out)."""
    work = continuum.make_kernel(coeffs, grid, config)
    return lambda values, out: continuum.force_and_quantum(values, out, work)


@pytest.mark.parametrize("field", list(SKEW_FIELDS.values()), ids=list(SKEW_FIELDS))
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("build", [semidiscrete.make_rhs, continuum.make_rhs, resolvent_kernel],
                         ids=["semidiscrete", "continuum", "kernel"])
def test_generator_is_skew_symmetric(build, order, boundary, field):
    """L + L^T vanishes to the bit on both stepped routes, which the norm
    guard in `evolve` rests on: the exact flow keeps the L2 norm.  So does
    K + K^T for the resolvent kernel, whose fixed-point passes contract by
    dt/2 ||K||_2 / (1 - dt/2 gamma0)."""
    cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary=boundary, stencil_order=order)
    matrix = assembled_generator(build(linear_coefficients(field, GS), GS, cfg), GS)
    # K has no advection, so it vanishes at zero field
    assert np.any(matrix) == (build is not resolvent_kernel or field != LinearEMField())
    assert not np.any(matrix + matrix.T)


IN_PLACE_GRIDS = pytest.mark.parametrize("grid", [GS, GB, MULTI_BLOCK],
                                         ids=["GS", "GB", "MULTI_BLOCK"])


def in_place_matches_out_of_place(work, grid, shift=0.0):
    """Assert banded_rhs in place writes the out-of-place bits, with base
    apart from f, base the input itself, and no base."""
    f, start = np.random.default_rng(71).normal(size=(2,) + grid.state_shape)
    for scale, base, base_is_input in ((0.37, start, False), (-2.5, None, True),
                                       (1.0, None, False)):
        expect = solver_common.banded_rhs(f, np.empty_like(f), work, scale,
                                          f if base_is_input else base, shift)
        got = f.copy()
        assert solver_common.banded_rhs(got, got, work, scale,
                                        got if base_is_input else base, shift) is got
        assert got.tobytes() == expect.tobytes()


class TestInPlaceSweep:
    """banded_rhs(f, f, work, scale, base) holds each block's sum in scratch
    and writes it back once the next block has formed its narrow-band
    momentum-x products, the last reads of the old slabs."""

    @IN_PLACE_GRIDS
    @pytest.mark.parametrize("field", [GRADIENT_FIELD, LinearEMField(b0=0.8), LinearEMField()],
                             ids=["gradient", "force_only", "free"])
    @pytest.mark.parametrize("build", ["ladder", "ladder_cut_1", "small_spacing",
                                       "small_spacing_shift"])
    def test_in_place_matches_out_of_place(self, build, field, grid):
        """Bit for bit on a stepped route's workspace; the last build adds
        the resolvent kernel's shift.  On MULTI_BLOCK's 13 one-slab blocks
        every narrow band reaches into the previous block."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4,
                           m_truncation=1 if build == "ladder_cut_1" else None)
        coeffs = linear_coefficients(field, grid)
        ops = (semidiscrete.ladder_operators(coeffs, grid, cfg) if build.startswith("ladder")
               else continuum.difference_operators(coeffs, grid))
        work = solver_common.Workspace(grid, cfg, ops, coeffs)
        in_place_matches_out_of_place(work, grid, GAMMA0 if build.endswith("shift") else 0.0)

    def test_kernel_workspace_refuses_an_in_place_call(self):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        work = continuum.make_kernel(linear_coefficients(GRADIENT_FIELD, GB), GB, cfg)
        f = packet(GB).values
        with pytest.raises(ValueError, match="no in-place call"):
            continuum.force_and_quantum(f, f, work)

    def test_a_band_reaching_back_two_blocks_goes_whole(self):
        """A band whose spans sum to at most 3 n but whose last row reads
        the first slab, 12 one-slab blocks back, is applied to the whole
        state on a stepped workspace, so an in-place call stays exact; the
        kernel's workspace, never in place, forms it per block.  A
        tridiagonal band, which reaches one block back, stays per block."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        coeffs = linear_coefficients(LinearEMField(b0=0.8), MULTI_BLOCK)
        n = MULTI_BLOCK.n_s[0]
        reaching = np.eye(n)
        reaching[-1, 0] = 1.0
        ops = solver_common.BandedOperators((reaching, None), ())
        work = solver_common.Workspace(MULTI_BLOCK, cfg, ops, coeffs)
        assert len(work.blocks) == n and work.spans[0] is None
        assert work.products.shape == (1,) + MULTI_BLOCK.state_shape
        in_place_matches_out_of_place(work, MULTI_BLOCK)
        kernel = solver_common.Workspace(MULTI_BLOCK, cfg, ops, coeffs, advection=False)
        assert kernel.spans[0] is not None
        work = solver_common.Workspace(
            MULTI_BLOCK, cfg,
            solver_common.BandedOperators((band_matrix(n, [1.0], -1), None), ()), coeffs)
        assert work.spans[0] is not None

    @pytest.mark.parametrize("field", [GRADIENT_FIELD, LinearEMField(b0=0.8)],
                             ids=["gradient", "force_only"])
    def test_ladder_cut_at_five_on_blocks_of_four_slabs(self, field):
        """The ladder cut at 5 on 13 P_x slabs in blocks of 4 is narrow by
        the 3 n rule (spans 9 + 13 + 10 + 6), but block 2 reads slab 3,
        before block 1: the stepped route builds, applies it to the whole
        state, matches the oracle and runs in place bit for bit."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4,
                           m_truncation=5)
        rhs, work = stage_closure("semidiscrete", field, REACH_BACK, cfg)
        assert [block.start for block in work.blocks] == [0, 4, 8, 12]
        assert work.spans and all(spans is None for spans in work.spans)
        TestStageContract.check_stage("semidiscrete", field, REACH_BACK, cfg)
        in_place_matches_out_of_place(work, REACH_BACK)


class TestForceFold:
    """A force table that is the same at every cell of each momentum row is
    folded into its momentum matrix; the fold is only a shortcut."""

    @staticmethod
    def workspace(build, field, grid, cfg):
        coeffs = linear_coefficients(field, grid)
        if build == "kernel":
            return continuum.make_kernel(coeffs, grid, cfg)
        if build == "continuum":
            return bound_workspace(continuum.make_rhs(coeffs, grid, cfg))
        cfg = dataclasses.replace(cfg, m_truncation=1 if build == "ladder_cut_1" else None)
        return bound_workspace(semidiscrete.make_rhs(coeffs, grid, cfg))

    FIELDS = {"uniform_b": LinearEMField(b0=0.8),
              "e_gradient_x": LinearEMField(e_grad=(0.3, 0.0), b0=0.8),
              "b1": LinearEMField(b0=0.8, b1=0.4)}
    GRIDS = {"GB": GB, "MULTI_BLOCK": MULTI_BLOCK, "REACH_BACK": REACH_BACK, "ONE_Y": ONE_Y}
    CASES = [(f, g) for f in ("uniform_b", "e_gradient_x")
             for g in ("GB", "MULTI_BLOCK", "REACH_BACK")] + [("b1", "ONE_Y")]

    @pytest.mark.parametrize("field, grid", CASES, ids=[f"{f}-{g}" for f, g in CASES])
    @pytest.mark.parametrize("build", ["continuum", "ladder_cut_1", "ladder", "kernel"])
    def test_fold_matches_the_tables(self, build, field, grid, monkeypatch):
        """Folded and unfolded sweeps agree to rounding of the force terms
        (the difference from the field-free sweep), at both orders and
        boundaries, in place and out of place; the kernel with its shift.
        With b1 on one y cell both forces fold into the momentum products
        that the gradient terms read too."""
        field, grid = self.FIELDS[field], self.GRIDS[grid]
        shift = GAMMA0 if build == "kernel" else 0.0
        f, start = np.random.default_rng(73).normal(size=(2,) + grid.state_shape)
        for order in (2, 4):
            for boundary in ("zero", "periodic"):
                cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary=boundary, stencil_order=order)
                free = self.workspace(build, LinearEMField(), grid, cfg)
                folded = self.workspace(build, field, grid, cfg)
                with monkeypatch.context() as patch:
                    patch.setattr(solver_common, "_row_force", lambda table: None)
                    tables = self.workspace(build, field, grid, cfg)
                assert folded.row_forces[1] is not None and tables.row_forces == (None, None)
                expect = solver_common.banded_rhs(f, np.empty_like(f), tables, 0.37, start,
                                                  shift)
                force = expect - solver_common.banded_rhs(f, np.empty_like(f), free, 0.37,
                                                          start, shift)
                got = [solver_common.banded_rhs(f, np.empty_like(f), folded, 0.37, start,
                                                shift)]
                if build != "kernel":
                    step = f.copy()
                    got.append(solver_common.banded_rhs(step, step, folded, 0.37, start))
                for values in got:
                    assert np.linalg.norm(values - expect) <= 1e-14 * np.linalg.norm(force)

    def test_fold_is_chosen_from_the_tables(self):
        """Uniform B folds both axes, b1 neither, an E gradient along x
        only y, and a table with a non-finite entry does not fold; a folded
        workspace holds no table."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)

        def folds(coeffs):
            work = bound_workspace(continuum.make_rhs(coeffs, GB, cfg))
            for rows, table in zip(work.row_forces, work.tables):
                assert (rows is None) != (table is None)
            return [rows is not None for rows in work.row_forces]

        assert folds(linear_coefficients(LinearEMField(b0=0.8), GB)) == [True, True]
        assert folds(linear_coefficients(LinearEMField(b0=0.8, b1=0.4), GB)) == [False, False]
        assert folds(linear_coefficients(LinearEMField(e_grad=(0.3, 0.0), b0=0.8), GB)) \
            == [False, True]
        uniform = linear_coefficients(LinearEMField(b0=0.8), GB)
        # F_x not a number everywhere; F_y the same at every cell, but infinite on a row
        force_y = uniform.force_y.copy()
        force_y[0] = np.inf
        spoilt = dataclasses.replace(uniform, force_x=np.full_like(uniform.force_x, np.nan),
                                     force_y=force_y)
        assert folds(spoilt) == [False, False]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class TestStepping:
    def test_rk4_order(self):
        # the stage contract: rhs(v, out, scale, base) writes base + scale L v
        rhs = lambda v, out, scale, base: np.subtract(base, scale * v, out=out)
        for dt in (0.1, 0.05):
            err = abs(rk4_step(np.array(1.0), dt, rhs, np.empty(())) - np.exp(-dt))
            assert err < dt ** 5 / 60.0

    def test_horner_matches_classic_on_banded_rhs(self):
        rng = np.random.default_rng(43)
        f = rng.normal(size=GA.state_shape)
        a = band_matrix(GA.n_s[0], rng.normal(size=3), -1, centre=rng.normal())
        b = band_matrix(GA.n_s[1], rng.normal(size=2), 1, centre=rng.normal())
        calls = []

        def rhs(v, out, scale=1.0, base=None):
            calls.append(1)
            np.add(apply_along(a, v, 0), apply_along(b, v, 1), out=out)
            out *= scale
            if base is not None:
                out += base
            return out

        before = f.copy()
        out = np.empty_like(f)
        assert rk4_step(f, 0.1, rhs, out) is out
        assert len(calls) == 4
        assert np.array_equal(f, before)
        assert rel_l2(out, rk4_classic(f, 0.1, fresh(rhs))) < 1e-13

    def test_cfl_validation(self):
        cfg = SolverConfig(dt=1.0, t_end=2.0)
        with pytest.raises(ValueError, match="advective cap"):
            cfg.validate(G2)

    def test_config_field_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=-1.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1.0, t_end=1.0, stencil_order=3)
        with pytest.raises(ValueError):
            SolverConfig(dt=1.0, t_end=1.0, boundary="reflecting")
        with pytest.raises(ValueError):
            SolverConfig(dt=1.0, t_end=1.0, gamma0=0.0)

    @pytest.mark.parametrize("n_steps, record_every, bad",
                             [(-3, 1, "n_steps"), (4, 0, "record_every"),
                              (4, -2, "record_every")])
    def test_evolve_rejects_bad_loop_arguments(self, n_steps, record_every, bad):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        calls = []
        with pytest.raises(ValueError, match=bad):
            evolve(packet(G2).values, lambda v, out: calls.append(v), G2, cfg,
                   n_steps=n_steps, record_every=record_every)
        assert calls == []

    def test_instability_detected(self):
        # fabricated force table far beyond any stable coupling for this dt
        field = LinearEMField()
        base = linear_coefficients(field, G2)
        coeffs = LinearKernelCoefficients(
            c1_x=base.c1_x, c1_y=base.c1_y,
            force_x=np.full_like(base.force_x, 1e6),
            force_y=np.full_like(base.force_y, 1e6),
            cross_dx=0.0, pair_dy=np.zeros_like(base.pair_dy), zero_dy=0.0)
        cfg = SolverConfig(dt=0.04, t_end=0.4)
        for route in (semidiscrete, continuum):
            with pytest.raises(SolverInstabilityError, match="norm grew"):
                evolve(packet(G2).values, route.make_rhs(coeffs, G2, cfg), G2, cfg,
                       n_steps=1)

    def test_free_streaming_translates_packet(self):
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (24, 24), (5, 5), NAT)
        coeffs = linear_coefficients(LinearEMField(), grid)
        f0 = packet(grid, sigma_p=1.0, sigma_x=0.5).values
        finals = {}
        for order in (2, 4):
            cfg = SolverConfig(dt=0.01, t_end=0.2, boundary="periodic",
                               stencil_order=order)
            finals[order] = evolve(f0, semidiscrete.make_rhs(coeffs, grid, cfg), grid, cfg,
                                   n_steps=20).values
        # each momentum row translates at its own speed; under periodic walls
        # the exact shift of the sampled data is a Fourier phase rotation
        t = 0.2
        kx = 2 * np.pi * np.fft.fftfreq(grid.n_x[0], d=grid.dx[0])
        ky = 2 * np.pi * np.fft.fftfreq(grid.n_x[1], d=grid.dx[1])
        expect = np.empty_like(f0)
        for i, px in enumerate(grid.p_axes[0]):
            for j, py in enumerate(grid.p_axes[1]):
                phase = np.exp(-1j * (kx[:, None] * px + ky[None, :] * py) * t)
                expect[i, j] = np.fft.ifft2(np.fft.fft2(f0[i, j]) * phase).real
        err4 = rel_l2(finals[4], expect)
        err2 = rel_l2(finals[2], expect)
        # residual is stencil dispersion: the wide stencil must land on the
        # packet and clearly beat the narrow one (measured 5e-4 vs 6e-3)
        assert err4 < 2e-3
        assert err2 > 4.0 * err4

    def test_mass_conserved_over_100_steps(self):
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (8, 8), (6, 6), NAT)
        cfg = SolverConfig(dt=0.01, t_end=1.0, boundary="periodic")
        f0 = packet(grid, sigma_p=1.0).values

        def rel_drift(result):
            return abs(result.masses[-1] - result.masses[0]) / abs(result.masses[0])

        # free streaming: every surviving term is a periodic divergence
        co_free = linear_coefficients(LinearEMField(), grid)
        free = evolve(f0, semidiscrete.make_rhs(co_free, grid, cfg),
                      grid, cfg, n_steps=100)
        assert rel_drift(free) < 1e-12

        # central differences leak only through the outermost momentum slots,
        # so the drift is bounded by the edge tail mass the force builds up
        field = LinearEMField(e_grad=(0.2, -0.1), b0=0.6, b1=0.3)
        co = linear_coefficients(field, grid)
        cont = evolve(f0, continuum.make_rhs(co, grid, cfg),
                      grid, cfg, n_steps=100)
        assert rel_drift(cont) < 1e-4

        # the pair ladder telescopes only on the unbounded lattice; on the
        # zero-filled window a force-skewed state sheds band flux (see
        # test_ladder_mass_leak_is_band_flux), so the drift is merely bounded
        ladd = evolve(f0, semidiscrete.make_rhs(co, grid, cfg),
                      grid, cfg, n_steps=100)
        assert rel_drift(ladd) < 2e-2

    def test_ladder_mass_leak_is_band_flux(self):
        # summing the pair ladder over a zero-filled window leaves exactly the
        # bands that shift past the lattice edge; check the identity
        # sum(rhs) = -sum_axes sum_m c1(m) F . (bottom band - top band)
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (6, 6), (5, 5), NAT)
        field = LinearEMField(e_grad=(0.2, -0.1), b0=0.6, b1=0.3)
        coeffs = linear_coefficients(field, grid)
        cfg = SolverConfig(dt=0.01, t_end=0.1, boundary="periodic")
        f = packet(grid, sigma_p=1.0, momentum=(0.7, -0.4)).values
        total = fresh(semidiscrete.make_rhs(coeffs, grid, cfg))(f).sum()

        n = grid.n_p[0]
        c1 = [harmonic_coefficient(m, grid.dp[0]) for m in range(1, n + 1)]
        pred = 0.0
        for m in range(1, n + 1):
            band_x = f[:m].sum(axis=0) - f[-m:].sum(axis=0)
            band_y = f[:, :m].sum(axis=1) - f[:, -m:].sum(axis=1)
            pred -= c1[m - 1] * (coeffs.force_x * band_x).sum()
            pred -= c1[m - 1] * (coeffs.force_y * band_y).sum()
        assert abs(pred) > 1e-6 * abs(f.sum())
        assert total == pytest.approx(pred, rel=1e-9)

    def test_route_gap_shrinks_with_finer_momentum(self):
        # fixed window and fixed physical packet; tripling the box shrinks the
        # momentum spacing, so the two deterministic routes must approach
        si = PhysicalConstants()
        omega = (25e-9, 25e-9)
        sigma_p = 1.6e-26
        p0 = 1.33e-26
        gaps = []
        for length, n_p in ((50e-9, 7), (100e-9, 14), (200e-9, 28)):
            grid = make_grid(2, (length, length), omega, (8, 8), (n_p, n_p), si)
            field = LinearEMField(b0=1.0)
            coeffs = linear_coefficients(field, grid)
            cfg = SolverConfig(dt=1.2e-14, t_end=1.2e-13, boundary="periodic")
            f0 = gaussian_wigner(grid, center=0.0, sigma_x=6e-9,
                                 momentum_center=(p0, 0.0), sigma_p=sigma_p).values
            a = f0.copy()
            b = f0.copy()
            rhs_a = semidiscrete.make_rhs(coeffs, grid, cfg)
            rhs_b = continuum.make_rhs(coeffs, grid, cfg)
            for _ in range(10):
                a = rk4_step(a, cfg.dt, rhs_a, np.empty_like(a))
                b = rk4_step(b, cfg.dt, rhs_b, np.empty_like(b))
            gaps.append(rel_l2(a, b))
        assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# integral-form solver
# ---------------------------------------------------------------------------

class TestStabilityGuard:
    def nan_coefficients(self, grid):
        base = linear_coefficients(LinearEMField(), grid)
        return LinearKernelCoefficients(
            c1_x=base.c1_x, c1_y=base.c1_y,
            force_x=np.full_like(base.force_x, np.nan), force_y=base.force_y,
            cross_dx=0.0, pair_dy=base.pair_dy, zero_dy=0.0)

    def test_evolve_rejects_non_finite_state(self):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        with pytest.raises(SolverInstabilityError, match="non-finite"):
            evolve(packet(G2).values, lambda v, out, *stage: out.fill(np.nan), G2, cfg,
                   n_steps=2)

    def test_steppers_reject_non_finite_state(self):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic")
        coeffs = self.nan_coefficients(G2)
        for route in (semidiscrete, continuum):
            with pytest.raises(SolverInstabilityError, match="non-finite"):
                evolve(packet(G2).values, route.make_rhs(coeffs, G2, cfg), G2, cfg,
                       n_steps=1)


class TestFredholm:
    def test_zero_kernel_reduces_to_free_flight(self):
        field = LinearEMField()
        cfg = SolverConfig(dt=0.04, t_end=0.32, gamma0=1.0, boundary="periodic")
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8)
        result = solve_fredholm_resolvent(f0, field, G2, cfg)
        expect = free_flight(free_flight_operators(G2, 0.32, "periodic"), f0.values, G2)
        assert rel_l2(result.state.values, expect) < 1e-2
        assert result.state.time == pytest.approx(0.32)
        assert result.residuals[-1] < cfg.fredholm_tol

    def test_matches_stepped_route(self):
        field = LinearEMField(b0=0.5, b1=0.3)
        cfg = SolverConfig(dt=0.01, t_end=0.16, boundary="periodic")
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8)
        result = solve_fredholm_resolvent(f0, field, G2, cfg)
        stepped = evolve(f0, continuum.make_rhs(linear_coefficients(field, G2), G2, cfg),
                         G2, cfg, n_steps=16).values
        # coarse packet: this only guards gross disagreement between routes
        assert rel_l2(result.state.values, stepped) < 5e-2

    def test_gamma_choice_is_immaterial(self):
        field = LinearEMField(b0=0.5)
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8)
        out = []
        for gamma in (2.0, 4.0):
            cfg = SolverConfig(dt=0.005, t_end=0.08, gamma0=gamma, boundary="periodic")
            out.append(solve_fredholm_resolvent(f0, field, G2, cfg).state.values)
        assert rel_l2(out[0], out[1]) < 1e-3

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_matches_plain_sweep_loop(self, boundary):
        field = LinearEMField(b0=0.5, b1=0.3)
        cfg = SolverConfig(dt=0.01, t_end=0.08, boundary=boundary, stencil_order=4,
                           fredholm_tol=1e-13)
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8, momentum=(1.0, 0.0))
        result = solve_fredholm_resolvent(f0, field, G2, cfg)
        coeffs = linear_coefficients(field, G2)
        work = continuum.make_kernel(coeffs, G2, cfg)
        expect, _ = fredholm_sweeps(
            f0.values, lambda v: continuum.force_and_quantum(v, np.empty_like(v), work),
            lambda v, lag: free_flight_rows(v, row_deltas(G2, lag * cfg.dt), boundary),
            8, cfg.dt, result.gamma0, cfg.fredholm_tol, cfg.fredholm_max_iter)
        # one final local residual per level, each below tol
        assert len(result.residuals) == 8
        assert all(r < cfg.fredholm_tol for r in result.residuals)
        assert rel_l2(result.state.values, expect) < 1e-12

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    def test_matches_march_with_a_kernel_call_per_pass(self, boundary):
        """Each level's first pass takes K f_{k-1} from the kernel value the
        level before stored, and each accepted level's kernel value comes
        from its last pass, not from a kernel call of its own: levels take
        as many passes as a march that calls the kernel every time, and end
        within the tolerance of its state."""
        field = LinearEMField(b0=0.5, b1=0.3)
        cfg = SolverConfig(dt=0.01, t_end=0.08, boundary=boundary, stencil_order=4)
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8, momentum=(1.0, 0.0))
        n_t = 8
        result = solve_fredholm_resolvent(f0, field, G2, cfg)
        work = continuum.make_kernel(linear_coefficients(field, G2), G2, cfg)
        expect, levels = fredholm_march(
            f0.values, lambda v: continuum.force_and_quantum(v, np.empty_like(v), work),
            lambda v, lag: free_flight_rows(v, row_deltas(G2, lag * cfg.dt), boundary),
            n_t, cfg.dt, result.gamma0, cfg.fredholm_tol, cfg.fredholm_max_iter)
        # the march is causal, so a solve to level k repeats the first k
        # levels of this one, and its n_sweeps counts their passes
        sweeps = [solve_fredholm_resolvent(f0, field, G2, dataclasses.replace(
            cfg, t_end=k * cfg.dt)).n_sweeps for k in range(1, n_t)] + [result.n_sweeps]
        assert np.diff(sweeps, prepend=0).tolist() == [len(level) for level in levels]
        assert result.n_sweeps == sum(len(level) for level in levels)
        assert rel_l2(result.state.values, expect) < 10 * cfg.fredholm_tol

    def test_working_set_is_one_trajectory(self):
        """The march holds n_t + 1 kernel values, the iterate and the history
        (n_t + 3 states); the kernel's workspace holds the scratch blocks
        every kernel pass and free flight shares, and no product, since it
        forms d/dP_x per block.  Beyond them and the flight stacks, the
        allowance is what building the kernel takes (coefficient tables,
        matrices), the peak
        of one kernel pass or flight into the warmed workspace (NumPy's
        buffer) and 16 KiB for the solve's own small arrays: one more block
        (here one state) fails."""
        self.check_working_set(G2, LinearEMField(b0=0.5, b1=0.3), SolverConfig(
            dt=0.01, t_end=0.08, boundary="periodic", stencil_order=4),
            packet(G2, sigma_p=1.0, sigma_x=0.8, momentum=(1.0, 0.0)).values)

    @pytest.mark.parametrize("field", [LinearEMField(b0=1.0, b1=1e7), LinearEMField()],
                             ids=["gradient", "zero"])
    def test_multi_block_working_set(self, field):
        """The same bound on a workspace of 13 one-slab blocks, where one more
        block is 1/13 state.  The kernel forms its d/dP_x product per block,
        so the solve also stays below n_t + 4 states beyond its stacks; a
        whole-state product took n_t + 4.28."""
        cfg = SolverConfig(dt=2e-14, t_end=1e-13, boundary="periodic", stencil_order=4)
        f0 = gaussian_wigner(MULTI_BLOCK, center=(0.0, 0.0), sigma_x=(20e-9, 25e-9)).values
        work, solve, stacks = self.check_working_set(MULTI_BLOCK, field, cfg, f0)
        n_t = 5
        assert len(work.blocks) == 13
        assert solve - stacks < (n_t + 4) * f0.nbytes

    @staticmethod
    def check_working_set(grid, field, cfg, f0):
        """Assert the solve's bound; return the kernel workspace, the solve's
        peak and the bytes of its flight stacks."""
        n_t = int(round(cfg.t_end / cfg.dt))
        flights = [free_flight_operators(grid, lag * cfg.dt, cfg.boundary)
                   for lag in range(1, n_t + 1)]
        stacks = sum(stack.nbytes for flight in flights for stack in flight)
        built = []
        setup = allocation_peak(lambda: built.append(
            continuum.make_kernel(linear_coefficients(field, grid), grid, cfg)))
        work, out = built[0], np.empty_like(f0)
        continuum.force_and_quantum(f0, out, work, 0.5, f0, 1.0)
        advect_free_flight(flights[-1], f0, out, 0.5, work, accumulate=True)
        call = max(
            allocation_peak(lambda: continuum.force_and_quantum(f0, out, work, 0.5, f0, 1.0)),
            allocation_peak(lambda: advect_free_flight(flights[-1], f0, out, 0.5, work,
                                                       accumulate=True)))
        held = sum(block.nbytes for block in work.scratch)
        small = setup + call + 16 * 1024
        solve = allocation_peak(lambda: solve_fredholm_resolvent(f0, field, grid, cfg))
        assert len(work.products) == 0
        assert solve < (n_t + 3) * f0.nbytes + held + stacks + small
        return work, solve, stacks

    def test_held_kernel_and_flight_allocate_no_state(self):
        """On a state larger than NumPy's 64 KiB ufunc buffer, a kernel call
        and a free flight, the first ones on the workspace, allocate less
        than half a state, and write the bits of the same call on a fresh
        workspace, whatever the workspace held before."""
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (10, 10), (8, 8), NAT)
        field = LinearEMField(b0=0.5, b1=0.3)
        cfg = SolverConfig(dt=0.01, t_end=0.08, boundary="periodic", stencil_order=4)
        coeffs = linear_coefficients(field, grid)
        ops = continuum.difference_operators(coeffs, grid)
        f = packet(grid, sigma_p=1.0, sigma_x=0.8, momentum=(1.0, 0.0)).values
        assert f.nbytes > 64 * 1024 and ops.gradient
        work = continuum.make_kernel(coeffs, grid, cfg)
        flight_ops = free_flight_operators(grid, 0.05, "periodic")
        out = np.empty_like(f)

        def spoil():
            work.arena.fill(np.nan)

        def fresh_workspace():
            return continuum.make_kernel(coeffs, grid, cfg)

        spoil()
        assert allocation_peak(
            lambda: continuum.force_and_quantum(f, out, work, gamma0=2.0)) < 0.5 * f.nbytes
        expect = continuum.force_and_quantum(f, np.empty_like(f), fresh_workspace(), gamma0=2.0)
        assert out.tobytes() == expect.tobytes()

        spoil()
        assert allocation_peak(
            lambda: advect_free_flight(flight_ops, f, out, 0.5, work)) < 0.5 * f.nbytes
        expect = advect_free_flight(flight_ops, f, np.empty_like(f), 0.5, fresh_workspace())
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("field", [LinearEMField(b0=1.0, b1=1e7), LinearEMField()],
                             ids=["gradient", "zero"])
    def test_flight_sweeps_every_block(self, field):
        """On a workspace of many blocks, a written and an accumulated flight
        give the bits of the whole-state batched matmuls.  The workspace
        holds the flight's two intermediates from its build, so a flight
        allocates under half a block (1/26 state)."""
        cfg = SolverConfig(dt=2e-14, t_end=1e-13, boundary="zero", stencil_order=4)
        work = continuum.make_kernel(linear_coefficients(field, MULTI_BLOCK), MULTI_BLOCK, cfg)
        assert len(work.blocks) == 13
        x_stack, y_stack = ops = free_flight_operators(MULTI_BLOCK, 3 * cfg.dt, cfg.boundary)
        f, start = np.random.default_rng(61).normal(size=(2,) + MULTI_BLOCK.state_shape)
        flown = (x_stack[:, None] @ f[None]).reshape(f.shape) @ y_stack
        out = np.full_like(f, np.nan)
        assert advect_free_flight(ops, f, out, 0.7, work) is out
        assert out.tobytes() == (0.7 * flown).tobytes()
        # d/dP_x is formed per block, so both intermediates are scratch blocks
        assert len(work.products) == 0
        assert len(work.scratch) == 2
        out = start.copy()
        allocated = allocation_peak(
            lambda: advect_free_flight(ops, f, out, -1.3, work, accumulate=True))
        assert allocated < 4 * work.block_size
        assert out.tobytes() == (start + -1.3 * flown).tobytes()

    def test_traced_layers_run_once_per_call(self, monkeypatch):
        """`force_and_quantum` runs once per kernel call and
        `advect_free_flight` once per flight, each looked up by its module
        attribute, so a wrapper of either name sees every call.  The kernel
        runs once on f0 and once per pass but each level's first."""
        calls = {"force_and_quantum": 0, "advect_free_flight": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(fredholm, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(fredholm, name, counted)
        cfg = SolverConfig(dt=0.01, t_end=0.05, boundary="periodic", stencil_order=4)
        f0 = packet(G2, sigma_p=1.0, sigma_x=0.8, momentum=(1.0, 0.0))
        result = solve_fredholm_resolvent(f0, LinearEMField(b0=0.5, b1=0.3), G2, cfg)
        n_t = 5
        assert calls["force_and_quantum"] == result.n_sweeps - n_t + 1
        assert calls["advect_free_flight"] == n_t * (n_t + 1) // 2

    def test_final_state_owns_its_data(self):
        cfg = SolverConfig(dt=0.04, t_end=0.16, gamma0=1.0, boundary="periodic")
        values = solve_fredholm_resolvent(packet(G2), LinearEMField(b0=0.5), G2,
                                          cfg).state.values
        assert values.flags.owndata and values.shape == G2.state_shape

    def test_non_finite_input_stops_at_first_sweep(self):
        f0 = packet(G2).values.copy()
        f0[2, 3, 4, 5] = np.nan
        cfg = SolverConfig(dt=0.04, t_end=0.16, gamma0=1.0, boundary="periodic",
                           fredholm_max_iter=400)
        with pytest.raises(SolverInstabilityError, match="non-finite at level 1$"):
            solve_fredholm_resolvent(f0, LinearEMField(b0=0.5), G2, cfg)

    def test_singular_diagonal_stops_at_first_level(self):
        # dt/2 gamma0 = 1 leaves the diagonal term without a left-hand side
        cfg = SolverConfig(dt=0.03125, t_end=0.0625, gamma0=64.0, boundary="periodic")
        with pytest.raises(SolverInstabilityError, match="non-finite at level 1$"):
            solve_fredholm_resolvent(packet(G2), LinearEMField(b0=0.5), G2, cfg)

    def test_non_multiple_t_end_rejected(self):
        cfg = SolverConfig(dt=0.03, t_end=0.1, gamma0=1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            solve_fredholm_resolvent(packet(G2), LinearEMField(), G2, cfg)

    def test_non_convergence_raises_with_history(self):
        field = LinearEMField(b0=0.5)
        cfg = SolverConfig(dt=0.04, t_end=0.32, gamma0=30.0, boundary="periodic",
                           fredholm_max_iter=2)
        with pytest.raises(FredholmConvergenceError, match="stalled at level 1 of 8") as err:
            solve_fredholm_resolvent(packet(G2), field, G2, cfg)
        assert len(err.value.residuals) == 2


# ---------------------------------------------------------------------------
# backward walk estimator
# ---------------------------------------------------------------------------

class TestMonteCarlo:
    def test_zero_field_zero_variance(self):
        field = LinearEMField()
        cfg = SolverConfig(dt=0.04, t_end=0.2, boundary="periodic",
                           n_particles=300, rng_seed=11)
        f0 = packet(G2, sigma_p=1.0)
        target = (np.array([1, -1]), np.array([0.3, -0.2]))
        est = mc_estimate_point(target, f0, field, G2, cfg)
        assert est.stderr == 0.0
        # every walk drifts straight back: value is the bilinear sample there
        vx = 1.0 * G2.dp[0] / NAT.mass
        vy = -1.0 * G2.dp[1] / NAT.mass
        point = np.array([0.3 - vx * 0.2, -0.2 - vy * 0.2])
        expect = _bilinear(f0.values[G2.momentum_slot(0, 1), G2.momentum_slot(1, -1)],
                           G2, point)
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_reproducible_and_worker_independent(self):
        # more than one chunk of walkers, so the chunk layout is exercised
        field = LinearEMField(b0=0.5)
        cfg = SolverConfig(dt=0.02, t_end=0.1, boundary="periodic",
                           n_particles=montecarlo._CHUNK_WALKERS + 500, rng_seed=7)
        f0 = packet(G2, sigma_p=1.0)
        target = (np.array([0, 1]), np.array([0.1, 0.0]))
        first = mc_estimate_point(target, f0, field, G2, cfg)
        for workers in (1, 2, 3):
            est = mc_estimate_point(target, f0, field, G2, cfg, workers=workers)
            assert est == first and est.value.hex() == first.value.hex()

    def test_agrees_with_stepped_route(self):
        # the walk transports positions exactly, so the grid route needs the
        # wide stencil and a resolved packet or its own dispersion dominates
        field = LinearEMField(b0=0.5)
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (24, 24), (4, 4), NAT)
        cfg = SolverConfig(dt=0.01, t_end=0.1, boundary="periodic",
                           n_particles=20000, rng_seed=5, stencil_order=4)
        f0 = packet(grid, sigma_p=1.0)
        stepped = evolve(f0, continuum.make_rhs(linear_coefficients(field, grid), grid, cfg),
                         grid, cfg, n_steps=10).values
        sx, sy, ix, iy = grid.momentum_slot(0, 1), grid.momentum_slot(1, 0), 13, 11
        target = (np.array([1, 0]), np.array([grid.x_axes[0][ix], grid.x_axes[1][iy]]))
        value, stderr = mc_estimate_point(target, f0, field, grid, cfg)
        ref = stepped[sx, sy, ix, iy]
        assert abs(value - ref) < 4.0 * stderr + 1e-4 * abs(ref)

    @pytest.mark.parametrize("order, bound", [(2, 5e-3), (4, 1e-4)])
    def test_field_free_walk_scores_the_stepped_route(self, order, bound):
        # without a field every walk flies straight to t = 0 and scores f0
        # interpolated at one end point, so the estimate has no noise: its
        # gap to the stepped route is the scoring's interpolation error,
        # second order in dx at stencil_order 2 and fourth order at 4
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (24, 24), (4, 4), NAT)
        cfg = SolverConfig(dt=0.01, t_end=0.1, boundary="periodic",
                           n_particles=100, rng_seed=5, stencil_order=order)
        field = LinearEMField()
        f0 = packet(grid, sigma_p=1.0)
        stepped = evolve(f0, continuum.make_rhs(linear_coefficients(field, grid), grid, cfg),
                         grid, cfg, n_steps=10).values
        sx, sy, ix, iy = grid.momentum_slot(0, 1), grid.momentum_slot(1, 0), 13, 11
        target = (np.array([1, 0]), np.array([grid.x_axes[0][ix], grid.x_axes[1][iy]]))
        value, stderr = mc_estimate_point(target, f0, field, grid, cfg)
        ref = stepped[sx, sy, ix, iy]
        assert stderr < 1e-15 * abs(ref)
        assert abs(value - ref) < bound * abs(ref)

    def test_stderr_scales_inverse_sqrt(self):
        field = LinearEMField(b0=0.5)
        f0 = packet(G2, sigma_p=1.0)
        target = (np.array([0, 1]), np.array([0.1, 0.0]))
        errs = []
        for n in (1000, 4000):
            cfg = SolverConfig(dt=0.02, t_end=0.1, boundary="periodic",
                               n_particles=n, rng_seed=19)
            errs.append(mc_estimate_point(target, f0, field, G2, cfg).stderr)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)

    def test_weight_cap_tallied(self):
        field = LinearEMField(b0=2.0, b1=1.0)
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic",
                           n_particles=400, rng_seed=3, weight_cap=1.5)
        est = mc_estimate_point((np.array([0, 0]), np.array([0.0, 0.0])),
                                packet(G2, sigma_p=1.0), field, G2, cfg)
        assert est.n_capped > 0
        assert np.isfinite(est.value)

    @staticmethod
    def _table(field, gamma0, grid=G2, order=2):
        """The oracle's (k, nb) coefficient table on grid at stencil order
        `order`, as a function of (midx, pos) with one row per walker."""
        c = grid.constants
        return lambda m, x: walk_coefficients(
            m, x, gamma0=gamma0, dp=grid.dp, dx=grid.dx, charge=c.charge, mass=c.mass,
            hbar=c.hbar, b0=field.b0, b1=field.b1, e_grad=field.e_grad, order=order)

    @classmethod
    def _walk_and_reference(cls, field, cfg, target, grid=G2, f0=None):
        """(scores, n_capped, n_retired) of one chunk, from the walk that
        mc_estimate_point runs and from its full-table reference
        `hop_walk_reference` over all the order's branches."""
        f0 = packet(grid, sigma_p=1.0).values if f0 is None else f0.values
        gamma0 = default_gamma0(linear_coefficients(field, grid), grid, cfg)
        got = montecarlo._scores(montecarlo._Branches(field, grid, cfg), target[0], target[1],
                                 f0)
        ref = hop_walk_reference(
            cfg.n_particles, [cfg.rng_seed, 0], target[0], target[1], t_end=cfg.t_end,
            gamma0=gamma0, weight_cap=cfg.weight_cap, dp=grid.dp, mass=grid.constants.mass,
            n_p=grid.n_p, dx=grid.dx, order=cfg.stencil_order,
            coefficients=cls._table(field, gamma0, grid, cfg.stencil_order),
            interp=lambda m, x: montecarlo._interp_initial(f0, grid, m.T, x.T, cfg.boundary,
                                                           cfg.stencil_order))
        return got, ref

    @pytest.mark.parametrize("b1, order, m", [(1.0, 2, (0, 0)), (0.0, 2, (2, -1)),
                                              (1.0, 4, (0, 0))],
                             ids=["gradient", "uniform", "gradient_order4"])
    def test_walk_matches_reference(self, b1, order, m):
        # the weight cap of test_weight_cap_tallied: capped walkers leave
        # mid-walk, as the walk checks the cap after each hop.  Uniform B
        # starts off m = (0, 0), where no hop comes
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic", stencil_order=order,
                           n_particles=400, rng_seed=3, weight_cap=1.5)
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(b0=2.0, b1=b1), cfg, (np.array(m), np.array([0.0, 0.0])))
        assert capped > 0
        assert np.array_equal(scores, ref)
        assert (capped, retired) == (ref_capped, ref_retired)

    @pytest.mark.parametrize("b1", [1.0, 0.0], ids=["gradient", "uniform"])
    def test_retired_walkers_match_reference(self, b1):
        # starting on the lattice edge, hops off the momentum lattice retire walkers
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="zero", n_particles=400, rng_seed=3)
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(b0=2.0, b1=b1), cfg, (np.array([4, 0]), np.array([0.3, -0.2])))
        assert retired > 0
        assert (capped, retired) == (ref_capped, ref_retired)
        assert np.array_equal(scores, ref)

    def test_field_free_walk_matches_reference(self):
        # no hop rate: every walk flies straight to t = 0 in its first round
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic", n_particles=400,
                           rng_seed=3)
        target = (np.array([1, -1]), np.array([0.3, -0.2]))
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(), cfg, target)
        assert capped == retired == ref_capped == ref_retired == 0
        assert np.array_equal(scores, ref)
        assert np.all(scores == scores[0]) and scores[0] != 0.0

    @pytest.mark.parametrize("edge", [1, -1], ids=["top", "bottom"])
    @pytest.mark.parametrize("n_p", [126, 127])
    def test_walk_at_an_index_type_limit_matches_reference(self, n_p, edge):
        # walkers hop to +-(n_p + 1) before they retire: 128 leaves int8,
        # and must retire rather than wrap around to the other lattice edge
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (4, 4), (n_p, 1), NAT)
        f0 = packet(grid, sigma_p=3.0, momentum=(edge * n_p * grid.dp[0], 0.0))
        # a short walk, so that most walkers reach t = 0 before they hop off
        cfg = SolverConfig(dt=0.01, t_end=0.05, boundary="periodic", n_particles=400,
                           rng_seed=3)
        target = (np.array([edge * n_p, 0]), np.array([0.3, -0.2]))
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(b0=0.5, e_grad=(0.3, -0.2)), cfg, target, grid, f0)
        assert retired > 0 and np.any(scores != 0.0)
        assert (capped, retired) == (ref_capped, ref_retired)
        assert np.array_equal(scores, ref)

    # (value.hex(), stderr.hex(), n_capped, n_retired) of mc_estimate_point,
    # recorded with the walk from hop to hop at the exponential proposal: a
    # change to the draw order or to the walk's arithmetic moves them
    WALK_PINS = {
        "gradient": ("0x1.9837b64ef72c6p-5", "0x1.3273fdfd3bbf9p-9", 49, 0),
        "e_gradient": ("-0x1.5f40c05290dd2p-11", "0x1.0ad9982b1ef5dp-10", 129, 12),
    }
    WALK_CASES = {
        # b1 != 0, 19 branches: the cap ends many walks
        "gradient": (LinearEMField(b0=2.0, b1=1.0), (np.array([0, 0]), np.array([0.0, 0.0])),
                     "periodic", 1.5),
        # b1 = 0, 5 branches, with force gradients: walks are capped and retired
        "e_gradient": (LinearEMField(b0=2.0, e_grad=(0.3, -0.2)),
                       (np.array([3, -1]), np.array([0.3, -0.2])), "zero", 16.0),
    }

    @pytest.mark.parametrize("case", list(WALK_PINS))
    def test_walk_is_pinned(self, case):
        field, target, boundary, cap = self.WALK_CASES[case]
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary=boundary, n_particles=400,
                           rng_seed=3, weight_cap=cap)
        est = mc_estimate_point(target, packet(G2, sigma_p=1.0), field, G2, cfg)
        got = (est.value.hex(), est.stderr.hex(), est.n_capped, est.n_retired)
        assert got == self.WALK_PINS[case]

    # the same at _CHUNK_WALKERS + 1 walkers, which walk two chunks, on the
    # grid and field of configs/mc_point_probe.json: its three targets
    # (periodic, b1 = 0, its own rate), and a target on the momentum
    # lattice's edge at boundary "zero" with the default rate, where walkers
    # retire.  These are uniform fields, recorded with the first hop walk;
    # probe_1, at m = (0, 0), has no hop rate and kept its value.
    CHUNK_PINS = {
        "probe_0": ("0x1.89cc8892c9b96p+44", "0x1.6617415312894p+36", 0, 0),
        "probe_1": ("0x1.f2e44e5ef2afap+43", "0x1.47ae147ae147ap-16", 0, 0),
        "probe_2": ("0x1.80fd69522f924p+43", "0x1.b30c2aa3d73fep+35", 0, 0),
        "edge_zero": ("0x1.d4a4140329810p+33", "0x1.ccc72eb4580bfp+29", 0, 419),
        # the first target with b1 = 1e7 at stencil_order 4 (33 branches),
        # recorded with the hop walk at the exponential proposal
        "b1_order4": ("0x1.9fa736a70f318p+44", "0x1.e0cb47b2f7352p+36", 0, 0),
    }

    @staticmethod
    def _probe():
        """Grid, field, solver config, initial state and targets of
        configs/mc_point_probe.json."""
        cfg = load_config(pathlib.Path(__file__).resolve().parents[1]
                          / "configs" / "mc_point_probe.json")
        grid = cfg.build_grid()
        targets = [(np.array(t.m_index), np.array(t.position_nm) * 1e-9)
                   for t in cfg.mc_targets]
        return (grid, cfg.build_field(), cfg.build_solver_config(),
                cfg.build_initial_state(grid), targets)

    @classmethod
    def _probe_case(cls, case):
        """Grid, field, solver config, initial state and target of a
        CHUNK_PINS case."""
        grid, field, scfg, f0, targets = cls._probe()
        if case == "edge_zero":
            scfg = dataclasses.replace(scfg, boundary="zero", gamma0=None)
            target = (np.array([grid.n_p[0], -2]), np.array([30e-9, -20e-9]))
        elif case == "b1_order4":
            field = dataclasses.replace(field, b1=1e7)
            scfg = dataclasses.replace(scfg, stencil_order=4)
            target = targets[0]
        else:
            target = targets[int(case[-1])]
        return grid, field, scfg, f0, target

    @pytest.mark.parametrize("case", list(CHUNK_PINS))
    def test_two_chunks_are_pinned(self, case):
        grid, field, scfg, f0, target = self._probe_case(case)
        scfg = dataclasses.replace(scfg, n_particles=montecarlo._CHUNK_WALKERS + 1)
        est = mc_estimate_point(target, f0, field, grid, scfg)
        got = (est.value.hex(), est.stderr.hex(), est.n_capped, est.n_retired)
        assert got == self.CHUNK_PINS[case]

    @staticmethod
    def _chunked(target, f0, field, grid, cfg, monkeypatch):
        """(value, stderr) of cfg.n_particles walks over the setup, chunks
        and seed streams of mc_estimate_point, chunk by chunk: a table
        bound of 0 columns, set after the setup split the walkers, gives
        each chunk a table of its own."""
        br = montecarlo._Branches(field, grid, cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_WALKERS", 0)
        walk, tables = montecarlo._walk, []

        def spy_walk(br, k, *args):
            tables.append(k)
            return walk(br, k, *args)

        monkeypatch.setattr(montecarlo, "_walk", spy_walk)
        scores = montecarlo._scores(br, target[0], target[1], f0.values)[0]
        assert tables == list(range(len(br.chunks)))
        return scores.mean(), scores.std(ddof=1) / np.sqrt(cfg.n_particles)

    def test_chunked_walks_the_estimates_chunks(self, monkeypatch):
        # _CHUNK_WALKERS + 1 walkers split evenly, 5001 + 5000, not 10000 + 1
        grid, field, scfg, f0, targets = self._probe()
        scfg = dataclasses.replace(scfg, n_particles=montecarlo._CHUNK_WALKERS + 1)
        est = mc_estimate_point(targets[0], f0, field, grid, scfg)
        value, stderr = self._chunked(targets[0], f0, field, grid, scfg, monkeypatch)
        assert (value.hex(), stderr.hex()) == (est.value.hex(), est.stderr.hex())

    def test_chunks_match_reference_chunk_by_chunk(self, monkeypatch):
        # two chunks, 5001 + 5000, walk one table; each chunk's scores are
        # the reference walk's from that chunk's stream [rng_seed, k]
        field = LinearEMField(b0=2.0, b1=1.0)
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic", n_particles=10001,
                           rng_seed=3, weight_cap=1.5)
        target = (np.array([0, 0]), np.array([0.0, 0.0]))
        f0 = packet(G2, sigma_p=1.0).values
        br = montecarlo._Branches(field, G2, cfg)
        walk, tables = montecarlo._walk, []

        def spy_walk(*args):
            result = walk(*args)
            tables.append((args[1], result[0]))
            return result

        monkeypatch.setattr(montecarlo, "_walk", spy_walk)
        scores, capped, retired = montecarlo._scores(br, target[0], target[1], f0)
        assert br.chunks == [5001, 5000] and tables == [(0, 2)]
        ref_capped = ref_retired = 0
        for k, n in enumerate(br.chunks):
            ref, cap, ret = hop_walk_reference(
                n, [cfg.rng_seed, k], target[0], target[1], t_end=cfg.t_end,
                gamma0=br.gamma0, weight_cap=cfg.weight_cap, dp=G2.dp, mass=G2.constants.mass,
                n_p=G2.n_p, dx=G2.dx, order=cfg.stencil_order,
                coefficients=self._table(field, br.gamma0),
                interp=lambda m, x: montecarlo._interp_initial(f0, G2, m.T, x.T, cfg.boundary,
                                                               cfg.stencil_order))
            assert np.array_equal(scores[br.offsets[k]:br.offsets[k + 1]], ref)
            ref_capped += cap
            ref_retired += ret
        assert capped > 0 and (capped, retired) == (ref_capped, ref_retired)

    def test_hop_heavy_walk_takes_two_tables(self, monkeypatch):
        # at b0 = 40 T and m = (5, 5) nearly every walker of the two 7500
        # walker chunks hops: the second chunk does not fit beside the first
        # and starts a table of its own, and no table passes _CHUNK_WALKERS
        grid, field, scfg, f0, targets = self._probe()
        field = dataclasses.replace(field, b0=40.0)
        scfg = dataclasses.replace(scfg, n_particles=15000)
        target = (np.array([5, 5]), targets[0][1])
        walk, tables = montecarlo._walk, []

        def spy_walk(*args):
            result = walk(*args)
            tables.append((args[1], result[0], result[1].size))
            return result

        monkeypatch.setattr(montecarlo, "_walk", spy_walk)
        mc_estimate_point(target, f0, field, grid, scfg)
        assert [table[:2] for table in tables] == [(0, 1), (1, 2)]
        assert all(0 < table[2] <= montecarlo._CHUNK_WALKERS for table in tables)

    @pytest.mark.parametrize("case", ["probe_0", "probe_1", "probe_2", "edge_zero",
                                      "field_free"])
    def test_rates_move_is_only_a_shortcut(self, case, monkeypatch):
        # without b1 or an E gradient the rates at the flight's end and at the
        # hop are the start's to the bit: evaluating them changes no output
        grid, field, scfg, f0, target = self._probe_case(
            "probe_0" if case == "field_free" else case)
        if case == "field_free":
            field = LinearEMField()
        scfg = dataclasses.replace(scfg, n_particles=montecarlo._CHUNK_WALKERS + 1)

        class Moving(montecarlo._Branches):
            def __init__(self, *args):
                super().__init__(*args)
                assert not self.rates_move
                self.rates_move = True

        runs = []
        for branches in (montecarlo._Branches, Moving):
            monkeypatch.setattr(montecarlo, "_Branches", branches)
            est = mc_estimate_point(target, f0, field, grid, scfg)
            runs.append((est.value.hex(), est.stderr.hex(), est.n_capped, est.n_retired))
        assert runs[0] == runs[1]
        if case != "field_free":
            assert runs[0] == self.CHUNK_PINS[case]

    @pytest.mark.parametrize("case", ["probe_0", "probe_1", "b1_order4"])
    def test_walks_without_a_hop_share_one_score(self, case, monkeypatch):
        # every walker starts at the target, so the walks that never hop end
        # at one point with one weight: an estimate scores that point once,
        # then the end point of each walk that hopped.  None of these walks is
        # capped or retired, and the walks that never hop share the most
        # common score; probe_1, at m = (0, 0), has no hop rate
        grid, field, scfg, f0, target = self._probe_case(case)
        scfg = dataclasses.replace(scfg, n_particles=montecarlo._CHUNK_WALKERS + 1)
        interp, run_scores = montecarlo._interp_initial, montecarlo._scores
        positions, scores = [], []

        def spy_interp(values, grid, midx, pos, boundary, order):
            positions[-1] += pos.shape[1]
            return interp(values, grid, midx, pos, boundary, order)

        def spy_scores(br, *args):
            positions.append(0)
            result = run_scores(br, *args)
            scores.extend(np.split(result[0], br.offsets[1:-1]))
            return result

        monkeypatch.setattr(montecarlo, "_interp_initial", spy_interp)
        monkeypatch.setattr(montecarlo, "_scores", spy_scores)
        est = mc_estimate_point(target, f0, field, grid, scfg)
        assert (est.value.hex(), est.stderr.hex(), est.n_capped, est.n_retired) \
            == self.CHUNK_PINS[case]
        # the estimate scores the shared end point once for both chunks
        assert len(positions) == 1 and len(scores) == 2
        hopped = [chunk.size - np.unique(chunk, return_counts=True)[1].max()
                  for chunk in scores]
        assert positions[0] == 1 + sum(hopped)
        for chunk, n_hopped in zip(scores, hopped):
            assert n_hopped < chunk.size
            assert (n_hopped == 0) == (case == "probe_1")

    # b1 = 1e7 T/m on the probe's grid at its first target, also with an E
    # gradient of 1e13 V/m^2, whose hop rates move by several 1e12 /s along
    # a flight, and on a zero boundary 3 nm inside the window's lower y edge,
    # where the walkers fly out of the window: (field changes, solver config
    # changes, target m and position in nm).  The hops' signed corrections
    # nearly cancel in the mean, so a walk without the factor lam / mu shows
    # in the stderr ratio: 1.36-1.39 with the E gradient, against 0.98-0.99
    AGREE_CASES = {
        "b1_order2": (dict(b1=1e7), dict(), ((1, 0), (0.0, 0.0))),
        "b1_order4": (dict(b1=1e7), dict(stencil_order=4), ((1, 0), (0.0, 0.0))),
        "b1_e_gradient": (dict(b1=1e7, e_grad=(1e13, -5e12)), dict(), ((1, 0), (0.0, 0.0))),
        "b1_zero_boundary": (dict(b1=1e7), dict(boundary="zero"), ((1, 3), (0.0, -47.0))),
    }

    @pytest.mark.parametrize("case", list(AGREE_CASES))
    def test_walk_agrees_with_collision_walk(self, case):
        # the collision walk samples every rate-compensation collision: it is
        # the same estimator, on a seed stream independent of the walk's
        grid, field, scfg, f0, _ = self._probe()
        field_change, cfg_change, (m, x_nm) = self.AGREE_CASES[case]
        field = dataclasses.replace(field, **field_change)
        scfg = dataclasses.replace(scfg, n_particles=100000, **cfg_change)
        target = (np.array(m), np.array(x_nm) * 1e-9)
        est = mc_estimate_point(target, f0, field, grid, scfg)
        scores = walk_reference(
            scfg.n_particles, [scfg.rng_seed + 1, 0], target[0], target[1],
            t_end=scfg.t_end, gamma0=est.gamma0, weight_cap=scfg.weight_cap, dp=grid.dp,
            mass=grid.constants.mass, n_p=grid.n_p, dx=grid.dx, order=scfg.stencil_order,
            coefficients=self._table(field, est.gamma0, grid, scfg.stencil_order),
            interp=lambda m, x: montecarlo._interp_initial(
                f0.values, grid, m.T, x.T, scfg.boundary, scfg.stencil_order))[0]
        ref, ref_err = scores.mean(), scores.std(ddof=1) / np.sqrt(scores.size)
        assert abs(est.value - ref) <= 4.0 * np.hypot(est.stderr, ref_err)
        assert 0.85 <= est.stderr / ref_err <= 1.15

    def test_rate_free_walk_takes_one_round(self, monkeypatch):
        # m = (0, 0) has no hop rate in uniform B: at the default rate every
        # walk flies to t = 0 in its first round and scores f0 at the target
        monkeypatch.setattr(montecarlo, "_MAX_ROUNDS", 1)
        field = LinearEMField(b0=2.0)
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic", n_particles=300,
                           rng_seed=3)
        f0 = packet(G2, sigma_p=1.0)
        target = (np.array([0, 0]), np.array([0.3, -0.2]))
        est = mc_estimate_point(target, f0, field, G2, cfg)
        coeffs = linear_coefficients(field, G2)
        scores, capped, retired = montecarlo._scores(
            montecarlo._Branches(field, G2, cfg), target[0], target[1], f0.values)
        at_target = montecarlo._interp_initial(f0.values, G2, target[0][:, None],
                                               target[1][:, None], cfg.boundary,
                                               cfg.stencil_order)
        assert est.gamma0 == default_gamma0(coeffs, G2, cfg) and capped == retired == 0
        assert np.array_equal(scores, np.repeat(at_target, cfg.n_particles))

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    @pytest.mark.parametrize("on", ["G2", "probe"])
    def test_scoring_matches_reference(self, on, boundary, order):
        # positions over three windows per axis, and every window edge and
        # multiple of omega with its neighbours one ulp away.  At omega = pi
        # the one one ulp below -omega/2 lies so close to the window that
        # np.mod rounds it up to omega; the probe's omega has no such offset.
        # At order 2 the reference's weights are the walk's to the bit; at
        # order 4 it multiplies the Lagrange products in another order.
        grid = G2 if on == "G2" else self._probe()[0]
        rng = np.random.default_rng(41)
        n = 4000
        pos = np.empty((2, n))
        for c, omega in enumerate(grid.omega_extent):
            marks = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) * omega
            marks = np.concatenate([marks, np.nextafter(marks, -np.inf),
                                    np.nextafter(marks, np.inf)])
            pos[c] = rng.uniform(-1.5 * omega, 1.5 * omega, n)
            pos[c, c::2][:marks.size] = marks
            if on == "G2":
                assert np.any(np.mod(pos[c] + 0.5 * omega, omega) == omega)
        midx = np.stack([rng.integers(-m, m + 1, n) for m in grid.n_p]).astype(np.int8)
        f0 = packet(grid, sigma_p=1.0).values if on == "G2" else self._probe()[3].values
        got = montecarlo._interp_initial(f0, grid, midx, pos, boundary, order)
        ref = interp_initial_reference(f0, grid, midx, pos, boundary, order)
        if order == 2:
            assert got.tobytes() == ref.tobytes()
        else:
            assert np.any(got != 0.0)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(f0).max())

    def test_stencil_order_sets_the_curvature_taps(self):
        # with b1 the walk's curvature branches follow the spatial stencil
        field, target, boundary, cap = self.WALK_CASES["gradient"]
        estimates = [mc_estimate_point(
            target, packet(G2, sigma_p=1.0), field, G2,
            SolverConfig(dt=0.02, t_end=0.4, boundary=boundary, n_particles=400,
                         rng_seed=3, weight_cap=cap, stencil_order=order))
            for order in (2, 4)]
        assert estimates[0].value != estimates[1].value
        assert estimates[0].gamma0 < estimates[1].gamma0

    ROW_FIELDS = {"uniform": LinearEMField(b0=0.8),
                  "e_gradient": LinearEMField(b0=0.3, e_grad=(0.4, -0.25)),
                  "b1": LinearEMField(b0=0.5, b1=0.9)}

    @staticmethod
    def _walk_matrix(field, grid, cfg, gamma0):
        """The walk's signed branch rows at the cell centres, one per lattice
        point, from its branch table and hop rates: each branch adds its
        signed coefficient at the point it moves to, and moves off the
        momentum lattice are dropped (the kernel zero-fills them)."""
        br = montecarlo._Branches(field, grid, cfg)
        nb, shape = br.nb, grid.state_shape
        n = math.prod(shape)
        idx = np.indices(shape).reshape(4, n)
        midx = idx[:2] - np.array(grid.n_p)[:, None]
        pos = np.stack([grid.x_axes[c][idx[2 + c]] for c in range(2)])
        h_x, h_y = montecarlo._hop_rates(midx * np.array(grid.dp)[:, None], pos, field, grid,
                                         np.empty((2, n)))
        rates = np.concatenate([np.full((1, n), gamma0), np.abs([h_x, h_x, h_y, h_y]),
                                np.repeat(br.power[5:, None], n, axis=1)])
        bits = (h_x < 0) + 2 * (h_y < 0)
        signed = br.sign[np.arange(nb)[:, None] + nb * bits] * rates
        cells = np.rint(br.position_moves[:, :nb] / np.array(grid.dx)[:, None]).astype(int)
        to = idx[:, None, :] + np.concatenate([br.moves[:, :nb], cells])[:, :, None]
        on = np.all((to[:2] >= 0) & (to[:2] < np.array(grid.n_s)[:, None, None]), axis=0)
        to[2:] %= np.array(grid.n_x)[:, None, None]
        rows = np.broadcast_to(np.arange(n), (nb, n))
        matrix = np.zeros((n, n))
        np.add.at(matrix, (rows[on], np.ravel_multi_index(tuple(to[:, on]), shape)),
                  signed[on])
        return matrix

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("case", list(ROW_FIELDS))
    def test_walk_rows_are_kernel_rows(self, case, order):
        field, grid = self.ROW_FIELDS[case], GR
        cfg = SolverConfig(dt=0.1, t_end=0.1, boundary="periodic", stencil_order=order)
        kernel = kernel_matrix(field, grid, cfg, 3.0)
        walk = self._walk_matrix(field, grid, cfg, 3.0)
        np.testing.assert_allclose(walk, kernel, rtol=0.0, atol=1e-13 * np.abs(kernel).max())

    @pytest.mark.parametrize("n", [1, 3, 64, 1000])
    def test_rates_and_total_follow_the_table(self, n):
        rng = np.random.default_rng(n)
        midx = rng.integers(-4, 5, size=(2, n))
        pos = rng.uniform(-1.5, 1.5, size=(2, n))
        field = LinearEMField(b0=2.0, b1=-0.7, e_grad=(0.3, -0.2))
        table = self._table(field, 7.0)(midx.T, pos.T)
        h_x, h_y = montecarlo._hop_rates(midx * np.array(G2.dp)[:, None], pos, field, G2,
                                         np.empty((2, n)))
        assert np.array_equal(h_x, table[:, 2]) and np.array_equal(h_y, table[:, 4])
        k = np.zeros(19)
        k[5:] = continuum.curvature_branches(linear_coefficients(field, G2), G2, 2)[2]
        assert np.array_equal(k[5:], table[0, 5:])
        # the walk's total: the running sum of branches 0-4 plus the curvature mass
        br = montecarlo._Branches(field, G2, SolverConfig(dt=0.02, t_end=0.4))
        a_x, a_y = np.abs(h_x), np.abs(h_y)
        total = 7.0 + a_x + a_x + a_y + a_y + br.curvature_mass
        absc = np.abs(table)
        assert np.array_equal(total, absc[:, :5].cumsum(axis=1)[:, -1] + absc[:, 5:].sum(axis=1))

    @staticmethod
    def _walk_peak(n_particles, b1=0.0, order=2, b0=None, m=None):
        """tracemalloc peak of one estimate on the grid and first target of
        the mc_probe benchmark workload, which is mc_point_probe.json at
        15000 walkers, with the field's b1 and the stencil order set, and
        b0 and the target's momentum index when given."""
        grid, field, scfg, f0, targets = TestMonteCarlo._probe()
        field = dataclasses.replace(field, b1=b1, **({} if b0 is None else {"b0": b0}))
        scfg = dataclasses.replace(scfg, n_particles=n_particles, stencil_order=order)
        target = targets[0] if m is None else (np.array(m), targets[0][1])
        mc_estimate_point(target, f0, field, grid, scfg)
        return allocation_peak(lambda: mc_estimate_point(target, f0, field, grid, scfg))

    # 0.2969 MiB measured on two chunks of 7500 walkers, of which about 500
    # hop and enter the walk table, plus 10%.  The walk that tabled every
    # walker peaked at 1.1244 MiB (157 B per walker of a chunk), and the
    # walk that scored in every round at 2.27 MiB
    CHUNK_PEAK = 0.2969 * 1.1 * 2 ** 20
    # the bound of the walk that tabled every walker: 1.1244 MiB plus 10%
    TABLE_PEAK = 1.1244 * 1.1 * 2 ** 20

    # with b1 a hop adds 14 or 28 curvature branches and evaluates the rates
    # at the flight's end and at the hop, and no round allocates a
    # walker-sized float array at either order
    @pytest.mark.parametrize("b1, order", [(0.0, 2), (1e7, 2), (1e7, 4)],
                             ids=["probe", "b1_order2", "b1_order4"])
    def test_walk_memory_per_walker(self, b1, order):
        assert self._walk_peak(15000, b1, order) <= self.CHUNK_PEAK

    def test_hop_heavy_walk_memory(self):
        # at b0 = 40 T and m = (5, 5) only 16 of a chunk's 7500 walkers never
        # hop: the walk table holds nearly every walker beside round 1's
        # draws, and stays under the bound of the walk that tabled them all.
        # That walk peaked at 1.0396 MiB here, this one at 1.0441 MiB
        assert self._walk_peak(15000, b0=40.0, m=(5, 5)) <= self.TABLE_PEAK

    def test_walk_memory_is_bounded_by_the_chunk_size(self):
        # chunks hold at most _CHUNK_WALKERS walkers, so beyond one chunk's
        # tables the peak grows only by the scores, 16 B per walker: the
        # chunks' scores and their concatenation, or that and std's
        # temporary.  One table for all 100000 walkers peaks at 14.8 MiB.
        assert self._walk_peak(100000) <= self.CHUNK_PEAK + 24 * 100000

    def test_hop_rates_with_b1_allocate_no_walker_array(self):
        # b_z = b0 + b1 y is built in the rates' own row; taking it as a
        # temporary allocated 1.01 walker arrays per call
        grid, field, _, _, _ = self._probe()
        field = dataclasses.replace(field, b1=1e7)
        rng = np.random.default_rng(29)
        n = 7500
        p = rng.integers(-6, 7, size=(2, n)) * np.array(grid.dp)[:, None]
        pos = rng.uniform(-40e-9, 40e-9, size=(2, n))
        h = np.empty((2, n))
        montecarlo._hop_rates(p, pos, field, grid, h)
        expect = h.copy()
        assert allocation_peak(lambda: montecarlo._hop_rates(p, pos, field, grid, h)) \
            < 0.1 * 8 * n
        assert np.array_equal(h, expect)

    def test_uniform_field_has_no_curvature_power(self):
        # without b1 the walk samples branches 0-4 only
        rng = np.random.default_rng(23)
        midx = rng.integers(-4, 5, size=(50, 2))
        pos = rng.uniform(-1.5, 1.5, size=(50, 2))
        field = LinearEMField(b0=2.0, e_grad=(0.3, -0.2))
        assert np.all(self._table(field, 7.0)(midx, pos)[:, 5:] == 0.0)
        for order in (2, 4):
            assert montecarlo._Branches(field, G2, SolverConfig(
                dt=0.02, t_end=0.4, stencil_order=order)).nb == 5

    def test_walk_ending_in_the_last_allowed_round_returns(self, monkeypatch):
        # at this rate every walker reaches t = 0 in its first round
        monkeypatch.setattr(montecarlo, "_MAX_ROUNDS", 1)
        cfg = SolverConfig(dt=0.04, t_end=0.2, gamma0=1e-6, boundary="periodic",
                           n_particles=50, rng_seed=11)
        est = mc_estimate_point((np.array([1, -1]), np.array([0.3, -0.2])),
                                packet(G2, sigma_p=1.0), LinearEMField(b0=0.5), G2, cfg)
        assert np.isfinite(est.value) and est.n_capped == est.n_retired == 0

    def test_rejects_bad_targets_and_fields(self):
        cfg = SolverConfig(dt=0.02, t_end=0.1, n_particles=10)
        f0 = packet(G2)
        with pytest.raises(ValueError, match="outside the lattice"):
            mc_estimate_point((np.array([9, 0]), np.zeros(2)), f0, LinearEMField(), G2, cfg)
        # the window is closed: |x| <= omega / 2 on each axis
        edge = 0.5 * G2.omega_extent[1]
        mc_estimate_point((np.zeros(2, int), np.array([0.0, -edge])), f0, LinearEMField(),
                          G2, cfg)
        for x in (np.array([0.0, np.nextafter(-edge, -np.inf)]), np.array([5.0, 0.0])):
            with pytest.raises(ValueError, match="outside the spatial window"):
                mc_estimate_point((np.zeros(2, int), x), f0, LinearEMField(), G2, cfg)
        # a fractional index would run truncated, a wrong length fail in broadcasting
        for target in (([1.7, 0.2], [0.1, 0.0]), ([1, 0, 0], [0.1, 0.0]),
                       ([1], [0.1, 0.0]), ([1, 0], [0.1]), ([1, 0], [[0.1, 0.0]])):
            with pytest.raises(ValueError, match=r"target \(.*must be 2 integer"):
                mc_estimate_point(target, f0, LinearEMField(), G2, cfg)
        axes = (np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
        zeros = np.zeros((5, 5, 3))
        sampled = SampledEMField(axes, zeros, zeros)
        with pytest.raises(ValueError, match="closed-form"):
            mc_estimate_point((np.array([0, 0]), np.zeros(2)), f0, sampled, G2, cfg)


def _bilinear(plane, grid, point):
    """Reference bilinear sample on one spatial plane, zero outside."""
    out = 0.0
    for c, (omega, h) in enumerate(zip(grid.omega_extent, grid.dx)):
        fi = (point[c] + 0.5 * omega) / h - 0.5
        i0 = int(np.floor(fi))
        t = fi - i0
        if c == 0:
            ix, tx = i0, t
        else:
            iy, ty = i0, t
    n0, n1 = plane.shape
    for a, wa in ((ix, 1 - tx), (ix + 1, tx)):
        for b, wb in ((iy, 1 - ty), (iy + 1, ty)):
            if 0 <= a < n0 and 0 <= b < n1:
                out += wa * wb * plane[a, b]
    return out


# ---------------------------------------------------------------------------
# kernel-table reference route
# ---------------------------------------------------------------------------

TABLE_GRIDS = pytest.mark.parametrize("grid", [G2S, G2U], ids=["G2S", "G2U"])


class TestGeneralAssembler:
    # order 2, zero boundaries: the stencil the expansions below are written with
    cfg = SolverConfig(dt=0.01, t_end=0.1)

    def lam(self, m, grid, axis):
        # first-moment table over i hbar: the real ladder weight
        return (lattice_first_moment(m, grid.coherence_length[axis],
                                     grid.n_s[axis]) / 1j).real

    def rhs(self, field, grid):
        kern = compute_kernels(field, grid, include_square=False)
        return fresh(table_route.make_rhs(kern, grid, self.cfg))

    @TABLE_GRIDS
    def test_uniform_electric_matches_lattice_ladder(self, grid):
        field = UniformField(e=(0.4, -0.7, 0.0))
        f = packet(grid, sigma_p=1.1).values
        out = self.rhs(field, grid)(f)
        expect = advection(f, grid, 2, "zero")
        for m in range(-grid.n_p[0], grid.n_p[0] + 1):
            if m:
                expect -= 0.4 * self.lam(m, grid, 0) * sample_shift(f, 0, -m)
        for m in range(-grid.n_p[1], grid.n_p[1] + 1):
            if m:
                expect -= -0.7 * self.lam(m, grid, 1) * sample_shift(f, 1, -m)
        assert rel_l2(out, expect) < 1e-12

    @TABLE_GRIDS
    def test_uniform_magnetic_matches_lorentz_bracket(self, grid):
        b0 = 0.9
        f = packet(grid, sigma_p=1.1, momentum=(0.5, -0.3)).values
        out = self.rhs(LinearEMField(b0=b0), grid)(f)
        px = grid.p_axes[0].reshape(-1, 1, 1, 1)
        py = grid.p_axes[1].reshape(1, -1, 1, 1)
        expect = advection(f, grid, 2, "zero")
        for m in range(-grid.n_p[1], grid.n_p[1] + 1):
            if m:
                expect += b0 * self.lam(m, grid, 1) * px * sample_shift(f, 1, -m)
        for m in range(-grid.n_p[0], grid.n_p[0] + 1):
            if m:
                expect -= b0 * self.lam(m, grid, 0) * py * sample_shift(f, 0, -m)
        assert rel_l2(out, expect) < 1e-12

    @TABLE_GRIDS
    def test_gradient_field_pairing_from_tables(self, grid):
        # the assembled route couples the even second-moment family to the x
        # gradient on the zero x-offset slice and the odd-odd product to the
        # y gradient: opposite to the closed-form ladder equation's layout
        b1 = 0.8
        f = packet(grid, sigma_p=1.1).values
        out = self.rhs(LinearEMField(b0=0.0, b1=b1), grid)(f)

        y = grid.x_axes[1].reshape(1, 1, 1, -1)
        px = grid.p_axes[0].reshape(-1, 1, 1, 1)
        py = grid.p_axes[1].reshape(1, -1, 1, 1)
        dxf = spatial_derivative(f, grid, 0, 2, "zero")
        dyf = spatial_derivative(f, grid, 1, 2, "zero")
        expect = advection(f, grid, 2, "zero")
        ny = grid.n_s[1]
        for m in range(-grid.n_p[1], grid.n_p[1] + 1):
            s2 = lattice_second_moment(m, grid.coherence_length[1], ny).real
            if m:
                expect += b1 * y * self.lam(m, grid, 1) * px * sample_shift(f, 1, -m)
            expect -= (b1 / 12.0) * s2 * sample_shift(dxf, 1, -m)
        for mx in range(-grid.n_p[0], grid.n_p[0] + 1):
            if mx:
                expect -= b1 * y * self.lam(mx, grid, 0) * py * sample_shift(f, 0, -mx)
            for my in range(-grid.n_p[1], grid.n_p[1] + 1):
                if mx and my:
                    lxy = self.lam(mx, grid, 0) * self.lam(my, grid, 1)
                    shifted = sample_shift(sample_shift(dyf, 0, -mx), 1, -my)
                    expect -= (b1 / 12.0) * lxy * shifted
        assert rel_l2(out, expect) < 1e-12

    def test_tables_are_reduced_once(self, monkeypatch):
        calls = []
        original = table_route._field_tables

        def counting(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(table_route, "_field_tables", counting)
        rhs = self.rhs(LinearEMField(b0=0.5, b1=0.8), G2S)
        f = packet(G2S).values
        first = rhs(f)
        for _ in range(2):
            assert np.array_equal(rhs(f), first)
        assert len(calls) == 1

    def test_call_allocates_no_state_sized_temporaries(self):
        # a 162 KiB state: NumPy's ufunc buffers (8192 items) stay well below it
        grid = make_grid(2, (TAU, TAU), (np.pi, np.pi), (16, 16), (4, 4), NAT)
        # every coupling present: electric, Lorentz and gradient spectra
        field = LinearEMField(b0=0.5, b1=0.8, e_grad=(0.3, -0.2))
        rhs = table_route.make_rhs(compute_kernels(field, grid, include_square=False),
                               grid, self.cfg)
        f = packet(grid).values
        out = np.empty_like(f)
        rhs(f, out)
        got = []
        peak = allocation_peak(lambda: got.append(rhs(f, out)))
        assert got[0] is out
        assert peak <= 2 * f.nbytes

    def test_requires_full_grid_tables(self):
        field = LinearEMField(b0=1.0)
        kern = compute_kernels(field, G2S, x_points=np.zeros((1, 2)),
                               include_square=False)
        with pytest.raises(ValueError, match="full spatial grid"):
            table_route.make_rhs(kern, G2S, self.cfg)


@pytest.mark.parametrize("route", [semidiscrete, continuum, table_route],
                         ids=["semidiscrete", "continuum", "general"])
def test_make_rhs_requires_config(route):
    # no route falls back to a default stencil or boundary
    config = inspect.signature(route.make_rhs).parameters["config"]
    assert config.default is inspect.Parameter.empty


class TestEventRate:
    def test_zero_field_falls_back(self):
        cfg = SolverConfig(dt=0.02, t_end=0.5)
        coeffs = linear_coefficients(LinearEMField(), G2)
        assert default_gamma0(coeffs, G2, cfg) == pytest.approx(1.0 / 0.5)

    def test_dominated_by_force_rows(self):
        field = LinearEMField(b0=0.8)
        rate = default_gamma0(linear_coefficients(field, G2), G2,
                              SolverConfig(dt=0.02, t_end=0.5))
        # strongest row: |P_y| = 4, |B| = 0.8 on both axes
        expect = 4 * 0.8 / G2.dp[0] + 4 * 0.8 / G2.dp[1]
        assert rate == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("method", ["mc", "fredholm"])
    def test_a_solve_tabulates_the_coefficients_once(self, method, monkeypatch):
        # the default rate reads the table the walk's branches or the kernel use
        calls = []
        solver = montecarlo if method == "mc" else fredholm
        original = kernels.linear_coefficients

        def counting(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(kernels, "linear_coefficients", counting)
        monkeypatch.setattr(solver, "linear_coefficients", counting)
        field = LinearEMField(b0=0.5, b1=0.9)
        cfg = SolverConfig(dt=0.02, t_end=0.04, boundary="periodic", n_particles=10)
        f0 = packet(G2, sigma_p=1.0)
        if method == "mc":
            mc_estimate_point((np.array([0, 0]), np.zeros(2)), f0, field, G2, cfg)
        else:
            fredholm.solve_fredholm_resolvent(f0, field, G2, cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [2, 4])
    def test_curvature_mass_is_the_kernel_row_mass(self, order):
        # at momentum (0, 0) the force vanishes without E, so the row of K
        # holds the gradient block alone
        field = LinearEMField(b0=0.5, b1=0.9)
        cfg = SolverConfig(dt=0.1, t_end=0.1, boundary="periodic", stencil_order=order)
        row = np.ravel_multi_index(GR.n_p + (3, 2), GR.state_shape)
        kernel_row = kernel_matrix(field, GR, cfg, 0.0)[row]
        curv = continuum.curvature_branches(linear_coefficients(field, GR), GR, order)[2]
        assert curv.size == (14 if order == 2 else 28)
        assert np.abs(curv).sum() == pytest.approx(np.abs(kernel_row).sum(), rel=1e-13)
