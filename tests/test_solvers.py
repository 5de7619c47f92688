"""Solver tests: operator algebra against brute force, conservation laws,
cross-route consistency, and the stochastic estimator's statistics."""

import dataclasses
import inspect
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdwigner import make_grid
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
                     free_flight_rows, fresh, lattice_first_moment, lattice_second_moment,
                     rk4_classic, roll_derivative, walk_coefficients, walk_reference)

NAT = PhysicalConstants(hbar=1.0, charge=1.0, mass=1.0)
TAU = 2.0 * np.pi

# dP = 1 on both axes; dx = pi/8; velocities reach +-4
G2 = make_grid(2, (TAU, TAU), (np.pi, np.pi), (8, 8), (4, 4), NAT)
# coarse grid for the kernel-table reference route (49 offsets per term)
G2S = make_grid(2, (TAU, TAU), (np.pi, np.pi), (4, 4), (3, 3), NAT)
G1 = make_grid(1, TAU, np.pi, 16, 2, NAT)
# unequal axes, so a swapped axis or a transposed stack cannot pass unseen
G2U = make_grid(2, (TAU, 4.0), (np.pi, 2.0), (7, 5), (3, 2), NAT)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def allocation_peak(call):
    """Bytes `call()` held at its peak under tracemalloc, beyond what was held before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


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


def bound_workspace(rhs):
    """The Workspace a route's make_rhs bound into its closure."""
    return next(cell.cell_contents for cell in rhs.__closure__
                if isinstance(cell.cell_contents, solver_common.Workspace))


class TestWorkingMemory:
    @pytest.mark.parametrize("route", [semidiscrete, continuum],
                             ids=["semidiscrete", "continuum"])
    def test_rhs_call_allocates_less_than_a_state(self, route):
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        rhs = route.make_rhs(linear_coefficients(GRADIENT_FIELD, GB), GB, cfg)
        # the sweep covers GB in several blocks
        assert len(bound_workspace(rhs).blocks) > 1
        f = packet(GB).values
        before = f.copy()
        out = np.empty_like(f)
        rhs(f, out)
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            assert rhs(f, out) is out
            allocated = tracemalloc.get_traced_memory()[1] - current
        finally:
            tracemalloc.stop()
        assert allocated < f.nbytes
        assert np.array_equal(f, before)

    @pytest.mark.parametrize("field, products, held", [
        (GRADIENT_FIELD, {semidiscrete: 2, continuum: 0}, {semidiscrete: 1, continuum: 2}),
        (LinearEMField(b0=0.8), {semidiscrete: 1, continuum: 0}, {semidiscrete: 0, continuum: 1}),
        (LinearEMField(), {semidiscrete: 0, continuum: 0}, {semidiscrete: 1, continuum: 1})],
        ids=["gradient", "force_only", "free"])
    @pytest.mark.parametrize("route", [semidiscrete, continuum],
                             ids=["semidiscrete", "continuum"])
    def test_workspace_holds_a_temporary_only_for_momentum_terms(self, route, field, products,
                                                                 held):
        """State-sized memory is one whole-state product per distinct
        wide-band momentum-x matrix (the ladder's gradient block adds the
        box on P_x to the odd band); the small-spacing route's d/dP_x is
        tridiagonal, so it forms its product per block and holds none.  The
        sweep's scratch is at most two blocks: a block-local product and one
        term, or none where a spent whole-state product block serves."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        rhs = route.make_rhs(linear_coefficients(field, GB), GB, cfg)
        work = bound_workspace(rhs)
        assert work.products.shape == (products[route],) + GB.state_shape
        f = packet(GB).values
        rhs(f, np.empty_like(f))
        assert len(work.held) == held[route]
        assert all(block.size == work.block_size for block in work.held)

    @pytest.mark.parametrize("route, field, products, blocks", [
        (semidiscrete, GRADIENT_FIELD, 2, 2), (continuum, LinearEMField(b0=0.8), 0, 2),
        (continuum, GRADIENT_FIELD, 0, 3)],
        ids=["ladder_gradient", "continuum_force_only", "continuum_gradient"])
    def test_stepped_working_set(self, route, field, products, blocks):
        """A run holds the state, two step buffers and one whole-state
        product per wide-band momentum-x matrix (none on the small-spacing
        route).  Beyond them come the velocity stacks, one (rows, n, n)
        array per spatial axis, and within `blocks` blocks the sweep's held
        scratch plus one block for the small matrices and NumPy's buffers."""
        cfg = SolverConfig(dt=1e-3, t_end=1e-2, boundary="periodic", stencil_order=4)
        coeffs = linear_coefficients(field, GB)
        f0 = packet(GB, momentum=(1.0, -0.5)).values
        work = bound_workspace(route.make_rhs(coeffs, GB, cfg))
        stacks = sum(stack.nbytes for stack in work.stacks)
        peak = allocation_peak(
            lambda: evolve(f0, route.make_rhs(coeffs, GB, cfg), GB, cfg, n_steps=2))
        assert peak <= (3 + products) * f0.nbytes + stacks + blocks * 8 * work.block_size

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
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            got = solver_common.boundary_mass_fraction(f, GB)
            allocated = tracemalloc.get_traced_memory()[1] - current
        finally:
            tracemalloc.stop()
        assert allocated < f.nbytes / 4
        assert got == pytest.approx(boundary_fraction(f, GB.dim), rel=1e-13)

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
    f = np.zeros(grid.state_shape)
    rhs(f, np.empty_like(f))     # the first call fills the held scratch blocks
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
        for array in (work.products, *work.held, *(s for s in work.stacks if s is not None)):
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


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class TestStepping:
    def test_rk4_order(self):
        # the stage contract: rhs(v, out, scale, base) writes base + scale L v
        rhs = lambda v, out, scale, base: np.subtract(base, scale * v, out=out)
        for dt in (0.1, 0.05):
            err = abs(rk4_step(np.array(1.0), dt, rhs, np.empty(()), np.empty(())) - np.exp(-dt))
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
        out, scratch = np.empty_like(f), np.empty_like(f)
        assert rk4_step(f, 0.1, rhs, out, scratch) is out
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
                a = rk4_step(a, cfg.dt, rhs_a, np.empty_like(a), np.empty_like(a))
                b = rk4_step(b, cfg.dt, rhs_b, np.empty_like(b), np.empty_like(b))
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
        held = sum(block.nbytes for block in work.held)
        small = setup + call + 16 * 1024
        solve = allocation_peak(lambda: solve_fredholm_resolvent(f0, field, grid, cfg))
        assert len(work.products) == 0
        assert solve < (n_t + 3) * f0.nbytes + held + stacks + small
        return work, solve, stacks

    def test_held_kernel_and_flight_allocate_no_state(self):
        """On a state larger than NumPy's 64 KiB ufunc buffer, a kernel call
        and a free flight into the warmed workspace allocate less than half a
        state, and write the bits of the same call on a fresh workspace,
        whatever the workspace held before."""
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
        continuum.force_and_quantum(f, out, work, gamma0=2.0)
        advect_free_flight(flight_ops, f, out, 0.5, work)

        def spoil():
            for array in work.held:
                array.fill(np.nan)

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
        give the bits of the whole-state batched matmuls.  The first flight
        grows `held` to its two intermediates, and a flight into the warmed
        workspace allocates under half a block (1/26 state), so no block
        takes fresh scratch."""
        cfg = SolverConfig(dt=2e-14, t_end=1e-13, boundary="zero", stencil_order=4)
        work = continuum.make_kernel(linear_coefficients(field, MULTI_BLOCK), MULTI_BLOCK, cfg)
        assert len(work.blocks) == 13
        x_stack, y_stack = ops = free_flight_operators(MULTI_BLOCK, 3 * cfg.dt, cfg.boundary)
        f, start = np.random.default_rng(61).normal(size=(2,) + MULTI_BLOCK.state_shape)
        flown = (x_stack[:, None] @ f[None]).reshape(f.shape) @ y_stack
        out = np.full_like(f, np.nan)
        assert advect_free_flight(ops, f, out, 0.7, work) is out
        assert out.tobytes() == (0.7 * flown).tobytes()
        # d/dP_x is formed per block, so both intermediates are held blocks
        assert len(work.products) == 0
        assert len(work.held) == 2
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
    def _table(field, gamma0, grid=G2):
        """The oracle's (k, 19) coefficient table on grid, as a function of
        (midx, pos) with one row per walker."""
        return lambda m, x: walk_coefficients(
            m, x, gamma0=gamma0, dp=grid.dp, dx=grid.dx, charge=NAT.charge, mass=NAT.mass,
            hbar=NAT.hbar, b0=field.b0, b1=field.b1, e_grad=field.e_grad)

    @classmethod
    def _walk_and_reference(cls, field, cfg, target, grid=G2, f0=None):
        """(scores, n_capped, n_retired) of one chunk, from the walk and from
        the full-table reference walk over all 19 branches."""
        f0 = packet(grid, sigma_p=1.0).values if f0 is None else f0.values
        gamma0 = default_gamma0(field, grid, cfg)
        seed = [cfg.rng_seed, 0]
        got = montecarlo._run_chunk(cfg.n_particles, seed, target[0], target[1], f0,
                                    field, grid, cfg, gamma0)
        ref = walk_reference(
            cfg.n_particles, seed, target[0], target[1], t_end=cfg.t_end, gamma0=gamma0,
            weight_cap=cfg.weight_cap, dp=grid.dp, mass=NAT.mass, n_p=grid.n_p, dx=grid.dx,
            coefficients=cls._table(field, gamma0, grid),
            interp=lambda m, x: montecarlo._interp_initial(f0, grid, m.T, x.T, cfg.boundary))
        return got, ref

    @pytest.mark.parametrize("b1", [1.0, 0.0], ids=["gradient", "uniform"])
    def test_walk_matches_reference(self, b1):
        # the weight cap of test_weight_cap_tallied: capped walkers leave mid-walk
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="periodic",
                           n_particles=400, rng_seed=3, weight_cap=1.5)
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(b0=2.0, b1=b1), cfg, (np.array([0, 0]), np.array([0.0, 0.0])))
        if b1:
            assert capped > 0
            assert np.array_equal(scores, ref)
        else:
            # 5 branches: the |coefficient| total is summed in another order
            np.testing.assert_allclose(scores, ref, rtol=1e-12, atol=0.0)
        assert (capped, retired) == (ref_capped, ref_retired)

    @pytest.mark.parametrize("b1", [1.0, 0.0], ids=["gradient", "uniform"])
    def test_retired_walkers_match_reference(self, b1):
        # starting on the lattice edge, hops off the momentum lattice retire walkers
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary="zero", n_particles=400, rng_seed=3)
        (scores, capped, retired), (ref, ref_capped, ref_retired) = self._walk_and_reference(
            LinearEMField(b0=2.0, b1=b1), cfg, (np.array([4, 0]), np.array([0.3, -0.2])))
        assert retired > 0
        assert (capped, retired) == (ref_capped, ref_retired)
        np.testing.assert_allclose(scores, ref, rtol=1e-12, atol=0.0)

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
        np.testing.assert_allclose(scores, ref, rtol=1e-12, atol=0.0)

    # (value.hex(), stderr.hex(), n_capped, n_retired) of mc_estimate_point,
    # recorded with the walk of commit 625ff69: a change to the draw order or
    # to the walk's arithmetic moves them
    WALK_PINS = {
        "gradient": ("0x1.4a4933e0e049ap-6", "0x1.bd200d8a718bbp-10", 258, 0),
        "uniform": ("-0x1.8c8c5ad0267b2p-12", "0x1.b0f6dbea596b3p-11", 159, 5),
    }
    WALK_CASES = {
        # b1 != 0, 19 branches: the cap ends most walks
        "gradient": (LinearEMField(b0=2.0, b1=1.0), (np.array([0, 0]), np.array([0.0, 0.0])),
                     "periodic", 1.5),
        # b1 = 0, 5 branches, with force gradients: walks are capped and retired
        "uniform": (LinearEMField(b0=2.0, e_grad=(0.3, -0.2)),
                    (np.array([3, -1]), np.array([0.3, -0.2])), "zero", 16.0),
    }

    @pytest.mark.parametrize("case", ["gradient", "uniform"])
    def test_walk_is_pinned(self, case):
        field, target, boundary, cap = self.WALK_CASES[case]
        cfg = SolverConfig(dt=0.02, t_end=0.4, boundary=boundary, n_particles=400,
                           rng_seed=3, weight_cap=cap)
        est = mc_estimate_point(target, packet(G2, sigma_p=1.0), field, G2, cfg)
        got = (est.value.hex(), est.stderr.hex(), est.n_capped, est.n_retired)
        assert got == self.WALK_PINS[case]

    @pytest.mark.parametrize("n", [1, 3, 64, 1000])
    def test_rates_and_total_follow_the_table(self, n):
        rng = np.random.default_rng(n)
        midx = rng.integers(-4, 5, size=(2, n))
        pos = rng.uniform(-1.5, 1.5, size=(2, n))
        field = LinearEMField(b0=2.0, b1=-0.7, e_grad=(0.3, -0.2))
        table = self._table(field, 7.0)(midx.T, pos.T)
        h_x, h_y = montecarlo._hop_rates(midx * np.array(G2.dp)[:, None], pos, field, G2)
        assert np.array_equal(h_x, table[:, 2]) and np.array_equal(h_y, table[:, 4])
        k = np.zeros(19)
        k[5:] = montecarlo._curvature_coefficients(field, G2)
        assert np.array_equal(k[5:], table[0, 5:])
        total = montecarlo._row_total(np.abs(h_x), np.abs(h_y), 7.0, np.abs(k))
        assert np.array_equal(total, np.abs(table).sum(axis=1))

    @staticmethod
    def _walk_peak(n_particles):
        """tracemalloc peak of one estimate on the grid and first target of
        the mc_probe benchmark workload, which is mc_point_probe.json at
        15000 walkers."""
        cfg = load_config(pathlib.Path(__file__).resolve().parents[1]
                          / "configs" / "mc_point_probe.json")
        grid, field = cfg.build_grid(), cfg.build_field()
        scfg = dataclasses.replace(cfg.build_solver_config(), n_particles=n_particles)
        f0 = cfg.build_initial_state(grid)
        target = (np.array([1, 0]), np.zeros(2))
        mc_estimate_point(target, f0, field, grid, scfg)
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            mc_estimate_point(target, f0, field, grid, scfg)
            return tracemalloc.get_traced_memory()[1] - current
        finally:
            tracemalloc.stop()

    # 1.1741 MiB (164 B per walker of a chunk) measured on two chunks of 7500
    # walkers with scoring deferred to the end of each chunk, plus 10%; the
    # walk that scored in every round peaked at 2.27 MiB
    CHUNK_PEAK = 1.1741 * 1.1 * 2 ** 20

    def test_walk_memory_per_walker(self):
        assert self._walk_peak(15000) <= self.CHUNK_PEAK

    def test_walk_memory_is_bounded_by_the_chunk_size(self):
        # chunks hold at most _CHUNK_WALKERS walkers, so beyond one chunk's
        # tables the peak grows only by the scores, 16 B per walker: the
        # chunks' scores and their concatenation, or that and std's
        # temporary.  One table for all 100000 walkers peaks at 14.8 MiB.
        assert self._walk_peak(100000) <= self.CHUNK_PEAK + 24 * 100000

    def test_uniform_field_has_no_curvature_power(self):
        # without b1 the walk samples branches 0-4 only
        rng = np.random.default_rng(23)
        midx = rng.integers(-4, 5, size=(50, 2))
        pos = rng.uniform(-1.5, 1.5, size=(50, 2))
        field = LinearEMField(b0=2.0, e_grad=(0.3, -0.2))
        assert np.all(self._table(field, 7.0)(midx, pos)[:, 5:] == 0.0)
        assert np.all(montecarlo._curvature_coefficients(field, G2) == 0.0)

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
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            assert rhs(f, out) is out
            peak = tracemalloc.get_traced_memory()[1] - current
        finally:
            tracemalloc.stop()
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
        assert default_gamma0(LinearEMField(), G2, cfg) == pytest.approx(1.0 / 0.5)

    def test_dominated_by_force_rows(self):
        field = LinearEMField(b0=0.8)
        rate = default_gamma0(field, G2, SolverConfig(dt=0.02, t_end=0.5))
        # strongest row: |P_y| = 4, |B| = 0.8 on both axes
        expect = 4 * 0.8 / G2.dp[0] + 4 * 0.8 / G2.dp[1]
        assert rate == pytest.approx(expect, rel=1e-12)
