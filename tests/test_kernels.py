"""Kernel tables against hand-derived closed forms and brute-force quadrature."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdwigner import make_grid
from sdwigner.phasespace import LinearEMField, PhysicalConstants, SampledEMField, FieldCoverageError
from sdwigner.kernels import (
    KernelSet,
    LinearKernelCoefficients,
    compute_kernels,
    conjugate_symmetry_defect,
    electric_kernel,
    harmonic_coefficient,
    linear_coefficients,
    linear_term_report,
    magnetic_kernel,
    magnetic_square_from_convolution,
    magnetic_square_kernel,
    quadratic_coefficient,
    term_magnitudes,
)
from oracles import (
    dense_circular_convolution,
    fourier_moment_trapezoid,
    lattice_first_moment,
    lattice_second_moment,
)

NAT = PhysicalConstants(hbar=1.0, charge=1.0, mass=1.0)


class UniformField:
    """Constant E and B everywhere; minimal duck-typed field for tests."""

    def __init__(self, e=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0)):
        self.e = np.asarray(e, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def electric(self, positions):
        return np.broadcast_to(self.e, np.shape(positions)[:-1] + (3,)).copy()

    def magnetic(self, positions):
        return np.broadcast_to(self.b, np.shape(positions)[:-1] + (3,)).copy()


class AxialGradientBz:
    """B_z = b0 + b1 * x_0, for 1D lattices where the linear field class cannot vary."""

    def __init__(self, b0, b1):
        self.b0 = b0
        self.b1 = b1

    def electric(self, positions):
        return np.zeros(np.shape(positions)[:-1] + (3,))

    def magnetic(self, positions):
        positions = np.asarray(positions)
        out = np.zeros(positions.shape[:-1] + (3,))
        out[..., 2] = self.b0 + self.b1 * positions[..., 0]
        return out


@pytest.fixture(scope="module")
def grid_1d():
    return make_grid(1, 2.0 * np.pi, np.pi, 4, 6, NAT)


@pytest.fixture(scope="module")
def grid_2d():
    return make_grid(2, (2.0 * np.pi, 4.0), (np.pi, 2.0), (3, 3), (5, 4), NAT)


def rel_max(got, want):
    scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
    if scale == 0.0:
        return 0.0
    return np.max(np.abs(got - want)) / scale


class TestCoefficientFamilies:
    def test_harmonic_spot_values(self):
        assert harmonic_coefficient(1, 1.0) == -1.0
        assert harmonic_coefficient(2, 0.5) == 1.0
        assert harmonic_coefficient(0, 3.0) == 0.0
        m = np.arange(-4, 5)
        vals = harmonic_coefficient(m, 2.0)
        assert vals.shape == (9,)
        np.testing.assert_allclose(vals + vals[::-1], 0.0, atol=0)

    def test_quadratic_spot_values(self):
        assert quadratic_coefficient(1, 1.0) == -2.0
        assert quadratic_coefficient(2, 1.0) == 0.5
        assert quadratic_coefficient(0, 1.0) == 0.0
        m = np.arange(-4, 5)
        vals = quadratic_coefficient(m, 2.0)
        np.testing.assert_array_equal(vals, vals[::-1])

    @given(m=st.integers(min_value=-40, max_value=40),
           dp=st.floats(min_value=1e-3, max_value=1e3))
    def test_parity(self, m, dp):
        assert harmonic_coefficient(-m, dp) == -harmonic_coefficient(m, dp)
        assert quadratic_coefficient(-m, dp) == quadratic_coefficient(m, dp)

    def test_families_match_fine_quadrature(self):
        # hbar = 1 and L = 2 pi make the momentum spacing exactly 1
        L = 2.0 * np.pi
        m = np.arange(0, 9)
        first = fourier_moment_trapezoid(1, m, L, n_panels=1 << 18)
        second = fourier_moment_trapezoid(2, m, L, n_panels=1 << 18)
        for k in range(1, 9):
            want1 = 1j * harmonic_coefficient(k, 1.0)
            want2 = quadratic_coefficient(k, 1.0)
            assert abs(first[k] - want1) <= 1e-8 * abs(want1)
            assert abs(second[k] - want2) <= 1e-8 * abs(want2)
        assert abs(first[0]) <= 1e-12
        assert abs(second[0] - L ** 2 / 12.0) <= 1e-8 * L ** 2 / 12.0


class TestElectricKernel:
    def test_uniform_field_matches_first_moment(self, grid_1d):
        e0 = 2.5
        table = electric_kernel(UniformField(e=(e0, 0.0, 0.0)), grid_1d,
                                x_points=[[0.3], [-0.7]], n_tau=4)
        n = grid_1d.n_s[0]
        want = np.array([-e0 * lattice_first_moment(m, grid_1d.coherence_length[0], n)
                         for m in grid_1d.momentum_indices[0]])
        for ix in range(2):
            for k in range(4):
                assert rel_max(table[ix, :, k], want) < 1e-13

    def test_linear_field_x_and_tau_dependence(self, grid_1d):
        g = 3.0
        from sdwigner.transform import gauss_legendre_nodes
        nodes, _ = gauss_legendre_nodes(4)
        table = electric_kernel(LinearEMField(e_grad=(g,)), grid_1d, n_tau=4)
        L = grid_1d.coherence_length[0]
        n = grid_1d.n_s[0]
        s1 = np.array([lattice_first_moment(m, L, n) for m in grid_1d.momentum_indices[0]])
        s2 = np.array([lattice_second_moment(m, L, n) for m in grid_1d.momentum_indices[0]])
        for ix, x in enumerate(grid_1d.x_axes[0]):
            for k, tau in enumerate(nodes):
                want = -g * (x * s1 + 0.5 * tau * s2)
                assert rel_max(table[ix, :, k], want) < 1e-12

    def test_tau_parity_at_origin(self, grid_1d):
        table = electric_kernel(LinearEMField(e_grad=(1.0,)), grid_1d,
                                x_points=[[0.0]], n_tau=6)
        # integrand is odd in tau at x = 0 and the nodes are symmetric
        flipped = -table[0, :, ::-1]
        assert rel_max(table[0], flipped) < 1e-13

    def test_sampled_field_agrees_with_analytic(self, grid_1d):
        g = 1.7
        axes = (np.linspace(-4.0, 4.0, 41),)
        sampled = SampledEMField.from_callables(
            axes, electric=lambda pos: np.stack(
                [g * pos[..., 0], np.zeros(pos.shape[:-1]), np.zeros(pos.shape[:-1])], axis=-1))
        direct = electric_kernel(LinearEMField(e_grad=(g,)), grid_1d, n_tau=3)
        interp = electric_kernel(sampled, grid_1d, n_tau=3)
        assert rel_max(interp, direct) < 1e-12

    def test_sampled_window_too_small_raises(self, grid_1d):
        axes = (np.linspace(-2.0, 2.0, 21),)
        sampled = SampledEMField.from_callables(
            axes, electric=lambda pos: np.stack(
                [pos[..., 0], np.zeros(pos.shape[:-1]), np.zeros(pos.shape[:-1])], axis=-1))
        with pytest.raises(FieldCoverageError):
            electric_kernel(sampled, grid_1d, n_tau=4)


class TestMagneticKernel:
    def test_uniform_bz_closed_form(self, grid_2d):
        b0 = 1.3
        table = magnetic_kernel(UniformField(b=(0.0, 0.0, b0)), grid_2d,
                                x_points=[[0.2, -0.4]], n_tau=3)
        lx, ly = grid_2d.coherence_length
        nx, ny = grid_2d.n_s
        s1x = np.array([lattice_first_moment(m, lx, nx) for m in grid_2d.momentum_indices[0]])
        s1y = np.array([lattice_first_moment(m, ly, ny) for m in grid_2d.momentum_indices[1]])
        dx0 = np.zeros(nx)
        dx0[grid_2d.momentum_slot(0, 0)] = 1.0
        dy0 = np.zeros(ny)
        dy0[grid_2d.momentum_slot(1, 0)] = 1.0
        want_x = b0 * np.outer(dx0, s1y)
        want_y = -b0 * np.outer(s1x, dy0)
        for k in range(3):
            assert rel_max(table[0, :, :, k, 0], want_x) < 1e-13
            assert rel_max(table[0, :, :, k, 1], want_y) < 1e-13
            assert np.max(np.abs(table[0, :, :, k, 2])) == 0.0

    def test_gradient_field_closed_form(self, grid_2d):
        b0, b1 = 1.2, 0.7
        x0, y0 = 0.3, -0.2
        from sdwigner.transform import gauss_legendre_nodes
        nodes, _ = gauss_legendre_nodes(4)
        table = magnetic_kernel(LinearEMField(b0=b0, b1=b1), grid_2d,
                                x_points=[[x0, y0]], n_tau=4)
        lx, ly = grid_2d.coherence_length
        nx, ny = grid_2d.n_s
        s1x = np.array([lattice_first_moment(m, lx, nx) for m in grid_2d.momentum_indices[0]])
        s1y = np.array([lattice_first_moment(m, ly, ny) for m in grid_2d.momentum_indices[1]])
        s2y = np.array([lattice_second_moment(m, ly, ny) for m in grid_2d.momentum_indices[1]])
        dx0 = np.zeros(nx)
        dx0[grid_2d.momentum_slot(0, 0)] = 1.0
        dy0 = np.zeros(ny)
        dy0[grid_2d.momentum_slot(1, 0)] = 1.0
        b_local = b0 + b1 * y0
        for k, tau in enumerate(nodes):
            want_x = np.outer(dx0, b_local * s1y + 0.5 * tau * b1 * s2y)
            want_y = -b_local * np.outer(s1x, dy0) - 0.5 * tau * b1 * np.outer(s1x, s1y)
            assert rel_max(table[0, :, :, k, 0], want_x) < 1e-12
            assert rel_max(table[0, :, :, k, 1], want_y) < 1e-12

    def test_general_constant_field_3d(self):
        grid = make_grid(3, 2.0 * np.pi, np.pi, 1, 2, NAT)
        b = (0.8, -0.5, 1.1)
        table = magnetic_kernel(UniformField(b=b), grid, n_tau=2)
        L = grid.coherence_length[0]
        n = grid.n_s[0]
        s1 = np.array([lattice_first_moment(m, L, n) for m in grid.momentum_indices[0]])
        delta = np.zeros(n)
        delta[grid.momentum_slot(0, 0)] = 1.0
        e = {0: np.einsum("i,j,k->ijk", s1, delta, delta),
             1: np.einsum("i,j,k->ijk", delta, s1, delta),
             2: np.einsum("i,j,k->ijk", delta, delta, s1)}
        want = (b[2] * e[1] - b[1] * e[2],
                b[0] * e[2] - b[2] * e[0],
                b[1] * e[0] - b[0] * e[1])
        for comp in range(3):
            assert rel_max(table[0, 0, 0, :, :, :, 0, comp], want[comp]) < 1e-13

    def test_conjugate_symmetry_wiggly_sampled_field(self, grid_2d):
        axes = (np.linspace(-4.5, 4.5, 37), np.linspace(-4.5, 4.5, 37))

        def b_profile(pos):
            out = np.zeros(pos.shape[:-1] + (3,))
            out[..., 2] = 1.0 + 0.3 * np.sin(pos[..., 0]) * np.cos(0.5 * pos[..., 1])
            out[..., 0] = 0.2 * np.cos(pos[..., 1])
            return out

        sampled = SampledEMField.from_callables(axes, magnetic=b_profile)
        table = magnetic_kernel(sampled, grid_2d, x_points=[[0.1, 0.2]], n_tau=3)
        assert conjugate_symmetry_defect(table, grid_2d, 1) < 1e-13


class TestSquareKernel:
    def test_uniform_field_closed_form(self, grid_2d):
        b0 = 0.9
        table = magnetic_square_kernel(UniformField(b=(0.0, 0.0, b0)), grid_2d,
                                       x_points=[[0.0, 0.0]], n_tau=2, n_eta=2)
        lx, ly = grid_2d.coherence_length
        nx, ny = grid_2d.n_s
        s2x = np.array([lattice_second_moment(m, lx, nx) for m in grid_2d.momentum_indices[0]])
        s2y = np.array([lattice_second_moment(m, ly, ny) for m in grid_2d.momentum_indices[1]])
        dx0 = np.zeros(nx)
        dx0[grid_2d.momentum_slot(0, 0)] = 1.0
        dy0 = np.zeros(ny)
        dy0[grid_2d.momentum_slot(1, 0)] = 1.0
        want = b0 ** 2 * (np.outer(s2x, dy0) + np.outer(dx0, s2y))
        for k in range(2):
            for l in range(2):
                assert rel_max(table[0, :, :, k, l], want) < 1e-13

    def test_convolution_identity_uniform(self, grid_2d):
        field = UniformField(b=(0.0, 0.0, 1.4))
        pts = [[0.3, 0.1]]
        hf = magnetic_kernel(field, grid_2d, x_points=pts, n_tau=3)
        direct = magnetic_square_kernel(field, grid_2d, x_points=pts, n_tau=3, n_eta=3)
        conv = magnetic_square_from_convolution(hf, grid_2d)
        assert rel_max(conv, direct) < 1e-10

    def test_convolution_identity_gradient(self, grid_2d):
        field = LinearEMField(b0=1.0, b1=0.6)
        hf = magnetic_kernel(field, grid_2d, n_tau=3)
        direct = magnetic_square_kernel(field, grid_2d, n_tau=3, n_eta=3)
        conv = magnetic_square_from_convolution(hf, grid_2d)
        assert rel_max(conv, direct) < 1e-10

    def test_against_dense_convolution_oracle(self):
        grid = make_grid(1, 2.0 * np.pi, np.pi, 2, 4, NAT)
        field = AxialGradientBz(b0=1.1, b1=0.4)
        pts = [[0.25]]
        hf = magnetic_kernel(field, grid, x_points=pts, n_tau=3)
        direct = magnetic_square_kernel(field, grid, x_points=pts, n_tau=3, n_eta=3)
        for k in range(3):
            for l in range(3):
                want = np.zeros(grid.n_s[0], dtype=complex)
                for comp in range(3):
                    want += dense_circular_convolution(hf[0, :, l, comp], hf[0, :, k, comp])
                assert rel_max(direct[0, :, k, l], want) < 1e-12

    def test_kernel_set_assembly(self, grid_2d):
        field = LinearEMField(b0=1.0, b1=0.3)
        ks = compute_kernels(field, grid_2d, x_points=[[0.0, 0.0]], n_tau=4, n_eta=3)
        assert isinstance(ks, KernelSet)
        assert ks.electric.shape == (1,) + grid_2d.n_s + (4,)
        assert ks.magnetic.shape == (1,) + grid_2d.n_s + (4, 3)
        assert ks.magnetic_square.shape == (1,) + grid_2d.n_s + (4, 3)
        assert abs(np.sum(ks.tau_weights) - 2.0) < 1e-14
        assert ks.symmetry_defect() < 1e-13
        bare = compute_kernels(field, grid_2d, x_points=[[0.0, 0.0]], include_square=False)
        assert bare.magnetic_square is None


class TestLinearCoefficients:
    def test_tables(self, grid_2d):
        field = LinearEMField(e_grad=(2.0, -1.0), b0=0.5, b1=0.25)
        co = linear_coefficients(field, grid_2d)
        np.testing.assert_array_equal(
            co.c1_x, harmonic_coefficient(grid_2d.momentum_indices[0], grid_2d.dp[0]))
        np.testing.assert_array_equal(
            co.c1_y, harmonic_coefficient(grid_2d.momentum_indices[1], grid_2d.dp[1]))
        assert co.force_x.shape == (grid_2d.n_s[1],) + grid_2d.n_x
        assert co.force_y.shape == (grid_2d.n_s[0],) + grid_2d.n_x
        j, ix, iy = 2, 1, 0
        x = grid_2d.x_axes[0][ix]
        y = grid_2d.x_axes[1][iy]
        p_y = grid_2d.p_axes[1][j]
        b_here = field.b0 + field.b1 * y
        assert np.isclose(co.force_x[j, ix, iy], 2.0 * x + p_y * b_here, rtol=1e-14)
        p_x = grid_2d.p_axes[0][j]
        assert np.isclose(co.force_y[j, ix, iy], -1.0 * y - p_x * b_here, rtol=1e-14)

    def test_gradient_coefficients(self, grid_2d):
        field = LinearEMField(b0=0.0, b1=2.0)
        co = linear_coefficients(field, grid_2d)
        kappa = 2.0 / 12.0  # b1 hbar^2 e / (12 m) in natural units
        dpy = grid_2d.dp[1]
        slot = grid_2d.momentum_slot(1, 1)
        assert np.isclose(co.pair_dy[slot], -kappa * (-2.0 / dpy ** 2), rtol=1e-14)
        assert co.pair_dy[grid_2d.momentum_slot(1, 0)] == 0.0
        ly = grid_2d.coherence_length[1]
        assert np.isclose(co.zero_dy, -(2.0 / 12.0) * ly ** 2 / 12.0, rtol=1e-14)
        assert np.isclose(co.cross_dx, -kappa, rtol=1e-14)

    def test_requires_2d(self, grid_1d):
        with pytest.raises(ValueError):
            linear_coefficients(LinearEMField(), grid_1d)


class TestTermMagnitudes:
    def grid(self):
        return make_grid(2, 100e-9, 50e-9, 50, 25)

    def test_reference_chain(self):
        grid = self.grid()
        field = LinearEMField(b0=1.0, b1=1.0e7)
        rep = term_magnitudes(field, grid, m_typical=25, s_typical=20e-9)
        hbar, e, mass = 1.054571817e-34, 1.602176634e-19, 9.1093837015e-31
        dp = 2.0 * np.pi * hbar / 100e-9
        dx = 1e-9
        kinetic = (25 * dp / mass) / dx
        factor = (e * 1.0 / hbar) * 20e-9 * dx
        second = (1.0e7 * e / (12 * mass)) * (20e-9) ** 2 / dx
        assert np.isclose(rep.kinetic_rate, kinetic, rtol=1e-12)
        assert np.isclose(rep.ratio_factor_I, factor, rtol=1e-12)
        assert np.isclose(rep.first_magnetic_rate, kinetic * factor, rtol=1e-12)
        assert np.isclose(rep.second_magnetic_rate, second, rtol=1e-12)
        assert np.isclose(rep.third_magnetic_rate, second * factor, rtol=1e-12)
        # magnitudes land on the expected decades
        assert np.isclose(rep.kinetic_rate, 1.8185e14, rtol=1e-3)
        assert np.isclose(rep.ratio_factor_I, 3.0385e-2, rtol=1e-3)
        assert np.isclose(rep.second_magnetic_rate, 5.8630e10, rtol=1e-3)
        assert 1e8 <= rep.third_magnetic_rate <= 1e10
        assert rep.kinetic_rate > rep.first_magnetic_rate > rep.second_magnetic_rate \
            > rep.third_magnetic_rate

    def test_gradient_only_reference_field(self):
        grid = self.grid()
        rep = term_magnitudes(LinearEMField(b0=0.0, b1=1.0e7), grid,
                              m_typical=25, s_typical=20e-9)
        e, hbar = 1.602176634e-19, 1.054571817e-34
        want = (e * (1.0e7 * 20e-9) / hbar) * 20e-9 * 1e-9
        assert np.isclose(rep.ratio_factor_I, want, rtol=1e-12)

    def test_validation(self):
        grid = self.grid()
        with pytest.raises(ValueError):
            term_magnitudes(LinearEMField(b0=1.0), grid, m_typical=0)
        with pytest.raises(ValueError):
            term_magnitudes(LinearEMField(b0=1.0), grid, s_typical=0.0)


class TestLinearTermReport:
    def test_gradient_field_pairing(self, grid_2d):
        rep = linear_term_report(LinearEMField(b0=1.0, b1=0.5), grid_2d)
        assert rep.pairing_swapped
        assert rep.dx_vs_dy_cross_match < 1e-12
        assert rep.zero_slice_match < 1e-12
        assert rep.dx_direct_mismatch > 0.5
        assert rep.dy_direct_mismatch > 0.5
        assert rep.off_slice_weight > 0.5
        assert "across derivative axes" in rep.note

    def test_uniform_field_trivial(self, grid_2d):
        rep = linear_term_report(LinearEMField(b0=1.0, b1=0.0), grid_2d)
        assert not rep.pairing_swapped
        assert rep.dx_direct_mismatch == 0.0
        assert rep.dy_direct_mismatch == 0.0
