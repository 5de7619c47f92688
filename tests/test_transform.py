import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdwigner import SI, landau_gauge, make_grid, symmetric_gauge, zero_gauge
from sdwigner.phasespace import PhysicalConstants
from sdwigner.states import gaussian_density, gaussian_wigner
from sdwigner.transform import (
    DensityMatrix,
    TransformConsistencyError,
    WignerState,
    apply_gauge_change,
    density_from_wigner,
    weyl_from_density,
    wigner_from_density,
    wigner_potential,
)

from oracles import (
    continuum_first_moment,
    gaussian_wigner_broadcast,
    lattice_first_moment,
    weyl_quadrature,
)
from working_set import allocation_peak

NM = 1e-9
NAT = PhysicalConstants(hbar=1.0, charge=1.0, mass=1.0)


def relative_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestWeylLimit:
    def test_uniform_rho_gives_momentum_delta(self):
        grid = make_grid(1, 10.0, 5.0, 3, 6, constants=NAT)
        rho = DensityMatrix(grid, np.ones(grid.n_x + grid.n_s, dtype=complex))
        f = weyl_from_density(rho)
        expected = np.zeros(grid.state_shape)
        expected[grid.momentum_slot(0, 0), :] = 1.0
        np.testing.assert_allclose(f.values, expected, atol=1e-14)

    def test_momentum_delta_gives_uniform_rho(self):
        grid = make_grid(1, 10.0, 5.0, 3, 6, constants=NAT)
        vals = np.zeros(grid.state_shape)
        vals[grid.momentum_slot(0, 0), :] = 1.0
        rho = density_from_wigner(WignerState(grid, vals))
        np.testing.assert_allclose(rho.values, 1.0, atol=1e-13)

    def test_gaussian_matches_quadrature_oracle(self, oracle_1d):
        # independent fine-trapezoid transform of the same analytic packet
        p, grid, rho = oracle_1d
        sigma = p["sigma_nm"] * NM
        p0 = p["momentum_dP"] * grid.dp[0]

        def psi(r):
            return (2 * np.pi * sigma ** 2) ** (-0.25) * np.exp(
                -(r ** 2) / (4 * sigma ** 2) + 1j * p0 * r / SI.hbar)

        f = weyl_from_density(rho)
        sampled = (0, grid.n_x[0] // 2, grid.n_x[0] - 1)
        refs = np.stack([
            weyl_quadrature(psi, grid.coherence_length[0], grid.x_axes[0][ix],
                            grid.p_axes[0]).real
            for ix in sampled])
        got = np.stack([f.values[:, ix] for ix in sampled])
        # global normalization: the domain mask clips analytic tails of order
        # exp(-omega^2/(16 sigma^2)), invisible at this scale but fatal to a
        # pointwise relative comparison in the far tail
        err = np.max(np.abs(got - refs)) / np.max(np.abs(refs))
        assert err <= 1e-10

    def test_zero_field_paths_identical_bitwise(self, oracle_1d):
        _, _, rho = oracle_1d
        a = wigner_from_density(rho, gauge=None)
        b = wigner_from_density(rho, gauge=zero_gauge())
        c = weyl_from_density(rho)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)


class TestRoundTrip:
    def test_round_trip_no_field(self, oracle_1d):
        _, _, rho = oracle_1d
        back = density_from_wigner(weyl_from_density(rho))
        err = np.max(np.abs(back.values - rho.values)) / np.max(np.abs(rho.values))
        assert err <= 1e-10

    def test_round_trip_symmetric_gauge(self, gauge_2d):
        p, _, rho = gauge_2d
        gauge = symmetric_gauge(p["B0_T"])
        back = density_from_wigner(wigner_from_density(rho, gauge), gauge)
        err = np.max(np.abs(back.values - rho.values)) / np.max(np.abs(rho.values))
        assert err <= 1e-10

    @given(seed=st.integers(min_value=0, max_value=2 ** 31), dim=st.sampled_from((1, 3)))
    @example(seed=0, dim=3)     # one lattice DFT serves every dimension; pin the 3-D case
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_hermitian(self, seed, dim):
        grid = (make_grid(1, 8.0, 4.0, 3, 4, constants=NAT) if dim == 1
                else make_grid(3, 8.0, 4.0, (3, 2, 2), (2, 1, 3), constants=NAT))
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=grid.n_x + grid.n_s) + 1j * rng.normal(size=grid.n_x + grid.n_s)
        s_axes = tuple(range(dim, 2 * dim))
        rho = DensityMatrix(grid, 0.5 * (raw + np.conj(np.flip(raw, axis=s_axes))))
        assert rho.hermiticity_defect() < 1e-12
        f = wigner_from_density(rho)        # realness check built into construction
        back = density_from_wigner(f)
        np.testing.assert_allclose(back.values, rho.values, atol=1e-12 * np.max(np.abs(rho.values)) + 1e-15)


class TestGaugeInvariance:
    def test_landau_vs_symmetric_one_tesla(self, gauge_2d):
        p, _, rho = gauge_2d
        b0 = p["B0_T"]
        lan, sym = landau_gauge(b0), symmetric_gauge(b0)
        f_sym = wigner_from_density(rho, sym, n_tau=16)
        rho_lan = apply_gauge_change(rho, lan.gauge_function)
        f_lan = wigner_from_density(rho_lan, lan, n_tau=16)
        assert relative_l2(f_lan.values, f_sym.values) <= 1e-8

    def test_low_quadrature_order_still_exact_for_linear_potentials(self, gauge_2d):
        # the line integrand is polynomial in tau for linear A, so 2 nodes suffice
        p, _, rho = gauge_2d
        sym = symmetric_gauge(p["B0_T"])
        f16 = wigner_from_density(rho, sym, n_tau=16)
        f2 = wigner_from_density(rho, sym, n_tau=2)
        assert relative_l2(f2.values, f16.values) <= 1e-12


class TestGaugeChange:
    def test_zero_chi_is_identity(self, gauge_2d):
        _, _, rho = gauge_2d
        out = apply_gauge_change(rho, lambda pos: np.zeros(pos.shape[:-1]))
        np.testing.assert_array_equal(out.values, rho.values)

    def test_constant_chi_is_identity(self, gauge_2d):
        _, _, rho = gauge_2d
        out = apply_gauge_change(rho, lambda pos: 3.7 * np.ones(pos.shape[:-1]))
        np.testing.assert_allclose(out.values, rho.values, rtol=1e-12, atol=1e-300)

    def test_diagonal_untouched(self, gauge_2d):
        p, _, rho = gauge_2d
        chi = landau_gauge(p["B0_T"]).gauge_function
        out = apply_gauge_change(rho, chi)
        np.testing.assert_allclose(out.diagonal(), rho.diagonal(), rtol=1e-12, atol=1e-300)
        assert out.hermiticity_defect() < 1e-12


class TestConsistencyChecks:
    def test_non_hermitian_input_rejected(self):
        grid = make_grid(1, 8.0, 4.0, 3, 4, constants=NAT)
        rng = np.random.default_rng(7)
        raw = rng.normal(size=grid.n_x + grid.n_s) + 1j * rng.normal(size=grid.n_x + grid.n_s)
        with pytest.raises(TransformConsistencyError):
            weyl_from_density(DensityMatrix(grid, raw))

    def test_wigner_state_must_be_real(self):
        grid = make_grid(1, 8.0, 4.0, 3, 4, constants=NAT)
        with pytest.raises(ValueError):
            WignerState(grid, np.ones(grid.state_shape, dtype=complex))

    def test_shape_mismatch_rejected(self):
        grid = make_grid(1, 8.0, 4.0, 3, 4, constants=NAT)
        with pytest.raises(ValueError):
            DensityMatrix(grid, np.ones((3, 3), dtype=complex))

    def test_tau_order_checked_without_a_gauge(self):
        grid = make_grid(1, 8.0, 4.0, 3, 4, constants=NAT)
        rho = gaussian_density(grid, sigma=1.0)
        with pytest.raises(ValueError, match="tau nodes"):
            wigner_from_density(rho, None, n_tau=0)
        # constants passed positionally land in the n_tau slot
        with pytest.raises(TypeError):
            wigner_from_density(rho, None, SI)


class TestWignerPotentialTable:
    def test_constant_potential_vanishes(self):
        grid = make_grid(1, 8.0, 4.0, 5, 6, constants=NAT)
        table = wigner_potential(lambda pos: 2.5 * np.ones(pos.shape[:-1]), grid)
        np.testing.assert_allclose(table.values, 0.0, atol=1e-14)

    def test_linear_potential_closed_form(self):
        # V = alpha x: the table equals -(alpha/hbar) times the lattice first
        # moment of s over i, which approaches -alpha (-1)^m / (m dP) as the
        # lattice refines
        alpha = 1.7
        grid = make_grid(1, 8.0, 4.0, 4, 10, constants=NAT)
        table = wigner_potential(lambda pos: alpha * pos[..., 0], grid)
        N = grid.n_s[0]
        L = grid.coherence_length[0]
        for m in range(-10, 11):
            expected = -alpha * lattice_first_moment(m, L, N) / (1j * NAT.hbar)
            np.testing.assert_allclose(table.values[grid.momentum_slot(0, m), 0],
                                       expected, atol=1e-13)

        fine = make_grid(1, 8.0, 4.0, 4, 400, constants=NAT)
        fine_table = wigner_potential(lambda pos: alpha * pos[..., 0], fine)
        m = 2
        continuum = -alpha * continuum_first_moment(m, L) / (1j * NAT.hbar)
        got = fine_table.values[fine.momentum_slot(0, m), 0]
        assert abs(got - continuum) / abs(continuum) < 1e-4

    def test_quadratic_potential_parity(self):
        grid = make_grid(1, 8.0, 4.0, 4, 8, constants=NAT)
        table = wigner_potential(lambda pos: pos[..., 0] ** 2, grid)
        n = grid.n_p[0]
        assert np.max(np.abs(table.values[grid.momentum_slot(0, 0)])) < 1e-14
        np.testing.assert_allclose(table.values[: n], -table.values[n + 1:][::-1],
                                   atol=1e-13)

    @given(coeffs=st.tuples(*[st.floats(-3, 3) for _ in range(3)]))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_and_real_for_real_potentials(self, coeffs):
        a, b, c = coeffs
        grid = make_grid(1, 6.0, 3.0, 3, 5, constants=NAT)
        table = wigner_potential(
            lambda pos: a + b * pos[..., 0] + c * np.sin(pos[..., 0]), grid)
        flipped = table.values[::-1]
        scale = max(np.max(np.abs(table.values)), 1.0)
        assert np.max(np.abs(table.values + flipped)) <= 1e-12 * scale
        assert np.max(np.abs(table.values.imag)) <= 1e-12 * scale


class TestGaussianStates:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_wigner_packet_bit_equal_to_broadcast_formula(self, dim):
        grid = make_grid(dim, (8.0,) * dim, (4.0,) * dim, (6, 5)[:dim], (3, 4)[:dim],
                         constants=NAT)
        args = dict(center=(0.3, -0.2)[:dim], sigma_x=(0.7, 0.9)[:dim],
                    momentum_center=(0.5, -1.0)[:dim], sigma_p=(1.2, 0.8)[:dim])
        f = gaussian_wigner(grid, **args)
        assert f.values.tobytes() == gaussian_wigner_broadcast(grid, **args).tobytes()

    def test_wigner_packet_peaks_at_one_state(self):
        grid = make_grid(2, (8.0, 8.0), (4.0, 4.0), (24, 24), (8, 8), constants=NAT)
        gaussian_wigner(grid, sigma_x=0.7, sigma_p=1.2)
        built = []
        peak = allocation_peak(
            lambda: built.append(gaussian_wigner(grid, sigma_x=0.7, sigma_p=1.2)))
        f = built[0]
        # the state, plus the per-axis factors, the partial products and
        # NumPy's iteration buffers: far below a second state
        assert f.values.nbytes <= peak < 1.5 * f.values.nbytes

    def test_density_is_hermitian_and_normalized(self, oracle_1d):
        _, grid, rho = oracle_1d
        assert rho.hermiticity_defect() < 1e-12
        f = weyl_from_density(rho)
        mass = f.values.sum() * grid.dx[0]
        assert mass == pytest.approx(1.0, rel=1e-6)

    def test_density_diagonal_equals_position_density(self, oracle_1d):
        p, grid, rho = oracle_1d
        sigma = p["sigma_nm"] * NM
        expected = (2 * np.pi * sigma ** 2) ** (-0.5) * np.exp(
            -grid.x_axes[0] ** 2 / (2 * sigma ** 2))
        np.testing.assert_allclose(rho.diagonal().real, expected, rtol=1e-12)
