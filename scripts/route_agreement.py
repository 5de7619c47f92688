#!/usr/bin/env python3
"""Compare the ladder-sum and small-spacing routes as the period L grows.

The sweep holds the spatial window, a uniform magnetic field, and the
physical momentum spread of the packet fixed while growing the period.  A
longer period means a finer momentum lattice (dP = 2 pi hbar / L), so the
finite-difference route's momentum derivatives get more accurate and the two
right-hand sides converge at second order in dP, provided the ladder spans
every offset that can land on the lattice (cutoff 2 n_p).  At the default
half-reach cutoff the comparison saturates at the truncation artifact of the
windowed pair sum instead; the script prints both columns.

Field-gradient terms are excluded on purpose: their window-moment
coefficients scale with L^2, which is genuine bounded-window physics rather
than a discretization error, so the two routes are only expected to agree on
them at small L (the regime the acceptance fixtures pin down).
"""

import argparse

import numpy as np

from sdwigner import LinearEMField, SolverConfig, make_grid
from sdwigner.kernels import linear_coefficients
from sdwigner.solvers import continuum, semidiscrete
from sdwigner.states import gaussian_wigner


def force_term_mismatch(grid, field, f0, cut):
    cfg = SolverConfig(dt=2e-14, t_end=4e-13, boundary="periodic",
                       stencil_order=4, m_truncation=cut)
    coeffs = linear_coefficients(field, grid)
    free = linear_coefficients(LinearEMField(e_grad=(0.0, 0.0), b0=0.0,
                                             b1=0.0), grid)
    # subtract the advection part both routes share, so the comparison
    # isolates the force term
    def rhs(route, co):
        return route.make_rhs(co, grid, cfg)(f0.values, np.empty_like(f0.values))

    adv = rhs(semidiscrete, free)
    ladder = rhs(semidiscrete, coeffs) - adv
    gradient = rhs(continuum, coeffs) - adv
    return float(np.linalg.norm(ladder - gradient) / np.linalg.norm(gradient))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b0", type=float, default=1.0)
    ap.add_argument("--periods-nm", type=float, nargs="+",
                    default=[100.0, 200.0, 400.0])
    args = ap.parse_args()

    field = LinearEMField(e_grad=(0.0, 0.0), b0=args.b0, b1=0.0)
    base = make_grid(2, (100e-9, 100e-9), (50e-9, 50e-9), (10, 10), (6, 6))
    sigma_p = 1.5 * base.dp[0]
    p_center = 1.0 * base.dp[0]

    print(f"{'L (nm)':>8s} {'n_p':>5s} {'cut=n_p':>12s} {'cut=2n_p':>12s}")
    for L_nm in args.periods_nm:
        L = L_nm * 1e-9
        probe = make_grid(2, (L, L), (50e-9, 50e-9), (10, 10), (1, 1))
        n_p = max(4, int(round(6.0 * sigma_p / probe.dp[0])))
        grid = make_grid(2, (L, L), (50e-9, 50e-9), (10, 10), (n_p, n_p))
        f0 = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(10e-9, 10e-9),
                             momentum_center=(p_center, 0.0),
                             sigma_p=(sigma_p, sigma_p))
        half = force_term_mismatch(grid, field, f0, None)
        full = force_term_mismatch(grid, field, f0, 2 * n_p)
        print(f"{L_nm:8.1f} {n_p:5d} {half:12.3e} {full:12.3e}")


if __name__ == "__main__":
    main()
