#!/usr/bin/env python3
"""Extract the gyration period from the mean-momentum trace of a uniform-B run.

The packet's mean momentum rotates at the classical rate e B / m, so the
complex signal z(t) = <Px> + i <Py> advances its phase by -omega_c dt per
step.  Averaging the per-step phase increment is insensitive to amplitude
decay from grid dispersion, which makes it a clean period estimator even on
coarse lattices.
"""

import argparse
import math

import numpy as np

from sdwigner import SI, LinearEMField, SolverConfig, evolve, make_grid
from sdwigner.kernels import linear_coefficients
from sdwigner.solvers.continuum import make_rhs
from sdwigner.states import gaussian_wigner


def measured_period(b0, n_x, n_p, dt, n_steps, stencil_order=4):
    L = (200e-9, 200e-9)
    grid = make_grid(2, L, (100e-9, 100e-9), (n_x, n_x), (n_p, n_p))
    field = LinearEMField(e_grad=(0.0, 0.0), b0=b0, b1=0.0)
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt, boundary="periodic",
                       stencil_order=stencil_order)
    f0 = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(18e-9, 18e-9),
                         momentum_center=(2 * grid.dp[0], 0.0),
                         sigma_p=(1.5 * grid.dp[0], 1.5 * grid.dp[1]))
    rhs = make_rhs(linear_coefficients(field, grid), grid, cfg)
    result = evolve(f0.values, rhs, grid, cfg)
    z = np.array([px + 1j * py for px, py in result.mean_momenta])
    steps = z[1:] / z[:-1]
    phase_per_step = np.angle(np.mean(steps / np.abs(steps)))
    return 2.0 * math.pi * dt / abs(phase_per_step)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b0", type=float, default=1.0, help="field strength, T")
    ap.add_argument("--n-x", type=int, default=12)
    ap.add_argument("--n-p", type=int, default=8)
    ap.add_argument("--dt-fs", type=float, default=40.0)
    ap.add_argument("--steps", type=int, default=200)
    args = ap.parse_args()

    expected = 2.0 * math.pi * SI.mass / (SI.charge * args.b0)
    measured = measured_period(args.b0, args.n_x, args.n_p,
                               args.dt_fs * 1e-15, args.steps)
    rel = abs(measured - expected) / expected
    print(f"expected period  {expected:.6e} s")
    print(f"measured period  {measured:.6e} s")
    print(f"relative error   {rel:.3e}")


if __name__ == "__main__":
    main()
