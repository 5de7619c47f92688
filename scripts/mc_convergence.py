#!/usr/bin/env python3
"""Stochastic point estimates vs the stepped small-spacing route, with error scaling.

Runs the backward-walk estimator at a growing particle count against a fixed
phase-space target and compares with the value that the stepped route of
the walk's own kernel (`continuum.make_rhs`, the small-spacing route)
reaches at the same point.  The reported standard error should fall as
1/sqrt(n); the gap to the grid value should stay within a few standard
errors plus the stepped route's own time-step and dispersion error.
"""

import argparse
from dataclasses import replace

import numpy as np

from sdwigner import (LinearEMField, SolverConfig, evolve, make_grid,
                      mc_estimate_point)
from sdwigner.kernels import linear_coefficients
from sdwigner.solvers.continuum import make_rhs
from sdwigner.states import gaussian_wigner


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b0", type=float, default=1.0)
    ap.add_argument("--counts", type=int, nargs="+",
                    default=[2000, 8000, 32000])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    grid = make_grid(2, (200e-9, 200e-9), (100e-9, 100e-9), (24, 24), (4, 4))
    field = LinearEMField(e_grad=(0.0, 0.0), b0=args.b0, b1=0.0)
    cfg = SolverConfig(dt=2e-14, t_end=4e-13, boundary="periodic",
                       stencil_order=4, gamma0=2e13, rng_seed=args.seed,
                       n_particles=max(args.counts))
    f0 = gaussian_wigner(grid, center=(0.0, 0.0), sigma_x=(20e-9, 20e-9),
                         momentum_center=(grid.dp[0], 0.0),
                         sigma_p=(1.5 * grid.dp[0], 1.5 * grid.dp[1]))

    rhs = make_rhs(linear_coefficients(field, grid), grid, cfg)
    stepped = evolve(f0.values, rhs, grid, cfg).values
    ix, iy = 13, 11
    slot = (grid.momentum_slot(0, 1), grid.momentum_slot(1, 0))
    reference = stepped[slot[0], slot[1], ix, iy]
    target = (np.array([1, 0]), np.array([grid.x_axes[0][ix],
                                          grid.x_axes[1][iy]]))

    print(f"grid-route value at the target: {reference:.6e}")
    print(f"{'n':>8s} {'estimate':>14s} {'stderr':>12s} {'gap/stderr':>11s}")
    prev = None
    for n in args.counts:
        est = mc_estimate_point(target, f0, field, grid,
                                replace(cfg, n_particles=n))
        sigmas = abs(est.value - reference) / est.stderr if est.stderr else 0.0
        note = ""
        if prev is not None and est.stderr > 0:
            note = f"   stderr ratio vs prev: {prev / est.stderr:.2f}"
        print(f"{n:8d} {est.value:14.6e} {est.stderr:12.3e} {sigmas:11.2f}{note}")
        prev = est.stderr


if __name__ == "__main__":
    main()
