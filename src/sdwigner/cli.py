"""Command line front-end.

Subcommands: run, validate, magnitudes, diff, emit-plot.  The one
environment override is SDWIGNER_OUT (output directory), and --out wins over
it.  Results depend only on the config and seed; a negative --seed is a
config error (exit 2) raised before any file is written.  `diff --tol`
exits 1 when the difference exceeds the tolerance or is not finite, and 2,
before any file is read, when the tolerance is negative or not finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .io import read_state, relative_l2_diff, write_table
from .runner import RunnerError, magnitude_report, run_simulation
from .solvers import FredholmConvergenceError, SolverInstabilityError, observables

ENV_OUT = "SDWIGNER_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdwigner",
        description="Batch driver for the semi-discrete phase-space solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config end to end")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None,
                       help="RNG seed override, >= 0; enters the config hash")

    p_val = sub.add_parser("validate", help="check a config and print its hash")
    p_val.add_argument("config")

    p_mag = sub.add_parser("magnitudes", help="per-term rate estimates")
    p_mag.add_argument("config")
    p_mag.add_argument("--out", default=None,
                       help="also write magnitude_report.tsv here")

    p_diff = sub.add_parser("diff", help="relative L2 between two state files")
    p_diff.add_argument("state_a")
    p_diff.add_argument("state_b")
    p_diff.add_argument("--tol", type=float, default=None,
                        help="exit 1 if the difference exceeds this or is not "
                             "finite; finite and >= 0, else exit 2")

    p_plot = sub.add_parser("emit-plot", help="write plot-ready tables from a run")
    p_plot.add_argument("run_dir", help="directory written by `run`")
    p_plot.add_argument("--what", required=True,
                        choices=("density", "mean-momentum", "mass", "wigner-slice"))
    p_plot.add_argument("--out", default=None,
                        help="directory for the table (default: the run dir)")
    p_plot.add_argument("--fixed-my", type=int, default=0,
                        help="wigner-slice: momentum index held on the y axis")
    p_plot.add_argument("--fixed-y-index", type=int, default=None,
                        help="wigner-slice: spatial y cell (default: middle)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RunnerError, SolverInstabilityError, FredholmConvergenceError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _resolved_out(flag_value):
    if flag_value is not None:
        return flag_value
    return os.environ.get(ENV_OUT) or None


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    product = run_simulation(cfg, out_dir=_resolved_out(args.out), seed=args.seed)
    print(f"config {product.config_hash}")
    for f in product.files:
        print(f"wrote {f}")
    print(f"wrote {product.meta_path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"valid: method={cfg.method} sha256={cfg.sha256()}")
    return 0


def _cmd_magnitudes(args) -> int:
    cfg = load_config(args.config)
    report, path = magnitude_report(cfg, out_dir=_resolved_out(args.out))
    for name, value in report.rows():
        unit = "" if name.startswith("ratio") else " 1/s"
        print(f"{name:>18s}  {value:.6e}{unit}")
    if path is not None:
        print(f"wrote {path}")
    return 0


def _cmd_diff(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: --tol must be finite and >= 0, got {args.tol!r}", file=sys.stderr)
        return 2
    state_a, hash_a = read_state(args.state_a)
    state_b, hash_b = read_state(args.state_b)
    value = relative_l2_diff(state_a, state_b)
    print(f"relative_l2 {value:.17g}")
    if hash_a != hash_b:
        print(f"note: config hashes differ ({hash_a[:12]}.. vs {hash_b[:12]}..)")
    # a NaN difference compares false either way, so it must not pass
    if args.tol is not None and not value <= args.tol:
        print(f"exceeds tolerance {args.tol:g}", file=sys.stderr)
        return 1
    return 0


def _run_snapshots(run_dir: Path):
    """All state files of a run in time order, with the recorded config hash."""
    meta_path = run_dir / "run_meta.json"
    if not meta_path.exists():
        raise ValueError(f"{run_dir} has no run_meta.json; not a run directory")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    paths = sorted(run_dir.glob("state_*.sdwg"))
    if not paths:
        raise ValueError(
            f"{run_dir} holds no state snapshots; rerun with "
            f"output.binary_states=true and a snapshot cadence")
    loaded = [read_state(p) for p in paths]
    loaded.sort(key=lambda pair: pair[0].time)
    return [s for s, _ in loaded], meta.get("config_sha256", loaded[0][1])


def _cmd_emit_plot(args) -> int:
    run_dir = Path(args.run_dir)
    out_dir = Path(_resolved_out(args.out) or run_dir)
    states, config_hash = _run_snapshots(run_dir)
    grid = states[0].grid
    if args.what == "density":
        cols = ["t(s)"] + [f"{ax}(m)" for ax in "xy"[:grid.dim]] + ["n"]
        rows = []
        for s in states:
            rec = observables(s.values, grid)
            for idx in np.ndindex(*grid.n_x):
                pos = [grid.x_axes[c][idx[c]] for c in range(grid.dim)]
                rows.append([s.time] + pos + [rec.density[idx]])
        path = write_table(out_dir / "density.tsv", cols, rows, config_hash)
    elif args.what == "mean-momentum":
        cols = (["t(s)"] + [f"{ax}(m)" for ax in "xy"[:grid.dim]]
                + [f"p{ax}(kg*m/s)" for ax in "xy"[:grid.dim]])
        rows = []
        for s in states:
            rec = observables(s.values, grid)
            for idx in np.ndindex(*grid.n_x):
                pos = [grid.x_axes[c][idx[c]] for c in range(grid.dim)]
                mom = [rec.mean_momentum[c][idx] for c in range(grid.dim)]
                rows.append([s.time] + pos + mom)
        path = write_table(out_dir / "mean_momentum.tsv", cols, rows, config_hash)
    elif args.what == "mass":
        rows = [[s.time, observables(s.values, grid).total_mass] for s in states]
        path = write_table(out_dir / "mass.tsv", ["t(s)", "mass"], rows, config_hash)
    else:  # wigner-slice
        if grid.dim != 2:
            raise ValueError("wigner-slice needs a 2D run")
        iy = args.fixed_y_index if args.fixed_y_index is not None else grid.n_x[1] // 2
        if not 0 <= iy < grid.n_x[1]:
            raise ValueError(f"--fixed-y-index {iy} outside 0..{grid.n_x[1] - 1}")
        if abs(args.fixed_my) > grid.n_p[1]:
            raise ValueError(f"--fixed-my {args.fixed_my} outside the momentum lattice")
        slot = grid.momentum_slot(1, args.fixed_my)
        cols = ["t(s)", "p_x(kg*m/s)", "x(m)", "f"]
        rows = []
        for s in states:
            plane = s.values[:, slot, :, iy]
            for a, px in enumerate(grid.p_axes[0]):
                for b, x in enumerate(grid.x_axes[0]):
                    rows.append([s.time, px, x, plane[a, b]])
        path = write_table(out_dir / "wigner_slice.tsv", cols, rows, config_hash)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "magnitudes": _cmd_magnitudes,
    "diff": _cmd_diff,
    "emit-plot": _cmd_emit_plot,
}


if __name__ == "__main__":
    raise SystemExit(main())
