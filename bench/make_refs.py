"""Regenerate the stored references of the workloads' canonical inputs.

    python3 bench/make_refs.py

Writes bench/refs/<workload>.sdwg (final state) for the grid routes and
bench/refs/<workload>.json (estimates and standard errors from many more
walkers than the workload launches) for the Monte Carlo route, plus
bench/refs/manifest.json naming the commit they were generated at.

Regenerate only in a change that touches nothing but the benchmark, and
only when the discretization itself changes: a faster route must reproduce
the stored references within the tolerances in harness.py.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import sdwigner.config as sd_config  # noqa: E402
import sdwigner.io as sd_io  # noqa: E402
import sdwigner.runner as sd_runner  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MC_REFERENCE_PARTICLES = 2_000_000
MC_CHUNK = 100_000   # walkers per worker chunk, which bounds the walk's memory


def make_references(ref_dir: Path, work_dir: Path, tiny: bool = False,
                    mc_particles: int = MC_REFERENCE_PARTICLES) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        cfg_dict = workload.config(None, tiny)
        if workload.method == "mc":
            cfg_dict["solver"]["n_particles"] = mc_particles
        cfg_path = work_dir / f"{name}-reference.json"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(cfg_dict, indent=2), encoding="utf-8")
        out = work_dir / f"{name}-reference"
        shutil.rmtree(out, ignore_errors=True)
        workers = max(1, cfg_dict["solver"].get("n_particles", 0) // MC_CHUNK)
        sd_runner.run_simulation(sd_config.load_config(cfg_path), out_dir=out, workers=workers)
        if workload.method == "mc":
            _, columns, data = sd_io.read_table(out / "mc_results.tsv")
            ref = {"n_particles": mc_particles,
                   "estimate": data[:, columns.index("estimate")].tolist(),
                   "stderr": data[:, columns.index("stderr")].tolist()}
            (ref_dir / f"{name}.json").write_text(json.dumps(ref, indent=2) + "\n",
                                                  encoding="utf-8")
        else:
            shutil.copyfile(out / "state_final.sdwg", ref_dir / f"{name}.sdwg")
        shutil.rmtree(out)


def main() -> int:
    ref_dir = BENCH_DIR / "refs"
    make_references(ref_dir, BENCH_DIR.parent / ".bench_work" / "refs")
    sha = subprocess.run(["git", "-C", str(BENCH_DIR.parent), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    manifest = {"generated_at_commit": sha or None,
                "mc_reference_particles": MC_REFERENCE_PARTICLES,
                "files": sorted(p.name for p in ref_dir.iterdir() if p.name != "manifest.json")}
    (ref_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
