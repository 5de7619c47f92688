#!/usr/bin/env python3
"""sha256 of every numeric output file of a set of config runs.

Runs each config, and the canonical input (no seed) of each benchmark
workload of bench/workloads.py, into a fresh temporary directory with the
`sdwigner` package that the import path finds first, and prints one line
per numeric output file (`.tsv` tables and `.sdwg` states), in config order,
then in workload order, and then in file order:

    python3 scripts/output_digests.py [CONFIG ...]

    <config name>  <file, relative to the run directory>  <sha256>
    workload:<name>  <file, relative to the run directory>  <sha256>

Without CONFIG it runs every configs/*.json of this checkout and every
workload; with CONFIG, only the configs given.  bench/workloads.py is
read, not edited.  `run_meta.json` holds timings and
timestamps, so it is left out.  Two trees write the same bytes when their
listings match, which one `diff` shows:

    PYTHONPATH=a/src python3 scripts/output_digests.py > a.txt
    PYTHONPATH=b/src python3 scripts/output_digests.py > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from sdwigner.config import SimulationConfig, config_from_dict, load_config
from sdwigner.runner import run_simulation

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIGS = sorted((ROOT / "configs").glob("*.json"))
NUMERIC = (".tsv", ".sdwg")


def workloads() -> dict:
    """The benchmark's workloads by name, from this checkout's bench/workloads.py."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    return WORKLOADS


def digests(config: SimulationConfig):
    """(file, sha256) of each numeric file a run of `config` writes, in file order."""
    with tempfile.TemporaryDirectory() as tmp:
        run_simulation(config, out_dir=tmp)
        return [(path.relative_to(tmp).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(Path(tmp).rglob("*")) if path.suffix in NUMERIC]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path)
    args = ap.parse_args(argv)
    runs = [(path.name, load_config(path)) for path in args.configs or DEFAULT_CONFIGS]
    if not args.configs:
        runs += [(f"workload:{name}", config_from_dict(workload.config()))
                 for name, workload in workloads().items()]
    for label, config in runs:
        for name, digest in digests(config):
            print(f"{label}  {name}  {digest}")


if __name__ == "__main__":
    main()
