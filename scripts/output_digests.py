#!/usr/bin/env python3
"""sha256 of every numeric output file of a set of config runs.

Runs each config into a fresh temporary directory with the `sdwigner`
package that the import path finds first, and prints one line per numeric
output file (`.tsv` tables and `.sdwg` states), in config order and then in
file order:

    python3 scripts/output_digests.py [CONFIG ...]

    <config name>  <file, relative to the run directory>  <sha256>

CONFIG defaults to every configs/*.json of this checkout.  `run_meta.json`
holds timings and timestamps, so it is left out.  Two trees write the same
bytes when their listings match, which one `diff` shows:

    PYTHONPATH=a/src python3 scripts/output_digests.py > a.txt
    PYTHONPATH=b/src python3 scripts/output_digests.py > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from sdwigner.config import load_config
from sdwigner.runner import run_simulation

DEFAULT_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
NUMERIC = (".tsv", ".sdwg")


def digests(config: Path):
    """(file, sha256) of each numeric file a run of `config` writes, in file order."""
    with tempfile.TemporaryDirectory() as tmp:
        run_simulation(load_config(config), out_dir=tmp)
        return [(path.relative_to(tmp).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(Path(tmp).rglob("*")) if path.suffix in NUMERIC]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path, default=DEFAULT_CONFIGS)
    args = ap.parse_args(argv)
    for config in args.configs:
        for name, digest in digests(config):
            print(f"{config.name}  {name}  {digest}")


if __name__ == "__main__":
    main()
