"""Benchmark entry point; run from the repository root.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of bench/workloads.py through `sdwigner.runner.run_simulation`
from the checkout's own `src/`, checks every run's outputs, and prints
human-readable lines followed by one JSON object on the last line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Exits 1 when a correctness check fails and 2 when the checkout has no
`src/sdwigner` to measure.  See bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# pinned before numpy is imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdwigner" / "__init__.py").is_file():
        print(f"error: no sdwigner package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import sdwigner
    if Path(sdwigner.__file__).resolve().parent != SRC / "sdwigner":
        print(f"error: imported sdwigner from {sdwigner.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    work_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             work_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
