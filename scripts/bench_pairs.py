#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

Pair k (k = 1..N) runs `python3 bench/run.py --workload W --seed k
--seconds S --trace 0` in both checkouts, the parent first in odd pairs and
the change first in even ones, so that a slow spell of the machine falls
on both sides alike.  The metric names and directions are read from the
change's BENCHMARK.json (`end_to_end`).  For each metric it prints the
medians and quartiles of both sides, the pairs the change wins (a tie
counts for neither), the parent's interquartile range, and whether the
pairs rule holds: the change wins at least 9 in 10 pairs, and its median
is better than the parent's by more than the parent's IQR.

Exits 1 when a run is not `correct` (or prints no result), 0 otherwise.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The metrics of the result bench/run.py prints last, run in
    `checkout`, or None when the run is not correct."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stdout + done.stderr)
        print(f"run not correct: {checkout} seed {seed} (exit {done.returncode})",
              file=sys.stderr)
        return None
    return result["metrics"]


def summary(values):
    """(median, first quartile, third quartile)."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, k, args.seconds)
            if result is None:
                return 1
            runs[side].append(result)

    print(f"{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}")
    print("metric  unit  better  parent median [q1, q3]  change median [q1, q3]  "
          "wins  parent IQR  rule")
    need = math.ceil(0.9 * args.pairs)
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        if not all(name in r for side in runs.values() for r in side):
            continue
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (pm, p1, p3), (cm, c1, c3) = summary(parent), summary(change)
        holds = wins >= need and sign * (cm - pm) > p3 - p1
        print(f"{name}  {metric['unit']}  {metric['better']}  "
              f"{pm:.6g} [{p1:.6g}, {p3:.6g}]  {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"{wins}/{args.pairs}  {p3 - p1:.3g}  {'holds' if holds else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
