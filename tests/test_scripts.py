"""The scripts in scripts/ run end to end at small sizes and print their
numeric lines; each runs as its own process, the way a user starts it."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def numbers(line, pattern):
    match = re.fullmatch(pattern.format(n=f"({NUMBER})"), line.strip())
    assert match, line
    return [float(g) for g in match.groups()]


def test_route_agreement():
    lines = run_script("route_agreement.py", "--periods-nm", "100")
    assert lines[0].split() == ["L", "(nm)", "n_p", "cut=n_p", "cut=2n_p"]
    assert len(lines) == 2
    period, n_p, half, full = numbers(lines[1], r"{n}\s+{n}\s+{n}\s+{n}")
    assert period == 100.0 and n_p >= 4
    # the full-reach ladder sits closer to the small-spacing route
    assert 0.0 < full < half < 1.0


def test_cyclotron_period():
    lines = run_script("cyclotron_period.py", "--steps", "20", "--n-x", "8", "--n-p", "4")
    (expected,) = numbers(lines[0], r"expected period\s+{n} s")
    (measured,) = numbers(lines[1], r"measured period\s+{n} s")
    (rel,) = numbers(lines[2], r"relative error\s+{n}")
    assert len(lines) == 3
    assert abs(rel - abs(measured - expected) / expected) < 1e-3 * rel
    assert rel < 0.05


def test_mc_convergence():
    lines = run_script("mc_convergence.py", "--counts", "200", "400")
    (reference,) = numbers(lines[0], r"grid-route value at the target: {n}")
    assert lines[1].split() == ["n", "estimate", "stderr", "gap/stderr"]
    rows = [numbers(lines[2], r"{n}\s+{n}\s+{n}\s+{n}"),
            numbers(lines[3], r"{n}\s+{n}\s+{n}\s+{n}\s+stderr ratio vs prev: {n}")]
    assert len(lines) == 4
    assert [row[0] for row in rows] == [200, 400]
    assert reference > 0 and all(row[2] > 0 for row in rows)
    # printed to two decimals
    assert abs(rows[1][4] - rows[0][2] / rows[1][2]) < 0.01


MODULE = '''"""Module docstring
over two lines."""

# a comment
import os


def f(x):
    """One-line docstring."""
    y = (x +
         1)  # a trailing comment
    s = """a string
that is code"""
    return y, s


class C:
    """Docstring
    of a class."""

    z = 1
'''


def test_src_lines(tmp_path):
    # code lines: import, def, the two of y, the two of s, return, class, z
    (tmp_path / "sub").mkdir()
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "sub" / "one.py").write_text("x = 1\n\n")
    lines = run_script("src_lines.py", str(tmp_path))
    assert [line.split() for line in lines] == [
        ["file", "code", "lines"],
        ["mod.py", "9", str(len(MODULE.splitlines()))],
        ["sub/one.py", "1", "2"],
        ["total", "10", str(len(MODULE.splitlines()) + 2)],
    ]


# a stand-in for bench/run.py: run_s is BASE + seed / 1000 s, times 10 for
# workload "b", peak_mem_mib 5.0 MiB; it logs "<checkout> <seed>" to the
# shared log beside the checkouts, and reports `correct: false` for seed BAD
FAKE_RUN = '''import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
here = pathlib.Path(__file__).resolve().parents[1]
with open(here.parent / "log.txt", "a") as log:
    log.write(f"{{here.name}} {{args.seed}}\\n")
seed = int(args.seed)
scale = 10 if args.workload == "b" else 1
metrics = {{"run_s": {{"value": scale * ({base} + seed / 1000), "unit": "s"}},
            "peak_mem_mib": {{"value": 5.0, "unit": "MiB"}}}}
print("run_s ...")
print(json.dumps({{"correct": seed != {bad}, "metrics": metrics}}))
'''


def fake_checkout(root, name, base, bad=-1):
    (root / name / "bench").mkdir(parents=True)
    (root / name / "bench" / "run.py").write_text(FAKE_RUN.format(base=base, bad=bad))
    (root / name / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_mem_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
        {"name": "work_per_s", "unit": "work/s", "better": "higher", "bound": 0.25}]}))
    return root / name


def test_bench_pairs(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 1.0)
    change = fake_checkout(tmp_path, "change", 0.9)
    lines = run_script("bench_pairs.py", str(parent), str(change), "--workload", "w",
                       "--pairs", "4", "--seconds", "1")
    # alternating order, one seed per pair
    assert (tmp_path / "log.txt").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 3", "change 3", "change 4", "parent 4"]
    assert lines[0] == "w: 4 pairs at --seconds 1"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    # work_per_s is in neither side's results
    assert sorted(rows) == ["peak_mem_mib", "run_s"]
    # parent 1.001-1.004 s: median 1.0025, quartiles 1.00175 and 1.00325
    assert rows["run_s"] == ["run_s", "s", "lower", "1.0025", "[1.00175,", "1.00325]",
                             "0.9025", "[0.90175,", "0.90325]", "4/4", "0.0015", "holds",
                             "-9.98%", "25%", "within"]
    # ties win for neither side
    assert rows["peak_mem_mib"][-6:] == ["0/4", "0", "fails", "+0.00%", "5%", "within"]


def test_bench_pairs_over_every_workload(tmp_path):
    # the change is 40% slower: past run_s's 25% bound on both workloads
    parent = fake_checkout(tmp_path, "parent", 1.0)
    change = fake_checkout(tmp_path, "change", 1.4)
    lines = run_script("bench_pairs.py", str(parent), str(change), "--workload", "all",
                       "--pairs", "2", "--seconds", "1")
    # each pair runs every workload, in the pair's order of the sides
    assert (tmp_path / "log.txt").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "parent 1", "change 1",
        "change 2", "parent 2", "change 2", "parent 2"]
    assert [line for line in lines if "pairs at" in line] == [
        "a: 2 pairs at --seconds 1", "b: 2 pairs at --seconds 1"]
    rows = [line.split() for line in lines if line.startswith("run_s")]
    # parent 1.001 and 1.002 s for a, ten times that for b
    assert [row[3] for row in rows] == ["1.0015", "10.015"]
    assert [row[-3:] for row in rows] == [["+39.94%", "25%", "past"]] * 2
    # --workload given twice runs those two, in that order
    lines = run_script("bench_pairs.py", str(parent), str(change), "--workload", "b",
                       "--workload", "a", "--pairs", "1", "--seconds", "1")
    assert [line.split(":")[0] for line in lines if "pairs at" in line] == ["b", "a"]


def test_bench_pairs_stops_on_an_incorrect_run(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 1.0)
    change = fake_checkout(tmp_path, "change", 0.9, bad=2)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           str(parent), str(change), "--workload", "w", "--pairs", "3",
                           "--seconds", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert "run not correct" in done.stderr and "seed 2" in done.stderr


def test_output_digests():
    # every numeric file of every shipped config and of the canonical input
    # of every benchmark workload, and a rerun in a new process prints the
    # same digests
    lines = run_script("output_digests.py")
    rows = [line.split("  ") for line in lines]
    assert all(len(row) == 3 and re.fullmatch(r"[0-9a-f]{64}", row[2]) for row in rows)
    configs = sorted(path.name for path in (ROOT / "configs").glob("*.json"))
    workloads = ["workload:" + w["name"]
                 for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(dict.fromkeys(row[0] for row in rows)) == configs + workloads
    assert all(row[1].endswith((".tsv", ".sdwg")) for row in rows)
    assert ["cyclotron.json", "state_final.sdwg"] in [row[:2] for row in rows]
    assert ["workload:mc_probe", "mc_results.tsv"] in [row[:2] for row in rows]
    assert run_script("output_digests.py") == lines
    # configs given by name run alone, in the order given
    config = str(ROOT / "configs" / "mc_point_probe.json")
    assert run_script("output_digests.py", config) == [
        line for line in lines if line.startswith("mc_point_probe.json")]
