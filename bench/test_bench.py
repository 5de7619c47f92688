"""The benchmark's own test: every workload once at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

References for the tiny inputs are generated into a temporary directory,
so the stored references in bench/refs are neither read nor changed.
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
sys.path.insert(0, str(BENCH_DIR))

import pytest  # noqa: E402

import harness  # noqa: E402
import make_refs  # noqa: E402
import tracer as tr  # noqa: E402
import sdwigner.io as sd_io  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# counts that must repeat exactly between two traced passes of one input
COUNTS = ("common.rhs_calls", "common.shift_calls", "common.shift_mib",
          "fredholm.free_flight_calls", "fredholm.sweeps", "mc.useful_ratio",
          "mc.capped", "mc.retired", "io.write_mib")


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    ref_dir = tmp_path_factory.mktemp("refs")
    make_refs.make_references(ref_dir, tmp_path_factory.mktemp("ref_work"),
                              tiny=True, mc_particles=20000)
    return ref_dir


def _measure(name, trace, ref_dir, work_dir):
    lines = []
    result = harness.measure(name, seed=3, seconds=0.05, trace=trace, work_dir=work_dir,
                             ref_dir=ref_dir, tiny=True, setup_probes=1, emit=lines.append)
    return result, lines


def _assert_printed(result, lines, metrics):
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metrics_printed_and_counts_repeat(name, tiny_refs, tmp_path):
    result, lines = _measure(name, False, tiny_refs, tmp_path / "timed")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    _assert_printed(result, lines, SPEC["end_to_end"])
    assert any(line.startswith("error_rate 0 ratio") for line in lines)

    first, lines = _measure(name, True, tiny_refs, tmp_path / "traced1")
    second, _ = _measure(name, True, tiny_refs, tmp_path / "traced2")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    _assert_printed(first, lines, SPEC["per_layer"])
    for metric in COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_perturbed_reference_fails_the_run(name, tiny_refs, tmp_path):
    ref_dir = tmp_path / "refs"
    shutil.copytree(tiny_refs, ref_dir)
    if WORKLOADS[name].method == "mc":
        path = ref_dir / f"{name}.json"
        ref = json.loads(path.read_text(encoding="utf-8"))
        ref["estimate"] = [v + 100.0 * se + 1e-6 * abs(v)
                           for v, se in zip(ref["estimate"], ref["stderr"])]
        path.write_text(json.dumps(ref), encoding="utf-8")
    else:
        path = ref_dir / f"{name}.sdwg"
        state, config_hash = sd_io.read_state(path)
        state.values[...] *= 1.0 + 1e-6
        sd_io.write_state(path, state, config_hash)
    result, lines = _measure(name, False, ref_dir, tmp_path / "work")
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED") and "reference" in line for line in lines)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_probe",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_missing_function_is_absent_not_zero():
    with tr.Patch({"no_such_function": lambda fn: fn}) as patch:
        pass
    assert patch.absent == {"no_such_function"}
    values = tr.layer_values([tr.Trace()], {"odd_pair_ladder"})
    assert values["semidiscrete.ladder_s"][0] is None
    assert values["continuum.rhs_s"][0] == 0.0
