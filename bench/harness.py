"""One benchmark invocation: checked runs, a timed pass or a traced pass.

Load model: one process, one client, closed loop.  The next run starts when
the previous one has finished; the only concurrency is the Monte Carlo
worker count, which equals nproc.  Each run is one `run_simulation` call on
a config written as JSON and read back with `load_config`, which is what
`sdwigner run` does.

Every run is checked (see `check_outputs`) and counted in `attempted`; a run
whose outputs fail a check, or whose numeric files differ from an earlier
run of the same input, counts in `failed`.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import sdwigner.config as sd_config
import sdwigner.io as sd_io
import sdwigner.runner as sd_runner
import sdwigner.solvers.montecarlo as sd_mc

import tracer as tr
from workloads import WORKLOADS, work

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REF_DIR = BENCH_DIR / "refs"

STATE_REL_TOL = 1e-8   # relative L2 of a final state against its stored reference
MC_SIGMAS = 5.0        # MC estimate against its reference, in combined standard errors
MC_REL_FLOOR = 1e-9    # plus this share of the reference, for targets whose walkers all score alike
SETUP_PROBES = 15      # fresh interpreters timed per invocation for setup_s
SCALING_REPS = 3       # mc_estimate_point calls per worker count for mc.worker_scaling

REQUIRED_FILES = {
    "semidiscrete": ("observables.tsv", "state_final.sdwg"),
    "continuum": ("observables.tsv", "state_final.sdwg"),
    "fredholm": ("fredholm_residuals.tsv", "state_final.sdwg"),
    "mc": ("mc_results.tsv",),
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_reference(name: str, method: str, ref_dir: Path):
    """The stored reference of a workload's canonical input."""
    if method == "mc":
        return json.loads((ref_dir / f"{name}.json").read_text(encoding="utf-8"))
    state, _ = sd_io.read_state(ref_dir / f"{name}.sdwg")
    return state


def check_outputs(cfg, out: Path, reference=None) -> List[str]:
    """Problems with one run's output directory; empty when it is correct.

    With `reference` (canonical input only) the final state, or each MC
    estimate, is also compared with the stored reference.
    """
    problems = []
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    run_hash = cfg.sha256()
    if meta.get("status") != "complete":
        problems.append(f"run_meta.json status is {meta.get('status')!r}")
    if meta.get("config_sha256") != run_hash:
        problems.append("run_meta.json carries another config hash")
    for name in set(REQUIRED_FILES[cfg.method]) | set(meta.get("files", [])):
        if not (out / name).is_file():
            problems.append(f"{name} is missing")
    if problems:
        return problems

    tables = {}
    for path in sorted(out.glob("*.tsv")):
        table_hash, columns, data = sd_io.read_table(path)
        tables[path.name] = (columns, data)
        if table_hash != run_hash:
            problems.append(f"{path.name} carries another config hash")
        if not np.all(np.isfinite(data)):
            problems.append(f"{path.name} holds non-finite values")
    states = {}
    for path in sorted(out.glob("*.sdwg")):
        state, state_hash = sd_io.read_state(path)
        states[path.name] = state
        if state_hash != run_hash:
            problems.append(f"{path.name} carries another config hash")
        if not np.all(np.isfinite(state.values)):
            problems.append(f"{path.name} holds non-finite values")

    if cfg.method == "fredholm":
        residual = tables["fredholm_residuals.tsv"][1][-1, 1]
        if not residual < cfg.fredholm_tol:
            problems.append(f"final Fredholm residual {residual:.3e} is not below "
                            f"fredholm_tol {cfg.fredholm_tol:.1e}")
    if reference is None:
        return problems
    if cfg.method == "mc":
        columns, data = tables["mc_results.tsv"]
        est = data[:, columns.index("estimate")]
        err = data[:, columns.index("stderr")]
        ref = np.asarray(reference["estimate"])
        ref_err = np.asarray(reference["stderr"])
        allowed = MC_SIGMAS * np.hypot(err, ref_err) + MC_REL_FLOOR * np.abs(ref)
        for k in np.flatnonzero(~(np.abs(est - ref) <= allowed)):
            problems.append(f"MC target {k}: estimate {est[k]:.6e} is more than "
                            f"{MC_SIGMAS:g} stderr from the reference {ref[k]:.6e}")
    else:
        diff = sd_io.relative_l2_diff(states["state_final.sdwg"], reference)
        if not diff <= STATE_REL_TOL:
            problems.append(f"final state differs from the reference by relative L2 "
                            f"{diff:.3e} (tolerance {STATE_REL_TOL:.0e})")
    return problems


def output_digests(out: Path) -> Dict[str, str]:
    """SHA-256 of every numeric output file (run_meta.json holds timestamps)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".sdwg", ".tsv")}


class SpeedProbe:
    """Times a fixed mix of interpreter and numpy work, from call-bound to memory-bound.

    The machine the benchmark was set up on (a 2-core VM shared with other
    tenants) slows down by up to ~75% for a minute or more at a time, which
    spread medians of 25 s windows of one workload by 25-40%.  Scaled by
    this probe, taken just before and after each run, they spread by 3-7%.
    Each timed run's wall time is therefore scaled to the speed at which
    the probe takes REFERENCE_S, its full-speed time on that machine.

    The probe allocates nothing after construction: freeing a large array
    raises glibc's mmap and trim thresholds for the whole process, which
    made the ladder workload's own allocations three times cheaper.
    """

    REFERENCE_S = 0.027

    def __init__(self):
        sizes = (1000, 30000, 270000, 1000000)
        self._arrays = [np.linspace(0.0, 1.0, n) for n in sizes]
        self._buffers = [np.empty(n) for n in sizes]
        self._index = np.arange(0, 30000, 3)
        self._picked = np.empty(self._index.size)
        self.times: List[float] = []

    def __call__(self) -> float:
        (tiny, mid, l3, large), (t_out, m_out, l3_out, l_out) = self._arrays, self._buffers
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        for i in range(25_000):
            abs(i)
        for _ in range(1500):
            np.multiply(tiny, 2.0, out=t_out)
        for _ in range(100):
            np.multiply(mid, 1.0001, out=m_out)
            np.add(m_out, mid, out=m_out)
            np.take(mid, self._index, out=self._picked)
        for _ in range(15):
            np.multiply(l3, 1.0001, out=l3_out)
            np.add(l3_out, l3, out=l3_out)
        for _ in range(3):
            np.multiply(large, 1.0001, out=l_out)
            np.add(l_out, large, out=l_out)
        return time.perf_counter() - start

    def run(self, work: Callable[[], Optional[float]], stop: Callable[[int], bool]):
        """Call `work` until `stop(calls made)` is true, at least once.

        Returns (wall time or None, scale to reference speed) per call; a
        call's scale comes from the probes taken just before and after it.
        """
        results = []
        before = self()
        while True:
            elapsed = work()
            after = self()
            self.times.append(after)
            results.append((elapsed, self.REFERENCE_S / (0.5 * (before + after))))
            before = after
            if stop(len(results)):
                return results


class Runs:
    """Executes and checks runs, tallying attempted and failed ones."""

    def __init__(self, workers: int, emit: Callable[[str], None]):
        self.workers = workers
        self.emit = emit
        self.speed = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self._digests: Dict[Path, Dict[str, str]] = {}

    def execute(self, cfg_path: Path, out: Path, reference=None,
                tracer: Optional[tr.Tracer] = None) -> Optional[float]:
        """One checked run; returns its wall time, or None if it failed.

        Runs of the same config file must produce byte-identical numeric files.
        """
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        root = tracer.open("bench.run") if tracer is not None else None
        try:
            cfg = sd_config.load_config(cfg_path)
            start = time.perf_counter()
            sd_runner.run_simulation(cfg, out_dir=out, workers=self.workers)
            elapsed = time.perf_counter() - start
            problems = check_outputs(cfg, out, reference)
            digests = output_digests(out)
            first = self._digests.setdefault(cfg_path, digests)
            if digests != first:
                problems.append("numeric output files differ from an earlier run "
                                "with the same seed and worker count")
        except Exception as exc:  # a run that raises is a failed run, not a crash
            problems = [f"run raised {type(exc).__name__}: {exc}"]
        finally:
            if root is not None:
                tracer.close(root)
        if problems:
            self.failed += 1
            for p in problems:
                self.emit(f"FAILED run {self.attempted}: {p}")
            return None
        return elapsed

    def timed(self, cfg_path: Path, out: Path, seconds: float,
              tracer: Optional[tr.Tracer] = None):
        """Back-to-back runs until `seconds` have passed (at least one).

        Returns the run times at reference speed, the raw wall times, and
        the traces when a tracer is given.
        """
        traces: List[tr.Trace] = []

        def one_run():
            elapsed = self.execute(cfg_path, out, tracer=tracer)
            if tracer is not None:
                traces.append(tracer.take())
            return elapsed

        deadline = time.perf_counter() + seconds
        results = self.speed.run(one_run, lambda calls: time.perf_counter() >= deadline)
        for trace, (_, scale) in zip(traces, results):
            trace.scale = scale
        return ([t * scale for t, scale in results if t is not None],
                [t for t, _ in results if t is not None], traces)


# ---------------------------------------------------------------------------
# measurements besides the timed runs
# ---------------------------------------------------------------------------

def setup_times(cfg_path: Path, count: int, speed: SpeedProbe):
    """Set-up times of `count` fresh interpreters, each timed from inside.

    Returns the times at reference speed and the raw wall times.
    """
    def probe():
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1])

    results = speed.run(probe, lambda calls: calls >= count)
    return [t * scale for t, scale in results], [t for t, _ in results]


def memory_pass(runs: Runs, cfg_path: Path, out: Path):
    """(peak traced allocation of one run, Fredholm working set, absent names), bytes.

    The working set is the peak allocated inside solve_fredholm_resolvent
    above what was allocated when it was entered; zero if it is not called.
    """
    seen = {"before": 0, "working_set": 0, "peak": 0}

    def solver_window(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, seen["before"] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                seen["working_set"] = tracemalloc.get_traced_memory()[1] - current
        return measured

    def run_peak(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                seen["peak"] = max(tracemalloc.get_traced_memory()[1], seen["before"])
        return measured

    tracemalloc.start()
    try:
        with tr.Patch({"solve_fredholm_resolvent": solver_window,
                       "run_simulation": run_peak}) as patch:
            runs.execute(cfg_path, out)
    finally:
        tracemalloc.stop()
    return seen["peak"], seen["working_set"], patch.absent


def worker_scaling(cfg_path: Path, workers: int) -> float:
    """mc_estimate_point time at 1 worker divided by its time at `workers`."""
    cfg = sd_config.load_config(cfg_path)
    grid = cfg.build_grid()
    field = cfg.build_field()
    scfg = cfg.build_solver_config()
    f0 = cfg.build_initial_state(grid)
    t = cfg.mc_targets[0]
    target = (np.asarray(t.m_index, dtype=int),
              np.asarray(t.position_nm, dtype=float) * sd_config.NM)
    times = {1: [], workers: []}
    for _ in range(SCALING_REPS):
        for w in (1, workers):
            start = time.perf_counter()
            sd_mc.mc_estimate_point(target, f0, field, grid, scfg, workers=w)
            times[w].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[workers])


def tail(samples: List[float]):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_context(name: str, seed: int, workers: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": nproc(),
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            ref_dir: Path = REF_DIR, tiny: bool = False, setup_probes: int = SETUP_PROBES,
            emit: Callable[[str], None] = print) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    workload = WORKLOADS[name]
    workers = nproc()
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    out = work_dir / "out"
    seeded = workload.config(seed, tiny)
    paths = {}
    for label, cfg in (("canonical", workload.config(None, tiny)), ("seeded", seeded)):
        paths[label] = work_dir / f"{label}.json"
        paths[label].write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    emit(f"context {json.dumps(run_context(name, seed, workers), sort_keys=True)}")
    runs = Runs(workers, emit)
    # the canonical input is compared with the stored reference; it also warms up
    runs.execute(paths["canonical"], out, reference=load_reference(name, workload.method, ref_dir))
    peak, working_set, mem_absent = memory_pass(runs, paths["seeded"], out)

    if trace:
        metrics = _traced_pass(runs, paths["seeded"], out, seconds, workload.method,
                               workers, working_set, mem_absent, work_dir, emit)
    else:
        metrics = _timed_pass(runs, paths, out, seconds, work(seeded), peak,
                              setup_probes, emit)
    shutil.rmtree(out, ignore_errors=True)

    emit(f"error_rate {runs.failed / runs.attempted:.4g} ratio "
         f"({runs.failed} failed of {runs.attempted} attempted runs)")
    return {"correct": runs.failed == 0, "attempted": runs.attempted,
            "failed": runs.failed, "metrics": metrics}


def _timed_pass(runs, paths, out, seconds, work_units, peak, setup_probes, emit) -> dict:
    setup, setup_raw = setup_times(paths["seeded"], setup_probes, runs.speed)
    samples, raw, _ = runs.timed(paths["seeded"], out, seconds)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "peak_mem_mib": (peak / tr.MIB, "MiB")}
    emit(f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh interpreters; "
         f"raw wall median {statistics.median(setup_raw):.4f} s)")
    emit(f"peak_mem_mib {metrics['peak_mem_mib'][0]:.4f} MiB (one traced-allocation pass)")
    if samples:
        run_s = statistics.median(samples)
        tail_s, pct = tail(samples)
        metrics.update({"run_s": (run_s, "s"), "run_s_tail": (tail_s, "s"),
                        "work_per_s": (work_units / run_s, "work/s")})
        emit(f"run_s {run_s:.4f} s (median of {len(samples)} runs; "
             f"raw wall median {statistics.median(raw):.4f} s)")
        emit(f"speed probe median {statistics.median(runs.speed.times) * 1e3:.2f} ms "
             f"(reference {SpeedProbe.REFERENCE_S * 1e3:.2f} ms)")
        if len(samples) > 10:
            emit(f"run_s_tail {tail_s:.4f} s (p{pct:.0f} of {len(samples)} runs, 10 beyond it)")
        else:
            emit(f"run_s_tail {tail_s:.4f} s (maximum of {len(samples)} runs: too few "
                 f"for a percentile with ten beyond it)")
        emit(f"work_per_s {work_units / run_s:.6g} work/s ({work_units:.6g} work per run)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _traced_pass(runs, cfg_path, out, seconds, method, workers, working_set,
                 mem_absent, work_dir, emit) -> dict:
    untraced, _, _ = runs.timed(cfg_path, out, seconds / 2)
    tracer = tr.Tracer()
    with tr.tracing(tracer) as patch:
        _, _, traces = runs.timed(cfg_path, out, seconds / 2, tracer=tracer)
    absent = patch.absent | mem_absent

    values = tr.layer_values(traces, absent)
    values["fredholm.working_set_mib"] = (
        None if "solve_fredholm_resolvent" in absent else working_set / tr.MIB, "MiB")
    if "mc_estimate_point" in absent:
        values["mc.worker_scaling"] = (None, "ratio")
    else:
        values["mc.worker_scaling"] = (
            worker_scaling(cfg_path, workers) if method == "mc" else 0.0, "ratio")
    traced_s = statistics.median(tr.layer_total(t, "run_simulation") for t in traces)
    overhead = traced_s - statistics.median(untraced) if untraced else None
    values["trace.overhead_s"] = (overhead, "s")

    spans_path = work_dir / "spans.json"
    spans_path.write_text(json.dumps({"absent": sorted(absent),
                                      "traces": [t.to_json() for t in traces]}),
                          encoding="utf-8")
    emit(f"traced {len(traces)} runs, untraced {len(untraced)} runs; spans in {spans_path}")
    if overhead is not None:
        emit(f"trace overhead {overhead:.4f} s per run (traced run_simulation "
             f"{traced_s:.4f} s, untraced {traced_s - overhead:.4f} s)")
    for metric, (value, unit) in values.items():
        emit(f"{metric} {'absent' if value is None else f'{value:.6g}'} {unit}")
    shares = tr.self_time_shares(traces[-1], "run_simulation")
    emit("self time share of run_simulation: " + ", ".join(
        f"{name} {share:.1%}" for name, share in shares[:6]))
    varying = tr.varying_counts(traces, absent)
    if varying:
        emit("WARNING counts differ between traced runs: " + ", ".join(varying))
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items() if v is not None}
