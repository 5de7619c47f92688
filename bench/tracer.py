"""Span tracer that wraps sdwigner's public functions from outside the package.

Wrapping works on bound names: every attribute of every loaded `sdwigner`
module that *is* a target function object is replaced for the duration of a
`with Patch(...)` block, so a name imported with `from .x import f` is traced
where it is called.  Targets are found by name in whatever module defines
them, so moving a function between modules keeps its metric.  A target that
no longer exists makes every metric resting on it absent; a target that
exists but is not called on a workload gives zero.

Spans (name, start, end, parent) are kept in memory and written out once,
by the caller, when the traced pass ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

MIB = float(2 ** 20)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1     # index of the enclosing span in the same trace; -1 for a root


@dataclass
class Trace:
    """Spans and counters of one traced run."""

    spans: List[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    scale: float = 1.0   # multiplies every span duration (see harness.SpeedProbe)

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts),
                "scale": self.scale}


class Tracer:
    def __init__(self):
        self.trace = Trace()
        self._stack: List[int] = []

    def take(self) -> Trace:
        """Hand over the spans recorded so far and start an empty trace."""
        done, self.trace = self.trace, Trace()
        return done

    def open(self, name: str) -> int:
        spans = self.trace.spans
        spans.append(Span(name, time.perf_counter(),
                          parent=self._stack[-1] if self._stack else -1))
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def close(self, index: int) -> None:
        self.trace.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, span: bool = True,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = self.open(name) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self.close(index)
            if after is not None:
                after(self.trace.counts, args, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# what is wrapped, and the counters read off arguments and results
# ---------------------------------------------------------------------------

def _trace_rhs_argument(tracer: Tracer, args, kwargs):
    # the RHS closure from make_rhs reaches the stepper as its third argument
    if len(args) >= 3 and callable(args[2]):
        args = args[:2] + (tracer.wrap("rhs", args[2]),) + args[3:]
    elif callable(kwargs.get("rhs")):
        kwargs = dict(kwargs, rhs=tracer.wrap("rhs", kwargs["rhs"]))
    return args, kwargs


def _count_shift(counts, args, result):
    counts["shift_calls"] += 1
    if args and result is not args[0]:
        counts["shift_bytes"] += getattr(result, "nbytes", 0)


def _count_sweeps(counts, args, result):
    counts["fredholm_sweeps"] += getattr(result, "n_sweeps", 0)


def _count_walkers(counts, args, result):
    counts["mc_targets"] += 1
    counts["mc_launched"] += getattr(result, "n_particles", 0)
    counts["mc_capped"] += getattr(result, "n_capped", 0)
    counts["mc_retired"] += getattr(result, "n_retired", 0)


def _count_written(counts, args, result):
    try:
        counts["bytes_written"] += result.stat().st_size
    except (AttributeError, OSError):
        pass


TARGETS: Dict[str, dict] = {
    "load_config": {},
    "linear_coefficients": {},
    "run_simulation": {},
    "evolve": {},
    "rk4_step": {"before": _trace_rhs_argument},
    "advection_term": {},
    # counted only: its time stays with the caller that asked for the copy
    "sample_shift": {"span": False, "after": _count_shift},
    "odd_pair_ladder": {},
    "even_pair_ladder": {},
    "box_offset_sum": {},
    "rhs_semidiscrete": {},
    "momentum_difference": {},
    "momentum_second_difference": {},
    "rhs_continuum_fd": {},
    "force_and_quantum": {},
    "mean_momentum_global": {},
    "boundary_mass_fraction": {},
    "advect_free_flight": {},
    "solve_fredholm_resolvent": {"after": _count_sweeps},
    "mc_estimate_point": {"after": _count_walkers},
    "write_state": {"after": _count_written},
    "write_table": {"after": _count_written},
    "read_state": {},
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sdwigner" or name.startswith("sdwigner."))]


class Patch:
    """Replace bound names of target functions in every loaded sdwigner module.

    `factories` maps a function name to a callable taking the original and
    returning its replacement.  Names found nowhere are listed in `absent`.
    """

    def __init__(self, factories: Dict[str, Callable[[Callable], Callable]]):
        self.factories = factories
        self.absent: set = set()
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        modules = _package_modules()
        for name, factory in self.factories.items():
            originals = {}
            for module in modules:
                value = vars(module).get(name)
                if callable(value) and getattr(value, "__name__", None) == name:
                    originals[id(value)] = value
            if not originals:
                self.absent.add(name)
                continue
            replacement = {key: factory(fn) for key, fn in originals.items()}
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in replacement and value is originals[id(value)]:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, replacement[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def tracing(tracer: Tracer) -> Patch:
    """Patch that wraps every target in TARGETS with a span or counter."""
    return Patch({name: functools.partial(_wrap_target, tracer, name, opts)
                  for name, opts in TARGETS.items()})


def _wrap_target(tracer: Tracer, name: str, opts: dict, fn: Callable) -> Callable:
    return tracer.wrap(name, fn, **opts)


# ---------------------------------------------------------------------------
# per-layer metrics of one trace
# ---------------------------------------------------------------------------

class _Index:
    def __init__(self, trace: Trace):
        self.spans = trace.spans
        self.counts = trace.counts
        self.duration = [(s.end - s.start) * trace.scale for s in self.spans]
        self.child_time = [0.0] * len(self.spans)
        for s, d in zip(self.spans, self.duration):
            if s.parent >= 0:
                self.child_time[s.parent] += d

    def _has_ancestor(self, span: Span, names) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name in names:
                return True
        return False

    def total(self, *names, under: Optional[str] = None) -> float:
        """Time inside spans of `names`, counting nested ones of the group once."""
        return sum(d for s, d in zip(self.spans, self.duration)
                   if s.name in names and not self._has_ancestor(s, names)
                   and (under is None or self._has_ancestor(s, (under,))))

    def self_time(self, name: str) -> float:
        return sum(self.duration[i] - self.child_time[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def _useful_ratio(ix: _Index) -> float:
    launched = ix.counts["mc_launched"]
    if not launched:
        return 0.0
    return (launched - ix.counts["mc_capped"] - ix.counts["mc_retired"]) / launched


def _per_target(ix: _Index) -> float:
    n = ix.calls("mc_estimate_point")
    return ix.total("mc_estimate_point") / n if n else 0.0


# (metric, unit, target functions it rests on, value of one trace)
LAYERS: List[Tuple[str, str, Tuple[str, ...], Callable[[_Index], float]]] = [
    ("config.load_s", "s", ("load_config",), lambda ix: ix.total("load_config")),
    ("kernels.coefficients_s", "s", ("linear_coefficients",),
     lambda ix: ix.total("linear_coefficients")),
    ("runner.self_s", "s", ("run_simulation",), lambda ix: ix.self_time("run_simulation")),
    ("common.evolve_s", "s", ("evolve",), lambda ix: ix.self_time("evolve")),
    ("common.rk4_combine_s", "s", ("rk4_step",), lambda ix: ix.self_time("rk4_step")),
    ("common.rhs_calls", "count", ("rk4_step",), lambda ix: ix.calls("rhs")),
    ("common.advection_s", "s", ("advection_term",), lambda ix: ix.total("advection_term")),
    ("common.shift_calls", "count", ("sample_shift",), lambda ix: ix.counts["shift_calls"]),
    ("common.shift_mib", "MiB", ("sample_shift",), lambda ix: ix.counts["shift_bytes"] / MIB),
    ("semidiscrete.ladder_s", "s", ("odd_pair_ladder", "even_pair_ladder", "box_offset_sum"),
     lambda ix: ix.total("odd_pair_ladder", "even_pair_ladder", "box_offset_sum")),
    ("semidiscrete.rhs_s", "s", ("rhs_semidiscrete",), lambda ix: ix.total("rhs_semidiscrete")),
    ("continuum.momentum_diff_s", "s", ("momentum_difference", "momentum_second_difference"),
     lambda ix: ix.total("momentum_difference", "momentum_second_difference")),
    ("continuum.rhs_s", "s", ("rhs_continuum_fd",), lambda ix: ix.total("rhs_continuum_fd")),
    ("common.record_s", "s", ("mean_momentum_global", "boundary_mass_fraction"),
     lambda ix: ix.total("mean_momentum_global", "boundary_mass_fraction")),
    ("fredholm.free_flight_s", "s", ("advect_free_flight",),
     lambda ix: ix.total("advect_free_flight")),
    ("fredholm.free_flight_calls", "count", ("advect_free_flight",),
     lambda ix: ix.calls("advect_free_flight")),
    ("fredholm.kernel_eval_s", "s", ("force_and_quantum", "solve_fredholm_resolvent"),
     lambda ix: ix.total("force_and_quantum", under="solve_fredholm_resolvent")),
    ("fredholm.sweeps", "count", ("solve_fredholm_resolvent",),
     lambda ix: ix.counts["fredholm_sweeps"]),
    ("mc.estimate_s", "s", ("mc_estimate_point",), _per_target),
    ("mc.useful_ratio", "ratio", ("mc_estimate_point",), _useful_ratio),
    ("mc.capped", "count", ("mc_estimate_point",), lambda ix: ix.counts["mc_capped"]),
    ("mc.retired", "count", ("mc_estimate_point",), lambda ix: ix.counts["mc_retired"]),
    ("io.write_state_s", "s", ("write_state",), lambda ix: ix.total("write_state")),
    ("io.write_mib", "MiB", ("write_state", "write_table"),
     lambda ix: ix.counts["bytes_written"] / MIB),
    ("io.write_table_s", "s", ("write_table",), lambda ix: ix.total("write_table")),
    ("io.read_state_s", "s", ("read_state",), lambda ix: ix.total("read_state")),
]


def layer_values(traces: List[Trace], absent: set) -> Dict[str, Tuple[Optional[float], str]]:
    """Per-layer metric -> (value, unit); value None when the layer is absent.

    Times are the median over the traces; counts must repeat exactly, and
    the value of the first trace is reported (see `varying_counts`).
    """
    indexes = [_Index(t) for t in traces]
    out = {}
    for metric, unit, rests_on, value in LAYERS:
        if absent.intersection(rests_on):
            out[metric] = (None, unit)
        elif unit == "s":
            out[metric] = (float(statistics.median(value(ix) for ix in indexes)), unit)
        else:
            out[metric] = (float(value(indexes[0])), unit)
    return out


def varying_counts(traces: List[Trace], absent: set) -> List[str]:
    """Count metrics whose value differs between traces of the same input."""
    indexes = [_Index(t) for t in traces]
    return [metric for metric, unit, rests_on, value in LAYERS
            if unit != "s" and not absent.intersection(rests_on)
            and len({value(ix) for ix in indexes}) > 1]


def layer_total(trace: Trace, name: str) -> float:
    return _Index(trace).total(name)


def self_time_shares(trace: Trace, root: str) -> List[Tuple[str, float]]:
    """Self time per span name as a share of the `root` span's duration."""
    ix = _Index(trace)
    whole = ix.total(root)
    shares = Counter()
    for i, s in enumerate(trace.spans):
        if s.name != root and ix._has_ancestor(s, (root,)):
            shares[s.name] += (ix.duration[i] - ix.child_time[i]) / whole if whole else 0.0
    return shares.most_common()
