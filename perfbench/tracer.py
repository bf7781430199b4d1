"""Per-layer spans recorded from outside todalift.

While installed, the tracer replaces each public function listed in LAYERS
with a wrapper that records a span (name, start, end, parent span, case id),
in every todalift module namespace that binds the function.  The integrator
entry points additionally wrap the RHS and monitor callables they receive,
so every right-hand-side and monitor evaluation becomes a span of its own.
Spans are kept in flat arrays in memory and reduced to per-layer metrics
when the run ends; nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the tracer.  A span's name is
# "<module>.<function>".
LAYERS = {
    "integrate": ("integrate", "integrate_at_times"),
    "toda": ("invariants", "lax_pair", "evolve_A"),
    "eisenhart": ("lifted_invariants", "hamiltonian_eisenhart"),
    "oplift": (
        "generalized_invariants",
        "generalized_hamiltonian",
        "exact_geodesic",
        "exact_geodesic_raw",
        "project_to_coordinates",
        "xdot_xinv",
    ),
    "linalg": ("udu_decompose", "unitriangular_inverse", "mat_exp"),
    "killing": ("poisson_bracket_fd", "extract_tensor", "verify_killing"),
    "findings": (
        "invariant_normalization_finding",
        "lambda_factor_finding",
        "zdot_orientation_finding",
        "f_variant_finding",
    ),
    "cli": ("run_command", "write_trajectory"),
}

RHS = "integrate.rhs"
MONITOR = "integrate.monitor"
_INTEGRATORS = ("integrate.integrate", "integrate.integrate_at_times")
_INVARIANTS = ("toda.invariants", "eisenhart.lifted_invariants", "oplift.generalized_invariants")


class SpanLog:
    """Flat in-memory span store; one log per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.case_id = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.case.append(self.case_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _plain_wrapper(log: SpanLog, name: str, fn):
    nid = log.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return log.call(nid, fn, args, kwargs)

    return wrapper


def _callback(log: SpanLog, nid: int, fn):
    def wrapped(*args):
        return log.call(nid, fn, args, {})

    return wrapped


def _integrator_wrapper(log: SpanLog, name: str, fn):
    """Span around an integrator call whose RHS and monitors are spans too."""
    nid = log.intern(name)
    rhs_id = log.intern(RHS)
    mon_id = log.intern(MONITOR)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["rhs"] = _callback(log, rhs_id, bound.arguments["rhs"])
        monitors = bound.arguments.get("monitors")
        if monitors:
            bound.arguments["monitors"] = {k: _callback(log, mon_id, m) for k, m in monitors.items()}
        return log.call(nid, fn, bound.args, bound.kwargs)

    return wrapper


def _todalift_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "todalift" or name.startswith("todalift.")]


class Tracer:
    """Installs span-recording wrappers; restores every binding on uninstall."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        homes = {name: importlib.import_module(f"todalift.{name}") for name in LAYERS}
        modules = _todalift_modules()
        for modname, funcs in LAYERS.items():
            home = homes[modname]
            for fname in funcs:
                original = getattr(home, fname)
                name = f"{modname}.{fname}"
                make = _integrator_wrapper if name in _INTEGRATORS else _plain_wrapper
                wrapper = make(self.log, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def pass_counts(log: SpanLog) -> dict[str, int]:
    """Exact span counts of one pass, keyed by span name."""
    ids = np.frombuffer(log.name_id, dtype=np.int32)
    counts = np.bincount(ids, minlength=len(log.names))
    return {name: int(counts[i]) for i, name in enumerate(log.names)}


def layer_metrics(logs: list[SpanLog], case_labels: list[str]) -> dict[str, float | None]:
    """Reduce the spans of one or more identical traced passes to metrics.

    Counts come from the first pass (the caller checks they repeat);
    durations are medians over the spans of every pass.  Self time is a
    span's duration minus the durations of its direct child spans.
    """
    per_pass = [_derived(log, case_labels) for log in logs]
    out: dict[str, float | None] = dict(per_pass[0]["counts"])
    pooled: dict[str, list[np.ndarray]] = {}
    for derived in per_pass:
        for key, values in derived["samples"].items():
            pooled.setdefault(key, []).append(values)
    for key, chunks in pooled.items():
        out[key] = _median(np.concatenate(chunks))
    return out


def _derived(log: SpanLog, case_labels: list[str]) -> dict:
    a = log.arrays()
    names = log.names
    nspan = len(a["start"])
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nspan)
    self_time = dur - child_sum

    def ids_of(*wanted) -> np.ndarray:
        nids = [names.index(w) for w in wanted if w in names]
        return np.isin(a["name_id"], nids)

    counts: dict[str, int] = {}
    samples: dict[str, np.ndarray] = {}

    integ = ids_of(*_INTEGRATORS)
    rhs = ids_of(RHS)
    mon = ids_of(MONITOR)
    counts["integrate.calls"] = int(integ.sum())
    counts["integrate.rhs_calls"] = int(rhs.sum())
    # DOPRI5 evaluates the RHS once at the start and six times per trial
    # step (first-same-as-last reuse)
    counts["integrate.trial_steps"] = (counts["integrate.rhs_calls"] - counts["integrate.calls"]) // 6
    counts["integrate.monitor_calls"] = int(mon.sum())
    samples["integrate.rhs_us"] = dur[rhs] * 1e6
    samples["integrate.self_ms"] = self_time[integ] * 1e3
    mon_sum = np.bincount(parent[mon], weights=dur[mon], minlength=nspan)
    samples["integrate.monitor_ms"] = mon_sum[integ] * 1e3

    def calls_and_time(name: str, suffix: str, scale: float, use_self: bool = False):
        sel = ids_of(name)
        counts[f"{name}.calls"] = int(sel.sum())
        samples[f"{name}.{suffix}"] = (self_time if use_self else dur)[sel] * scale

    for name in ("toda.invariants", "toda.lax_pair", "eisenhart.lifted_invariants",
                 "oplift.generalized_invariants", "oplift.exact_geodesic",
                 "oplift.exact_geodesic_raw", "oplift.project_to_coordinates",
                 "oplift.xdot_xinv", "linalg.udu_decompose"):
        calls_and_time(name, "us", 1e6)
    for name in ("toda.evolve_A", "killing.extract_tensor", "killing.verify_killing",
                 "cli.write_trajectory"):
        calls_and_time(name, "ms", 1e3)
    calls_and_time("killing.poisson_bracket_fd", "self_us", 1e6, use_self=True)
    for name in ("eisenhart.hamiltonian_eisenhart", "oplift.generalized_hamiltonian",
                 "linalg.unitriangular_inverse", "linalg.mat_exp"):
        counts[f"{name}.calls"] = int(ids_of(name).sum())
    for fname in LAYERS["findings"]:
        sel = ids_of(f"findings.{fname}")
        samples[f"findings.{fname}.ms"] = dur[sel] * 1e3

    # Richardson retries: a bracket span with bracket children re-evaluated
    # a sample that failed the coarse gate.
    brk = ids_of("killing.poisson_bracket_fd")
    nested = brk & np.isin(parent, np.flatnonzero(brk))
    retries = len(np.unique(parent[nested]))
    top_level = int((brk & ~nested).sum())
    bracket_samples = top_level - retries
    counts["killing.bracket_retry_ratio"] = retries / bracket_samples if bracket_samples else 0.0
    ext = np.flatnonzero(ids_of("killing.extract_tensor"))
    counts["killing.extract_invariant_evals"] = int((ids_of(*_INVARIANTS) & np.isin(parent, ext)).sum())

    cli_runs = np.flatnonzero(ids_of("cli.run_command"))
    by_command: dict[str, list[float]] = {}
    for idx in cli_runs:
        by_command.setdefault(case_labels[a["case"][idx]], []).append(dur[idx] * 1e3)
    for label, values in by_command.items():
        samples[f"cli.run_command.ms.{label}"] = np.asarray(values)

    return {"counts": counts, "samples": samples}
