"""todalift benchmark: one seeded workload, closed loop, one client, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 30 --trace 0

The workload's case list is generated from --seed and run in repeated
passes (the next case starts when the previous one ends) until --seconds
is used up, with at least MIN_PASSES passes.  Every execution is checked
against the workload's oracle.  With --trace 0 no wrapper is installed and
the end-to-end metrics are printed; with --trace 1 passes run in the
pattern untraced, traced, traced, ..., and the per-layer metrics of the
traced passes are printed together with the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs the three workloads one after another, each in its
own process.  A human-readable report precedes the JSON line, and a
detailed report goes to perfbench/out/.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process
# or in the set-up probes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
# A run stops starting passes after this long, so that it ends well within
# 180 s even when the program under test is several times slower.
HARD_STOP_S = 110.0
SETUP_REPEATS = 5
UNSTEADY_SPREAD = 0.10
# Host-speed calibration.  On a shared host, wall time (and process CPU
# time with it) drifts by 20% or more between and within runs of identical
# work.  A fixed kernel shaped like todalift's hot paths (validated state
# dataclass, tridiagonal matrix powers, small-vector RHS arithmetic), timed
# before and after every case, tracks that drift; each case time is
# rescaled by CALIBRATION_NOMINAL_S / (mean of the two kernel times), which
# gives times at one fixed nominal host speed.
CALIBRATION_REPS = 100
CALIBRATION_NOMINAL_S = 0.006
END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_ms.p50": "ms",
    "case_ms.p90": "ms",
    "fail_ratio": "ratio",
    "err_log10": "log10",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class _CalibrationPoint:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("calibration point must be finite and of equal shapes")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def calibrate() -> float:
    """Wall time of the fixed calibration kernel; it calls no todalift code."""
    x = np.linspace(-1.0, 1.0, 6)
    idx = np.arange(5)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        point = _CalibrationPoint(q=x, p=x[::-1])
        w = np.exp(2.0 * (point.q[:-1] - point.q[1:]))
        mat = np.diag(point.p)
        mat[idx + 1, idx] = 1.0
        mat[idx, idx + 1] = w
        power = mat
        for k in range(3):
            acc += float(np.trace(power)) / (k + 1)
            power = power @ mat
        out = np.empty(12)
        out[:6] = point.p
        out[6:] = 0.0
        out[6:11] -= 2.0 * w
        out[7:] += 2.0 * w
        acc += float(np.sqrt(np.mean(out**2)))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return elapsed


def import_todalift():
    """Import todalift from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "todalift", "__init__.py")):
        raise SystemExit(f"error: no todalift sources under {SRC}")
    sys.path.insert(0, SRC)
    import todalift

    if os.path.dirname(os.path.dirname(os.path.abspath(todalift.__file__))) != SRC:
        raise SystemExit(f"error: todalift imported from {todalift.__file__}, not {SRC}")
    return todalift


def set_up(workload: str, seed: int, workdir: str):
    """Import, generate the pass's cases and run the first one as a warm-up."""
    import_todalift()
    cases = workloads.make_cases(workload, seed, workdir)
    warm = cases[0]
    outcome = warm.check(warm.run())
    if not (outcome.ok or outcome.known_defect):
        raise SystemExit(f"error: warm-up case {warm.label} failed: {outcome.detail}")
    return cases


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and speed-adjusted times of SETUP_REPEATS fresh interpreters doing set_up().

    Each probe times the calibration kernel itself after its set-up, since
    it may run on the other core; those kernel runs are not set-up time.
    """
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        kernel = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(elapsed - sum(kernel))
        adjusted.append(raw[-1] * CALIBRATION_NOMINAL_S / statistics.median(kernel))
    return raw, adjusted


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Runner:
    """Executes passes over one case list and keeps every execution's record."""

    def __init__(self, cases):
        self.cases = cases
        self.raw = [[] for _ in cases]  # wall seconds per execution
        self.adjusted = [[] for _ in cases]  # rescaled to the nominal host speed
        self.busy: list[float] = []  # adjusted busy time of each pass
        self.first = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[tuple[object, object]] = []

    def run_pass(self, log=None) -> float:
        """One pass over every case; returns its wall duration."""
        p0 = time.perf_counter()
        busy = 0.0
        before = calibrate()
        for case in self.cases:
            if log is not None:
                log.case_id = case.cid
            t0 = time.perf_counter()
            try:
                result = case.run()
                error = None
            except Exception as exc:  # a valid input that raises is a failed case
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if log is not None:
                log.case_id = -1
            after = calibrate()
            outcome = workloads.Outcome(ok=False, detail=error) if error else case.check(result)
            self.raw[case.cid].append(t1 - t0)
            self.adjusted[case.cid].append((t1 - t0) * CALIBRATION_NOMINAL_S / (0.5 * (before + after)))
            before = after
            busy += self.adjusted[case.cid][-1]
            self.attempted += 1
            if self.first[case.cid] is None:
                self.first[case.cid] = outcome
            if not outcome.ok:
                self.failed += 1
                if not outcome.known_defect:
                    self.unexpected.append((case, outcome))
        self.busy.append(busy)
        return time.perf_counter() - p0


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else 0.0


def timing(per_case: list[list[float]]) -> dict:
    """Throughput from per-case medians over passes; percentiles over all executions."""
    medians = [statistics.median(t) for t in per_case]
    executions = sorted(t * 1e3 for ts in per_case for t in ts)
    p90 = None
    if len(executions) >= 100:  # so that at least ten executions lie beyond it
        p90 = statistics.quantiles(executions, n=10, method="inclusive")[-1]
    return {
        "cases_per_s": len(medians) / sum(medians),
        "case_ms.p50": statistics.median(executions),
        "case_ms.p90": p90,
    }


def end_to_end(runner: Runner, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """End-to-end metrics at nominal host speed, and the same timings in plain wall time."""
    errors = [o.err for o in runner.first if o is not None and o.err is not None]
    worst = max(errors) if errors else 0.0
    metrics = {
        **timing(runner.adjusted),
        "fail_ratio": runner.failed / runner.attempted,
        "err_log10": math.log10(max(worst, 1e-16)),
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {**timing(runner.raw), "setup_s": statistics.median(setup[0])}
    return metrics, wall


def _more(done: int, minimum: int, started: float, durations: list[float], seconds: float) -> bool:
    """Whether to start another pass of median length within the time left."""
    elapsed = time.perf_counter() - started
    if done and elapsed > HARD_STOP_S:
        return False
    return done < minimum or elapsed + statistics.median(durations) <= seconds


def run_untraced(runner: Runner, seconds: float) -> list[float]:
    pass_s: list[float] = []
    started = time.perf_counter()
    while _more(len(pass_s), MIN_PASSES, started, pass_s, seconds):
        pass_s.append(runner.run_pass())
    return pass_s


def run_traced(runner: Runner, seconds: float) -> tuple[list[float], list[float], list]:
    """Passes in the pattern untraced, traced, traced, untraced, ...: at least
    one untraced pass for the overhead and two traced ones whose span counts
    must agree.  Returns the untraced and traced busy times and the span logs.
    """
    plain: list[float] = []
    traced: list[float] = []
    logs = []
    wall: list[float] = []
    started = time.perf_counter()
    while _more(len(wall), 3, started, wall, seconds):
        if len(wall) % 3 == 0:
            wall.append(runner.run_pass())
            plain.append(runner.busy[-1])
        else:
            log = tracer.SpanLog()
            with tracer.Tracer(log):
                wall.append(runner.run_pass(log))
            traced.append(runner.busy[-1])
            logs.append(log)
    return plain, traced, logs


def write_spans(path: str, logs) -> None:
    arrays = {}
    for i, log in enumerate(logs):
        for key, values in log.arrays().items():
            arrays[f"pass{i}_{key}"] = values
    arrays["names"] = np.array(logs[0].names)
    np.savez(path, **arrays)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_failures(runner: Runner) -> list[dict]:
    rows = []
    for case, outcome in zip(runner.cases, runner.first):
        if outcome is not None and not outcome.ok:
            cfg = {k: v for k, v in case.config.items() if k != "argv"}
            rows.append({"case": case.cid, "label": case.label, "n": case.n,
                         "known_defect": outcome.known_defect, "detail": outcome.detail,
                         "config": cfg, "argv": case.config.get("argv")})
    return rows


def traced_run(args, runner: Runner) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes; also whether span counts repeated."""
    plain, traced, logs = run_traced(runner, args.seconds)
    metrics = tracer.layer_metrics(logs, [c.label for c in runner.cases])
    metrics["cli.output_bytes"] = workloads.output_bytes(runner.cases) if args.workload == "cli_suite" else 0
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    counts = [tracer.pass_counts(log) for log in logs]
    repeat = all(c == counts[0] for c in counts)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; median busy time "
          f"{statistics.median(plain):.3f} s untraced, {statistics.median(traced):.3f} s traced "
          f"(tracing overhead {metrics['trace.overhead_pct']:.1f}%)")
    print(f"span counts identical across traced passes: {repeat}; "
          "counts are per pass, times are medians over spans (wall time)")
    for key in sorted(metrics):
        print(f"  {key:48s} {_fmt(metrics[key])}")
    write_spans(os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.npz"), logs)
    return metrics, repeat


def untraced_run(args, runner: Runner, setup) -> dict:
    pass_s = run_untraced(runner, args.seconds)
    metrics, wall = end_to_end(runner, setup)
    print(f"passes: {len(pass_s)} x {len(runner.cases)} cases = {runner.attempted} executions, "
          f"{runner.failed} failed; pass wall-time spread {100 * spread(pass_s):.1f}%, "
          f"after host-speed adjustment {100 * spread(runner.busy):.1f}%")
    if spread(runner.busy) > UNSTEADY_SPREAD:
        print("note: timings were unsteady in this run even after host-speed adjustment; "
              "compare the exact span counts of a --trace 1 run instead")
    print(f"  {'metric':14s} {'nominal speed':>14s} {'wall time':>12s}")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:14s} {_fmt(metrics[key]):>14s} {_fmt(wall.get(key, metrics[key])):>12s} {unit}")
    return metrics


def run_workload(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT)
    try:
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        runner = Runner(set_up(args.workload, args.seed, workdir))
        info = {**machine_info(), "calibration_ms": round(1e3 * calibrate(), 3)}
        print(f"workload {args.workload} seed {args.seed}: {len(runner.cases)} cases per pass, "
              f"closed loop, 1 client, trace={args.trace}")
        print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
        if args.trace:
            metrics, repeat = traced_run(args, runner)
        else:
            metrics, repeat = untraced_run(args, runner, setup), True

        failures = report_failures(runner)
        for row in failures:
            tag = "known defect" if row["known_defect"] else "UNEXPECTED"
            print(f"failed ({tag}): case {row['case']} {row['label']} n={row['n']}: {row['detail']}")
            if row["argv"]:
                print(f"    config={json.dumps(row['config'])}")
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": info, "metrics": metrics, "failures": failures,
            "case_median_ms": [1e3 * statistics.median(t) for t in runner.adjusted],
            "case_median_wall_ms": [1e3 * statistics.median(t) for t in runner.raw],
        }
        with open(os.path.join(OUT, f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not runner.unexpected and repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def _declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_todalift()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
