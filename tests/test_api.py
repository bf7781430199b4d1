import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import todalift
from todalift import eisenhart, oplift, toda
from todalift.integrate import IntegratorConfig

MODULES = ["todalift"] + [f"todalift.{info.name}" for info in pkgutil.iter_modules(todalift.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _benchmark_tracer():
    """perfbench/tracer.py, imported by path and only read: the layers the benchmark wraps."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_exist():
    tracer = _benchmark_tracer()
    for modname, funcs in tracer.LAYERS.items():
        module = importlib.import_module(f"todalift.{modname}")
        assert [f for f in funcs if not callable(getattr(module, f, None))] == [], modname
    for fname in ("integrate", "integrate_at_times"):
        params = inspect.signature(getattr(todalift.integrate, fname)).parameters
        assert {"rhs", "monitors"} <= set(params), fname


def _benchmark_reads():
    """(module, name) pairs that the perfbench files (workloads, baselines, the runner, the
    tracer and its tests) read off todalift, found by walking their syntax trees: the files
    are only read, never imported."""
    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    surface = {"toda", "eisenhart", "oplift", "killing", "cli"}
    reads = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "todalift":
                reads |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in surface:
                reads.add((f"todalift.{node.value.id}", node.attr))
    return reads


def test_benchmark_call_surface_resolves():
    # a name the benchmark calls but src/ dropped would otherwise surface only in a benchmark run
    reads = _benchmark_reads()
    assert {("todalift.toda", "run"), ("todalift.eisenhart", "run_geodesic"),
            ("todalift.oplift", "run_geodesic_generalized"), ("todalift.toda", "flow_field"),
            ("todalift.oplift", "integrate")} <= reads
    missing = [(mod, name) for mod, name in sorted(reads) if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_benchmark_spans_are_recorded():
    # the per-layer metrics of the benchmark read these spans; a route that
    # bypasses a module-global lookup would leave them empty
    tracer = _benchmark_tracer()
    sys = toda.TodaSystem(3, [0.8, 1.1])
    q, p = np.array([-0.5, 0.1, 0.4]), np.array([0.2, -0.3, 0.1])
    cfg = IntegratorConfig(t_final=0.5)
    log = tracer.SpanLog()
    with tracer.Tracer(log):
        traj = toda.run(sys, toda.PhaseState(q=q, p=p), cfg)
        toda.evolve_A(sys, traj)
        eisenhart.run_geodesic(sys, eisenhart.EisenhartState(q=q, y=0.0, p=p, p_y=0.9), cfg)
        oplift.run_geodesic_generalized(sys, oplift.OPState(q=q, omega=[0.1, 0.2], p_q=p, p_omega=sys.g), cfg)
        one = tracer.pass_counts(log)
        eisenhart.lifted_invariants(sys, eisenhart.EisenhartState(q=q, y=0.0, p=p, p_y=0.9), 3)
    counts = tracer.pass_counts(log)
    for name in ("toda.lax_pair", "toda.invariants", "toda.evolve_A", "eisenhart.lifted_invariants",
                 "oplift.generalized_invariants", "integrate.rhs", "integrate.monitor"):
        assert one.get(name, 0) >= 1, name
    # the one-state lifted invariants reach toda.lax_pair through eisenhart.lifted_lax
    assert counts["eisenhart.lifted_invariants"] == one["eisenhart.lifted_invariants"] + 1
    assert counts["toda.lax_pair"] == one["toda.lax_pair"] + 1


@pytest.mark.parametrize(
    "fname, method",
    [("integrate", "adaptive"), ("integrate_at_times", "adaptive"),
     ("integrate_at_times", "extrapolation"), ("integrate_at_times", "rk4")],
)
def test_each_integrator_call_is_one_span_over_its_rhs_spans(fname, method):
    # the benchmark counts RHS evaluations as spans inside the integrator's
    # span; an entry point that reached the other through the module would
    # record every evaluation twice
    tracer = _benchmark_tracer()
    sys = toda.TodaSystem(3, [0.8, 1.1])
    y0 = toda.CHAIN.pack(toda.PhaseState(q=[-0.5, 0.1, 0.4], p=[0.2, -0.3, 0.1]))
    cfg = IntegratorConfig(method=method, dt=0.05, t_final=2.0)
    monitors = toda.CHAIN.monitors(sys, 2)
    log = tracer.SpanLog()
    with tracer.Tracer(log):
        fn = getattr(todalift.integrate, fname)
        args = (toda.flow_field(sys), y0) + ((np.linspace(0.0, 2.0, 9),) if fname == "integrate_at_times" else ())
        traj = fn(*args, cfg, monitors=monitors)
    counts = tracer.pass_counts(log)
    assert counts[f"integrate.{fname}"] == 1
    assert sum(counts.get(f"integrate.{f}", 0) for f in ("integrate", "integrate_at_times")) == 1
    assert counts["integrate.rhs"] == traj.stats["nfev"]
    # each monitor is one span, called once on the recorded states
    assert counts["integrate.monitor"] == len(monitors) >= 1
