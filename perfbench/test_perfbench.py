"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench

Each test runs a small slice of a workload's pass, so the suite takes
seconds rather than a full benchmark run.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_todalift()

import todalift.cli  # noqa: E402,F401  (imports every todalift module)
import tracer  # noqa: E402
import workloads  # noqa: E402


def _slice(workload: str, cases):
    """A cheap but representative part of one pass."""
    if workload == "trajectories":
        return [c for c in cases if c.n == 3]
    if workload == "killing":
        return [c for c in cases if c.n == 2 or (c.label.startswith("extract") and c.config["k"] < 4)]
    return [c for c in cases if c.n == 2][:20]


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="test_", dir=run.OUT if os.path.isdir(run.OUT) else None)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cases(workload, seed, workdir):
    cases = _slice(workload, workloads.make_cases(workload, seed, workdir))
    for i, case in enumerate(cases):
        case.cid = i
    return cases


def _module_snapshot():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "todalift" or name.startswith("todalift.")
    }


def _assert_same_bindings(before, after):
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert not changed, f"{name}: {changed}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_leave_every_module_attribute_identical(workload, workdir):
    cases = _cases(workload, 5, workdir)
    before = _module_snapshot()
    runner = run.Runner(cases)
    runner.run_pass()
    _assert_same_bindings(before, _module_snapshot())
    with tracer.Tracer(tracer.SpanLog()):
        pass
    _assert_same_bindings(before, _module_snapshot())


def test_tracer_replaces_every_binding_of_a_wrapped_function():
    from todalift import cli, findings, integrate, killing, linalg, oplift, toda

    originals = (integrate.integrate, integrate.integrate_at_times, linalg.udu_decompose)
    with tracer.Tracer(tracer.SpanLog()):
        for mod in (integrate, toda, oplift, killing, findings, cli, linalg):
            for value in vars(mod).values():
                assert all(value is not orig for orig in originals)
        assert toda.integrate is integrate.integrate is oplift.integrate
        assert cli.integrate_at_times is integrate.integrate_at_times
        assert oplift.udu_decompose is linalg.udu_decompose


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, workdir):
    counts = []
    for _ in range(2):
        runner = run.Runner(_cases(workload, 7, workdir))
        log = tracer.SpanLog()
        with tracer.Tracer(log):
            runner.run_pass(log)
        assert not runner.unexpected
        counts.append(tracer.pass_counts(log))
    assert counts[0] == counts[1]
    assert counts[0]["integrate.rhs"] > 0


def test_layer_metrics_cover_declared_per_layer_metrics(workdir):
    runner = run.Runner(_cases("trajectories", 3, workdir))
    logs = []
    for _ in range(2):
        log = tracer.SpanLog()
        with tracer.Tracer(log):
            runner.run_pass(log)
        logs.append(log)
    metrics = tracer.layer_metrics(logs, [c.label for c in runner.cases])
    metrics.update({"cli.output_bytes": 0, "trace.overhead_pct": 0.0})
    for declared in run._declared("per_layer"):
        assert metrics[declared["name"]] is not None, declared["name"]
    calls, rhs = metrics["integrate.calls"], metrics["integrate.rhs_calls"]
    assert metrics["integrate.trial_steps"] == (rhs - calls) // 6 > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_cases_and_every_oracle_holds(workload, workdir):
    one = workloads.make_cases(workload, 1, workdir)
    two = workloads.make_cases(workload, 2, workdir)
    assert [c.label for c in one] == [c.label for c in two]
    assert [c.config for c in one] != [c.config for c in two]
    runner = run.Runner(_cases(workload, 2, workdir))
    runner.run_pass()
    bad = [(c.label, o.detail) for c, o in zip(runner.cases, runner.first) if not (o.ok or o.known_defect)]
    assert not bad


def test_same_seed_same_inputs(workdir):
    a = workloads.make_cases("trajectories", 4, workdir)
    b = workloads.make_cases("trajectories", 4, workdir)
    assert [c.config for c in a] == [c.config for c in b]


def test_prescribed_spectrum_and_moser_oracle():
    rng = np.random.default_rng(0)
    q, p, c, eig, t_final = workloads._scattering_start(rng, 6)
    lax = workloads.lax_nonsymmetric(q, p, c)
    assert np.allclose(np.sort(np.linalg.eigvals(lax).real), eig, atol=1e-10)
    assert t_final == workloads.MOSER_PRODUCT / np.min(np.diff(eig))
    assert workloads.moser_error(eig, eig[::-1]) == 0.0
    assert workloads.moser_error(eig, eig + 1e-6) > workloads.MOSER_TOL


def test_contraction_reference_matches_a_quadratic_form():
    # K = diag(1, 2) plus K^12 = 3: (1/2)(p1^2 + 2 p2^2 + 6 p1 p2)
    table = {(1, 1): 1.0, (2, 2): 2.0, (1, 2): 3.0}
    p = np.array([0.3, -0.7])
    assert workloads.contract(table, p) == pytest.approx(0.5 * (p[0] ** 2 + 2 * p[1] ** 2 + 6 * p[0] * p[1]))


def test_only_exact_geodesic_commands_count_as_known_defects():
    cfg = {"n": 2, "g": [1.0], "t_final": 5.0}
    fail = (1, "FAIL something\n", "")
    assert workloads._check_cli("oplift-compare", cfg, "unused", "csv", fail).known_defect
    assert not workloads._check_cli("toda-run", cfg, "unused", "csv", fail).known_defect
    usage = (2, "", "configuration error: key 'n'\n")
    assert not workloads._check_cli("oplift-run-exact", cfg, "unused", "csv", usage).known_defect
