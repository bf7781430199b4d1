"""The three benchmark workloads: case generation, execution and oracles.

A case is one public todalift call on inputs generated from the workload
seed.  `make_cases(workload, seed, workdir)` returns the ordered case list
of one pass; every pass of a run repeats the same list, so timings can be
taken as medians over interleaved passes.  Each case's `run` performs the
timed call and returns whatever the oracle needs; `check` verifies that
result against a reference computed here with plain numpy, independently
of the integrator and of todalift's own Lax, invariant and metric code.

Workloads (see README.md for the reasoning):
  trajectories  chain, Eisenhart-lift and generalised-lift runs with sparse
                output, plus a minority of evolve_A co-integrations.
  killing       killing.verify_killing at the criterion-9 settings and
                killing.extract_tensor on the lifted invariants.
  cli_suite     todalift.cli.run_command for every non-Killing subcommand
                with dense output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("trajectories", "killing", "cli_suite")

# Moser (1975): the chain's momenta tend to the sorted eigenvalues of L(0).
# The approach is exponential in (smallest eigenvalue gap) x t; a product
# of 16 still left 2e-8 on one n=6 start, 20 leaves a wide margin.
MOSER_PRODUCT = 20.0
MOSER_TOL = 1e-8
DRIFT_GATE = 1e-8  # the program's own invariant-drift gate (cli._GATE_DRIFT)
CONJUGATION_TOL = 1e-6
EXTRACT_TOL = 1e-10
METRIC_TOL = 1e-10
# Tolerances for the long trajectory runs; at rtol=1e-10 the I_k drift of
# n=10 chains over t ~ 100 reaches the 1e-8 gate.
TRAJ_RTOL = 1e-12
TRAJ_ATOL = 1e-14


@dataclass
class Outcome:
    """Oracle verdict for one case execution."""

    ok: bool
    err: float | None = None  # worst oracle error, where the oracle yields one
    known_defect: bool = False  # a failure that matches a recorded defect
    detail: str = ""


@dataclass
class Case:
    cid: int
    label: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    config: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Independent references


def lax_symmetric(q, p, couplings) -> np.ndarray:
    """Symmetric tridiagonal Lax matrix: p on the diagonal, c_i e^{q_i-q_{i+1}} beside it.

    It is similar to todalift's non-symmetric L, so it has the same spectrum.
    """
    q = np.asarray(q, dtype=float)
    mat = np.diag(np.asarray(p, dtype=float))
    off = np.asarray(couplings, dtype=float) * np.exp(q[:-1] - q[1:])
    i = np.arange(len(q) - 1)
    mat[i, i + 1] = off
    mat[i + 1, i] = off
    return mat


def lax_nonsymmetric(q, p, couplings) -> np.ndarray:
    """todalift's convention: c_i below the diagonal, c_i e^{2(q_i-q_{i+1})} above."""
    q = np.asarray(q, dtype=float)
    c = np.asarray(couplings, dtype=float)
    mat = np.diag(np.asarray(p, dtype=float))
    i = np.arange(len(q) - 1)
    mat[i + 1, i] = c
    mat[i, i + 1] = c * np.exp(2.0 * (q[:-1] - q[1:]))
    return mat


def trace_invariant(q, p, couplings, k: int) -> float:
    return float(np.trace(np.linalg.matrix_power(lax_nonsymmetric(q, p, couplings), k))) / k


def contract(table: dict, momenta) -> float:
    """(1/k!) K^{mu_1..mu_k} p_mu_1..p_mu_k from components on sorted multi-indices."""
    total = 0.0
    for idx, value in table.items():
        term = float(value)
        for mu in idx:
            term *= momenta[mu - 1]
        for mult in Counter(idx).values():
            term /= math.factorial(mult)
        total += term
    return total


def moser_error(eig, p_final) -> float:
    """Distance of the final momenta from the sorted spectrum of L(0)."""
    return float(np.max(np.abs(np.sort(p_final) - eig)) / max(1.0, float(np.max(np.abs(eig)))))


# ---------------------------------------------------------------------------
# trajectories


def jacobi_from_spectrum(eigenvalues, weights) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and positive off-diagonal of the Jacobi matrix with this spectrum.

    Lanczos on diag(eigenvalues) from the unit vector sqrt(weights), with
    full reorthogonalisation (n is at most 10 here).
    """
    n = len(eigenvalues)
    basis = np.zeros((n, n))
    basis[:, 0] = np.sqrt(weights / np.sum(weights))
    diag, off = np.zeros(n), np.zeros(n - 1)
    for j in range(n):
        v = eigenvalues * basis[:, j]
        diag[j] = basis[:, j] @ v
        for _ in range(2):
            v -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ v)
        if j < n - 1:
            off[j] = np.linalg.norm(v)
            basis[:, j + 1] = v / off[j]
    return diag, off


def _scattering_start(rng, n: int):
    """Chain data (q, p, couplings) with a prescribed, well-separated spectrum.

    The eigenvalues of L(0) are spread evenly over [-1.5, 1.5] with a
    jitter of 15% of their spacing, so every start of a given n has nearly
    the same smallest gap and t_final, and the Moser limit is known exactly.
    Near-uniform Lanczos weights (Dirichlet 16) keep the starts of one n
    similar in cost: about 6% spread in RHS evaluations, against 10% with
    Dirichlet 4.
    """
    spacing = 3.0 / (n - 1)
    eig = np.linspace(-1.5, 1.5, n) + rng.uniform(-0.15, 0.15, n) * spacing
    p, off = jacobi_from_spectrum(eig, rng.dirichlet(np.full(n, 16.0)))
    couplings = rng.uniform(0.5, 1.5, n - 1)
    q = np.concatenate([[0.0], -np.cumsum(np.log(off / couplings))])
    q -= q.mean()
    if np.max(np.abs(np.linalg.eigvalsh(lax_symmetric(q, p, couplings)) - eig)) > 1e-12:
        raise ArithmeticError("inverse spectral construction lost the prescribed spectrum")
    return q, p, couplings, eig, MOSER_PRODUCT / float(np.min(np.diff(eig)))


def _trajectory_cases(seed: int) -> list[Case]:
    from todalift import eisenhart, oplift, toda
    from todalift.integrate import IntegratorConfig

    rng = np.random.default_rng([seed, 1])
    specs = []
    for n in range(3, 11):
        specs += [("toda", n), ("eisenhart", n), ("eisenhart_py", n), ("generalized", n)]
    for n in (3, 4, 5, 6):
        specs += [("evolve_A", n)] * 3

    cases = []
    for cid, (kind, n) in enumerate(specs):
        q, p, c, eig, t_final = _scattering_start(rng, n)
        p_y = float(rng.uniform(0.5, 1.5)) if kind == "eisenhart_py" else 1.0
        g = c / p_y
        cfg = IntegratorConfig(rtol=TRAJ_RTOL, atol=TRAJ_ATOL, t_final=t_final, stride=10**9)
        system = toda.TodaSystem(n=n, g=g)

        if kind in ("toda", "evolve_A"):
            state = toda.PhaseState(q=q, p=p)

            def run(system=system, state=state, cfg=cfg, kind=kind):
                traj = toda.run(system, state, cfg)
                mats = toda.evolve_A(system, traj) if kind == "evolve_A" else None
                return traj, traj.states[-1, system.n : 2 * system.n], mats

        elif kind.startswith("eisenhart"):
            state = eisenhart.EisenhartState(q=q, y=float(rng.uniform(-1, 1)), p=p, p_y=p_y)

            def run(system=system, state=state, cfg=cfg):
                traj = eisenhart.run_geodesic(system, state, cfg)
                return traj, traj.states[-1, system.n + 1 : 2 * system.n + 1], None

        else:
            state = oplift.OPState(q=q, omega=rng.uniform(-1.0, 1.0, n - 1), p_q=p, p_omega=c)

            def run(system=system, state=state, cfg=cfg):
                traj = oplift.run_geodesic_generalized(system, state, cfg)
                return traj, traj.states[-1, 2 * system.n - 1 : 3 * system.n - 1], None

        def check(result, q=q, p=p, c=c, eig=eig):
            traj, p_final, mats = result
            err = moser_error(eig, p_final)
            drift = max(traj.drift.values())
            ok = err < MOSER_TOL and drift < DRIFT_GATE
            detail = f"moser={err:.2e} drift={drift:.2e}"
            if mats is not None:
                n_ = len(q)
                l0 = lax_nonsymmetric(q, p, c)
                lt = lax_nonsymmetric(traj.states[-1, :n_], traj.states[-1, n_:], c)
                amat = mats[-1]
                conj = amat @ l0 @ np.linalg.inv(amat)
                resid = float(np.max(np.abs(conj - lt)) / max(1.0, float(np.max(np.abs(lt)))))
                ok = ok and resid < CONJUGATION_TOL
                err = max(err, resid)
                detail += f" conjugation={resid:.2e}"
            return Outcome(ok=ok, err=err, detail=detail)

        inputs = {"t_final": t_final, "q": q.tolist(), "p": p.tolist(), "couplings": c.tolist(), "p_y": p_y}
        cases.append(Case(cid, kind, n, run, check, inputs))
    return cases


# ---------------------------------------------------------------------------
# killing


def _lift_invariant(lift: str, system, k: int):
    """The lifted invariant I_k(position, momenta) as the program computes it."""
    from todalift import eisenhart, oplift

    n = system.n
    if lift == "eisenhart":
        def inv(pos, mom):
            state = eisenhart.EisenhartState(q=pos[:n], y=pos[n], p=mom[:n], p_y=mom[n])
            return float(eisenhart.lifted_invariants(system, state, k)[k - 1])
    else:
        def inv(pos, mom):
            state = oplift.OPState(q=pos[:n], omega=pos[n:], p_q=mom[:n], p_omega=mom[n:], centered=False)
            return float(oplift.generalized_invariants(state, k)[k - 1])
    return inv


def _reference_invariant(lift: str, g, n: int, k: int, pos, mom) -> float:
    if lift == "eisenhart":
        return trace_invariant(pos[:n], mom[:n], mom[n] * g, k)
    return trace_invariant(pos[:n], mom[:n], mom[n:], k)


def _reference_inverse_metric(lift: str, g, n: int, pos) -> np.ndarray:
    q = pos[:n]
    weights = np.exp(2.0 * (q[:-1] - q[1:]))
    if lift == "eisenhart":
        return np.diag(np.concatenate([np.ones(n), [2.0 * float(np.sum(g**2 * weights))]]))
    return np.diag(np.concatenate([np.ones(n), 2.0 * weights]))


def _killing_cases(seed: int) -> list[Case]:
    from todalift import killing, toda

    rng = np.random.default_rng([seed, 2])
    systems = {n: toda.TodaSystem(n=n, g=rng.uniform(0.6, 1.4, n - 1)) for n in (2, 3, 4)}
    cases: list[Case] = []

    for n, system in systems.items():
        for lift in ("eisenhart", "generalized"):
            for k in range(1, n + 1):
                vseed = int(rng.integers(0, 2**31))

                def run(system=system, lift=lift, k=k, vseed=vseed):
                    return killing.verify_killing(system, lift, k, samples=100, seed=vseed, geodesics=10, t_final=20.0)

                def check(report):
                    return Outcome(ok=bool(report.passed),
                                   detail=f"bracket={report.bracket_max:.2e} drift={report.drift_max:.2e}")

                inputs = {"k": k, "g": system.g.tolist(), "seed": vseed}
                cases.append(Case(len(cases), f"verify-{lift}", n, run, check, inputs))

            for k in range(2, n + 1):
                for _ in range(2):
                    dim = n + 1 if lift == "eisenhart" else 2 * n - 1
                    q = rng.uniform(-1.0, 1.0, n)
                    if lift == "generalized":
                        q -= q.mean()
                    pos = np.concatenate([q, rng.uniform(-1.0, 1.0, dim - n)])
                    probes = rng.uniform(-1.0, 1.0, (5, dim))
                    inv = _lift_invariant(lift, system, k)

                    def run(inv=inv, k=k, dim=dim, pos=pos):
                        return killing.extract_tensor(inv, k, dim, pos)

                    def check(table, lift=lift, g=system.g, n=n, k=k, dim=dim, pos=pos, probes=probes):
                        err = 0.0
                        for mom in probes:
                            want = _reference_invariant(lift, g, n, k, pos, mom)
                            err = max(err, abs(contract(table, mom) - want) / max(1.0, abs(want)))
                        ok = err < EXTRACT_TOL
                        detail = f"contraction={err:.2e}"
                        if k == 2:
                            ref = _reference_inverse_metric(lift, g, n, pos)
                            got = np.zeros((dim, dim))
                            for (a, b), value in table.items():
                                got[a - 1, b - 1] = got[b - 1, a - 1] = value
                            dev = float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))
                            ok = ok and dev < METRIC_TOL
                            err = max(err, dev)
                            detail += f" inverse_metric={dev:.2e}"
                        return Outcome(ok=ok, err=err, detail=detail)

                    inputs = {"k": k, "g": system.g.tolist(), "position": pos.tolist()}
                    cases.append(Case(len(cases), f"extract-{lift}", n, run, check, inputs))
    return cases


# ---------------------------------------------------------------------------
# cli_suite

_TRAJECTORY_COMMANDS = {"toda-run", "eisenhart-run", "oplift-run-hamiltonian", "forms-monitor-general", "forms-monitor-n2"}
# ROADMAP item 3: the exact-geodesic path raises DefinitenessError or loses
# the unit determinant on valid inputs once x(t) spreads; these commands
# then exit 1 (FAIL) or 2 ("invalid experiment").
_EXACT_COMMANDS = {"oplift-run-exact", "oplift-compare"}


def _cli_configs(rng) -> list[dict]:
    """Seeded configurations shaped like the README example, plus criterion 6's two-body start."""
    configs = []
    for n in (2, 3, 4, 5):
        for t_final, rep in ((5.0, 0), (5.0, 1), (10.0, 0), (10.0, 1)):
            q = np.sort(rng.uniform(-1.0, 1.0, n))
            configs.append({
                "n": n,
                "g": rng.uniform(0.3, 1.2, n - 1).tolist(),
                "q": q.tolist(),
                "p": rng.uniform(-0.5, 0.5, n).tolist(),
                "t_final": t_final,
                "p_y": float(rng.uniform(0.5, 1.5)) if rep else 1.0,
                "stride": 1,
                "output_format": "csv" if (len(configs) // 2 + rep) % 2 == 0 else "json",
            })
    configs.append({"n": 2, "g": [1.0], "q": [0.0, 0.0], "p": [0.0, 0.0], "t_final": 10.0,
                    "stride": 1, "output_format": "csv"})
    return configs


def _commands(cfg: dict) -> list[tuple[str, list[str]]]:
    cmds = [
        ("toda-run", ["toda", "run"]),
        ("eisenhart-run", ["eisenhart", "run"]),
        ("oplift-run-hamiltonian", ["oplift", "run", "--mode", "hamiltonian"]),
        ("oplift-run-exact", ["oplift", "run", "--mode", "exact"]),
        ("oplift-compare", ["oplift", "compare"]),
        ("forms-monitor-general", ["forms", "monitor", "--set", "general"]),
    ]
    if cfg["n"] == 2:
        cmds.append(("forms-monitor-n2", ["forms", "monitor", "--set", "n2"]))
    cmds.append(("reduce-check", ["reduce", "check"]))
    return cmds


def _read_table(path: str, fmt: str) -> tuple[list[str], np.ndarray]:
    """Column names and rows of a trajectory-shaped CSV or JSON file."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "csv":
            rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            if any(len(r) != len(header) for r in body):
                raise ValueError("ragged csv rows")
            return header, np.array(body, dtype=float).reshape(len(body), len(header))
        doc = json.load(fh)
    if "states" in doc:  # write_trajectory layout
        cols = {"t": doc["t"], **doc["states"], **doc["monitors"]}
    else:  # column-per-key layout of the exact-mode writer
        cols = doc
    lengths = {len(v) for v in cols.values()}
    if len(lengths) != 1:
        raise ValueError(f"json columns of unequal length {sorted(lengths)}")
    return list(cols), np.array([cols[k] for k in cols], dtype=float).T


def _energy(label: str, cfg: dict, header: list[str], rows: np.ndarray) -> np.ndarray:
    """The conserved energy of each output row, from its state columns."""
    n = cfg["n"]
    col = {name: rows[:, j] for j, name in enumerate(header)}
    q = np.stack([col[f"q_{i}"] for i in range(1, n + 1)], axis=1)
    p = np.stack([col[f"p_{i}"] for i in range(1, n + 1)], axis=1)
    gaps = np.exp(2.0 * (q[:, :-1] - q[:, 1:]))
    g = np.asarray(cfg["g"])
    if label == "toda-run":
        coupling_sq = g**2 * gaps
    elif label == "eisenhart-run":
        coupling_sq = (col["p_y"] ** 2)[:, None] * g**2 * gaps
    else:
        p_omega = np.stack([col[f"p_omega_{i}"] for i in range(1, n)], axis=1)
        coupling_sq = p_omega**2 * gaps
    return 0.5 * np.sum(p**2, axis=1) + np.sum(coupling_sq, axis=1)


def _check_cli(label: str, cfg: dict, path: str, fmt: str, result) -> Outcome:
    rc, stdout, stderr = result
    line = stdout.strip().splitlines()[-1] if stdout.strip() else stderr.strip()
    if rc != 0:
        defect = label in _EXACT_COMMANDS and (
            (rc == 1 and line.startswith("FAIL ")) or (rc == 2 and line.startswith("invalid experiment:"))
        )
        return Outcome(ok=False, known_defect=defect, detail=f"exit {rc}: {line}")
    if not line.startswith("PASS "):
        return Outcome(ok=False, detail=f"exit 0 without a PASS line: {line!r}")
    try:
        if label in _TRAJECTORY_COMMANDS:
            header, rows = _read_table(path, fmt)
            t = rows[:, 0]
            if len(rows) < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
                return Outcome(ok=False, detail="time column is not an increasing grid from 0")
            if abs(t[-1] - cfg["t_final"]) > 1e-9 * cfg["t_final"] or not np.all(np.isfinite(rows)):
                return Outcome(ok=False, detail=f"last sample at t={t[-1]} or non-finite values")
            energy = _energy(label, cfg, header, rows)
            err = float(np.max(np.abs(energy - energy[0])) / max(1.0, abs(energy[0])))
            return Outcome(ok=err < DRIFT_GATE, err=err, detail=f"rows={len(rows)} energy_drift={err:.2e}")
        if label == "oplift-run-exact":
            header, rows = _read_table(path, fmt)
            ok = len(rows) == 201 and np.allclose(rows[:, 0], np.linspace(0.0, cfg["t_final"], 201))
            return Outcome(ok=ok and bool(np.all(np.isfinite(rows))), detail=f"rows={len(rows)}")
        if label == "oplift-compare":
            with open(path, encoding="utf-8") as fh:
                pairs = ({r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]} if fmt == "csv"
                         else json.load(fh))
            worst = max(pairs.values())
            return Outcome(ok=len(pairs) == 3, err=worst, detail=f"max_sup_dq={worst:.2e}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if label == "reduce-check":
            return Outcome(ok=doc["n_samples"] >= 2, detail=f"n_samples={doc['n_samples']}")
        if label == "identities-check":
            return Outcome(ok=doc["z_closed_form"] < 1e-13 and doc["udu_round_trip"] < 1e-12)
        return Outcome(ok=len(doc) == 4, detail="findings=" + ",".join(sorted(doc)))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(ok=False, detail=f"output unreadable: {exc}")


def _cli_cases(seed: int, workdir: str) -> list[Case]:
    from todalift import cli

    rng = np.random.default_rng([seed, 3])
    cases: list[Case] = []

    def add(label, argv, cfg, path, fmt):
        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run_command(argv)
            return rc, out.getvalue(), err.getvalue()

        def check(result, label=label, cfg=cfg, path=path, fmt=fmt):
            return _check_cli(label, cfg, path, fmt, result)

        cases.append(Case(len(cases), label, cfg["n"], run, check, {**cfg, "argv": argv}))

    for i, cfg in enumerate(_cli_configs(rng)):
        cfg_path = os.path.join(workdir, f"config_{i}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        fmt = cfg["output_format"]
        for label, argv in _commands(cfg):
            ext = "json" if label == "reduce-check" else fmt
            path = os.path.join(workdir, f"out_{i}_{label}.{ext}")
            add(label, argv + ["-c", cfg_path, "--out", path], cfg, path, ext)
        run_seed = int(rng.integers(0, 1000))
        for label, group in (("identities-check", "identities"), ("findings-report", "findings")):
            path = os.path.join(workdir, f"out_{i}_{label}.json")
            argv = [group, "check" if group == "identities" else "report",
                    "-n", str(cfg["n"] + 1), "--seed", str(run_seed), "--out", path]
            add(label, argv, cfg, path, "json")
    return cases


def output_bytes(cases: list[Case]) -> int:
    """Bytes of the files the cli_suite commands wrote."""
    total = 0
    for case in cases:
        path = case.config["argv"][case.config["argv"].index("--out") + 1]
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def make_cases(workload: str, seed: int, workdir: str) -> list[Case]:
    if workload == "trajectories":
        return _trajectory_cases(seed)
    if workload == "killing":
        return _killing_cases(seed)
    if workload == "cli_suite":
        return _cli_cases(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
