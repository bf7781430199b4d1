"""Command-line driver.

Subcommands cover the whole toolkit: chain and geodesic runs with drift
monitoring, the three-way trajectory comparison, form monitors, the
dimensional-reduction check, Killing-tensor extraction and verification,
the structural identity sweep, and the adjudication findings report.

Every command writes its data file (CSV or JSON, 17 significant digits) and
prints a single PASS/FAIL line with the measured residual.  Exit status 0
means every residual gate passed, 1 means a gate failed (the report is
still written), 2 is a usage error.  Relative output paths land in
$TODALIFT_OUTDIR when that is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import eisenhart, findings, killing, linalg, oplift, toda
from .errors import ConfigError
from .integrate import IntegratorConfig, Trajectory, integrate_at_times

__all__ = ["ExperimentConfig", "parse_config", "write_trajectory", "run_command", "main"]

_GATE_DRIFT = 1e-8
_GATE_TRAJ = 1e-6
_GATE_CBAR = 1e-13
_GATE_EXTRACT = 1e-10


@dataclass
class ExperimentConfig:
    """Validated experiment description (flat JSON key schema)."""

    n: int
    g: np.ndarray
    q: np.ndarray
    p: np.ndarray
    t_final: float
    y: float = 0.0
    p_y: float = 1.0
    omega: np.ndarray = field(default=None)
    p_omega: np.ndarray = field(default=None)
    method: str = "adaptive"
    dt: float = 1e-3
    rtol: float = 1e-10
    atol: float = 1e-12
    stride: int = 10
    output_path: str | None = None
    output_format: str = "csv"
    seed: int = 0

    def system(self) -> toda.TodaSystem:
        return toda.TodaSystem(n=self.n, g=self.g)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            method=self.method,
            dt=self.dt,
            rtol=self.rtol,
            atol=self.atol,
            t_final=self.t_final,
            stride=self.stride,
        )


def _number(key: str, val) -> float:
    """A JSON or command-line scalar as a float; anything but a finite number is a ConfigError."""
    try:
        ok = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"key {key!r}: need a finite number, got {val!r}")
    return float(val)


def _positive(key: str, val) -> float:
    val = _number(key, val)
    if not (val > 0.0):
        raise ConfigError(f"key {key!r}: must be positive, got {val}")
    return val


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document.

    Required keys: n, g, q, p, t_final.  Optional keys take the documented
    defaults (method=adaptive, rtol=1e-10, atol=1e-12, stride=10, p_y=1,
    y=0, omega=0, p_omega=g, seed=0, output_format=csv).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    known = {
        "n", "g", "q", "p", "t_final", "y", "p_y", "omega", "p_omega",
        "method", "dt", "rtol", "atol", "stride", "output_path",
        "output_format", "seed",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")
    for key in ("n", "g", "q", "p", "t_final"):
        if key not in doc:
            raise ConfigError(f"missing required configuration key {key!r}")

    n = doc["n"]
    if type(n) is not int or n < 2:
        raise ConfigError("key 'n': need an integer >= 2")

    def vector(key, length, default=None):
        if key not in doc:
            return default
        try:
            val = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key!r}: need a list of numbers: {exc}") from exc
        if val.shape != (length,):
            raise ConfigError(f"key {key!r}: expected {length} entries, got shape {val.shape}")
        if not np.all(np.isfinite(val)):
            raise ConfigError(f"key {key!r}: entries must be finite")
        return val

    g = vector("g", n - 1)
    q = vector("q", n)
    p = vector("p", n)
    omega = vector("omega", n - 1, default=np.zeros(n - 1))
    p_omega = vector("p_omega", n - 1, default=g.copy())

    def positive(key, default):
        return _positive(key, doc.get(key, default))

    method = doc.get("method", "adaptive")
    if method not in ("adaptive", "rk4"):
        raise ConfigError(f"key 'method': unknown method {method!r}")
    stride = doc.get("stride", 10)
    if type(stride) is not int or stride < 1:
        raise ConfigError("key 'stride': need an integer >= 1")
    fmt = doc.get("output_format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"key 'output_format': must be csv or json, got {fmt!r}")
    seed = doc.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("key 'seed': need an integer")

    return ExperimentConfig(
        n=n,
        g=g,
        q=q,
        p=p,
        t_final=positive("t_final", None),
        y=_number("y", doc.get("y", 0.0)),
        p_y=_number("p_y", doc.get("p_y", 1.0)),
        omega=omega,
        p_omega=p_omega,
        method=method,
        dt=positive("dt", 1e-3),
        rtol=positive("rtol", 1e-10),
        atol=positive("atol", 1e-12),
        stride=stride,
        output_path=doc.get("output_path"),
        output_format=fmt,
        seed=seed,
    )


def _resolve_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("TODALIFT_OUTDIR", "."), path)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """A header line, then each row with 17 significant digits per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        # value by value over one row's floats at a time: a whole-array
        # tolist() or a whole-row format string raised the process's peak RSS
        fh.writelines(",".join(["%.17g" % v for v in row.tolist()]) + "\n" for row in rows)


def write_trajectory(traj: Trajectory, fmt: str, path: str) -> None:
    """Serialise a trajectory with 17 significant digits per value.

    CSV header is t, the state labels, then the monitor names; JSON mirrors
    the same fields plus the drift summary.
    """
    labels = list(traj.labels) if traj.labels else [f"x_{i + 1}" for i in range(traj.states.shape[1] if traj.states.ndim == 2 else 0)]
    mon_names = list(traj.monitors)
    if fmt == "csv":
        rows = np.column_stack([traj.times, traj.states] + [traj.monitors[m] for m in mon_names])
        _write_csv(path, ["t"] + labels + mon_names, rows)
    elif fmt == "json":
        doc = {
            "t": [float(v) for v in traj.times],
            "states": {lab: [float(v) for v in traj.states[:, j]] for j, lab in enumerate(labels)},
            "monitors": {m: [float(v) for v in traj.monitors[m]] for m in mon_names},
            "drift": {m: float(traj.drift[m]) for m in traj.drift},
        }
        _write_json(path, doc)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def _worst_drift(traj: Trajectory, names=None) -> tuple[float, str]:
    """Largest drift over the named monitors, with the monitor and the time of its worst sample.

    max keeps a finite drift over a NaN that follows it, so the first non-finite
    drift is taken before any finite one, at its first non-finite sample.
    """
    names = list(names or traj.drift)
    bad = [m for m in names if not math.isfinite(traj.drift[m])]
    name = bad[0] if bad else max(names, key=traj.drift.__getitem__)
    series = traj.monitors[name]
    finite = np.isfinite(series)
    i = int(np.argmin(finite)) if not finite.all() else int(np.argmax(np.abs(series - series[0])))
    return traj.drift[name], f"max_drift={traj.drift[name]:.3e} at {name} t={traj.times[i]:.6g}"


def _worst_sample(name: str, series: np.ndarray, times: np.ndarray, gate: float, what: str = "") -> tuple[bool, str]:
    """Gate the largest entry of a per-sample residual; the detail names its sample, time and margin (gate/value)."""
    i = int(np.argmax(series))
    value = float(series[i])
    margin = gate / value if value else math.inf
    detail = f"{name}={value:.3e}{what} at sample {i} t={times[i]:.6g} (gate {gate:g}, margin {margin:.3g})"
    return value < gate, detail


def _report(tag: str, ok: bool, detail: str, path: str | None, traj: Trajectory | None = None) -> int:
    """Print the PASS/FAIL line; a run's ends with its integrator work, and no wall time."""
    status = "PASS" if ok else "FAIL"
    if traj is not None:
        detail += " nfev={nfev} accepted={accepted} rejected={rejected}".format(**traj.stats)
    suffix = f" -> {path}" if path else ""
    print(f"{status} {tag} {detail}{suffix}")
    return 0 if ok else 1


def _load_config(args) -> ExperimentConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    for key in ("t_final", "rtol"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, _positive(key, getattr(args, key)))
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.output_path = args.out
    if getattr(args, "format", None) is not None:
        cfg.output_format = args.format
    return cfg


def _out_path(cfg: ExperimentConfig, default_name: str) -> str:
    name = cfg.output_path or default_name
    return _resolve_path(name)


def _cmd_toda_run(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    traj = toda.run(sys_, toda.PhaseState(q=cfg.q, p=cfg.p), cfg.integrator())
    path = _out_path(cfg, f"toda_run.{cfg.output_format}")
    write_trajectory(traj, cfg.output_format, path)
    worst, where = _worst_drift(traj)
    return _report("toda-run", worst < _GATE_DRIFT, f"{where} (gate {_GATE_DRIFT:g})", path, traj)


def _cmd_eisenhart_run(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = eisenhart.EisenhartState(q=cfg.q, y=cfg.y, p=cfg.p, p_y=cfg.p_y)
    traj = eisenhart.run_geodesic(sys_, state, cfg.integrator())
    path = _out_path(cfg, f"eisenhart_run.{cfg.output_format}")
    write_trajectory(traj, cfg.output_format, path)
    worst, where = _worst_drift(traj)
    ok = worst < _GATE_DRIFT and traj.drift["p_y"] < 1e-10
    return _report(
        "eisenhart-run",
        ok,
        f"{where} p_y_drift={traj.drift['p_y']:.3e} (gates {_GATE_DRIFT:g}, 1e-10)",
        path,
        traj,
    )


def _op_initial_state(cfg: ExperimentConfig) -> oplift.OPState:
    q = cfg.q - cfg.q.mean()
    p = cfg.p - cfg.p.mean()
    return oplift.OPState(q=q, omega=cfg.omega, p_q=p, p_omega=cfg.p_omega)


def _cmd_oplift_run(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = _op_initial_state(cfg)
    if args.mode == "hamiltonian":
        traj = oplift.run_geodesic_generalized(sys_, state, cfg.integrator())
        path = _out_path(cfg, f"oplift_run.{cfg.output_format}")
        write_trajectory(traj, cfg.output_format, path)
        worst, where = _worst_drift(traj)
        return _report("oplift-run", worst < _GATE_DRIFT, f"{where} (gate {_GATE_DRIFT:g})", path, traj)
    # exact mode: the closed-form geodesic at 201 samples, gated on det x(t) and,
    # where its q-projection is a Toda chain with couplings p_omega (omega = 0), on I_1..I_n
    times = np.linspace(0.0, cfg.t_final, 201)
    q, omega, qdot = oplift.exact_coordinates(state, sys_, times)
    path = _out_path(cfg, f"oplift_exact.{cfg.output_format}")
    labels = ["t", *oplift.GENERALIZED.labels(sys_.n)[: 2 * sys_.n - 1]]
    rows = np.column_stack([times, q, omega])
    if cfg.output_format == "csv":
        _write_csv(path, labels, rows)
    else:
        _write_json(path, {lab: rows[:, j].tolist() for j, lab in enumerate(labels)})
    gates = [_worst_sample("det_drift", np.abs(np.expm1(2.0 * q.sum(axis=1))), times, _GATE_DRIFT)]
    if not np.any(state.omega):
        invs = toda.lax_traces(q.T, qdot.T, state.p_omega[:, None], sys_.n)
        drift = np.abs(invs - invs[:, :1]) / np.maximum(1.0, np.abs(invs[:, :1]))
        k = int(np.argmax(np.max(drift, axis=1)))
        gates.append(_worst_sample("I_drift", drift[k], times, _GATE_DRIFT, f" in I_{k + 1}"))
    return _report("oplift-exact", all(ok for ok, _ in gates), " ".join(d for _, d in gates), path)


def _cmd_oplift_compare(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = _op_initial_state(cfg)
    icfg = cfg.integrator()
    ttraj = toda.run(sys_, toda.PhaseState(q=state.q, p=state.p_q), icfg, kmax=1)
    otraj = integrate_at_times(oplift.flow_field_generalized(sys_), oplift.GENERALIZED.pack(state), ttraj.times, icfg)
    n = sys_.n
    q_toda = ttraj.states[:, :n]
    q_ham = otraj.states[:, :n]
    q_exact = oplift.exact_coordinates(state, sys_, ttraj.times)[0]
    per_sample = {
        "toda_vs_hamiltonian": np.max(np.abs(q_toda - q_ham), axis=1),
        "toda_vs_exact": np.max(np.abs(q_toda - q_exact), axis=1),
        "hamiltonian_vs_exact": np.max(np.abs(q_ham - q_exact), axis=1),
    }
    pairs = {k: float(np.max(v)) for k, v in per_sample.items()}
    path = _out_path(cfg, "oplift_compare.csv" if cfg.output_format == "csv" else "oplift_compare.json")
    if cfg.output_format == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pair,sup_dq\n")
            for k, v in pairs.items():
                fh.write(f"{k},{v:.17g}\n")
    else:
        _write_json(path, pairs)
    worst = max(pairs, key=pairs.__getitem__)
    ok, detail = _worst_sample("max_sup_dq", per_sample[worst], ttraj.times, _GATE_TRAJ, f" {worst}")
    return _report("oplift-compare", ok, detail, path)


def _cmd_forms_monitor(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = _op_initial_state(cfg)
    mons = oplift.monitors_n2(sys_) if args.set == "n2" else oplift.monitors_general(sys_)
    traj = oplift.run_geodesic_generalized(sys_, state, cfg.integrator(), kmax=1, extra_monitors=mons)
    path = _out_path(cfg, f"forms_{args.set}.{cfg.output_format}")
    write_trajectory(traj, cfg.output_format, path)
    if args.set == "n2":
        gated = [m.name for m in mons]
    else:
        # the strictly-upper rho_a_{a+1} contractions are reported, not gated
        gated = [m.name for m in mons if not (m.name.startswith("rho_") and m.name.count("_") == 2)]
    worst, where = _worst_drift(traj, gated)
    if args.set == "general":
        # np.max, unlike max, keeps a NaN deviation, which then fails the gate
        cbar_dev = float(np.max([
            np.max(np.abs(traj.monitors[f"cbar_{a + 1}_{a}"] - 2.0 * pw)) / max(1.0, abs(2.0 * pw))
            for a, pw in enumerate(state.p_omega, start=1)
        ]))
        ok = worst < _GATE_DRIFT and cbar_dev < _GATE_CBAR
        detail = f"{where} cbar_vs_2pw={cbar_dev:.3e} (gates {_GATE_DRIFT:g}, {_GATE_CBAR:g})"
    else:
        ok = worst < _GATE_DRIFT
        detail = f"{where} (gate {_GATE_DRIFT:g})"
    return _report(f"forms-{args.set}", ok, detail, path, traj)


def _cmd_reduce_check(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = _op_initial_state(cfg)
    sup_dq, traj = oplift.compare_reduced_eisenhart(sys_, state, cfg.integrator())
    report = oplift.reduction_check(sys_, traj)
    path = _out_path(cfg, "reduce_check.json")
    doc = {
        "max_ydot_residual": report.max_ydot_residual,
        "max_kinetic_residual": report.max_kinetic_residual,
        "max_block_residual": report.max_block_residual,
        "eisenhart_sup_dq": sup_dq,
        "n_samples": report.n_samples,
    }
    _write_json(path, doc)
    worst = max(report.max_ydot_residual, report.max_kinetic_residual, report.max_block_residual)
    ok = worst < _GATE_DRIFT and sup_dq < _GATE_TRAJ
    return _report(
        "reduce-check", ok, f"max_residual={worst:.3e} eisenhart_sup_dq={sup_dq:.3e} (gates {_GATE_DRIFT:g}, {_GATE_TRAJ:g})", path
    )


def _cmd_killing_extract(args) -> int:
    cfg = _load_config(args)
    picture = killing.LIFTS[args.lift]
    q = cfg.q - cfg.q.mean() if picture.centred else cfg.q
    # the configuration names the fibre like the state field: y or omega
    position = np.concatenate([q, np.atleast_1d(getattr(cfg, picture.fields[1]))])
    dim = len(position)
    inv = picture.invariant(cfg.system(), args.k)
    table = killing.extract_tensor(inv, args.k, dim, position)
    rng = np.random.default_rng(cfg.seed)
    resid = 0.0
    for _ in range(10):
        mom = rng.uniform(-1.0, 1.0, dim)
        want = inv(position, mom)
        resid = max(resid, abs(killing.contract_table(table, args.k, mom) - want) / max(1.0, abs(want)))
    path = _out_path(cfg, f"killing_k{args.k}_{args.lift}.json")
    components = {" ".join(map(str, idx)): val for idx, val in table.items()}
    _write_json(path, {"lift": args.lift, "k": args.k, "components": components, "contraction_residual": resid})
    return _report("killing-extract", resid < _GATE_EXTRACT, f"contraction_residual={resid:.3e} (gate {_GATE_EXTRACT:g})", path)


def _cmd_killing_verify(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    ks = [args.k] if args.k is not None else list(range(1, sys_.n + 1))
    reports = [killing.verify_killing(sys_, args.lift, k, seed=cfg.seed) for k in ks]
    path = _out_path(cfg, f"killing_verify_{args.lift}.json")
    _write_json(path, [r.to_dict() for r in reports])
    worst_b = max(r.bracket_max for r in reports)
    worst_d = max(r.drift_max for r in reports)
    ok = all(r.passed for r in reports)
    return _report(
        f"killing-verify-{args.lift}", ok, f"bracket_max={worst_b:.3e} drift_max={worst_d:.3e} (gates 1e-05, 1e-08)", path
    )


def _cmd_identities_check(args) -> int:
    n = args.n
    rng = np.random.default_rng(args.seed)
    out: dict = {"product_identities": {}, "z_closed_form": 0.0, "z_inverse_sign_rule": 0.0, "udu_round_trip": 0.0}
    worst_products = 0.0
    for dim in range(2, n + 1):
        res = linalg.product_identity_residuals(dim)
        out["product_identities"][f"dim={dim}"] = res
        worst_products = max(worst_products, max(res.values()))
    for dim in range(2, min(n, 8) + 1):
        omega = rng.uniform(-2.0, 2.0, dim - 1)
        z = oplift.z_from_omega(omega, dim)
        gen = sum(omega[a] * linalg.basis_matrix("upper", a + 1, a + 2, dim=dim) for a in range(dim - 1))
        out["z_closed_form"] = max(out["z_closed_form"], float(np.max(np.abs(z - linalg.mat_exp(gen)))))
        zinv = linalg.unitriangular_inverse(z)
        signs = np.array([[(-1.0) ** (b - a) if b > a else 0.0 for b in range(dim)] for a in range(dim)])
        predicted = np.eye(dim) + signs * z
        out["z_inverse_sign_rule"] = max(out["z_inverse_sign_rule"], float(np.max(np.abs(zinv - predicted))))
        hsq = rng.uniform(0.2, 3.0, dim)
        zi = np.eye(dim) + np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
        x = (zi * hsq) @ zi.T
        fac = linalg.udu_decompose(x)
        recomposed = linalg.udu_compose(fac.z, fac.hsq)
        scale = max(1.0, float(np.max(np.abs(x))))
        out["udu_round_trip"] = max(out["udu_round_trip"], float(np.max(np.abs(recomposed - x))) / scale)
    path = _resolve_path(args.out or "identities.json")
    _write_json(path, out)
    ok = (
        worst_products == 0.0
        and out["z_closed_form"] < 1e-13
        and out["z_inverse_sign_rule"] < 1e-13
        and out["udu_round_trip"] < 1e-12
    )
    detail = (
        f"products={worst_products:.1e} z_form={out['z_closed_form']:.3e} "
        f"z_inv={out['z_inverse_sign_rule']:.3e} udu={out['udu_round_trip']:.3e} "
        f"(gates 0, 1e-13, 1e-13, 1e-12)"
    )
    return _report("identities-check", ok, detail, path)


def _cmd_findings_report(args) -> int:
    doc = findings.generate_findings(seed=args.seed, n=args.n)
    path = _resolve_path(args.out or "findings.json")
    findings.write_findings(path, doc)
    return _report("findings-report", True, "adjudications written", path)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="todalift", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p, overrides=True):
        p.add_argument("-c", "--config", required=True, help="JSON experiment configuration")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file path")
        if overrides:  # the Killing commands integrate and write at fixed settings
            p.add_argument("--t-final", type=float, dest="t_final")
            p.add_argument("--rtol", type=float)
            p.add_argument("--format", choices=("csv", "json"))

    toda_p = sub.add_parser("toda", help="Toda chain runs").add_subparsers(dest="action", required=True)
    add_common(toda_p.add_parser("run", help="integrate the chain, monitor invariants"))

    eis = sub.add_parser("eisenhart", help="one-extra-dimension lift").add_subparsers(dest="action", required=True)
    add_common(eis.add_parser("run", help="integrate a lift geodesic"))

    opl = sub.add_parser("oplift", help="generalised symmetric-space lift").add_subparsers(dest="action", required=True)
    run_p = opl.add_parser("run", help="integrate or sample a lift geodesic")
    run_p.add_argument("--mode", choices=("hamiltonian", "exact"), default="hamiltonian")
    add_common(run_p)
    add_common(opl.add_parser("compare", help="three-way trajectory agreement"))

    forms = sub.add_parser("forms", help="right-invariant form monitors").add_subparsers(dest="action", required=True)
    mon_p = forms.add_parser("monitor", help="evaluate conserved-form monitors")
    mon_p.add_argument("--set", choices=("n2", "general"), required=True)
    add_common(mon_p)

    red = sub.add_parser("reduce", help="dimensional reduction").add_subparsers(dest="action", required=True)
    add_common(red.add_parser("check", help="reduction identities and the reduced geodesic"))

    kil = sub.add_parser("killing", help="Killing tensors").add_subparsers(dest="action", required=True)
    ext_p = kil.add_parser("extract", help="extract tensor components from an invariant")
    ext_p.add_argument("-k", type=int, required=True)
    ext_p.add_argument("--lift", choices=tuple(killing.LIFTS), default="eisenhart")
    add_common(ext_p, overrides=False)
    ver_p = kil.add_parser("verify", help="bracket and drift verification")
    ver_p.add_argument("--lift", choices=tuple(killing.LIFTS), required=True)
    ver_p.add_argument("-k", type=int, default=None)
    add_common(ver_p, overrides=False)

    idn = sub.add_parser("identities", help="structural identity sweep").add_subparsers(dest="action", required=True)
    chk = idn.add_parser("check", help="basis products, Z closed form, UDU round trip")
    chk.add_argument("-n", type=int, default=6)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--out")

    fin = sub.add_parser("findings", help="adjudication report").add_subparsers(dest="action", required=True)
    rep = fin.add_parser("report", help="settle the ambiguous closed forms numerically")
    rep.add_argument("-n", type=int, default=4)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out")

    return parser


_DISPATCH = {
    ("toda", "run"): _cmd_toda_run,
    ("eisenhart", "run"): _cmd_eisenhart_run,
    ("oplift", "run"): _cmd_oplift_run,
    ("oplift", "compare"): _cmd_oplift_compare,
    ("forms", "monitor"): _cmd_forms_monitor,
    ("reduce", "check"): _cmd_reduce_check,
    ("killing", "extract"): _cmd_killing_extract,
    ("killing", "verify"): _cmd_killing_verify,
    ("identities", "check"): _cmd_identities_check,
    ("findings", "report"): _cmd_findings_report,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _DISPATCH[(args.group, args.action)](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid experiment: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
