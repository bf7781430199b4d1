"""Command-line driver.

Subcommands cover the whole toolkit: chain and geodesic runs with drift
monitoring, the three-way trajectory comparison, form monitors, the
dimensional-reduction check, Killing-tensor extraction and verification,
the structural identity sweep, and the adjudication findings report.

Every command writes its data file (CSV or JSON, 17 significant digits) and
prints one PASS/FAIL line of gates, each name=value[ row][ at sample i[ t=T]]
(gate G, margin G/value) for its worst residual.  Exit status 0 means every
gate passed, 1 means a gate failed (the report is still written), 2 is a
usage error.  Relative output paths land in $TODALIFT_OUTDIR when that is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import eisenhart, findings, killing, linalg, oplift, toda
from .errors import ConfigError, DomainError
from .integrate import IntegratorConfig, Trajectory, integrate_at_times, relative_drift

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
    integrator: IntegratorConfig
    y: float = 0.0
    p_y: float = 1.0
    omega: np.ndarray = field(default=None)
    p_omega: np.ndarray = field(default=None)
    output_path: str | None = None
    output_format: str = "csv"
    seed: int = 0

    def system(self) -> toda.TodaSystem:
        return toda.TodaSystem(n=self.n, g=self.g)

    def state(self, picture: toda.Picture):
        """The start of picture's record: q and p, both centred on a centred picture, and
        the fibre fields, whose configuration keys carry the fields' names (y, p_y or omega, p_omega)."""
        q, fibre, p, p_fibre = picture.fields
        values = {q: self.q, p: self.p}
        if picture.centred:
            values = {q: self.q - self.q.mean(), p: self.p - self.p.mean()}
        values.update({name: getattr(self, name) for name in (fibre, p_fibre) if name})
        return picture.state(**values)


def _number(key: str, val) -> float:
    """A JSON or command-line scalar as a float; anything but a finite number is a ConfigError."""
    try:
        ok = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"key {key!r}: need a finite number, got {val!r}")
    return float(val)


def _integrator(base: IntegratorConfig, **settings) -> IntegratorConfig:
    """base with settings replaced, checked by IntegratorConfig; its DomainError becomes a
    ConfigError naming the first key that fails together with the keys before it."""
    try:
        return dataclasses.replace(base, **settings)
    except DomainError:
        pass
    keys = list(settings)
    for i, key in enumerate(keys):
        try:
            dataclasses.replace(base, **{k: settings[k] for k in keys[: i + 1]})
        except DomainError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document.

    Required keys: n, g, q, p, t_final.  Optional keys take the documented
    defaults (method=adaptive, dt=the stepper's default, rtol=1e-10,
    atol=1e-12, stride=10, p_y=1, y=0, omega=0, p_omega=g, seed=0,
    output_format=csv).  method names a stepper of IntegratorConfig, which
    checks it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    # the keys are the fields of both records, the integrator's settings in place of the integrator
    known = {f.name for f in dataclasses.fields(ExperimentConfig) + dataclasses.fields(IntegratorConfig)} - {"integrator"}
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

    if doc.get("method", "adaptive") is None:
        # null would leave the stepper to IntegratorConfig's choice by rtol
        raise ConfigError("key 'method': need a method name, got None")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"key 'output_path': need a string, got {output_path!r}")
    fmt = doc.get("output_format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"key 'output_format': must be csv or json, got {fmt!r}")
    seed = doc.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("key 'seed': need an integer")
    # in the order a failing key is looked for: t_final, whose check reads dt, last
    settings = {key: doc[key] for key in ("method", "stride", "rtol", "atol", "dt", "t_final") if key in doc}

    return ExperimentConfig(
        n=n,
        g=g,
        q=q,
        p=p,
        integrator=_integrator(IntegratorConfig(method="adaptive"), **settings),
        y=_number("y", doc.get("y", 0.0)),
        p_y=_number("p_y", doc.get("p_y", 1.0)),
        omega=omega,
        p_omega=p_omega,
        output_path=output_path,
        output_format=fmt,
        seed=seed,
    )


def _resolve_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("TODALIFT_OUTDIR", "."), path)


def _write_json(path: str, doc) -> None:
    """doc as indented JSON; each NaN or infinity, which strict parsers reject, is written as null."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(_nulled(doc), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _nulled(doc):
    """doc with None in place of every non-finite float."""
    if isinstance(doc, dict):
        return {key: _nulled(v) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_nulled(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


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
            "t": traj.times.tolist(),
            "states": dict(zip(labels, traj.states.T.tolist())),
            "monitors": {m: traj.monitors[m].tolist() for m in mon_names},
            "drift": {m: float(traj.drift[m]) for m in traj.drift},
        }
        _write_json(path, doc)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def _gate(name: str, table, limit: float, times=None, rows=None) -> tuple[bool, str]:
    """(ok, detail) of one gate on a residual table: a scalar, one value per sample, or, with
    rows, one row (of samples, or of one value) per row name.  The worst entry is the first
    non-finite one, else the largest, so a NaN always fails; a zero limit asks for exact zeros."""
    table = np.asarray(table, dtype=float)
    i = int(np.argmax(np.where(np.isfinite(table), table, np.inf)))
    value, where = float(table.flat[i]), np.unravel_index(i, table.shape)
    detail = f"{name}={value:.3e}"
    if rows is not None:
        detail, where = f"{detail} {rows[where[0]]}", where[1:]
    if where:
        detail += f" at sample {where[0]}" + (f" t={times[where[0]]:.6g}" if times is not None else "")
    margin = limit / value if value else math.inf
    return value < limit or value == limit == 0.0, f"{detail} (gate {limit:g}, margin {margin:.3g})"


def _report(tag: str, gates, path: str | None, traj: Trajectory | None = None) -> int:
    """Print the PASS/FAIL line of the (ok, detail) gates; a run's ends with its integrator work, and no wall time."""
    ok = all(passed for passed, _ in gates)
    detail = " ".join(text for _, text in gates)
    if traj is not None:
        detail += " nfev={nfev} accepted={accepted} rejected={rejected}".format(**traj.stats)
    suffix = f" -> {path}" if path else ""
    print(f"{'PASS' if ok else 'FAIL'} {tag} {detail}{suffix}")
    return 0 if ok else 1


def _load_config(args) -> ExperimentConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    overrides = {key: getattr(args, key) for key in ("t_final", "rtol") if getattr(args, key, None) is not None}
    cfg.integrator = _integrator(cfg.integrator, **overrides)
    for flag, key in (("seed", "seed"), ("out", "output_path"), ("format", "output_format")):
        if getattr(args, flag, None) is not None:
            setattr(cfg, key, getattr(args, flag))
    return cfg


def _run(cfg: ExperimentConfig, picture: toda.Picture, tag: str, stem: str, gated=None, extra=None, **options) -> int:
    """Run picture from the configured start, write the trajectory and gate the drift of the
    gated monitors (all by default); extra(cfg, traj) -> (ok, detail) is one more gate."""
    traj = picture.run(cfg.system(), cfg.state(picture), cfg.integrator, **options)
    path = _resolve_path(cfg.output_path or f"{stem}.{cfg.output_format}")
    write_trajectory(traj, cfg.output_format, path)
    names = gated or list(traj.monitors)
    gates = [_gate("max_drift", relative_drift([traj.monitors[m] for m in names]), _GATE_DRIFT, traj.times, names)]
    return _report(tag, gates + ([extra(cfg, traj)] if extra else []), path, traj)


def _cmd_toda_run(args) -> int:
    return _run(_load_config(args), toda.CHAIN, "toda-run", "toda_run")


def _p_y_gate(cfg, traj):
    return _gate("p_y_drift", relative_drift(traj.monitors["p_y"]), 1e-10, traj.times)


def _cmd_eisenhart_run(args) -> int:
    return _run(_load_config(args), eisenhart.EISENHART, "eisenhart-run", "eisenhart_run", extra=_p_y_gate)


def _cmd_oplift_run(args) -> int:
    cfg = _load_config(args)
    if args.mode == "hamiltonian":
        return _run(cfg, oplift.GENERALIZED, "oplift-run", "oplift_run")
    # exact mode: the closed-form geodesic at 201 samples, gated on det x(t) and,
    # where its q-projection is a Toda chain with couplings p_omega (omega = 0), on I_1..I_n
    sys_ = cfg.system()
    state = cfg.state(oplift.GENERALIZED)
    times = np.linspace(0.0, cfg.integrator.t_final, 201)
    q, omega, qdot = oplift.exact_coordinates(state, sys_, times)
    path = _resolve_path(cfg.output_path or f"oplift_exact.{cfg.output_format}")
    labels = ["t", *oplift.GENERALIZED.labels(sys_.n)[: 2 * sys_.n - 1]]
    rows = np.column_stack([times, q, omega])
    if cfg.output_format == "csv":
        _write_csv(path, labels, rows)
    else:
        _write_json(path, {lab: rows[:, j].tolist() for j, lab in enumerate(labels)})
    gates = [_gate("det_drift", np.abs(np.expm1(2.0 * q.sum(axis=1))), _GATE_DRIFT, times)]
    if not np.any(state.omega):
        invs = toda.lax_traces(q.T, qdot.T, state.p_omega[:, None], sys_.n)
        gates.append(_gate("I_drift", relative_drift(invs), _GATE_DRIFT, times, [f"I_{k + 1}" for k in range(sys_.n)]))
    return _report("oplift-exact", gates, path)


def _cmd_oplift_compare(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    state = cfg.state(oplift.GENERALIZED)
    ttraj = toda.run(sys_, toda.PhaseState(q=state.q, p=state.p_q), cfg.integrator, kmax=1)
    otraj = integrate_at_times(oplift.flow_field_generalized(sys_), oplift.GENERALIZED.pack(state), ttraj.times,
                               cfg.integrator)
    q_toda, q_ham = ttraj.states[:, : sys_.n], otraj.states[:, : sys_.n]
    q_exact = oplift.exact_coordinates(state, sys_, ttraj.times)[0]
    per_sample = {
        "toda_vs_hamiltonian": np.max(np.abs(q_toda - q_ham), axis=1),
        "toda_vs_exact": np.max(np.abs(q_toda - q_exact), axis=1),
        "hamiltonian_vs_exact": np.max(np.abs(q_ham - q_exact), axis=1),
    }
    pairs = {k: float(np.max(v)) for k, v in per_sample.items()}
    path = _resolve_path(cfg.output_path or f"oplift_compare.{cfg.output_format}")
    if cfg.output_format == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pair,sup_dq\n" + "".join(f"{k},{v:.17g}\n" for k, v in pairs.items()))
    else:
        _write_json(path, pairs)
    gate = _gate("max_sup_dq", list(per_sample.values()), _GATE_TRAJ, ttraj.times, list(pairs))
    return _report("oplift-compare", [gate], path)


def _cbar_gate(cfg, traj):
    names = [f"cbar_{a + 1}_{a}" for a in range(1, cfg.n)]
    two_pw = 2.0 * cfg.p_omega[:, None]
    dev = np.abs([traj.monitors[m] for m in names] - two_pw) / np.maximum(1.0, np.abs(two_pw))
    return _gate("cbar_vs_2pw", dev, _GATE_CBAR, traj.times, names)


def _cmd_forms_monitor(args) -> int:
    cfg = _load_config(args)
    mons = oplift.monitors_n2(cfg.system()) if args.set == "n2" else oplift.monitors_general(cfg.system())
    # the strictly-upper rho_a_{a+1} contractions of the general set are reported, not gated
    gated = [m.name for m in mons if args.set == "n2" or not (m.name.startswith("rho_") and m.name.count("_") == 2)]
    extra = _cbar_gate if args.set == "general" else None
    return _run(cfg, oplift.GENERALIZED, f"forms-{args.set}", f"forms_{args.set}", gated, extra,
                kmax=1, extra_monitors=mons)


def _cmd_reduce_check(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    dq, traj = oplift.compare_reduced_eisenhart(sys_, cfg.state(oplift.GENERALIZED), cfg.integrator)
    report = oplift.reduction_check(sys_, traj)
    path = _resolve_path(cfg.output_path or "reduce_check.json")
    residuals = {key: getattr(report, f"max_{key}_residual") for key in ("ydot", "kinetic", "block")}
    _write_json(path, {**{f"max_{key}_residual": v for key, v in residuals.items()},
                       "eisenhart_sup_dq": float(np.max(dq)), "n_samples": report.n_samples})
    return _report("reduce-check", [_gate("max_residual", list(residuals.values()), _GATE_DRIFT, rows=list(residuals)),
                                    _gate("eisenhart_sup_dq", dq, _GATE_TRAJ, traj.times)], path)


def _cmd_killing_extract(args) -> int:
    cfg = _load_config(args)
    picture = killing.LIFTS[args.lift]
    dim = picture.dim(cfg.n) // 2
    position = picture.pack(cfg.state(picture))[:dim]
    inv = picture.invariant(cfg.system(), args.k)
    table = killing.extract_tensor(inv, args.k, dim, position)
    resids = []
    for mom in np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, (10, dim)):
        want = inv(position, mom)
        resids.append(abs(killing.contract_table(table, args.k, mom) - want) / max(1.0, abs(want)))
    path = _resolve_path(cfg.output_path or f"killing_k{args.k}_{args.lift}.json")
    components = {" ".join(map(str, idx)): val for idx, val in table.items()}
    _write_json(path, {"lift": args.lift, "k": args.k, "components": components,
                       "contraction_residual": float(np.max(resids))})
    return _report("killing-extract", [_gate("contraction_residual", resids, _GATE_EXTRACT)], path)


def _cmd_killing_verify(args) -> int:
    cfg = _load_config(args)
    sys_ = cfg.system()
    ks = [args.k] if args.k is not None else list(range(1, sys_.n + 1))
    reports = [killing.verify_killing(sys_, args.lift, k, seed=cfg.seed) for k in ks]
    path = _resolve_path(cfg.output_path or f"killing_verify_{args.lift}.json")
    _write_json(path, [r.to_dict() for r in reports])
    names = [f"I_{k}" for k in ks]
    gates = [_gate("bracket_max", [r.bracket_max for r in reports], 1e-5, rows=names),
             _gate("drift_max", [r.drift_max for r in reports], 1e-8, rows=names)]
    return _report(f"killing-verify-{args.lift}", gates, path)


def _cmd_identities_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    products = {f"dim={dim}": linalg.product_identity_residuals(dim) for dim in range(2, args.n + 1)}
    checked = range(2, min(args.n, 8) + 1)
    # per check, its residual at each checked dim
    checks = {"z_closed_form": [], "z_inverse_sign_rule": [], "udu_round_trip": []}
    for dim in checked:
        omega = rng.uniform(-2.0, 2.0, dim - 1)
        z = oplift.z_from_omega(omega, dim)
        gen = sum(omega[a] * linalg.basis_matrix("upper", a + 1, a + 2, dim=dim) for a in range(dim - 1))
        checks["z_closed_form"].append(float(np.max(np.abs(z - linalg.mat_exp(gen)))))
        zinv = linalg.unitriangular_inverse(z)
        signs = np.array([[(-1.0) ** (b - a) if b > a else 0.0 for b in range(dim)] for a in range(dim)])
        predicted = np.eye(dim) + signs * z
        checks["z_inverse_sign_rule"].append(float(np.max(np.abs(zinv - predicted))))
        hsq = rng.uniform(0.2, 3.0, dim)
        zi = np.eye(dim) + np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
        x = (zi * hsq) @ zi.T
        fac = linalg.udu_decompose(x)
        recomposed = linalg.udu_compose(fac.z, fac.hsq)
        scale = max(1.0, float(np.max(np.abs(x))))
        checks["udu_round_trip"].append(float(np.max(np.abs(recomposed - x))) / scale)
    path = _resolve_path(args.out or "identities.json")
    _write_json(path, {"product_identities": products, **{name: float(np.max(v)) for name, v in checks.items()}})
    rules = {f"{dim}/{rule}": value for dim, res in products.items() for rule, value in res.items()}
    dims = [f"dim={dim}" for dim in checked]
    gates = [_gate("products", list(rules.values()), 0.0, rows=list(rules))]  # integer matrices: exact zeros
    gates += [_gate(short, checks[name], limit, rows=dims) for short, name, limit in (
        ("z_form", "z_closed_form", 1e-13), ("z_inv", "z_inverse_sign_rule", 1e-13), ("udu", "udu_round_trip", 1e-12))]
    return _report("identities-check", gates, path)


def _cmd_findings_report(args) -> int:
    doc = findings.generate_findings(seed=args.seed, n=args.n)
    path = _resolve_path(args.out or "findings.json")
    findings.write_findings(path, doc)
    return _report("findings-report", [(True, "adjudications written")], path)


def _size(text: str) -> int:
    """A sweep's -n: an integer >= 2, as the smallest chain has two particles."""
    if int(text) < 2:  # a non-integer is argparse's own "invalid _size value"
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {text!r}")
    return int(text)


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
    chk.add_argument("-n", type=_size, default=6)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--out")

    fin = sub.add_parser("findings", help="adjudication report").add_subparsers(dest="action", required=True)
    rep = fin.add_parser("report", help="settle the ambiguous closed forms numerically")
    rep.add_argument("-n", type=_size, default=4)
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
