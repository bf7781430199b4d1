import json
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from todalift import cli, eisenhart, killing, linalg, oplift, toda
from todalift.errors import ConfigError
from todalift.integrate import Trajectory, relative_drift

MINIMAL = {"n": 2, "g": [1.0], "q": [0.0, 0.0], "p": [0.0, 0.0], "t_final": 10.0}

CALM = {
    "n": 3,
    "g": [0.5, 0.4],
    "q": [-0.7, 0.0, 0.7],
    "p": [0.1, 0.0, -0.1],
    "t_final": 5.0,
}

# starts whose particles scatter far apart: exp(-2 (q_a - q_{a+1})) overflows
SCATTERING_3 = {"n": 3, "g": [1.0, 1.0], "q": [0.0, 0.0, 0.0], "p": [-10.0, -10.0, 20.0], "t_final": 20.0}
SCATTERING_2 = {"n": 2, "g": [1.0], "q": [0.0, 0.0], "p": [-10.0, 10.0], "t_final": 40.0}

# starts with a zero coupling whose particles pass each other until exp(2 (q_1 - q_2)) overflows
FREE_2 = {"n": 2, "g": [0.0], "q": [0.0, 0.0], "p": [10.0, -10.0], "t_final": 40.0}
FREE_3 = {"n": 3, "g": [0.0, 1.0], "q": [0.0, 0.0, 0.0], "p": [10.0, -10.0, 0.0], "t_final": 40.0}

# the example config of the README
README_CONFIG = {"n": 3, "g": [0.5, 0.4], "q": [-0.7, 0.0, 0.7], "p": [0.1, 0.0, -0.1], "t_final": 10.0}
# a lift geodesic with p_y = 0: the fibre momentum switches the couplings off
STILL_FIBRE = {"n": 3, "g": [1.0, 1.0], "q": [0.0, 0.2, -0.2], "p": [0.5, 0.0, -0.5], "t_final": 40.0, "p_y": 0.0}

# tag of each command's PASS line: its argv and the file it writes
COMMANDS = {
    "toda-run": (["toda", "run"], "toda_run.csv"),
    "eisenhart-run": (["eisenhart", "run"], "eisenhart_run.csv"),
    "oplift-run": (["oplift", "run", "--mode", "hamiltonian"], "oplift_run.csv"),
    "oplift-exact": (["oplift", "run", "--mode", "exact"], "oplift_exact.csv"),
    "oplift-compare": (["oplift", "compare"], "oplift_compare.csv"),
    "reduce-check": (["reduce", "check"], "reduce_check.json"),
    "forms-n2": (["forms", "monitor", "--set", "n2"], "forms_n2.csv"),
    "forms-general": (["forms", "monitor", "--set", "general"], "forms_general.csv"),
}

# the one grammar of a PASS/FAIL line: each gate reads name=value[ row][ at sample i[ t=T]] (gate G, margin M)
GATE = r"(\w+)=(\S+)(?: (\S+))?(?: at sample (\d+)(?: t=(\S+))?)? \(gate (\S+), margin (\S+)\)"
LINE = re.compile(rf"(PASS|FAIL) (\S+)((?: {GATE})+)(?: nfev=\d+ accepted=\d+ rejected=\d+)?(?: -> \S+)?")


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = cli.parse_config(json.dumps(MINIMAL))
        assert cfg.integrator.method == "adaptive"
        assert cfg.integrator.rtol == 1e-10
        assert cfg.integrator.atol == 1e-12
        assert cfg.integrator.stride == 10
        assert cfg.p_y == 1.0
        assert np.array_equal(cfg.omega, [0.0])
        assert np.array_equal(cfg.p_omega, [1.0])

    def test_coupling_length_checked(self):
        doc = dict(MINIMAL, g=[1.0, 2.0])
        with pytest.raises(ConfigError, match="'g'"):
            cli.parse_config(json.dumps(doc))

    def test_tolerance_override(self):
        doc = dict(MINIMAL, rtol=1e-8)
        assert cli.parse_config(json.dumps(doc)).integrator.rtol == 1e-8

    def test_missing_key_named(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "q"}
        with pytest.raises(ConfigError, match="'q'"):
            cli.parse_config(json.dumps(doc))

    def test_bad_tolerance_named(self):
        doc = dict(MINIMAL, rtol=-1.0)
        with pytest.raises(ConfigError, match="'rtol'"):
            cli.parse_config(json.dumps(doc))

    def test_integrator_settings_fail_at_parse_time_naming_the_key(self):
        for changes, key in (({"dt": 0.0}, "dt"), ({"atol": -1.0}, "atol"), ({"stride": 0}, "stride"),
                             ({"stride": 2.0}, "stride"), ({"t_final": 1e300, "dt": 1e-300}, "t_final")):
            with pytest.raises(ConfigError, match=f"^key '{key}': "):
                cli.parse_config(json.dumps(dict(MINIMAL, **changes)))

    @pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
    def test_state_of_each_record(self, picture):
        doc = dict(MINIMAL, q=[0.5, -0.1], p=[0.3, 0.1], y=0.25, p_y=1.5, omega=[0.7], p_omega=[0.9])
        cfg = cli.parse_config(json.dumps(doc))
        state = cfg.state(picture)
        assert type(state) is picture.state
        q, fibre, p, p_fibre = picture.split(picture.pack(state), 2)
        if picture.centred:  # only the generalised lift lives on sum q = 0, and centres its start
            assert np.array_equal(q, cfg.q - 0.2) and np.array_equal(p, cfg.p - 0.2)
        else:
            assert np.array_equal(q, cfg.q) and np.array_equal(p, cfg.p)
        fibres = {"chain": ([], []), "eisenhart": ([0.25], [1.5]), "generalized": ([0.7], [0.9])}[picture.name]
        assert (fibre.tolist(), p_fibre.tolist()) == fibres

    def test_unknown_key_rejected(self):
        doc = dict(MINIMAL, tfinal=3.0)
        with pytest.raises(ConfigError, match="'tfinal'"):
            cli.parse_config(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ConfigError):
            cli.parse_config("{not json")


class TestWriteTrajectory:
    def test_empty_trajectory_header_only(self, tmp_path):
        traj = Trajectory(times=np.zeros(0), states=np.zeros((0, 2)), labels=("a", "b"))
        path = tmp_path / "empty.csv"
        cli.write_trajectory(traj, "csv", str(path))
        assert path.read_text() == "t,a,b\n"

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        times = np.array([0.0, 0.1234567890123456])
        states = rng.uniform(-1, 1, (2, 3))
        traj = Trajectory(times=times, states=states, labels=("x_1", "x_2", "x_3"))
        path = tmp_path / "t.csv"
        cli.write_trajectory(traj, "csv", str(path))
        lines = path.read_text().strip().splitlines()
        for i, line in enumerate(lines[1:]):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == times[i]
            assert np.array_equal(np.array(vals[1:]), states[i])

    def test_bytes_match_per_value_formatting(self, tmp_path):
        times = np.array([0.0, 0.1, 1e-300, 2.5])
        states = np.array([
            [-0.0, 1.0 / 3.0, 5e-324],
            [float("nan"), float("inf"), -float("inf")],
            [1e300, -1.2345678901234567e-7, 2.0**60],
            [0.1 + 0.2, -1.0, 123456789.0],
        ])
        mon = np.array([float("nan"), -0.0, 7.0, 1e-17])
        traj = Trajectory(times=times, states=states, monitors={"E": mon}, labels=("a", "b", "c"))
        path = tmp_path / "t.csv"
        cli.write_trajectory(traj, "csv", str(path))
        want = "t,a,b,c,E\n" + "".join(
            ",".join(f"{v:.17g}" for v in [times[i]] + list(states[i]) + [mon[i]]) + "\n" for i in range(4)
        )
        assert path.read_bytes() == want.encode()


class TestCommands:
    def test_toda_run_column_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli.run_command(["toda", "run", "-c", cfgp]) == 0
        header = (tmp_path / "toda_run.csv").read_text().splitlines()[0].split(",")
        n, k = 2, 2
        assert len(header) == 1 + 2 * n + k + 1  # t, q, p, I_1..I_n, H
        assert header == ["t", "q_1", "q_2", "p_1", "p_2", "I_1", "I_2", "H"]

    def test_toda_run_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli.run_command(["toda", "run", "-c", cfgp]) == 0
        first = (tmp_path / "toda_run.csv").read_bytes()
        assert cli.run_command(["toda", "run", "-c", cfgp]) == 0
        assert (tmp_path / "toda_run.csv").read_bytes() == first

    def test_eisenhart_run_json_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, dict(CALM, output_format="json"))
        assert cli.run_command(["eisenhart", "run", "-c", cfgp]) == 0
        doc = json.loads((tmp_path / "eisenhart_run.json").read_text())
        assert set(doc) == {"t", "states", "monitors", "drift"}
        assert "p_y" in doc["monitors"]

    def test_oplift_compare(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["oplift", "compare", "-c", cfgp]) == 0
        rows = (tmp_path / "oplift_compare.csv").read_text().strip().splitlines()
        assert rows[0] == "pair,sup_dq"
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row.split(",")[1]) < 1e-6

    def test_oplift_exact_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp]) == 0
        assert (tmp_path / "oplift_exact.csv").exists()

    def test_oplift_exact_mode_writes_17_digit_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp]) == 0
        lines = (tmp_path / "oplift_exact.csv").read_text().splitlines()
        assert len(lines) == 202
        for line in lines[1:]:
            assert line == ",".join(f"{float(v):.17g}" for v in line.split(","))

    def test_oplift_exact_mode_json_matches_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp]) == 0
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp, "--format", "json"]) == 0
        header, *rows = (tmp_path / "oplift_exact.csv").read_text().splitlines()
        doc = json.loads((tmp_path / "oplift_exact.json").read_text())
        assert list(doc) == header.split(",")
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(np.array(list(doc.values())).T, table)

    def test_oplift_hamiltonian_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["oplift", "run", "-c", cfgp]) == 0
        header = (tmp_path / "oplift_run.csv").read_text().splitlines()[0].split(",")
        assert "omega_1" in header and "p_omega_2" in header

    def test_forms_monitor_sets(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["forms", "monitor", "--set", "general", "-c", write_cfg(tmp_path, CALM)]) == 0
        two = {"n": 2, "g": [0.8], "q": [-0.4, 0.4], "p": [0.05, -0.05], "t_final": 5.0}
        assert cli.run_command(["forms", "monitor", "--set", "n2", "-c", write_cfg(tmp_path, two, "n2.json")]) == 0
        header = (tmp_path / "forms_n2.csv").read_text().splitlines()[0]
        assert "C_1" in header and "C_3" in header

    def test_forms_monitor_fails_on_a_non_finite_gated_monitor(self, tmp_path, monkeypatch, capsys):
        # the charges stay finite on every valid start, so poison cbar_3_2 once q_3 - q_2 passes 30
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        real = oplift.monitors_general

        def poisoned(sys_):
            mons = real(sys_)
            cbar = next(m for m in mons if m.name == "cbar_3_2")
            bad = oplift.FormMonitor("cbar_3_2", lambda s: np.where(s.q[2] - s.q[1] > 30.0, np.nan, cbar.evaluate(s)))
            return [bad if m is cbar else m for m in mons]

        monkeypatch.setattr(oplift, "monitors_general", poisoned)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.run_command(["forms", "monitor", "--set", "general", "-c", write_cfg(tmp_path, SCATTERING_3)])
        line = capsys.readouterr().out
        # both gates name the poisoned monitor at its first non-finite sample
        match = re.match(r"FAIL forms-general max_drift=nan cbar_3_2 at sample (\d+) t=(\S+) \(gate 1e-08, margin nan\) "
                         r"cbar_vs_2pw=nan cbar_3_2 at sample \1 t=\2 ", line)
        assert rc == 1 and match, line
        header, *rows = (tmp_path / "forms_general.csv").read_text().splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        column = table[:, header.split(",").index("cbar_3_2")]
        first = np.flatnonzero(~np.isfinite(column))[0]
        assert first > 0 and int(match.group(1)) == first
        assert float(match.group(2)) == float(f"{table[first, 0]:.6g}")

    def test_forms_monitor_passes_on_a_scattering_start(self, tmp_path, monkeypatch, capsys):
        # the particles separate until exp(-2 (q_a - q_{a+1})) overflows; the
        # gated charges are read off the momenta, so they stay finite
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.run_command(["forms", "monitor", "--set", "general", "-c", write_cfg(tmp_path, SCATTERING_3)])
        line = capsys.readouterr().out
        assert rc == 0 and line.startswith("PASS forms-general max_drift=") and " cbar_vs_2pw=0.000e+00 " in line, line
        header, *rows = (tmp_path / "forms_general.csv").read_text().splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        finite = np.all(np.isfinite(table), axis=0)
        # only the reported, ungated rho_a_{a+1} overflow
        assert [name for name, ok in zip(header.split(","), finite) if not ok] == ["rho_1_2", "rho_2_3"]

    @staticmethod
    def passes_with_finite_gates(tmp_path, monkeypatch, capsys, doc, tag, overflows):
        """Run one command on doc: exit 0, PASS, and no non-finite value in its file but,
        where `overflows`, in the reported, ungated rho_a_{a+1} read off xdot x^-1."""
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        argv, name = COMMANDS[tag]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore") if overflows else nullcontext():
            rc = cli.run_command(argv + ["-c", write_cfg(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith(f"PASS {tag} "), out
        text = (tmp_path / name).read_text()
        if name.endswith(".json"):
            # the writer nulls each non-finite value
            non_finite = {key for key, v in json.loads(text, parse_constant=lambda c: None).items() if v is None}
        else:
            header, *rows = (line.split(",") for line in text.splitlines())
            non_finite = {key for row in rows for key, v in zip(header, row) if v in ("nan", "inf", "-inf")}
        assert all(re.fullmatch(r"rho_\d+_\d+", key) for key in non_finite) if overflows else not non_finite, non_finite

    @pytest.mark.parametrize("doc, tag", [
        pytest.param(doc, tag, id=f"n{doc['n']}-{tag}")
        for doc in (FREE_2, FREE_3) for tag in COMMANDS if doc["n"] == 2 or tag != "forms-n2"
    ])
    def test_zero_coupling_start_is_free_motion(self, tmp_path, monkeypatch, capsys, doc, tag):
        # these exited 1 with a step underflow, or FAIL I_drift=nan for the exact mode;
        # rho_a_{a+1} overflows for n >= 3, and for n = 2 is read off the momenta
        overflows = tag == "forms-general" and doc["n"] > 2
        self.passes_with_finite_gates(tmp_path, monkeypatch, capsys, doc, tag, overflows)

    @pytest.mark.parametrize("doc, tag", [
        pytest.param(doc, tag, id=f"{label}-{tag}")
        for label, doc in (("py0", STILL_FIBRE), ("long", dict(README_CONFIG, t_final=1e4)))
        for tag in COMMANDS if tag != "forms-n2"
    ])
    def test_extreme_valid_start_passes(self, tmp_path, monkeypatch, capsys, doc, tag):
        # by t = 1e4 the README chain has scattered until exp(2 q) overflows in rho_a_{a+1}
        overflows = tag == "forms-general" and doc["t_final"] > 1e3
        self.passes_with_finite_gates(tmp_path, monkeypatch, capsys, doc, tag, overflows)

    def test_json_writes_null_for_non_finite_values(self, tmp_path, monkeypatch, capsys):
        # the reported rho_a_{a+1} overflow on this start; strict parsers reject NaN and Infinity
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.run_command(["forms", "monitor", "--set", "general", "-c",
                                  write_cfg(tmp_path, dict(SCATTERING_3, output_format="json"))])
        assert rc == 0 and capsys.readouterr().out.startswith("PASS forms-general ")

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        doc = json.loads((tmp_path / "forms_general.json").read_text(), parse_constant=reject)
        nulls = {name for name, series in doc["monitors"].items() if None in series}
        assert nulls == {"rho_1_2", "rho_2_3"}
        assert all(v is None or np.isfinite(v) for v in doc["monitors"]["rho_1_2"])
        assert {name for name, v in doc["drift"].items() if v is None} <= nulls

    def test_json_of_a_finite_document_is_the_plain_dump(self, tmp_path):
        doc = {"a": [0.1, 1e-300, -2.5], "b": {"c": 3, "d": "x"}}
        cli._write_json(str(tmp_path / "d.json"), doc)
        assert (tmp_path / "d.json").read_text() == json.dumps(doc, indent=2) + "\n"
        cli._write_json(str(tmp_path / "e.json"), {"a": [float("nan"), 1.0, float("-inf")], "b": (float("inf"),)})
        assert json.loads((tmp_path / "e.json").read_text()) == {"a": [None, 1.0, None], "b": [None]}

    def test_forms_monitor_n2_passes_on_a_scattering_start(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        rc = cli.run_command(["forms", "monitor", "--set", "n2", "-c", write_cfg(tmp_path, SCATTERING_2)])
        line = capsys.readouterr().out
        assert rc == 0 and line.startswith("PASS forms-n2 max_drift="), line
        header, *rows = (tmp_path / "forms_n2.csv").read_text().splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.all(np.isfinite(table))
        assert {"C_1", "C_2", "C_3"} <= set(header.split(","))

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_worst_drift_takes_a_nan_in_either_order(self, order):
        # the gate helper on a drift table: the NaN row fails wherever it stands, at its first NaN
        times = np.array([0.0, 1.0, 2.0])
        series = {"a": np.array([1.0, 1.0 + 1e-12, 1.0]), "b": np.array([1.0, np.nan, np.nan])}
        ok, detail = cli._gate("max_drift", relative_drift([series[m] for m in order]), cli._GATE_DRIFT, times, order)
        assert not ok
        assert detail == "max_drift=nan b at sample 1 t=1 (gate 1e-08, margin nan)"
        assert cli._gate("max_drift", relative_drift([series["a"]]), cli._GATE_DRIFT, times, ["a"]) == (
            True, "max_drift=1.000e-12 a at sample 1 t=1 (gate 1e-08, margin 1e+04)")

    def test_reduce_check(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["reduce", "check", "-c", write_cfg(tmp_path, CALM)]) == 0
        doc = json.loads((tmp_path / "reduce_check.json").read_text())
        assert doc["max_ydot_residual"] < 1e-8
        assert doc["eisenhart_sup_dq"] < 1e-6

    @pytest.mark.parametrize("doc", [SCATTERING_3, SCATTERING_2], ids=["n3", "n2"])
    def test_reduce_check_passes_on_a_scattering_start(self, tmp_path, monkeypatch, capsys, doc):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["reduce", "check", "-c", write_cfg(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.startswith("PASS reduce-check max_residual=")

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        report = json.loads((tmp_path / "reduce_check.json").read_text(), parse_constant=reject)
        assert max(report["max_ydot_residual"], report["max_kinetic_residual"], report["max_block_residual"]) < 1e-8

    def test_reduce_check_fails_on_a_nan_residual(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        monkeypatch.setattr(oplift, "reduction_check", lambda sys_, traj: oplift.ReductionReport(
            n_samples=len(traj), max_ydot_residual=0.0, max_kinetic_residual=float("nan"), max_block_residual=0.0))
        assert cli.run_command(["reduce", "check", "-c", write_cfg(tmp_path, CALM)]) == 1
        assert capsys.readouterr().out.startswith("FAIL reduce-check max_residual=nan ")

    # Each NaN below follows a finite value of the same gate, which max would keep
    def test_oplift_compare_fails_on_a_nan_pair(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        real = oplift.exact_coordinates

        def exact(*args):
            q, omega, qdot = real(*args)
            q = q.copy()
            q[1:] = np.nan  # toda_vs_exact and hamiltonian_vs_exact, after the finite toda_vs_hamiltonian
            return q, omega, qdot

        monkeypatch.setattr(oplift, "exact_coordinates", exact)
        assert cli.run_command(["oplift", "compare", "-c", write_cfg(tmp_path, CALM)]) == 1
        assert capsys.readouterr().out.startswith("FAIL oplift-compare max_sup_dq=nan toda_vs_exact at sample 1 ")

    def test_killing_extract_fails_on_a_nan_residual(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        real, calls = killing.contract_table, []

        def contract(*args):
            # calls 1-3 are extract_tensor's own gate, 4-13 the command's momenta
            calls.append(None)
            return float("nan") if len(calls) == 5 else real(*args)

        monkeypatch.setattr(killing, "contract_table", contract)
        assert cli.run_command(["killing", "extract", "-k", "2", "-c", write_cfg(tmp_path, CALM)]) == 1
        assert capsys.readouterr().out.startswith("FAIL killing-extract contraction_residual=nan ")
        assert len(calls) == 13

    @pytest.mark.parametrize("name, check", [
        ("product_identity_residuals", "products"), ("mat_exp", "z_form"),
        ("unitriangular_inverse", "z_inv"), ("udu_compose", "udu"),
    ])
    def test_identities_check_fails_on_a_nan_at_the_second_dim(self, tmp_path, monkeypatch, capsys, name, check):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        real = getattr(linalg, name)

        def broken(*args):
            out = real(*args)
            if name == "product_identity_residuals":
                return {key: float("nan") for key in out} if args[0] == 3 else out
            return out * np.nan if len(out) == 3 else out

        monkeypatch.setattr(linalg, name, broken)
        assert cli.run_command(["identities", "check", "-n", "4"]) == 1
        line = capsys.readouterr().out
        assert line.startswith("FAIL identities-check ") and f" {check}=nan " in f" {line}"

    def test_unwritable_output_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli.run_command(["toda", "run", "-c", cfgp, "--out", "missing/run.csv"]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not (tmp_path / "missing").exists()

    def test_killing_extract_and_verify(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["killing", "extract", "-k", "2", "-c", cfgp]) == 0
        doc = json.loads((tmp_path / "killing_k2_eisenhart.json").read_text())
        assert doc["contraction_residual"] < 1e-10
        assert cli.run_command(["killing", "verify", "--lift", "eisenhart", "-k", "2", "-c", cfgp]) == 0
        reports = json.loads((tmp_path / "killing_verify_eisenhart.json").read_text())
        assert reports[0]["pass"] is True

    @pytest.mark.parametrize("flag", [["--t-final", "0.5"], ["--rtol", "1e-3"], ["--format", "csv"]], ids=lambda f: f[0])
    @pytest.mark.parametrize("action", [["extract", "-k", "2"], ["verify", "--lift", "eisenhart", "-k", "2"]], ids=lambda a: a[0])
    def test_killing_commands_reject_run_flags(self, tmp_path, monkeypatch, capsys, action, flag):
        # the Killing commands integrate and write at fixed settings, so these flags are usage errors
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        assert cli.run_command(["killing", *action, "-c", cfgp, *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("killing_*"))
        assert cli.run_command(["killing", *action, "-c", cfgp, "--seed", "3", "--out", "k.json"]) == 0
        assert (tmp_path / "k.json").exists()

    def test_oversized_extract_exits_two_before_evaluating(self, tmp_path, monkeypatch, capsys):
        # rank 8 in the generalised lift's dim 59 would take 6.5e9 invariant evaluations
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        n = 30
        cfgp = write_cfg(tmp_path, {"n": n, "g": [1.0] * (n - 1), "q": [0.0] * n, "p": [0.0] * n, "t_final": 1.0})
        calls, invariant = [], toda.Picture.invariant

        def counted(picture, sys, k):
            inv = invariant(picture, sys, k)
            return lambda pos, mom: calls.append(None) or inv(pos, mom)

        monkeypatch.setattr(toda.Picture, "invariant", counted)
        assert cli.run_command(["killing", "extract", "-k", "8", "--lift", "generalized", "-c", cfgp]) == 2
        assert "invalid experiment" in capsys.readouterr().err
        assert len(calls) == 2  # the scaling probes, and no polarization evaluation
        assert not list(tmp_path.glob("killing_*"))

    def test_identities_check(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["identities", "check", "-n", "5"]) == 0
        doc = json.loads((tmp_path / "identities.json").read_text())
        assert doc["z_closed_form"] < 1e-13
        assert doc["udu_round_trip"] < 1e-12

    def test_findings_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["findings", "report", "-n", "3"]) == 0
        doc = json.loads((tmp_path / "findings.json").read_text())
        assert "invariant_normalization" in doc

    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli.run_command(["toda", "run", "-c", cfgp, "--t-final", "1.0", "--out", "short.csv"]) == 0
        rows = (tmp_path / "short.csv").read_text().strip().splitlines()
        assert float(rows[-1].split(",")[0]) == 1.0

    def test_unknown_subcommand_usage_error(self, capsys):
        assert cli.run_command(["frobnicate"]) == 2

    def test_unknown_method_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        # rk4 was a method once; null would let the integrator choose by rtol
        for method in ("euler", "rk4", None, ["adaptive"]):
            with pytest.raises(ConfigError, match="^key 'method': "):
                cli.parse_config(json.dumps(dict(MINIMAL, method=method)))
            assert cli.run_command(["toda", "run", "-c", write_cfg(tmp_path, dict(MINIMAL, method=method))]) == 2
            assert capsys.readouterr().err.startswith("configuration error: key 'method': ")
        assert not list(tmp_path.glob("toda_run*"))

    def test_every_integrator_method_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        for method in ("adaptive", "extrapolation"):
            cfgp = write_cfg(tmp_path, dict(README_CONFIG, method=method))
            assert cli.parse_config(json.dumps(dict(README_CONFIG, method=method))).integrator.method == method
            assert cli.run_command(["toda", "run", "-c", cfgp, "--out", f"{method}.csv"]) == 0
        # the same motion by either stepper
        adaptive, extrapolation = (np.loadtxt(tmp_path / f"{m}.csv", delimiter=",", skiprows=1) for m in ("adaptive", "extrapolation"))
        assert adaptive[-1, 0] == extrapolation[-1, 0] == README_CONFIG["t_final"]
        assert np.allclose(adaptive[-1, 1:7], extrapolation[-1, 1:7], rtol=0.0, atol=1e-8)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli.run_command(["toda", "run", "-c", str(bad)]) == 2

    @pytest.mark.parametrize(
        "changes, flags",
        [
            ({"t_final": None}, []),
            ({"p_y": [1, 2]}, []),
            ({"rtol": {}}, []),
            ({"y": "0.5"}, []),
            ({"g": {}}, []),
            ({"t_final": 10**400}, []),
            ({"t_final": float("inf"), "method": "adaptive"}, []),
            ({"method": "adaptive"}, ["--t-final", "inf"]),
            ({}, ["--rtol", "nan"]),
            ({"t_final": 1e300, "dt": 1e-300, "method": "adaptive"}, []),
            ({"stride": True}, []),
            ({"seed": False}, []),
            ({"output_path": 5}, []),
        ],
        ids=[
            "null", "list", "object", "string", "object-vector", "huge-int",
            "inf", "inf-flag", "nan-flag", "step-overflow", "bool-stride", "bool-seed", "int-output-path",
        ],
    )
    def test_non_numeric_or_non_finite_scalars_exit_two(self, request, tmp_path, monkeypatch, capsys, changes, flags):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, dict(MINIMAL, **changes))
        assert cli.run_command(["toda", "run", "-c", cfgp] + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err or "invalid experiment" in err
        # an integrator setting fails at parse time, by IntegratorConfig's own checks, and so
        # does an output path that is no string, before anything is integrated
        if request.node.callspec.id in ("inf", "inf-flag", "nan-flag", "step-overflow", "huge-int", "int-output-path"):
            assert err.startswith("configuration error: key '"), err

    def test_gate_failure_exits_one_with_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        sloppy = dict(MINIMAL, rtol=1e-3, atol=1e-3, q=[0.5, -0.5], p=[0.4, -0.4])
        cfgp = write_cfg(tmp_path, sloppy)
        assert cli.run_command(["toda", "run", "-c", cfgp]) == 1
        assert (tmp_path / "toda_run.csv").exists()

    def test_mismatched_monitor_set_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)  # three particles
        assert cli.run_command(["forms", "monitor", "--set", "n2", "-c", cfgp]) == 2


class TestParserReuse:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_carries_over(self):
        parser = cli._build_parser()
        first = parser.parse_args(["toda", "run", "-c", "a.json", "--format", "json", "--seed", "3", "--t-final", "2"])
        assert (first.format, first.seed, first.t_final) == ("json", 3, 2.0)
        second = parser.parse_args(["toda", "run", "-c", "b.json"])
        assert (second.config, second.format, second.seed, second.t_final) == ("b.json", None, None, None)

    def test_consecutive_commands_parse_afresh(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, MINIMAL)
        argv = ["toda", "run", "-c", cfgp, "--format", "json", "--t-final", "0.5", "--seed", "7", "--out", "a.json"]
        assert cli.run_command(argv) == 0
        assert json.loads((tmp_path / "a.json").read_text())["t"][-1] == 0.5
        # no --format or --t-final: the config's csv and t_final = 10 apply again
        assert cli.run_command(["toda", "run", "-c", cfgp, "--out", "b.csv"]) == 0
        rows = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,") and float(rows[-1].split(",")[0]) == 10.0
        assert cli.run_command(["toda", "run"]) == 2  # usage error: no config
        assert cli.run_command(["toda", "run", "-c", cfgp, "--t-final", "0.25", "--out", "c.csv"]) == 0
        assert float((tmp_path / "c.csv").read_text().strip().splitlines()[-1].split(",")[0]) == 0.25


class TestDriftGateLine:
    PATTERN = re.compile(r"^(PASS|FAIL) (\S+) max_drift=(\S+) (\S+) at sample (\d+) t=(\S+) \(gate 1e-08, margin (\S+)\) ")

    def test_failing_gate_names_worst_monitor(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        sloppy = dict(MINIMAL, rtol=1e-3, atol=1e-3, q=[0.5, -0.5], p=[0.4, -0.4], output_format="json")
        assert cli.run_command(["toda", "run", "-c", write_cfg(tmp_path, sloppy)]) == 1
        status, tag, drift, name, sample, at, margin = self.PATTERN.match(capsys.readouterr().out).groups()
        assert (status, tag) == ("FAIL", "toda-run")
        doc = json.loads((tmp_path / "toda_run.json").read_text())
        assert name == max(doc["drift"], key=doc["drift"].get)
        assert float(drift) == pytest.approx(doc["drift"][name], rel=1e-3)
        assert float(margin) == pytest.approx(1e-8 / doc["drift"][name], rel=1e-2) and float(margin) < 1.0
        values = np.array(doc["monitors"][name])
        worst = int(np.argmax(np.abs(values - values[0])))
        assert int(sample) == worst and float(at) == pytest.approx(doc["t"][worst], rel=1e-5)

    @pytest.mark.parametrize(
        "argv, tag",
        [
            (["eisenhart", "run"], "eisenhart-run"),
            (["oplift", "run", "--mode", "hamiltonian"], "oplift-run"),
            (["forms", "monitor", "--set", "general"], "forms-general"),
        ],
    )
    def test_every_drift_gate_names_a_monitor(self, tmp_path, monkeypatch, capsys, argv, tag):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        sloppy = dict(CALM, rtol=1e-4, atol=1e-4, output_format="json")
        rc = cli.run_command(argv + ["-c", write_cfg(tmp_path, sloppy), "--out", "o.json"])
        status, got_tag, _, name, _, _, _ = self.PATTERN.match(capsys.readouterr().out).groups()
        assert (status, got_tag) == (("PASS", "FAIL")[rc], tag)
        assert name in json.loads((tmp_path / "o.json").read_text())["monitors"]

    WORK = re.compile(r" nfev=(\d+) accepted=(\d+) rejected=(\d+) -> (\S+)$")

    @pytest.mark.parametrize(
        "argv",
        [["toda", "run"], ["eisenhart", "run"], ["oplift", "run", "--mode", "hamiltonian"], ["forms", "monitor", "--set", "general"]],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_run_lines_end_with_the_integrator_work(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, CALM)
        lines = []
        for _ in range(2):
            assert cli.run_command(argv + ["-c", cfgp, "--out", "o.csv"]) == 0
            lines.append(capsys.readouterr().out.strip())
        # the line opens with the drift gate, and a rerun prints the same line: no wall time
        assert self.PATTERN.match(lines[0]) and lines[0] == lines[1]
        nfev, accepted, rejected, path = (int(v) if v.isdigit() else v for v in self.WORK.search(lines[0]).groups())
        assert accepted > 0 and nfev == 1 + 6 * (accepted + rejected)  # Dormand-Prince's count
        assert path == str(tmp_path / "o.csv")
        if argv[0] == "toda":
            cfg = cli.parse_config(json.dumps(CALM))
            stats = toda.run(cfg.system(), toda.PhaseState(q=cfg.q, p=cfg.p), cfg.integrator).stats
            assert (nfev, accepted, rejected) == (stats["nfev"], stats["accepted"], stats["rejected"])


# Starts on which the materialised exp(Bt) x0 path lost its UDU pivots or its
# unit determinant: criterion 6's two-body start, an n = 5 start shaped like
# the README example, and a generic-omega start (n = 2, where the chain
# coordinates cover the whole symmetric space, so all three pictures agree).
EXACT_PATH_STARTS = {
    "two-body": dict(MINIMAL, stride=1),
    "n5": {
        "n": 5,
        "g": [0.8189619398993373, 0.3727827751770909, 1.129180610472243, 1.1645576448400665],
        "q": [-0.5256220162409653, -0.4673642534550191, -0.3195292836312007, 0.15273105121166775, 0.9645992191846162],
        "p": [0.4273713764353094, -0.1068329020934512, 0.24352895081269643, -0.18697606786538945, 0.1876357252371974],
        "t_final": 10.0,
        "p_y": 1.406125682371509,
        "stride": 1,
    },
    "generic-omega": {"n": 2, "g": [0.8], "q": [-0.4, 0.3], "p": [0.3, -0.2], "omega": [0.6], "t_final": 10.0, "stride": 1},
}


class TestExactPath:
    LINE = re.compile(
        r"^(PASS|FAIL) (\S+) (\w+)=(\S+)( \S+)?( in I_\d+)? at sample (\d+) t=(\S+) \(gate (\S+), margin (\S+)\)"
    )

    @pytest.mark.parametrize("name", sorted(EXACT_PATH_STARTS))
    def test_exact_mode_samples_every_start(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, EXACT_PATH_STARTS[name])
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp]) == 0
        line = capsys.readouterr().out
        assert line.startswith("PASS oplift-exact det_drift=")
        # omega = 0: the q-projection is a chain, so its invariants are gated too
        assert ("I_drift=" in line) == (name != "generic-omega")
        rows = np.loadtxt(tmp_path / "oplift_exact.csv", delimiter=",", skiprows=1)
        assert rows.shape == (201, 2 * EXACT_PATH_STARTS[name]["n"])
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 10.0, 201))

    @pytest.mark.parametrize("name", sorted(EXACT_PATH_STARTS))
    def test_compare_agrees_on_every_start(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, dict(EXACT_PATH_STARTS[name], output_format="json"))
        assert cli.run_command(["oplift", "compare", "-c", cfgp]) == 0
        status, tag, quantity, value, pair, _, _, _, gate, margin = self.LINE.match(capsys.readouterr().out).groups()
        assert (status, tag, quantity, gate) == ("PASS", "oplift-compare", "max_sup_dq", "1e-06")
        pairs = json.loads((tmp_path / "oplift_compare.json").read_text())
        assert len(pairs) == 3 and max(pairs.values()) < 1e-6
        assert pair.strip() == max(pairs, key=pairs.get)
        assert float(value) == pytest.approx(max(pairs.values()), rel=1e-3)
        assert float(margin) == pytest.approx(1e-6 / float(value), rel=1e-2)

    def test_failing_compare_names_pair_sample_and_time(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        sloppy = dict(CALM, rtol=1e-4, atol=1e-4, output_format="json")
        assert cli.run_command(["oplift", "compare", "-c", write_cfg(tmp_path, sloppy)]) == 1
        status, _, _, value, pair, _, sample, at, _, margin = self.LINE.match(capsys.readouterr().out).groups()
        pairs = json.loads((tmp_path / "oplift_compare.json").read_text())
        assert status == "FAIL" and pair.strip() == max(pairs, key=pairs.get)
        assert float(value) == pytest.approx(pairs[pair.strip()], rel=1e-3) and float(margin) < 1.0
        assert int(sample) >= 1 and float(at) > 0.0

    def test_exact_mode_passes_far_beyond_one_grading(self, tmp_path, monkeypatch, capsys):
        # the rows of the graded factor span exp(-1600) at t = 400, past the double range
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, dict(MINIMAL, t_final=400.0))
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", cfgp]) == 0
        assert capsys.readouterr().out.startswith("PASS oplift-exact ")
        rows = np.loadtxt(tmp_path / "oplift_exact.csv", delimiter=",", skiprows=1)
        assert rows.shape == (201, 4) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "g": [1.0, 0.0], "q": [0.0, 0.0, 0.0], "p": [0.5, 0.5, -1.0], "t_final": 50.0},
            {"n": 3, "g": [0.0, 1.0], "q": [0.3, 0.0, -0.3], "p": [1.0, -0.5, -0.5], "t_final": 10.0},
        ],
        ids=["cut-2-3", "cut-1-2"],
    )
    def test_exact_mode_passes_on_a_split_chain(self, tmp_path, monkeypatch, capsys, doc):
        # omega = 0 with a zero p_omega (= g) splits the chain; these failed det_drift and I_drift
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["oplift", "run", "--mode", "exact", "-c", write_cfg(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        status, tag, _, _, _, _, _, _, _, _ = self.LINE.match(out).groups()
        assert (status, tag) == ("PASS", "oplift-exact") and " I_drift=" in out
        rows = np.loadtxt(tmp_path / "oplift_exact.csv", delimiter=",", skiprows=1)
        assert rows.shape == (201, 6) and np.all(np.isfinite(rows))


class TestGateGrammar:
    @pytest.mark.parametrize("argv", [
        *(pytest.param(argv, id=tag) for tag, (argv, _) in COMMANDS.items() if tag != "forms-n2"),
        pytest.param(["killing", "extract", "-k", "2"], id="killing-extract"),
        pytest.param(["killing", "verify", "--lift", "eisenhart", "-k", "2"], id="killing-verify"),
    ])
    def test_every_gate_names_value_location_gate_and_margin(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        rc = cli.run_command(argv + ["-c", write_cfg(tmp_path, CALM)])
        line = capsys.readouterr().out.strip()
        match = LINE.fullmatch(line)
        assert match and rc == 0 and match[1] == "PASS", line
        for _, value, row, sample, _, gate, margin in re.findall(GATE, match[3]):
            assert row or sample, line
            assert float(margin) == pytest.approx(float(gate) / float(value), rel=1e-2) if float(value) else margin == "inf"

    def test_identities_gates_name_the_dimension(self, tmp_path, monkeypatch, capsys):
        # the products gate is an exact-zero check, so its margin on zeros is inf
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command(["identities", "check", "-n", "3"]) == 0
        gates = re.findall(GATE, LINE.fullmatch(capsys.readouterr().out.strip())[3])
        assert [(name, gate) for name, _, _, _, _, gate, _ in gates] == [
            ("products", "0"), ("z_form", "1e-13"), ("z_inv", "1e-13"), ("udu", "1e-12")]
        assert re.fullmatch(r"dim=[23]/upper_product", gates[0][2]) and gates[0][1] == "0.000e+00"
        assert gates[0][6] == "inf" and all(re.fullmatch(r"dim=[23]", row) for _, _, row, *_ in gates[1:])

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    @pytest.mark.parametrize("group", [["identities", "check"], ["findings", "report"]], ids=lambda g: g[0])
    def test_sweep_size_below_two_is_a_usage_error(self, tmp_path, monkeypatch, capsys, group, n):
        # -n 1, 0 and -3 once checked nothing and passed, or failed inside numpy
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        assert cli.run_command([*group, "-n", n]) == 2
        assert "argument -n: need an integer >= 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# optional README keys, valid for every run, compare, forms and reduce command
def _optional(n):
    unit = st.floats(-1.0, 1.0)
    return {
        "method": st.sampled_from(["adaptive", "extrapolation"]),
        "stride": st.integers(1, 5),
        "rtol": st.sampled_from([1e-8, 1e-10]),
        "y": unit,
        "p_y": st.floats(0.5, 1.5),
        "omega": st.lists(unit, min_size=n - 1, max_size=n - 1),
        "output_format": st.sampled_from(["csv", "json"]),
    }


@st.composite
def readme_configs(draw):
    n = draw(st.integers(2, 4))
    doc = {
        "n": n,
        "g": draw(st.lists(st.floats(0.3, 1.2), min_size=n - 1, max_size=n - 1)),
        "q": sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
        "p": draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)),
        "t_final": draw(st.floats(0.5, 3.0)),
    }
    optional = _optional(n)
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        doc[key] = draw(optional[key])
    return doc


# one bad value per key; each must be refused as it is read
MALFORMED = {
    "n": [1, 2.5, "3", None, True],
    "g": [[], "x", [[1.0]], [float("nan")]],
    "q": ["x", [0.0], [None, 0.0]],
    "p": [{}, [0.0] * 5],
    "t_final": [-1.0, 0.0, "10", None, float("inf")],
    "rtol": [0.0, -1e-10, "tight", [1e-10]],
    "atol": [-1.0, None],
    "dt": [0.0, -0.1],
    "stride": [0, 1.5, True, "2"],
    "method": ["rk4", None, 3],
    "y": [None, "0"],
    "p_y": ["1", [1.0], float("nan")],
    "omega": ["x", [0.0] * 5],
    "output_format": ["xml", 1],
    "seed": [1.5, "0", False],
    "output_path": [5, []],
    "tfinal": [1.0],
}
SWEPT = [argv for argv, _ in COMMANDS.values() if argv[-1] != "n2"]  # forms --set general: n2 takes n = 2 alone


class TestReadmeSchemaSweep:
    @settings(max_examples=15, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=readme_configs())
    def test_valid_configs_pass_or_fail_a_named_gate(self, tmp_path, monkeypatch, capsys, doc):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        cfgp = write_cfg(tmp_path, doc)
        for argv in SWEPT + [["forms", "monitor", "--set", "n2"]] * (doc["n"] == 2):
            rc = cli.run_command(argv + ["-c", cfgp])
            out, err = capsys.readouterr()
            match = LINE.fullmatch(out.strip().splitlines()[-1])
            assert rc in (0, 1) and not err and match, (argv, doc, out, err)
            assert rc == ("PASS", "FAIL").index(match[1])

    @settings(max_examples=10, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=readme_configs(), bad=st.sampled_from([(k, v) for k, vs in MALFORMED.items() for v in vs]),
           argv=st.sampled_from(SWEPT))
    def test_malformed_values_are_configuration_errors(self, tmp_path, monkeypatch, capsys, doc, bad, argv):
        monkeypatch.setenv("TODALIFT_OUTDIR", str(tmp_path))
        key, value = bad
        cfgp = write_cfg(tmp_path, dict(doc, **{key: value}), "bad.json")
        assert cli.run_command(argv + ["-c", cfgp]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("configuration error: "), (bad, err)
