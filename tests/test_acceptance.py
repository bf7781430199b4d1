"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and asserts the same condition.
"""

import math
import time

import numpy as np

from conftest import calm_chain, random_chain
from todalift import eisenhart, findings, killing, linalg, oplift, toda
from todalift.integrate import IntegratorConfig, integrate_at_times, rk4_step


def _line(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_invariant_conservation():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 7):
        sys, st = random_chain(rng, n, g_lo=0.5, g_hi=2.0, scale=1.0)
        cfg = IntegratorConfig(method="adaptive", rtol=1e-10, atol=1e-12, t_final=50.0, stride=20)
        traj = toda.run(sys, st, cfg)
        worst = max(worst, max(traj.drift[f"I_{k}"] for k in range(1, n + 1)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _line(1, ok, f"max invariant drift {worst:.3e} (tol 1e-08), runtime {elapsed:.2f}s (limit 10s)")


def _fd_lax_residual(sys, traj, lax_of_state, unpack, field):
    delta = 1e-4
    worst = 0.0
    for vec in traj.states:
        plus = unpack(sys, rk4_step(field, vec, 0.0, delta))
        minus = unpack(sys, rk4_step(lambda t, y: -field(t, y), vec, 0.0, delta))
        l_plus, _ = lax_of_state(sys, plus)
        l_minus, _ = lax_of_state(sys, minus)
        lmat, mmat = lax_of_state(sys, unpack(sys, vec))
        res = (l_plus - l_minus) / (2.0 * delta) - (lmat @ mmat - mmat @ lmat)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def test_criterion_2_lax_equation_residuals():
    rng = np.random.default_rng(102)
    worst_base = worst_lift = 0.0
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
    for n in (2, 3, 4):
        sys, st = calm_chain(rng, n)
        traj = toda.run(sys, st, cfg, kmax=1)
        worst_base = max(
            worst_base,
            _fd_lax_residual(sys, traj, toda.lax_pair, toda.CHAIN.unpack, toda.flow_field(sys)),
        )
        lifted = eisenhart.EisenhartState(q=st.q, y=0.0, p=st.p, p_y=0.8)
        ltraj = eisenhart.run_geodesic(sys, lifted, cfg, kmax=1)
        worst_lift = max(
            worst_lift,
            _fd_lax_residual(
                sys, ltraj, eisenhart.lifted_lax, eisenhart.EISENHART.unpack, eisenhart.flow_field(sys)
            ),
        )
    ok = worst_base < 1e-6 and worst_lift < 1e-6
    _line(2, ok, f"base residual {worst_base:.3e}, lifted residual {worst_lift:.3e} (tol 1e-06)")


def test_criterion_3_evolution_matrix_conjugation():
    rng = np.random.default_rng(103)
    sys, st = random_chain(rng, 3)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
    traj = toda.run(sys, st, cfg, kmax=1)
    mats = toda.evolve_A(sys, traj)
    l0, _ = toda.lax_pair(sys, st)
    worst = 0.0
    for amat, vec in zip(mats, traj.states):
        lt, _ = toda.lax_pair(sys, toda.CHAIN.unpack(sys, vec))
        worst = max(worst, float(np.max(np.abs(amat @ l0 @ np.linalg.inv(amat) - lt))))
    _line(3, worst < 1e-6, f"max |A L(0) A^-1 - L(t)| = {worst:.3e} over t in [0,20], n=3 (tol 1e-06)")


def test_criterion_4_eisenhart_equivalence():
    rng = np.random.default_rng(104)
    sys, st = random_chain(rng, 4)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
    sups = []
    for p_y in (1.0, 1.7):
        traj = eisenhart.run_geodesic(sys, eisenhart.EisenhartState(q=st.q, y=0.0, p=st.p, p_y=p_y), cfg, kmax=1)
        scaled = toda.TodaSystem(4, p_y * sys.g)
        ref = integrate_at_times(toda.flow_field(scaled), toda.CHAIN.pack(st), traj.times, cfg)
        sups.append(float(np.max(np.abs(traj.states[:, :4] - ref.states[:, :4]))))
    ok = max(sups) < 1e-6
    _line(4, ok, f"sup|dq| p_y=1: {sups[0]:.3e}, p_y=1.7 vs couplings 1.7g: {sups[1]:.3e} (tol 1e-06)")


def test_criterion_5_three_way_agreement():
    rng = np.random.default_rng(105)
    start = time.monotonic()
    worst = 0.0
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
    for n in (2, 3, 4):
        sys, st = calm_chain(rng, n)
        state = oplift.OPState(q=st.q, omega=np.zeros(n - 1), p_q=st.p, p_omega=sys.g)
        ttraj = toda.run(sys, st, cfg, kmax=1)
        otraj = integrate_at_times(
            oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(state), ttraj.times, cfg
        )
        x0 = oplift.build_x(state.q, state.omega)
        xd0 = oplift.initial_xdot(state, sys)
        q_exact = np.array(
            [
                oplift.project_to_coordinates(oplift.exact_geodesic(x0, xd0, float(t)))[0]
                for t in ttraj.times
            ]
        )
        q_toda = ttraj.states[:, :n]
        q_ham = otraj.states[:, :n]
        worst = max(
            worst,
            float(np.max(np.abs(q_toda - q_ham))),
            float(np.max(np.abs(q_toda - q_exact))),
            float(np.max(np.abs(q_ham - q_exact))),
        )
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _line(5, ok, f"pairwise sup|dq| {worst:.3e} (tol 1e-06), runtime {elapsed:.2f}s (limit 5s)")


def test_criterion_6_two_body_closed_form():
    sys = toda.TodaSystem(2, [1.0])
    st = toda.PhaseState([0.0, 0.0], [0.0, 0.0])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=1.0, stride=10**9)
    target = -math.log(math.cosh(2.0))
    errs = {}

    traj = toda.run(sys, st, cfg, kmax=1)
    errs["toda"] = abs((traj.states[-1][0] - traj.states[-1][1]) - target)

    etraj = eisenhart.run_geodesic(sys, eisenhart.EisenhartState(q=st.q, y=0.0, p=st.p, p_y=1.0), cfg, kmax=1)
    errs["eisenhart"] = abs((etraj.states[-1][0] - etraj.states[-1][1]) - target)

    state = oplift.OPState(q=[0.0, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0])
    otraj = oplift.run_geodesic_generalized(sys, state, cfg, kmax=1)
    errs["generalized"] = abs((otraj.states[-1][0] - otraj.states[-1][1]) - target)

    x0 = oplift.build_x(state.q, state.omega)
    xd0 = oplift.initial_xdot(state, sys)
    q_exact, _ = oplift.project_to_coordinates(oplift.exact_geodesic(x0, xd0, 1.0))
    errs["exact"] = abs((q_exact[0] - q_exact[1]) - target)

    worst = max(errs.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    _line(6, worst < 1e-8, f"|q1-q2 + ln cosh 2| at t=1: {detail} (tol 1e-08)")


def test_criterion_7_form_monitors():
    rng = np.random.default_rng(107)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)

    sys2, st2 = calm_chain(rng, 2)
    s2 = oplift.OPState(q=st2.q, omega=rng.uniform(-0.5, 0.5, 1), p_q=st2.p, p_omega=sys2.g)
    traj2 = oplift.run_geodesic_generalized(
        sys2, s2, cfg, kmax=1, extra_monitors=oplift.monitors_n2(sys2)
    )
    drift_n2 = max(traj2.drift[name] for name in ("C_1", "C_2", "C_3"))

    sys4, st4 = calm_chain(rng, 4)
    s4 = oplift.OPState(q=st4.q, omega=rng.uniform(-0.5, 0.5, 3), p_q=st4.p, p_omega=sys4.g)
    mons = oplift.monitors_general(sys4)
    traj4 = oplift.run_geodesic_generalized(sys4, s4, cfg, kmax=1, extra_monitors=mons)
    gated = [
        name
        for name in traj4.drift
        if name.startswith(("cbar", "lambda")) or (name.startswith("rho_") and name.count("_") == 1)
    ]
    drift_general = max(traj4.drift[name] for name in gated)
    cbar_dev = 0.0
    for a in range(1, 4):
        series = traj4.monitors[f"cbar_{a + 1}_{a}"]
        target = 2.0 * s4.p_omega[a - 1]
        cbar_dev = max(cbar_dev, float(np.max(np.abs(series - target)) / max(1.0, abs(target))))

    ok = drift_n2 < 1e-8 and drift_general < 1e-8 and cbar_dev < 1e-13
    _line(
        7,
        ok,
        f"C drift {drift_n2:.3e}, cbar/lambda/rho drift {drift_general:.3e} (tol 1e-08), "
        f"|cbar - 2 p_omega| {cbar_dev:.3e} (tol 1e-13)",
    )


def test_criterion_8_reduction_identity():
    rng = np.random.default_rng(108)
    sys, st = calm_chain(rng, 4)
    state = oplift.OPState(q=st.q, omega=rng.uniform(-0.5, 0.5, 3), p_q=st.p, p_omega=sys.g)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
    sup_dq, traj = oplift.compare_reduced_eisenhart(sys, state, cfg)
    report = oplift.reduction_check(sys, traj)
    worst = max(report.max_ydot_residual, report.max_kinetic_residual, report.max_block_residual)
    ok = worst < 1e-8 and sup_dq < 1e-6
    _line(
        8,
        ok,
        f"reduction residuals {worst:.3e} (tol 1e-08), reduced-geodesic sup|dq| {sup_dq:.3e} (tol 1e-06)",
    )


def test_criterion_9_killing_verification():
    worst_bracket = worst_drift = 0.0
    all_pass = True
    for n in (2, 5):
        sys = toda.TodaSystem(n, np.linspace(0.6, 1.4, n - 1))
        for lift in ("eisenhart", "generalized"):
            for k in range(1, n + 1):
                rep = killing.verify_killing(sys, lift, k, samples=100, seed=109, geodesics=10, t_final=20.0)
                worst_bracket = max(worst_bracket, rep.bracket_max)
                worst_drift = max(worst_drift, rep.drift_max)
                all_pass = all_pass and rep.passed

    # rank-2 tensors against the inverse lift metrics
    rng = np.random.default_rng(109)
    sys = toda.TodaSystem(3, [0.9, 1.2])
    comp_dev = 0.0
    for _ in range(3):
        q = rng.uniform(-1, 1, 3)
        pos_e = np.concatenate([q, rng.uniform(-1, 1, 1)])
        table_e = killing.extract_tensor(
            lambda pos, mom: float(
                eisenhart.lifted_invariants(
                    sys, eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3]), 2
                )[1]
            ),
            2,
            4,
            pos_e,
        )
        minv_e = eisenhart.EISENHART.inverse_metric(sys, q)
        pos_g = np.concatenate([q - q.mean(), rng.uniform(-1, 1, 2)])
        table_g = killing.extract_tensor(
            lambda pos, mom: float(
                oplift.generalized_invariants(
                    oplift.OPState(q=pos[:3], omega=pos[3:], p_q=mom[:3], p_omega=mom[3:], centered=False),
                    2,
                )[1]
            ),
            2,
            5,
            pos_g,
        )
        minv_g = oplift.GENERALIZED.inverse_metric(sys, q - q.mean())
        for i in range(1, 5):
            for j in range(i, 5):
                comp_dev = max(comp_dev, abs(table_e[(i, j)] - minv_e[i - 1, j - 1]))
        for i in range(1, 6):
            for j in range(i, 6):
                comp_dev = max(comp_dev, abs(table_g[(i, j)] - minv_g[i - 1, j - 1]))

    ok = all_pass and worst_bracket < 1e-5 and worst_drift < 1e-8 and comp_dev < 1e-10
    _line(
        9,
        ok,
        f"bracket max {worst_bracket:.3e} (tol 1e-05), drift max {worst_drift:.3e} (tol 1e-08), "
        f"rank-2 vs inverse metric {comp_dev:.3e} (tol 1e-10)",
    )
    # the bracket is exact, so it sits at roundoff far below its gate
    assert worst_bracket <= 1e-12, worst_bracket


def test_criterion_10_isometry_exactness():
    rng = np.random.default_rng(110)
    n = 5
    sys = toda.TodaSystem(n, rng.uniform(0.5, 1.5, n - 1))
    q = rng.uniform(-1, 1, n)
    q -= q.mean()
    state = oplift.OPState(
        q=q,
        omega=rng.uniform(-1, 1, n - 1),
        p_q=rng.uniform(-1, 1, n),
        p_omega=rng.uniform(0.4, 1.6, n - 1),
    )
    before = oplift.GENERALIZED.energy(sys, state)
    worst = 0.0
    for s in (-2.0, -1.3, -0.5, 0.7, 1.4, 2.0):
        for a in range(1, n):
            out = killing.isometry_flow("omega-translation", a, state, s)
            worst = max(worst, abs(oplift.GENERALIZED.energy(sys, out) - before))
        for a in range(1, n + 1):
            out = killing.isometry_flow("lambda", a, state, s)
            worst = max(worst, abs(oplift.GENERALIZED.energy(sys, out) - before))
    rel = worst / max(1.0, abs(before))
    _line(10, rel < 1e-13, f"max relative energy change {rel:.3e} over parameters in [-2,2], n=5 (tol 1e-13)")


def test_criterion_11_structural_identities():
    rng = np.random.default_rng(111)
    worst_products = 0.0
    for dim in range(2, 7):
        worst_products = max(worst_products, max(linalg.product_identity_residuals(dim).values()))

    worst_z = worst_udu = 0.0
    for n in range(2, 9):
        omega = rng.uniform(-2.0, 2.0, n - 1)
        gen = sum(omega[a] * linalg.basis_matrix("upper", a + 1, a + 2, dim=n) for a in range(n - 1))
        worst_z = max(
            worst_z, float(np.max(np.abs(oplift.z_from_omega(omega, n) - linalg.mat_exp(gen))))
        )
        z = np.eye(n) + np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        hsq = rng.uniform(0.2, 3.0, n)
        x = linalg.udu_compose(z, hsq)
        fac = linalg.udu_decompose(x)
        scale = max(1.0, float(np.max(np.abs(x))))
        worst_udu = max(
            worst_udu, float(np.max(np.abs(linalg.udu_compose(fac.z, fac.hsq) - x))) / scale
        )

    worst_det = 0.0
    for n in (2, 3, 4):
        sys, st = calm_chain(rng, n)
        state = oplift.OPState(q=st.q, omega=np.zeros(n - 1), p_q=st.p, p_omega=sys.g)
        x0 = oplift.build_x(state.q, state.omega)
        xd0 = oplift.initial_xdot(state, sys)
        for t in np.linspace(0.0, 10.0, 21):
            raw = oplift.exact_geodesic_raw(x0, xd0, float(t))
            logdet = float(np.sum(np.log(linalg.udu_decompose(raw).hsq)))
            worst_det = max(worst_det, abs(math.expm1(logdet)))

    ok = worst_products == 0.0 and worst_z < 1e-13 and worst_udu < 1e-12 and worst_det < 1e-8
    _line(
        11,
        ok,
        f"basis products {worst_products:.1e} (exact), Z closed form {worst_z:.3e} (tol 1e-13), "
        f"UDU round trip {worst_udu:.3e} (tol 1e-12), raw det drift {worst_det:.3e} (tol 1e-08)",
    )


def test_criterion_12_adjudication_report(tmp_path):
    doc = findings.generate_findings(seed=112, n=4)
    path = tmp_path / "findings.json"
    findings.write_findings(str(path), doc)

    ok = path.exists()
    norm = doc["invariant_normalization"]
    ok = ok and norm["residuals"]["reciprocal_k"]["I2_vs_H"] < 1e-12
    ok = ok and "Tr(L^k)/k" in norm["conclusion"]
    lam = doc["lambda_velocity_factor"]
    ok = ok and all(abs(v - 1.0) < 1e-8 for v in lam["fitted_alpha"].values())
    orient = doc["zdot_orientation"]
    ok = ok and orient["residuals"]["superdiagonal_both"] < 1e-12
    fvar = doc["f_coefficient_variant"]
    ok = ok and all(v["direct_conjugation"] < 1e-12 for v in fvar["residuals"].values())
    _line(12, ok, f"findings file with four resolved questions and residual tables at {path.name}")
