import math

import numpy as np
import pytest

from conftest import calm_chain, random_chain
from todalift import eisenhart, oplift, toda
from todalift.errors import ConstraintError, DomainError
from todalift.integrate import IntegratorConfig, Trajectory, integrate_at_times
from todalift.linalg import basis_matrix, mat_exp


def op_state(st, g, omega=None):
    n = len(st.q)
    return oplift.OPState(
        q=st.q, omega=np.zeros(n - 1) if omega is None else omega, p_q=st.p, p_omega=g
    )


class TestChainZ:
    def test_zero_is_identity(self):
        assert np.array_equal(oplift.z_from_omega(np.zeros(3), 4), np.eye(4))

    def test_three_body_entries(self):
        z = oplift.z_from_omega([1.0, 2.0], 3)
        assert z[0, 1] == 1.0
        assert z[1, 2] == 2.0
        assert z[0, 2] == 1.0  # 1*2/2!

    def test_matches_matrix_exponential(self, rng):
        n = 6
        omega = rng.uniform(-2.0, 2.0, n - 1)
        gen = sum(omega[a] * basis_matrix("upper", a + 1, a + 2, dim=n) for a in range(n - 1))
        assert np.max(np.abs(oplift.z_from_omega(omega, n) - mat_exp(gen))) < 1e-13

    def test_derivative_by_finite_differences(self, rng):
        n = 5
        omega = rng.uniform(-1.0, 1.0, n - 1)
        omega_dot = rng.uniform(-1.0, 1.0, n - 1)
        h = 1e-6
        fd = (
            oplift.z_from_omega(omega + h * omega_dot, n)
            - oplift.z_from_omega(omega - h * omega_dot, n)
        ) / (2.0 * h)
        assert np.max(np.abs(fd - oplift.z_dot_from_omega(omega, omega_dot))) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            oplift.z_from_omega([1.0], 3)


class TestBuildX:
    def test_origin(self):
        x = oplift.build_x(np.zeros(3), np.zeros(2))
        assert np.array_equal(x.x, np.eye(3))

    def test_two_body_explicit(self):
        q, z = 0.4, -0.8
        x = oplift.build_x([q, -q], [z]).x
        expected = np.array(
            [
                [math.exp(2 * q) + z**2 * math.exp(-2 * q), z * math.exp(-2 * q)],
                [z * math.exp(-2 * q), math.exp(-2 * q)],
            ]
        )
        assert np.max(np.abs(x - expected)) < 1e-14

    def test_round_trip(self, rng):
        for n in (2, 4, 6):
            q = rng.uniform(-1, 1, n)
            q -= q.mean()
            omega = rng.uniform(-1, 1, n - 1)
            qr, wr = oplift.project_to_coordinates(oplift.build_x(q, omega))
            assert np.max(np.abs(qr - q)) < 1e-12
            assert np.max(np.abs(wr - omega)) < 1e-12

    def test_unit_determinant(self, rng):
        q = rng.uniform(-1, 1, 4)
        q -= q.mean()
        x = oplift.build_x(q, rng.uniform(-1, 1, 3))
        assert abs(np.linalg.det(x.x) - 1.0) < 1e-10

    def test_uncentered_rejected(self):
        with pytest.raises(ConstraintError):
            oplift.build_x([0.5, 0.0], [0.0])


class TestXPoint:
    def test_asymmetric_rejected(self):
        with pytest.raises(ConstraintError):
            oplift.XPoint(np.array([[1.0, 0.5], [0.3, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ConstraintError):
            oplift.XPoint(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_wrong_determinant_rejected(self):
        with pytest.raises(ConstraintError):
            oplift.XPoint(2.0 * np.eye(2))


class TestOPState:
    def test_uncentered_rejected(self):
        with pytest.raises(ConstraintError, match="centered"):
            oplift.OPState(q=[0.5, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0])
        oplift.OPState(q=[0.5, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0], centered=False)


class TestGeneralizedHamiltonian:
    def test_chain_energy_at_coupling_momenta(self, rng):
        sys, st = random_chain(rng, 4)
        s = op_state(st, sys.g, omega=rng.uniform(-1, 1, 3))
        assert abs(oplift.GENERALIZED.energy(sys, s) - toda.CHAIN.energy(sys, st)) < 1e-13

    def test_free_at_zero_momenta(self, rng):
        sys, st = random_chain(rng, 3)
        s = op_state(st, np.zeros(2))
        assert abs(oplift.GENERALIZED.energy(sys, s) - 0.5 * np.dot(st.p, st.p)) < 1e-15

    def test_independent_of_omega(self, rng):
        sys, st = random_chain(rng, 3)
        a = oplift.GENERALIZED.energy(sys, op_state(st, sys.g, omega=np.array([0.3, -0.7])))
        b = oplift.GENERALIZED.energy(sys, op_state(st, sys.g, omega=np.array([5.0, 2.0])))
        assert a == b


class TestGeneralizedMetric:
    def test_at_origin(self):
        sys = toda.TodaSystem(3, [1.0, 1.0])
        assert np.array_equal(oplift.GENERALIZED.metric(sys, np.zeros(3)), np.diag([1, 1, 1, 0.5, 0.5]))

    def test_hamiltonian_is_half_inverse_contraction(self, rng):
        sys, _ = random_chain(rng, 4)
        for _ in range(100):
            q = rng.uniform(-1, 1, 4)
            s = oplift.OPState(
                q=q,
                omega=rng.uniform(-1, 1, 3),
                p_q=rng.uniform(-1, 1, 4),
                p_omega=rng.uniform(-1, 1, 3),
                centered=False,
            )
            mom = np.concatenate([s.p_q, s.p_omega])
            minv = oplift.GENERALIZED.inverse_metric(sys, q)
            assert abs(0.5 * mom @ minv @ mom - oplift.GENERALIZED.energy(sys, s)) < 1e-12

    def test_two_body_reduction_to_fibre_metric(self, rng):
        # pull back along q = (q/2, -q/2), omega = y / (2 g1): the q,omega
        # block becomes half of diag(1, 1/(4V))
        g1 = 0.9
        sys = toda.TodaSystem(2, [g1])
        for _ in range(20):
            q_rel = rng.uniform(-1.0, 1.0)
            v = g1**2 * math.exp(2.0 * q_rel)
            jac = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 1.0 / (2.0 * g1)]])
            pulled = jac.T @ oplift.GENERALIZED.metric(sys, [q_rel / 2, -q_rel / 2]) @ jac
            expected = 0.5 * np.diag([1.0, 1.0 / (4.0 * v)])
            assert np.max(np.abs(pulled - expected)) < 1e-14

    def test_two_body_form_combination(self, rng):
        # 4 rho3 x rho3 + 4 rho1 x rho2 evaluated on the velocity equals
        # qdot^2 + (g^2/V) zdot^2
        g1 = 1.1
        sys = toda.TodaSystem(2, [g1])
        mons = {m.name: m for m in oplift.monitors_n2(sys)}
        for _ in range(30):
            q_rel = rng.uniform(-1, 1)
            pv = rng.uniform(-1, 1)
            s = oplift.OPState(
                q=[q_rel / 2, -q_rel / 2],
                omega=[rng.uniform(-1, 1)],
                p_q=[pv, -pv],
                p_omega=[rng.uniform(-1, 1)],
            )
            c1 = mons["C_1"].evaluate(s)
            c2 = mons["C_2"].evaluate(s)
            c3 = mons["C_3"].evaluate(s)
            qdot = s.p_q[0] - s.p_q[1]
            zdot = s.omega_dot()[0]
            v = g1**2 * math.exp(2.0 * q_rel)
            lhs = 4.0 * c3 * c3 + 4.0 * c1 * c2
            rhs = qdot**2 + (g1**2 / v) * zdot**2
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


class TestGeneralizedFlow:
    def test_omega_momenta_frozen(self, rng):
        sys, st = random_chain(rng, 4)
        s = op_state(st, rng.uniform(-1, 1, 3))
        # packed layout [q, omega, p_q, p_omega]: p_omega starts at 3n - 1
        dp_w = oplift.flow_field_generalized(sys)(0.0, oplift.GENERALIZED.pack(s))[11:]
        assert np.array_equal(dp_w, np.zeros(3))

    def test_omega_velocity_formula(self, rng):
        sys, st = random_chain(rng, 3)
        s = op_state(st, sys.g)
        domega = oplift.flow_field_generalized(sys)(0.0, oplift.GENERALIZED.pack(s))[3:5]  # omega follows q
        expected = 2.0 * sys.g * np.exp(2.0 * (st.q[:-1] - st.q[1:]))
        assert np.max(np.abs(domega - expected)) < 1e-14

    def test_position_flow_matches_chain(self, rng):
        sys, st = calm_chain(rng, 3)
        s = op_state(st, sys.g)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        ttraj = toda.run(sys, st, cfg, kmax=1)
        otraj = integrate_at_times(
            oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(s), ttraj.times, cfg
        )
        assert np.max(np.abs(ttraj.states[:, :3] - otraj.states[:, :3])) < 1e-6

    def test_invariant_drift(self, rng):
        sys, st = random_chain(rng, 4)
        s = op_state(st, rng.uniform(0.5, 1.5, 3), omega=rng.uniform(-1, 1, 3))
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg)
        assert max(traj.drift.values()) < 1e-8


class TestExactGeodesic:
    def test_time_zero(self, rng):
        sys, st = calm_chain(rng, 3)
        s = op_state(st, sys.g)
        x0 = oplift.build_x(s.q, s.omega)
        xd0 = oplift.initial_xdot(s, sys)
        out = oplift.exact_geodesic(x0, xd0, 0.0)
        assert np.max(np.abs(out.x - x0.x)) < 1e-12

    def test_frozen_point(self, rng):
        q = rng.uniform(-1, 1, 3)
        q -= q.mean()
        x0 = oplift.build_x(q, rng.uniform(-1, 1, 2))
        out = oplift.exact_geodesic(x0, np.zeros((3, 3)), 7.3)
        assert np.max(np.abs(out.x - x0.x)) < 1e-12

    def test_two_body_closed_form(self):
        # from rest at the origin with unit coupling the gap follows
        # q1 - q2 = -ln cosh 2t
        sys = toda.TodaSystem(2, [1.0])
        s = oplift.OPState(q=[0.0, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0])
        x0 = oplift.build_x(s.q, s.omega)
        xd0 = oplift.initial_xdot(s, sys)
        assert np.max(np.abs(xd0 - np.array([[0.0, 2.0], [2.0, 0.0]]))) < 1e-15
        for t in (0.3, 1.0, 2.0):
            q, _ = oplift.project_to_coordinates(oplift.exact_geodesic(x0, xd0, t))
            assert abs((q[0] - q[1]) + math.log(math.cosh(2.0 * t))) < 1e-10

    def test_autoparallel_by_finite_differences(self, rng):
        sys, st = calm_chain(rng, 3)
        s = op_state(st, sys.g)
        x0 = oplift.build_x(s.q, s.omega)
        xd0 = oplift.initial_xdot(s, sys)
        delta = 1e-4
        worst = 0.0
        for t in (1.0, 3.0, 5.0):
            xs = {dt: oplift.exact_geodesic_raw(x0, xd0, t + dt) for dt in (-2 * delta, -delta, 0.0, delta, 2 * delta)}
            v_minus = (xs[0.0] - xs[-2 * delta]) / (2 * delta) @ np.linalg.inv(xs[-delta])
            v_plus = (xs[2 * delta] - xs[0.0]) / (2 * delta) @ np.linalg.inv(xs[delta])
            worst = max(worst, float(np.max(np.abs(v_plus - v_minus))) / (2 * delta))
        assert worst < 1e-5

    def test_trace_condition_enforced(self, rng):
        q = rng.uniform(-1, 1, 3)
        q -= q.mean()
        x0 = oplift.build_x(q, np.zeros(2))
        bad = np.eye(3)  # xdot with Tr(xdot x^-1) != 0
        with pytest.raises(ConstraintError):
            oplift.exact_geodesic_raw(x0, bad, 1.0)

    def test_matches_matrix_exponential_route(self, rng):
        # the factored evaluation is the same matrix as mat_exp(Bt) @ x0
        sys, st = calm_chain(rng, 3)
        s = op_state(st, sys.g, omega=rng.uniform(-0.5, 0.5, 2))
        x0 = oplift.build_x(s.q, s.omega)
        xd0 = oplift.initial_xdot(s, sys)
        b = np.linalg.solve(x0.x, xd0).T
        for t in (0.5, 2.0):
            direct = mat_exp(b * t) @ x0.x
            dev = np.max(np.abs(direct - oplift.exact_geodesic_raw(x0, xd0, t)))
            assert dev < 1e-11 * max(1.0, float(np.max(np.abs(direct))))


class TestInitialXdot:
    def test_zero_momenta(self, rng):
        q = rng.uniform(-1, 1, 4)
        q -= q.mean()
        sys = toda.TodaSystem(4, rng.uniform(0.5, 1.5, 3))
        s = oplift.OPState(q=q, omega=rng.uniform(-1, 1, 3), p_q=np.zeros(4), p_omega=np.zeros(3))
        assert np.array_equal(oplift.initial_xdot(s, sys), np.zeros((4, 4)))

    def test_symmetry(self, rng):
        sys, st = random_chain(rng, 4)
        s = op_state(st, rng.uniform(-1, 1, 3), omega=rng.uniform(-1, 1, 3))
        xd = oplift.initial_xdot(s, sys)
        assert np.max(np.abs(xd - xd.T)) < 1e-13

    def test_uncentered_momentum_rejected(self, rng):
        sys = toda.TodaSystem(3, [1.0, 1.0])
        s = oplift.OPState(
            q=[0.2, -0.1, -0.1], omega=[0.0, 0.0], p_q=[1.0, 0.0, 0.0], p_omega=[1.0, 1.0]
        )
        with pytest.raises(ConstraintError):
            oplift.initial_xdot(s, sys)

    def test_exact_geodesic_reproduces_flow(self, rng):
        for n in (2, 3, 4):
            sys, st = calm_chain(rng, n)
            s = op_state(st, sys.g)
            x0 = oplift.build_x(s.q, s.omega)
            xd0 = oplift.initial_xdot(s, sys)
            cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=20)
            times = np.linspace(0.0, 10.0, 11)
            traj = integrate_at_times(
                oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(s), times, cfg
            )
            worst = 0.0
            for i, t in enumerate(times):
                q, _ = oplift.project_to_coordinates(oplift.exact_geodesic(x0, xd0, float(t)))
                worst = max(worst, float(np.max(np.abs(q - traj.states[i, :n]))))
            assert worst < 1e-6


class TestMonitors:
    def test_cbar_equals_twice_momentum(self, rng):
        sys, st = random_chain(rng, 4)
        s = op_state(st, rng.uniform(0.3, 1.5, 3), omega=rng.uniform(-1, 1, 3))
        for a in range(1, 4):
            mon = [m for m in oplift.monitors_general(sys) if m.name == f"cbar_{a + 1}_{a}"][0]
            target = 2.0 * s.p_omega[a - 1]
            assert abs(mon.evaluate(s) - target) < 1e-13 * max(1.0, abs(target))

    def test_conserved_monitors_along_flow(self, rng):
        sys, st = calm_chain(rng, 4)
        s = op_state(st, sys.g, omega=rng.uniform(-0.5, 0.5, 3))
        mons = oplift.monitors_general(sys)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1, extra_monitors=mons)
        for name, value in traj.drift.items():
            if name.startswith(("cbar", "lambda")) or (name.startswith("rho_") and name.count("_") == 1):
                assert value < 1e-8, name
        # with p_omega = g the cbar monitors sit at 2 g
        for a in range(1, 4):
            series = traj.monitors[f"cbar_{a + 1}_{a}"]
            assert np.max(np.abs(series - 2.0 * sys.g[a - 1])) < 1e-12

    def test_rho_family_relations(self, rng):
        sys, st = random_chain(rng, 5)
        s = op_state(st, rng.uniform(0.3, 1.0, 4), omega=rng.uniform(-1, 1, 4))
        mons = {m.name: m for m in oplift.monitors_general(sys)}
        rhos = [mons[f"rho_{a}"].evaluate(s) for a in range(1, 6)]
        lams = [mons[f"lambda_{a}"].evaluate(s) for a in range(1, 6)]
        assert abs(sum(rhos)) < 1e-13  # rho_n = -sum of the others
        for r, l in zip(rhos, lams):
            assert abs(r - 2.0 * l) < 1e-13

    def test_n2_charges_conserved_and_pinned(self, rng):
        sys, st = calm_chain(rng, 2)
        s = op_state(st, sys.g, omega=rng.uniform(-0.5, 0.5, 1))
        mons = oplift.monitors_n2(sys)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1, extra_monitors=mons)
        for name in ("C_1", "C_2", "C_3"):
            assert traj.drift[name] < 1e-8
        assert np.max(np.abs(traj.monitors["C_1"] - sys.g[0])) < 1e-12

    def test_n2_third_charge_gives_equation_of_motion(self, rng):
        # on C_1 = g trajectories, qddot = -4 g^2 exp(2q)
        sys, st = calm_chain(rng, 2)
        s = op_state(st, sys.g)
        cfg = IntegratorConfig(rtol=1e-11, atol=1e-13, t_final=2.0, stride=1)
        delta = 1e-4
        times = [0.0, 1.0 - delta, 1.0, 1.0 + delta]
        traj = integrate_at_times(
            oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(s), times, cfg
        )
        qdots = [vec[3] - vec[4] for vec in traj.states[1:]]  # p_q1 - p_q2
        qddot = (qdots[2] - qdots[0]) / (2.0 * delta)
        q_rel = traj.states[2][0] - traj.states[2][1]
        assert abs(qddot + 4.0 * sys.g[0] ** 2 * math.exp(2.0 * q_rel)) < 1e-6

    def test_n2_requires_two_particles(self, rng):
        sys, _ = random_chain(rng, 3)
        with pytest.raises(DomainError):
            oplift.monitors_n2(sys)


class TestMomentumForms:
    """The charges read off the momenta against their velocity forms.

    The oracle takes omega_dot from the omega rows of the flow field, and
    contracts it with exp(-2(q_a - q_{a+1})), on random states whose
    neighbouring positions lie within 5 of each other.
    """

    @staticmethod
    def random_states(rng, n, samples=40):
        gaps = rng.uniform(-5.0, 5.0, (samples, n - 1))
        q = np.concatenate([np.zeros((samples, 1)), -np.cumsum(gaps, axis=1)], axis=1)
        q -= q.mean(axis=1, keepdims=True)
        rest = rng.uniform(-2.0, 2.0, (samples, 3 * n - 2))
        return np.concatenate([q, rest], axis=1)

    @staticmethod
    def velocity_forms(sys, row):
        n = sys.n
        q, omega, p_q, p_omega = oplift.GENERALIZED.split(row, n)
        od = oplift.flow_field_generalized(sys)(0.0, row)[n : 2 * n - 1]
        back = np.exp(-2.0 * (q[:-1] - q[1:]))  # exp(-2(q_a - q_{a+1}))
        want = {f"cbar_{a + 1}_{a}": back[a - 1] * od[a - 1] for a in range(1, n)}
        for a in range(1, n + 1):
            rho = 2.0 * p_q[a - 1]
            if a <= n - 1:
                rho += back[a - 1] * omega[a - 1] * od[a - 1]
            if a >= 2:
                rho -= back[a - 2] * omega[a - 2] * od[a - 2]
            want[f"rho_{a}"] = rho
        if n == 2:
            z, zdot, qdot = omega[0], od[0], p_q[0] - p_q[1]
            want["C_1"] = 0.5 * back[0] * zdot
            want["C_2"] = -z * qdot + (1.0 - z**2 * back[0]) * zdot / 2.0
            want["C_3"] = qdot / 2.0 + z * back[0] * zdot / 2.0
        return want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_monitors_match_the_velocity_forms(self, rng, n, monkeypatch):
        sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
        states = self.random_states(rng, n)
        forms = oplift.monitors_general(sys) + (oplift.monitors_n2(sys) if n == 2 else [])
        by_name = {fm.name: fm for fm in forms}
        batch = oplift.GENERALIZED.monitors(sys, 1, forms)
        wants = [self.velocity_forms(sys, row) for row in states]
        # none of the momentum forms needs the velocities
        monkeypatch.setattr(oplift.OPState, "omega_dot", None)
        for name in wants[0]:
            want = np.array([w[name] for w in wants])
            got = batch[name](states)
            one = [by_name[name].evaluate(oplift.GENERALIZED.unpack(sys, row, centered=False)) for row in states]
            for values in (got, np.array(one)):
                assert np.all(np.abs(values - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), name

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduction_kinetic_term_matches_the_velocity_form(self, rng, n, monkeypatch):
        # momenta a hair off g make the kinetic residual |kin - 2V| / max(1, 2V)
        # a measurable number; an error e in kin moves it by at most e / max(1, 2V)
        sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
        states = self.random_states(rng, n)
        states[:, 3 * n - 1 :] = sys.g * (1.0 + 2e-9)
        want, bound = 0.0, 0.0
        for row in states:
            q = row[:n]
            od = oplift.flow_field_generalized(sys)(0.0, row)[n : 2 * n - 1]
            gap = np.exp(2.0 * (q[:-1] - q[1:]))
            kin = 0.5 * float(np.sum(od**2 / gap))
            v = float(np.sum(sys.g**2 * gap))
            scale = max(1.0, 2.0 * v)
            want = max(want, abs(kin - 2.0 * v) / scale)
            bound = max(bound, 1e-13 * max(1.0, kin) / scale)
        monkeypatch.setattr(oplift.OPState, "omega_dot", None)
        traj = Trajectory(times=np.arange(len(states), dtype=float), states=states)
        got = oplift.reduction_check(sys, traj).max_kinetic_residual
        assert want > 1e-12
        assert abs(got - want) <= bound


class TestAdjointExpansion:
    def test_identity_z(self):
        gen = basis_matrix("diagonal-traceless", 1, dim=3)
        exp = oplift.adjoint_expansion(np.zeros(3), np.zeros(2), gen)
        assert np.array_equal(exp.upper, np.zeros((3, 3)))
        assert np.array_equal(exp.lower, np.zeros((3, 3)))
        assert np.array_equal(exp.diag, [1.0, 0.0])

    def test_lambda_coefficients_exact(self, rng):
        n = 3
        omega = rng.uniform(-1.5, 1.5, n - 1)
        for a in range(1, n):
            exp = oplift.adjoint_expansion(
                np.zeros(n), omega, basis_matrix("lower", a + 1, a, dim=n)
            )
            for b in range(1, n):
                expected = (omega[b - 1] if a == b else 0.0) - (
                    omega[b - 2] if a + 1 == b else 0.0
                )
                assert exp.diag[b - 1] == expected

    def test_non_basis_generator_rejected(self, rng):
        with pytest.raises(DomainError):
            oplift.adjoint_expansion(np.zeros(3), np.zeros(2), rng.uniform(-1, 1, (3, 3)))


class TestReduction:
    def test_identities_hold_on_coupling_trajectories(self, rng):
        sys, st = calm_chain(rng, 4)
        s = op_state(st, sys.g, omega=rng.uniform(-0.5, 0.5, 3))
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1)
        report = oplift.reduction_check(sys, traj)
        assert report.max_ydot_residual < 1e-8
        assert report.max_kinetic_residual < 1e-8
        assert report.max_block_residual < 1e-8

    def test_single_active_coupling(self, rng):
        g = np.array([1.0, 0.0, 0.0])
        sys = toda.TodaSystem(4, g)
        _, st = calm_chain(rng, 4)
        s = op_state(st, g)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1)
        report = oplift.reduction_check(sys, traj)
        assert report.max_ydot_residual < 1e-8
        # y reduces to omega_1: the flow leaves the other omegas frozen
        assert np.max(np.abs(traj.states[:, 5:7] - traj.states[0, 5:7])) < 1e-12

    def test_wrong_momenta_rejected(self, rng):
        sys, st = calm_chain(rng, 3)
        s = op_state(st, sys.g + 0.5)
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, t_final=1.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1)
        with pytest.raises(DomainError):
            oplift.reduction_check(sys, traj)

    def test_matches_per_sample_residuals(self, rng):
        # momenta a hair off g (inside the 1e-8 acceptance) make the first
        # two residuals measurable numbers; the block residual is second
        # order in the offset, so it stays at roundoff
        sys, st = calm_chain(rng, 4)
        s = op_state(st, sys.g * (1.0 + 2e-9), omega=rng.uniform(-0.5, 0.5, 3))
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=3)
        traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1)
        want = [0.0, 0.0, 0.0]
        for vec in traj.states:
            u = oplift.GENERALIZED.unpack(sys, vec, centered=False)
            od = u.omega_dot()
            v = toda.CHAIN.energy(sys, toda.PhaseState(u.q, 0.0 * u.p_q))
            scale = max(1.0, 2.0 * v)
            ydot = float(np.dot(sys.g, od))
            kin = 0.5 * float(np.sum(np.exp(-2.0 * (u.q[:-1] - u.q[1:])) * od**2))
            want[0] = max(want[0], abs(ydot - 2.0 * v) / scale)
            want[1] = max(want[1], abs(kin - 2.0 * v) / scale)
            if v > 0.0:
                want[2] = max(want[2], abs(ydot**2 / (4.0 * v) - 0.5 * kin) / scale)
        report = oplift.reduction_check(sys, traj)
        got = [report.max_ydot_residual, report.max_kinetic_residual, report.max_block_residual]
        assert report.n_samples == len(traj)
        assert min(want[:2]) > 1e-10
        for a, b in zip(got, want):
            assert abs(a - b) <= 4.0 * np.finfo(float).eps

    def test_one_bad_sample_rejected(self, rng):
        sys, st = calm_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=1.0, stride=10)
        traj = oplift.run_geodesic_generalized(sys, op_state(st, sys.g), cfg, kmax=1)
        oplift.reduction_check(sys, traj)
        traj.states[len(traj) // 2, -1] += 1e-6
        with pytest.raises(DomainError):
            oplift.reduction_check(sys, traj)

    def test_reduced_eisenhart_geodesic_matches(self, rng):
        sys, st = calm_chain(rng, 4)
        s = op_state(st, sys.g, omega=rng.uniform(-0.5, 0.5, 3))
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        dq, traj = oplift.compare_reduced_eisenhart(sys, s, cfg)
        assert dq.shape == traj.times.shape and np.max(dq) < 1e-6
