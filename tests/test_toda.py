import math

import numpy as np
import pytest

from conftest import random_chain
from todalift import eisenhart, oplift, toda
from todalift.errors import DomainError
from todalift.integrate import IntegratorConfig, rk4_step


class TestTypes:
    def test_system_validation(self):
        with pytest.raises(DomainError):
            toda.TodaSystem(1, [])
        with pytest.raises(DomainError):
            toda.TodaSystem(3, [1.0])
        with pytest.raises(DomainError):
            toda.TodaSystem(2, [float("inf")])
        sys = toda.TodaSystem(3, [0.0, 0.0])  # zero couplings are fine
        assert sys.g.shape == (2,)

    def test_state_validation(self):
        with pytest.raises(DomainError):
            toda.PhaseState([1.0, 2.0], [0.0])
        with pytest.raises(DomainError):
            toda.PhaseState([float("nan")], [0.0])


class TestHamiltonian:
    def test_resting_pair(self):
        sys = toda.TodaSystem(2, [1.0])
        assert toda.CHAIN.energy(sys, toda.PhaseState([0.0, 0.0], [0.0, 0.0])) == 1.0

    def test_free_particles(self):
        sys = toda.TodaSystem(3, [0.0, 0.0])
        st = toda.PhaseState([1.0, -7.0, 2.0], [1.0, 2.0, 3.0])
        assert toda.CHAIN.energy(sys, st) == 7.0

    def test_direct_formula(self):
        sys = toda.TodaSystem(2, [1.0])
        st = toda.PhaseState([0.5, 0.0], [1.0, 1.0])
        assert abs(toda.CHAIN.energy(sys, st) - (1.0 + math.e)) < 1e-14

    def test_dimension_mismatch(self):
        sys = toda.TodaSystem(2, [1.0])
        with pytest.raises(DomainError):
            toda.CHAIN.energy(sys, toda.PhaseState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))


def chain_field(sys, st):
    """(dq/dt, dp/dt) of the chain's flow field at one state."""
    out = toda.flow_field(sys)(0.0, toda.CHAIN.pack(st))
    return out[: sys.n], out[sys.n :]


class TestEquationsOfMotion:
    def test_resting_pair_force(self):
        sys = toda.TodaSystem(2, [1.0])
        dq, dp = chain_field(sys, toda.PhaseState([0.0, 0.0], [0.0, 0.0]))
        assert np.array_equal(dq, [0.0, 0.0])
        assert np.allclose(dp, [-2.0, 2.0], atol=1e-15)

    def test_free_motion(self):
        sys = toda.TodaSystem(3, [0.0, 0.0])
        st = toda.PhaseState([0.3, -0.1, 0.4], [1.0, -0.5, 0.25])
        dq, dp = chain_field(sys, st)
        assert np.array_equal(dq, st.p)
        assert np.array_equal(dp, np.zeros(3))

    def test_total_momentum_conserved_by_field(self, rng):
        for n in (2, 4, 6):
            sys, st = random_chain(rng, n)
            _, dp = chain_field(sys, st)
            assert abs(dp.sum()) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_field_bits_match_the_unfolded_force(self, rng, n):
        # the field computes 2 g^2 e^{2(q_i - q_{i+1})} once; it must equal
        # the formula with the factor 2 applied per use, zero coupling included
        for trial in range(5):
            sys, st = random_chain(rng, n, scale=2.0)
            if trial == 0:
                sys = toda.TodaSystem(n, np.concatenate([[0.0], sys.g[1:]]))
            y = toda.CHAIN.pack(st)
            w = sys.g**2 * np.exp(2.0 * (y[: n - 1] - y[1:n]))
            want = np.empty(2 * n)
            want[:n] = y[n:]
            want[n:] = 0.0
            want[n : 2 * n - 1] -= 2.0 * w
            want[n + 1 :] += 2.0 * w
            assert toda.flow_field(sys)(0.0, y).tobytes() == want.tobytes()

    def test_matches_hamiltonian_gradient(self, rng):
        sys, st = random_chain(rng, 4)
        _, dp = chain_field(sys, st)
        h = 1e-5
        for i in range(4):
            qp, qm = st.q.copy(), st.q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (
                toda.CHAIN.energy(sys, toda.PhaseState(qp, st.p))
                - toda.CHAIN.energy(sys, toda.PhaseState(qm, st.p))
            ) / (2.0 * h)
            assert abs(dp[i] + fd) < 1e-6

    def test_reduced_two_body_hamiltonian(self, rng):
        # relative motion is canonical in (q1 - q2, p1 - p2) with
        # H = p^2/2 + 2 g^2 exp(2q): check the induced equation of motion
        g1 = 1.3
        sys = toda.TodaSystem(2, [g1])
        for _ in range(10):
            st = toda.PhaseState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            dq, dp = chain_field(sys, st)
            q_rel = st.q[0] - st.q[1]
            assert abs((dq[0] - dq[1]) - (st.p[0] - st.p[1])) < 1e-14
            assert abs((dp[0] - dp[1]) + 4.0 * g1**2 * math.exp(2.0 * q_rel)) < 1e-12


class TestLaxPair:
    def test_two_body_structure(self):
        g1 = 0.75
        sys = toda.TodaSystem(2, [g1])
        st = toda.PhaseState([0.4, -0.1], [0.3, -0.3])
        w = g1 * math.exp(2.0 * (0.4 - (-0.1)))
        lmat, mmat = toda.lax_pair(sys, st)
        assert np.allclose(lmat, [[0.3, w], [g1, -0.3]], rtol=0, atol=1e-15)
        assert np.allclose(mmat, [[0.0, 2.0 * w], [0.0, 0.0]], rtol=0, atol=1e-15)

    def test_zero_coupling(self):
        sys = toda.TodaSystem(3, [0.0, 0.0])
        st = toda.PhaseState([0.1, 0.2, 0.3], [3.0, 2.0, 1.0])
        lmat, mmat = toda.lax_pair(sys, st)
        assert np.array_equal(lmat, np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(mmat, np.zeros((3, 3)))

    def test_m_strictly_upper_traceless(self, rng):
        sys, st = random_chain(rng, 5)
        _, mmat = toda.lax_pair(sys, st)
        assert np.array_equal(np.tril(mmat), np.zeros((5, 5)))
        assert np.array_equal(np.triu(mmat, 2), np.zeros((5, 5)))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_packed_state_gives_the_same_bits(self, rng, n):
        sys, st = random_chain(rng, n)
        for got, want in zip(toda.lax_pair(sys, toda.CHAIN.pack(st)), toda.lax_pair(sys, st)):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            toda.lax_pair(sys, np.zeros(2 * n + 1))

    def test_lax_equation_residual(self, rng):
        # central difference of L along the flow against the commutator
        sys, st = random_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=5)
        traj = toda.run(sys, st, cfg)
        rhs = toda.flow_field(sys)
        delta = 1e-4
        worst = 0.0
        for vec in traj.states:
            plus = toda.CHAIN.unpack(sys, rk4_step(rhs, vec, 0.0, delta))
            minus = toda.CHAIN.unpack(sys, rk4_step(lambda t, y: -rhs(t, y), vec, 0.0, delta))
            l_plus, _ = toda.lax_pair(sys, plus)
            l_minus, _ = toda.lax_pair(sys, minus)
            here = toda.CHAIN.unpack(sys, vec)
            lmat, mmat = toda.lax_pair(sys, here)
            residual = (l_plus - l_minus) / (2.0 * delta) - (lmat @ mmat - mmat @ lmat)
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < 1e-6


class TestOneLaxCore:
    """Every picture's per-state Lax matrix and invariants are a column of the batched core."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_per_state_results_are_batch_slices(self, rng, n):
        m, j = 4, 2
        g = rng.uniform(-2.0, 2.0, n - 1)
        g[0] = 0.0
        sys = toda.TodaSystem(n, g)
        q, p = rng.uniform(-1.0, 1.0, (n, m)), rng.uniform(-1.0, 1.0, (n, m))
        st = toda.PhaseState(q[:, j], p[:, j])

        lmat, _, upper = toda._lax_stack(q, p, g[:, None])
        for got in (toda.lax_pair(sys, st), toda.lax_pair(sys, toda.CHAIN.pack(st))):
            assert got[0].tobytes() == lmat[j].tobytes()
            assert got[1].tobytes() == np.diag(2.0 * upper[:, j], 1).tobytes()
        chain = toda.lax_traces(q, p, g[:, None], n)
        assert toda.invariants(sys, st, n).tobytes() == chain[:, j].tobytes()

        p_y = rng.uniform(-2.0, 2.0, m)
        lifted = eisenhart.EisenhartState(q=q[:, j], y=0.3, p=p[:, j], p_y=p_y[j])
        couplings = p_y * g[:, None]
        lifted_batch = toda._lax_stack(q, p, couplings)[0]
        assert eisenhart.lifted_lax(sys, lifted)[0].tobytes() == lifted_batch[j].tobytes()
        traces = toda.lax_traces(q, p, couplings, n)
        assert eisenhart.lifted_invariants(sys, lifted, n).tobytes() == traces[:, j].tobytes()

        p_omega = rng.uniform(-2.0, 2.0, (n - 1, m))
        general = oplift.OPState(
            q=q[:, j], omega=np.zeros(n - 1), p_q=p[:, j], p_omega=p_omega[:, j], centered=False
        )
        traces = toda.lax_traces(q, p, p_omega, n)
        assert oplift.generalized_invariants(general, n).tobytes() == traces[:, j].tobytes()


class TestInvariants:
    def test_first_is_total_momentum(self, rng):
        sys, st = random_chain(rng, 4)
        vals = toda.invariants(sys, st, 4)
        assert abs(vals[0] - st.p.sum()) < 1e-13

    def test_second_is_energy(self, rng):
        sys, st = random_chain(rng, 5)
        vals = toda.invariants(sys, st, 2)
        assert abs(vals[1] - toda.CHAIN.energy(sys, st)) < 1e-12

    def test_free_case_values(self):
        sys = toda.TodaSystem(2, [0.0])
        st = toda.PhaseState([0.0, 0.0], [1.0, 2.0])
        assert np.allclose(toda.invariants(sys, st, 2), [3.0, 2.5], rtol=0, atol=1e-15)

    def test_kmax_range(self, rng):
        sys, st = random_chain(rng, 3)
        with pytest.raises(DomainError):
            toda.invariants(sys, st, 0)
        with pytest.raises(DomainError):
            toda.invariants(sys, st, 4)

    def test_conjugation_invariance(self, rng):
        sys, st = random_chain(rng, 4)
        lmat, _ = toda.lax_pair(sys, st)
        vals = toda.invariants(sys, st, 4)
        for _ in range(20):
            pmat = np.eye(4) + 0.3 * rng.uniform(-1.0, 1.0, (4, 4))
            if np.linalg.cond(pmat) > 100.0:
                continue
            conj = pmat @ lmat @ np.linalg.inv(pmat)
            power = conj.copy()
            for k in range(1, 5):
                assert abs(np.trace(power) / k - vals[k - 1]) < 1e-10
                power = power @ conj

    def test_drift_along_flow(self, rng):
        for n in (2, 4):
            sys, st = random_chain(rng, n)
            cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
            traj = toda.run(sys, st, cfg)
            assert max(traj.drift.values()) < 1e-8


class TestEvolutionMatrix:
    def test_identity_at_start_and_det_one(self, rng):
        sys, st = random_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=5)
        traj = toda.run(sys, st, cfg)
        mats = toda.evolve_A(sys, traj)
        assert np.array_equal(mats[0], np.eye(3))
        for amat in mats:
            assert abs(np.linalg.det(amat) - 1.0) < 1e-9

    def test_conjugates_initial_lax(self, rng):
        sys, st = random_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=5)
        traj = toda.run(sys, st, cfg)
        mats = toda.evolve_A(sys, traj)
        l0, _ = toda.lax_pair(sys, st)
        worst = 0.0
        for amat, vec in zip(mats, traj.states):
            lt, _ = toda.lax_pair(sys, toda.CHAIN.unpack(sys, vec))
            residual = amat @ l0 @ np.linalg.inv(amat) - lt
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < 1e-6

    @staticmethod
    def lax_matrix(g, vec):
        # L built here from its definition, independent of toda.lax_pair
        n = len(g) + 1
        q, p = vec[:n], vec[n:]
        return np.diag(p) + np.diag(g, -1) + np.diag(g * np.exp(2.0 * (q[:-1] - q[1:])), 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("stride", [10**9, 3], ids=["sparse", "dense"])
    def test_unit_upper_triangular_and_conjugating(self, rng, n, stride):
        # dA/dt = -M A with M strictly upper triangular keeps A exactly unit
        # upper triangular: every product feeding the lower triangle or the
        # diagonal's derivative has an exact zero factor
        sys, st = random_chain(rng, n)
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, t_final=4.0, stride=stride)
        traj = toda.run(sys, st, cfg)
        mats = toda.evolve_A(sys, traj)
        assert len(mats) == len(traj) >= (2 if stride > 1000 else 10)
        l0 = self.lax_matrix(sys.g, traj.states[0])
        for amat, vec in zip(mats, traj.states):
            assert np.all(np.tril(amat, -1) == 0.0)
            assert np.all(np.diag(amat) == 1.0)
            # A L(0) A^-1 = L(t), written as A L(0) = L(t) A: the roundoff of
            # A^-1 grows with the condition of A, which is not under test
            lt = self.lax_matrix(sys.g, vec)
            residual = np.max(np.abs(amat @ l0 - lt @ amat)) / np.max(np.abs(amat))
            assert residual <= 1e-10 * max(1.0, float(np.max(np.abs(lt))))

    def test_non_finite_start_rejected(self, rng):
        sys, st = random_chain(rng, 3)
        traj = toda.run(sys, st, IntegratorConfig(t_final=1.0))
        traj.states[0, 0] = float("nan")
        with pytest.raises(DomainError):
            toda.evolve_A(sys, traj)

    def test_empty_trajectory_rejected(self, rng):
        sys, _ = random_chain(rng, 3)
        from todalift.integrate import Trajectory

        empty = Trajectory(times=np.zeros(0), states=np.zeros((0, 6)))
        with pytest.raises(DomainError):
            toda.evolve_A(sys, empty)


def test_trajectory_write_helpers(rng):
    sys, st = random_chain(rng, 2)
    assert toda.CHAIN.labels(sys.n) == ("q_1", "q_2", "p_1", "p_2")
    packed = toda.CHAIN.pack(st)
    back = toda.CHAIN.unpack(sys, packed)
    assert np.array_equal(back.q, st.q)
    assert np.array_equal(back.p, st.p)
