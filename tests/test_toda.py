import itertools
import math

import numpy as np
import pytest

from conftest import random_chain
from evolution_oracle import co_integrated_A
from todalift import eisenhart, oplift, toda
from todalift.errors import DomainError
from todalift.integrate import IntegratorConfig, Trajectory


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

    def test_state_finiteness_names_the_first_bad_field(self):
        # one check over all fields finds a bad entry; the message still names its field
        q, omega = np.array([0.1, -0.1, 0.0]), np.array([0.2, 0.3])
        cases = [
            (lambda: oplift.OPState(q=q, omega=omega, p_q=q, p_omega=[0.0, np.inf]), "p_omega"),
            (lambda: oplift.OPState(q=q, omega=[np.nan, 0.0], p_q=[np.inf] * 3, p_omega=omega), "omega"),
            (lambda: eisenhart.EisenhartState(q=q, y=np.nan, p=q, p_y=np.inf), "y"),
        ]
        for make, name in cases:
            with pytest.raises(DomainError, match=f"state entries must be finite, got {name} = "):
                make()
        state = oplift.OPState(q=q, omega=omega, p_q=q, p_omega=omega)
        assert state.p_omega.dtype == float and state.n == 3


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
        # central difference of L along the flow, vec -+ delta f(vec), against the commutator
        sys, st = random_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=5)
        traj = toda.run(sys, st, cfg)
        rhs = toda.flow_field(sys)
        delta = 1e-4
        worst = 0.0
        for vec in traj.states:
            step = delta * rhs(0.0, vec)
            plus = toda.CHAIN.unpack(sys, vec + step)
            minus = toda.CHAIN.unpack(sys, vec - step)
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
        start = Trajectory(times=traj.times[:1], states=traj.states[:1])
        assert [amat.tobytes() for amat in toda.evolve_A(sys, start)] == [np.eye(3).tobytes()]

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
        # dA/dt = -M A with M strictly upper triangular keeps A unit upper
        # triangular, and the closed form writes that structure exactly
        sys, st = random_chain(rng, n)
        # the dense case's sample count is a count of Dormand-Prince steps
        method = "adaptive" if stride == 3 else None
        cfg = IntegratorConfig(method=method, rtol=1e-12, atol=1e-14, t_final=4.0, stride=stride)
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
        empty = Trajectory(times=np.zeros(0), states=np.zeros((0, 6)))
        with pytest.raises(DomainError):
            toda.evolve_A(sys, empty)

    @pytest.mark.parametrize(
        "times, width",
        [([0.0, float("nan")], 6), ([0.0, float("inf")], 6), ([0.5, 1.0], 6), ([0.0, 1.0, 1.0], 6),
         ([0.0, 2.0, 1.0], 6), ([0.0, 1.0], 4), ([0.0, 1.0], 8)],
        ids=["nan-time", "inf-time", "late-start", "repeated-time", "decreasing", "narrow", "wide"],
    )
    def test_malformed_trajectory_rejected(self, rng, times, width):
        sys, st = random_chain(rng, 3)
        y0 = toda.CHAIN.pack(st)
        states = np.tile(np.resize(y0, width), (len(times), 1))
        with pytest.raises(DomainError):
            toda.evolve_A(sys, Trajectory(times=np.array(times), states=states))

    @staticmethod
    def check_against_oracle(sys, traj, tol=1e-10):
        # the co-integration of dA/dt = -M A is the oracle; the closed form must
        # match it relative to max|A| and carry A's structure exactly
        mats = toda.evolve_A(sys, traj)
        ref = co_integrated_A(sys, traj)
        assert len(mats) == len(ref) == len(traj)
        assert mats[0].tobytes() == np.eye(sys.n).tobytes()
        worst = 0.0
        for amat, aref in zip(mats, ref):
            assert np.all(np.tril(amat, -1) == 0.0) and np.all(np.diag(amat) == 1.0)
            assert np.linalg.det(amat) == 1.0
            worst = max(worst, float(np.max(np.abs(amat - aref)) / np.max(np.abs(aref))))
        assert worst <= tol
        return mats

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("stride", [10**9, 5], ids=["sparse", "dense"])
    def test_matches_co_integration(self, rng, n, stride):
        sys, st = random_chain(rng, n)
        method = "adaptive" if stride == 5 else None
        traj = toda.run(sys, st, IntegratorConfig(method=method, rtol=1e-12, atol=1e-14, t_final=4.0, stride=stride))
        assert len(traj) >= (2 if stride > 1000 else 10)
        self.check_against_oracle(sys, traj)

    @pytest.mark.parametrize("n, t_final", [(10, 60.0), (6, 100.0), (7, 2000.0)])
    def test_long_runs_past_one_grading(self, rng, n, t_final):
        # exp(-t (lam_max - lam_min)) underflows past 745: one graded QR
        # cannot reach these times, so the closed form restarts from checkpoints
        sys, st = random_chain(rng, n, scale=2.0)
        spread = float(np.ptp(np.linalg.eigvals(toda.lax_pair(sys, st)[0]).real))
        assert t_final * spread > 745.0
        cfg = IntegratorConfig(method="adaptive", rtol=1e-12, atol=1e-14, t_final=t_final, stride=40)
        traj = toda.run(sys, st, cfg)
        assert len(traj) >= 4
        mats = self.check_against_oracle(sys, traj)
        assert all(np.all(np.isfinite(amat)) for amat in mats)

    def test_scattering_limit_is_reached_bit_for_bit(self, rng):
        # A(t) converges as the particles separate; once the graded rows are
        # e^746 apart it stops changing, and far times cost no more than near ones
        sys, st = random_chain(rng, 6, scale=2.0)
        times = np.array([0.0, 1e3, 1e4, 1e5, 1e12])
        traj = Trajectory(times=times, states=np.tile(toda.CHAIN.pack(st), (len(times), 1)))
        mats = toda.evolve_A(sys, traj)
        assert mats[2].tobytes() == mats[3].tobytes() == mats[4].tobytes()
        self.check_against_oracle(sys, Trajectory(times=times[:3], states=traj.states[:3]))

    @pytest.mark.parametrize(
        "g, q, p",
        [
            ([0.8, 0.0, 1.1], [0.1, -0.2, 0.3, -0.2], [0.3, -0.3, 0.3, -0.3]),
            # two identical blocks: every eigenvalue of L(0) is double
            ([0.8, 0.0, 0.8], [0.1, -0.2, 0.1, -0.2], [0.3, -0.3, 0.3, -0.3]),
            # single particles with equal momenta on either side of a block
            ([0.0, 0.9, 0.0], [0.5, 0.0, 0.1, -0.6], [0.2, -0.1, 0.4, 0.2]),
            ([0.0, 0.0, 0.0], [0.5, 0.0, 0.1, -0.6], [0.2, 0.2, 0.4, 0.2]),
            # a coupling of e^-40 in the gauge: both eigenvalues round to 1
            ([1.0], [0.0, 40.0], [1.0, 1.0]),
            # gauge couplings of e^-800, which underflow to 0, split the chain
            ([1.0, 1.0], [0.0, 800.0, 1600.0], [0.0, 0.0, 0.0]),
            # q spans 1800 within one block, past the range of e^(q - mean q)
            ([1.0, 1.0, 1.0], [0.0, 600.0, 1200.0, 1800.0], [1.0, 0.5, -0.5, -1.0]),
        ],
        ids=["one-zero", "equal-blocks", "equal-singles", "all-zero", "equal-eigenvalues", "underflowing-gauge",
             "wide-span"],
    )
    def test_zero_couplings(self, g, q, p):
        sys = toda.TodaSystem(len(q), g)
        cfg = IntegratorConfig(method="adaptive", rtol=1e-12, atol=1e-14, t_final=10.0, stride=5)
        traj = toda.run(sys, toda.PhaseState(q=q, p=p), cfg)
        mats = self.check_against_oracle(sys, traj)
        # M and A are block diagonal, split at each zero coupling
        for i in np.flatnonzero(sys.g == 0.0):
            assert all(np.all(amat[: i + 1, i + 1 :] == 0.0) for amat in mats)

    # a large rejected trial step meets forces so large that its error norm
    # overflows to inf, which the step controller rejects by design
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_negligible_coupling_is_kept(self):
        # g e^(q_1 - q_2) = e^-40 is far below the rounding of p, yet the
        # particles approach and scatter near t = 20: cutting the chain there
        # would leave A = I
        sys = toda.TodaSystem(2, [1.0])
        cfg = IntegratorConfig(method="adaptive", rtol=1e-12, atol=1e-14, t_final=30.0, stride=5)
        traj = toda.run(sys, toda.PhaseState(q=[0.0, 40.0], p=[1.0, -1.0]), cfg)
        mats = self.check_against_oracle(sys, traj)
        assert abs(mats[-1][0, 1]) > 0.5

    def test_twisted_eigenvectors_survive_a_zero_pivot(self):
        # T has the exact eigenvalues -5, 0, 5, and at 0 the first pivot of
        # either LDL^T factorisation of T - lam is exactly zero
        diag, off = np.zeros(3), np.array([3.0, 4.0])
        tmat = np.diag(off, 1) + np.diag(off, -1)
        lam = np.array([-5.0, 0.0, 5.0])
        vecs = toda._twisted_eigenvectors(diag, off, lam, np.linalg.eigh(tmat)[1])
        assert np.all(np.isfinite(vecs))
        assert np.max(np.abs(tmat @ vecs - vecs * lam)) < 1e-14
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-15



class TestGradedFactor:
    """toda._graded_factor, the graded-QR core of evolve_A and oplift.exact_coordinates."""

    @staticmethod
    def problem(rng, m):
        # rates non-increasing from 0, a random orthogonal frame, and the checkpoint spacing
        rate = np.concatenate([[0.0], -np.sort(rng.uniform(0.0, 3.0, m - 1))])
        frame = np.linalg.qr(rng.normal(size=(m, m)))[0]
        return rate, frame, toda._GRADING_SPAN / (rate[0] - rate[-1])

    @staticmethod
    def minor_sums(rate, frame, t):
        # sum_{j<k} log_diag_j = log sqrt(det G_k^T G_k) for the leading k columns G_k of
        # diag(e^{t rate}) frame, by Cauchy-Binet in the log domain: no entry of G is formed
        m = len(rate)
        out = []
        for k in range(1, m + 1):
            terms = [2.0 * t * rate[list(rows)].sum() + math.log(np.linalg.det(frame[list(rows), :k]) ** 2)
                     for rows in itertools.combinations(range(m), k)]
            top = max(terms)
            out.append(0.5 * (top + math.log(sum(math.exp(x - top) for x in terms))))
        return np.array(out)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_reconstruction_within_the_double_range(self, rng, m):
        # up to a grading of 700, past one checkpoint at 600, every row is representable
        rate, frame, reach = self.problem(rng, m)
        times = np.linspace(0.0, 700.0 / 600.0 * reach, 9)
        qs, logs, units = toda._graded_factor(rate, frame, times)
        for t, qmat, log_diag, unit in zip(times, qs, logs, units):
            rebuilt = (qmat * np.exp(log_diag)) @ unit
            # each row relative to its own grading
            assert np.max(np.abs(rebuilt / np.exp(t * rate)[:, None] - frame)) < 1e-12
            assert np.max(np.abs(qmat.T @ qmat - np.eye(m))) < 1e-15 * m
            assert np.all(np.diag(unit) == 1.0) and np.all(np.tril(unit, -1) == 0.0)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_log_diagonal_far_past_the_double_range(self, rng, m):
        # across many checkpoints and past the point where the march stops
        rate, frame, reach = self.problem(rng, m)
        times = np.array([0.5, 3.7, 50.0, 1e4]) * reach
        qs, logs, units = toda._graded_factor(rate, frame, times)
        assert np.all(np.isfinite(qs)) and np.all(np.isfinite(logs)) and np.all(np.isfinite(units))
        for t, log_diag, unit in zip(times, logs, units):
            ref = self.minor_sums(rate, frame, t)
            assert np.max(np.abs(np.cumsum(log_diag) - ref)) < 1e-13 * max(1.0, float(np.max(np.abs(ref))))
            assert np.all(np.diag(unit) == 1.0) and np.all(np.tril(unit, -1) == 0.0)
        assert units[2].tobytes() == units[3].tobytes()

    def test_sample_on_a_checkpoint_boundary(self, rng):
        # t = reach closes the first interval and 2 reach the second; nothing jumps there
        rate, frame, reach = self.problem(rng, 4)
        times = np.array([reach, np.nextafter(reach, np.inf), 2.0 * reach, np.nextafter(2.0 * reach, np.inf)])
        qs, logs, units = toda._graded_factor(rate, frame, times)
        for lo in (0, 2):
            assert np.max(np.abs(units[lo] - units[lo + 1])) < 1e-12 * np.max(np.abs(units[lo]))
            assert np.max(np.abs(qs[lo] - qs[lo + 1])) < 1e-12
            assert np.max(np.abs(logs[lo] - logs[lo + 1])) < 1e-12 * np.max(np.abs(logs[lo]))
            assert np.max(np.abs(np.cumsum(logs[lo]) - self.minor_sums(rate, frame, times[lo]))) < 1e-12

    def test_batch_equals_one_sample_calls(self, rng):
        rate, frame, reach = self.problem(rng, 5)
        times = np.array([0.0, 0.2, 1.0, 1.0 + 1e-9, 2.5, 7.0, 60.0, 1e6]) * reach
        batch = toda._graded_factor(rate, frame, times)
        for i, t in enumerate(times):
            single = toda._graded_factor(rate, frame, np.array([t]))
            assert all(b[i].tobytes() == s[0].tobytes() for b, s in zip(batch, single))

    def test_no_times(self, rng):
        rate, frame, _ = self.problem(rng, 3)
        assert [a.shape for a in toda._graded_factor(rate, frame, np.zeros(0))] == [(0, 3, 3), (0, 3), (0, 3, 3)]

    @pytest.mark.parametrize("rate", [[0.0, 0.0, 0.0], [0.0, -0.0]], ids=["zeros", "signed-zero"])
    def test_equal_rates_never_grade(self, rng, rate):
        # reach is +inf: one QR of the frame serves every time, however far
        rate = np.array(rate)
        frame = rng.normal(size=(len(rate), len(rate)))
        qs, logs, units = toda._graded_factor(rate, frame, np.array([0.0, 1.0, 1e300]))
        assert qs[0].tobytes() == qs[2].tobytes() and logs[0].tobytes() == logs[2].tobytes()
        assert np.max(np.abs((qs[2] * np.exp(logs[2])) @ units[2] - frame)) < 1e-14 * len(rate)

    def test_one_row(self):
        # a lone row has no neighbour to stop the march on: its factor is still its QR, |c| = e^log_diag
        qs, logs, units = toda._graded_factor(np.zeros(1), np.array([[-3.0]]), np.array([0.0, 1.0, 1e300]))
        assert np.all(qs == -1.0) and np.all(logs == math.log(3.0)) and np.all(units == 1.0)

def test_trajectory_write_helpers(rng):
    sys, st = random_chain(rng, 2)
    assert toda.CHAIN.labels(sys.n) == ("q_1", "q_2", "p_1", "p_2")
    packed = toda.CHAIN.pack(st)
    back = toda.CHAIN.unpack(sys, packed)
    assert np.array_equal(back.q, st.q)
    assert np.array_equal(back.p, st.p)
