import numpy as np
import pytest

from conftest import random_chain
from todalift import eisenhart, oplift, toda
from todalift.errors import DegenerateMetricError, DomainError
from todalift.integrate import IntegratorConfig, integrate_at_times


def lift(state, p_y=1.0):
    return eisenhart.EisenhartState(q=state.q, y=0.0, p=state.p, p_y=p_y)


class TestMetric:
    def test_resting_pair(self):
        sys = toda.TodaSystem(2, [1.0])
        assert np.array_equal(
            eisenhart.EISENHART.metric(sys, [0.0, 0.0]), np.diag([1.0, 1.0, 0.5])
        )

    def test_position_block_is_identity(self, rng):
        sys, st = random_chain(rng, 4)
        m = eisenhart.EISENHART.metric(sys, st.q)
        assert np.array_equal(m[:4, :4], np.eye(4))

    def test_degenerate_potential(self):
        sys = toda.TodaSystem(2, [0.0])
        with pytest.raises(DegenerateMetricError):
            eisenhart.EISENHART.metric(sys, [0.0, 0.0])

    def test_inverse(self, rng):
        sys, st = random_chain(rng, 3)
        m = eisenhart.EISENHART.metric(sys, st.q)
        minv = eisenhart.EISENHART.inverse_metric(sys, st.q)
        assert np.max(np.abs(m @ minv - np.eye(4))) < 1e-14


class TestHamiltonian:
    def test_unit_fibre_momentum_recovers_chain(self, rng):
        sys, st = random_chain(rng, 4)
        assert abs(
            eisenhart.EISENHART.energy(sys, lift(st, 1.0)) - toda.CHAIN.energy(sys, st)
        ) < 1e-14

    def test_zero_fibre_momentum_is_free(self, rng):
        sys, st = random_chain(rng, 3)
        assert abs(
            eisenhart.EISENHART.energy(sys, lift(st, 0.0)) - 0.5 * np.dot(st.p, st.p)
        ) < 1e-15

    def test_scaled_fibre_momentum_rescales_couplings(self, rng):
        sys, st = random_chain(rng, 3)
        doubled = toda.TodaSystem(3, 2.0 * sys.g)
        assert abs(
            eisenhart.EISENHART.energy(sys, lift(st, 2.0)) - toda.CHAIN.energy(doubled, st)
        ) < 1e-13

    def test_is_half_inverse_metric_contraction(self, rng):
        sys, st = random_chain(rng, 3)
        s = lift(st, 0.7)
        mom = np.concatenate([s.p, [s.p_y]])
        minv = eisenhart.EISENHART.inverse_metric(sys, s.q)
        assert abs(
            0.5 * mom @ minv @ mom - eisenhart.EISENHART.energy(sys, s)
        ) < 1e-13


class TestGeodesicFlow:
    @staticmethod
    def field(sys, state):
        """(dq, dy, dp, dp_y)/dt of the lift's flow field at one state."""
        n = sys.n
        out = eisenhart.flow_field(sys)(0.0, eisenhart.EISENHART.pack(state))
        return out[:n], out[n], out[n + 1 : 2 * n + 1], out[2 * n + 1]

    def test_fibre_momentum_is_constant(self, rng):
        sys, st = random_chain(rng, 4)
        _, _, _, dp_y = self.field(sys, lift(st, 0.4))
        assert dp_y == 0.0

    def test_reduces_to_chain_flow(self, rng):
        sys, st = random_chain(rng, 4)
        dq, _, dp, _ = self.field(sys, lift(st, 1.0))
        ref = toda.flow_field(sys)(0.0, toda.CHAIN.pack(st))
        assert np.array_equal(dq, ref[:4])
        assert np.max(np.abs(dp - ref[4:])) < 1e-15

    def test_fibre_velocity(self, rng):
        sys, st = random_chain(rng, 3)
        _, dy, _, _ = self.field(sys, lift(st, 1.0))
        assert abs(dy - 2.0 * toda.CHAIN.energy(sys, toda.PhaseState(st.q, 0.0 * st.p))) < 1e-14

    @pytest.mark.parametrize("n", [3, 6])
    def test_fibre_momentum_and_invariant_drift(self, rng, n):
        sys, st = random_chain(rng, n)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10)
        traj = eisenhart.run_geodesic(sys, lift(st, 0.8), cfg)
        assert traj.drift["p_y"] < 1e-10
        assert max(traj.drift[f"I_{k}"] for k in range(1, n + 1)) < 1e-8


class TestLiftedLax:
    def test_unit_momentum_reduces(self, rng):
        sys, st = random_chain(rng, 4)
        l_lift, m_lift = eisenhart.lifted_lax(sys, lift(st, 1.0))
        l_base, m_base = toda.lax_pair(sys, st)
        assert np.array_equal(l_lift, l_base)
        assert np.array_equal(m_lift, m_base)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bits_match_a_validated_scaled_system(self, rng, n):
        # the scaled system skips revalidating n and g; L, M and the one-state
        # invariants keep the bits of a TodaSystem built from p_y g
        for _ in range(20):
            sys = toda.TodaSystem(n, rng.uniform(-1.5, 1.5, n - 1))
            s = eisenhart.EISENHART.unpack(sys, eisenhart.EISENHART.random_states(rng, n, 1)[:, 0])
            rescaled = toda.TodaSystem(n, s.p_y * sys.g)
            want = toda.lax_pair(rescaled, np.concatenate([s.q, s.p]))
            for got, ref in zip(eisenhart.lifted_lax(sys, s), want):
                assert got.tobytes() == ref.tobytes()
            got = eisenhart.lifted_invariants(sys, s, n)
            assert got.tobytes() == toda.power_traces(want[0], n).tobytes()
            assert toda.invariants(rescaled, toda.PhaseState(q=s.q, p=s.p), n).tobytes() == got.tobytes()

    def test_overflowing_coupling_is_rejected(self):
        sys = toda.TodaSystem(2, [1e300])
        s = eisenhart.EisenhartState(q=[0.0, 0.0], y=0.0, p=[0.0, 0.0], p_y=1e10)
        with pytest.raises(DomainError), np.errstate(over="ignore"):
            eisenhart.lifted_lax(sys, s)

    def test_second_invariant_is_energy(self, rng):
        sys, _ = random_chain(rng, 4)
        for _ in range(100):
            q = rng.uniform(-1, 1, 4)
            p = rng.uniform(-1, 1, 4)
            s = eisenhart.EisenhartState(q=q, y=rng.uniform(-1, 1), p=p, p_y=rng.uniform(-1, 1))
            vals = eisenhart.lifted_invariants(sys, s, 2)
            assert abs(vals[1] - eisenhart.EISENHART.energy(sys, s)) < 1e-12

    def test_momentum_homogeneity(self, rng):
        sys, st = random_chain(rng, 3)
        s = lift(st, 0.6)
        base = eisenhart.lifted_invariants(sys, s, 3)
        for lam in (2.0, 0.5):
            scaled = eisenhart.EisenhartState(q=s.q, y=s.y, p=lam * s.p, p_y=lam * s.p_y)
            vals = eisenhart.lifted_invariants(sys, scaled, 3)
            for k in range(1, 4):
                # powers of two scale exactly
                assert vals[k - 1] == lam**k * base[k - 1]
        scaled = eisenhart.EisenhartState(q=s.q, y=s.y, p=3.0 * s.p, p_y=3.0 * s.p_y)
        vals = eisenhart.lifted_invariants(sys, scaled, 3)
        for k in range(1, 4):
            assert abs(vals[k - 1] - 3.0**k * base[k - 1]) < 1e-13 * max(1.0, abs(vals[k - 1]))

    def test_lax_equation_residual(self, rng):
        sys, st = random_chain(rng, 3)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0, stride=5)
        traj = eisenhart.run_geodesic(sys, lift(st, 0.7), cfg, kmax=1)
        rhs = eisenhart.flow_field(sys)
        delta = 1e-4
        worst = 0.0
        for vec in traj.states:
            step = delta * rhs(0.0, vec)
            plus = eisenhart.EISENHART.unpack(sys, vec + step)
            minus = eisenhart.EISENHART.unpack(sys, vec - step)
            l_plus, _ = eisenhart.lifted_lax(sys, plus)
            l_minus, _ = eisenhart.lifted_lax(sys, minus)
            lmat, mmat = eisenhart.lifted_lax(sys, eisenhart.EISENHART.unpack(sys, vec))
            residual = (l_plus - l_minus) / (2.0 * delta) - (lmat @ mmat - mmat @ lmat)
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < 1e-6


class TestGeneralizedCouplings:
    """Each coupling g_a promoted to a momentum p_omega_a = ptilde_a g_a."""

    @staticmethod
    def energy(sys, st, ptilde):
        op_state = oplift.OPState(
            q=st.q, omega=np.zeros(sys.n - 1), p_q=st.p, p_omega=ptilde * sys.g, centered=False
        )
        return oplift.GENERALIZED.energy(sys, op_state)

    def test_unit_momenta_recover_chain(self, rng):
        sys, st = random_chain(rng, 4)
        val = self.energy(sys, st, np.ones(3))
        assert abs(val - toda.CHAIN.energy(sys, st)) < 1e-14

    def test_constant_momenta_rescale_couplings(self, rng):
        sys, st = random_chain(rng, 3)
        val = self.energy(sys, st, 1.4 * np.ones(2))
        scaled = toda.TodaSystem(3, 1.4 * sys.g)
        assert abs(val - toda.CHAIN.energy(scaled, st)) < 1e-13

    def test_identification_with_symmetric_space_energy(self, rng):
        # p_{omega_a} = ptilde_a g_a maps the symmetric-space energy onto
        # the chain energy with couplings ptilde_a g_a
        sys, _ = random_chain(rng, 4)
        for _ in range(100):
            st = toda.PhaseState(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
            pt = rng.uniform(-1.5, 1.5, 3)
            want = toda.CHAIN.energy(toda.TodaSystem(4, pt * sys.g), st)
            assert abs(self.energy(sys, st, pt) - want) < 1e-12


class TestProjection:
    @pytest.mark.parametrize("p_y", [1.0, 1.6])
    def test_projected_geodesic_matches_rescaled_chain(self, rng, p_y):
        sys, st = random_chain(rng, 4)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=10)
        traj = eisenhart.run_geodesic(sys, lift(st, p_y), cfg, kmax=1)
        scaled = toda.TodaSystem(4, p_y * sys.g)
        ref = integrate_at_times(
            toda.flow_field(scaled), toda.CHAIN.pack(st), traj.times, cfg
        )
        assert np.max(np.abs(traj.states[:, :4] - ref.states[:, :4])) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 6])
def test_flow_field_bits_match_the_unfolded_force(rng, n):
    # the field computes 2 p_y^2 w once; it must equal the formula with the
    # force written out per use, for single states and (d, B) batches,
    # zero coupling included
    for trial in range(4):
        g = rng.uniform(0.5, 2.0, n - 1)
        if trial == 0:
            g[0] = 0.0
        sys = toda.TodaSystem(n, g)
        field = eisenhart.flow_field(sys)
        batch = rng.uniform(-2.0, 2.0, (2 * n + 2, 5))
        for vec in (batch[:, 0], batch):
            q, p, p_y = vec[:n], vec[n + 1 : 2 * n + 1], vec[2 * n + 1]
            gsq = g**2 if vec.ndim == 1 else (g**2)[:, None]
            w = gsq * np.exp(2.0 * (q[:-1] - q[1:]))
            want = np.zeros(vec.shape)
            want[:n] = p
            want[n] = 2.0 * p_y * w.sum(axis=0)
            want[n + 1 : 2 * n] -= 2.0 * p_y**2 * w
            want[n + 2 : 2 * n + 1] += 2.0 * p_y**2 * w
            assert field(0.0, vec).tobytes() == want.tobytes()
