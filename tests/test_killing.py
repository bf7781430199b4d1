import json
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain
from polarization_oracle import loop_polarization
from todalift import eisenhart, killing, oplift, toda
from todalift.errors import ConditioningError, DomainError, NotHomogeneousError


def monomial_polynomial(rng, rank, dim):
    """Random homogeneous polynomial with known tensor components.

    Builds f(p) = sum_alpha c_alpha p^alpha directly from monomials; the
    matching symmetric tensor has K^idx = c_idx * prod(m_j!) over the repeat
    counts m_j of the sorted index.
    """
    coeffs = {}
    for idx in combinations_with_replacement(range(1, dim + 1), rank):
        coeffs[idx] = float(rng.uniform(-2.0, 2.0))

    def poly(pos, mom):
        total = 0.0
        for idx, c in coeffs.items():
            term = c
            for mu in idx:
                term *= mom[mu - 1]
            total += term
        return total

    expected = {}
    for idx, c in coeffs.items():
        counts = {}
        for mu in idx:
            counts[mu] = counts.get(mu, 0) + 1
        mult = 1.0
        for m in counts.values():
            mult *= math.factorial(m)
        expected[idx] = c * mult
    return poly, expected


class TestExtraction:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_polarization_recovers_known_coefficients(self, rank, dim, seed):
        rng = np.random.default_rng(seed)
        poly, expected = monomial_polynomial(rng, rank, dim)
        table = killing.extract_tensor(poly, rank, dim, np.zeros(dim))
        for idx, val in expected.items():
            assert abs(table[idx] - val) < 1e-11 * max(1.0, abs(val))

    def test_rank_one_from_total_momentum(self, rng):
        sys, st_ = random_chain(rng, 3)

        def inv(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return float(eisenhart.lifted_invariants(sys, s, 1)[0])

        table = killing.extract_tensor(inv, 1, 4, np.concatenate([st_.q, [0.0]]))
        assert np.allclose([table[(i,)] for i in range(1, 5)], [1, 1, 1, 0], atol=1e-12)

    def test_rank_two_is_inverse_metric_eisenhart(self, rng):
        sys, st_ = random_chain(rng, 3)

        def inv(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return float(eisenhart.lifted_invariants(sys, s, 2)[1])

        for _ in range(3):
            q = rng.uniform(-1, 1, 3)
            pos = np.concatenate([q, rng.uniform(-1, 1, 1)])
            table = killing.extract_tensor(inv, 2, 4, pos)
            minv = eisenhart.EISENHART.inverse_metric(sys, q)
            for i in range(1, 5):
                for j in range(i, 5):
                    assert abs(table[(i, j)] - minv[i - 1, j - 1]) < 1e-10

    def test_rank_two_is_inverse_metric_generalized(self, rng):
        sys, st_ = random_chain(rng, 3)

        def inv(pos, mom):
            s = oplift.OPState(q=pos[:3], omega=pos[3:], p_q=mom[:3], p_omega=mom[3:], centered=False)
            return float(oplift.generalized_invariants(s, 2)[1])

        pos = np.concatenate([st_.q, rng.uniform(-1, 1, 2)])
        table = killing.extract_tensor(inv, 2, 5, pos)
        minv = oplift.GENERALIZED.inverse_metric(sys, st_.q)
        for i in range(1, 6):
            for j in range(i, 6):
                assert abs(table[(i, j)] - minv[i - 1, j - 1]) < 1e-10

    def test_contraction_identity(self, rng):
        sys, _ = random_chain(rng, 3)

        def inv(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return float(eisenhart.lifted_invariants(sys, s, 3)[2])

        for _ in range(100):
            pos = rng.uniform(-1, 1, 4)
            mom = rng.uniform(-1, 1, 4)
            want = inv(pos, mom)
            got = killing.contract_table(killing.extract_tensor(inv, 3, 4, pos), 3, mom)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_non_homogeneous_rejected(self):
        with pytest.raises(NotHomogeneousError):
            killing.extract_tensor(lambda pos, mom: float(np.sum(mom) + 1.0), 1, 3, np.zeros(3))

    def test_non_polynomial_fails_the_contraction_gate(self):
        # homogeneous of degree 2, so the scaling probe passes, but no rank-2 tensor contracts to it
        with pytest.raises(ConditioningError, match="contraction gate"):
            killing.extract_tensor(lambda pos, mom: float(np.sqrt(mom[0] ** 4 + mom[1] ** 4)), 2, 2, np.zeros(2))

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            killing.extract_tensor(lambda pos, mom: 0.0, 0, 3, np.zeros(3))

    # the gates read not (x <= gate): max(1, |NaN|) is 1, and NaN > gate is false
    def test_nan_fails_the_homogeneity_gate(self):
        probe = (1.0 + np.arange(3)) / 3

        def inv(pos, mom):
            return float("nan") if np.array_equal(mom, 2.0 * probe) else float(np.sum(mom) ** 2)

        with pytest.raises(NotHomogeneousError):
            killing.extract_tensor(inv, 2, 3, np.zeros(3))

    def test_nan_fails_the_contraction_gate(self):
        # the polarization vectors and the scaling probes are non-negative; the gate's momenta are not
        def inv(pos, mom):
            return float("nan") if np.any(mom < 0.0) else float(np.sum(mom) ** 2)

        with pytest.raises(ConditioningError, match="contraction gate"):
            killing.extract_tensor(inv, 2, 3, np.zeros(3))


class TestPoissonBracket:
    def test_self_bracket_vanishes(self, rng):
        sys, _ = random_chain(rng, 3)

        def ham(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return eisenhart.EISENHART.energy(sys, s)

        val = killing.poisson_bracket_fd(ham, ham, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        assert abs(val) < 1e-12

    def test_coordinate_momentum_pair(self, rng):
        def coord(pos, mom):
            return pos[1]

        def free(pos, mom):
            return 0.5 * float(np.dot(mom, mom))

        pos, mom = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert abs(killing.poisson_bracket_fd(coord, free, pos, mom) - mom[1]) < 1e-8

    def test_invariant_commutes_with_energy(self, rng):
        sys, _ = random_chain(rng, 3)

        def inv(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return float(eisenhart.lifted_invariants(sys, s, 2)[1])

        def ham(pos, mom):
            s = eisenhart.EisenhartState(q=pos[:3], y=pos[3], p=mom[:3], p_y=mom[3])
            return eisenhart.EISENHART.energy(sys, s)

        for _ in range(100):
            pos, mom = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            scale = max(1.0, abs(inv(pos, mom)) * abs(ham(pos, mom)))
            assert abs(killing.poisson_bracket_fd(inv, ham, pos, mom)) / scale < 1e-5

    def test_non_finite_samples_rejected(self):
        def bad(pos, mom):
            return float("nan")

        with pytest.raises(DomainError):
            killing.poisson_bracket_fd(bad, bad, np.zeros(2), np.zeros(2))


def _lift_pieces(lift, sys):
    """Packed-state chart and gradient pull-back of a lift, as verify_killing uses them."""
    picture = killing.LIFTS[lift]
    return (
        picture.chart(sys.n, sys.g),
        lambda d_q, d_p, d_c: picture.gradient(sys.g, d_q, d_p, d_c),
        lambda rng, count: picture.random_states(rng, sys.n, count),
    )


def _phase_functions(lift, n, k, g, g_other):
    """I_k with couplings g, and a Hamiltonian with couplings g_other plus its flow field.

    For the generalised lift the couplings are the momenta p_omega, so the
    second Hamiltonian rescales them by g_other: H'(p_omega) = H(g_other
    p_omega), whose flow is the lift's own field at the rescaled point with
    the omega velocities scaled by g_other.
    """
    sys, other = toda.TodaSystem(n, g), toda.TodaSystem(n, g_other)
    if lift == "eisenhart":

        def state(pos, mom):
            return eisenhart.EisenhartState(q=pos[:n], y=pos[n], p=mom[:n], p_y=mom[n])

        def inv(pos, mom):
            return float(eisenhart.lifted_invariants(sys, state(pos, mom), k)[k - 1])

        def ham(pos, mom):
            return eisenhart.EISENHART.energy(other, state(pos, mom))

        field = eisenhart.flow_field(other)
    else:

        def state(pos, mom, scale=1.0):
            return oplift.OPState(
                q=pos[:n], omega=pos[n:], p_q=mom[:n], p_omega=scale * mom[n:], centered=False
            )

        def inv(pos, mom):
            return float(oplift.generalized_invariants(state(pos, mom), k)[k - 1])

        def ham(pos, mom):
            return oplift.GENERALIZED.energy(sys, state(pos, mom, other.g))

        base = oplift.flow_field_generalized(sys)

        def field(t, vec):
            scaled = vec.copy()
            scaled[3 * n - 1 :] *= other.g[:, None]
            out = base(t, scaled)
            out[n : 2 * n - 1] *= other.g[:, None]
            return out

    return sys, inv, ham, field


class TestExactBracket:
    @pytest.mark.parametrize("lift", ["eisenhart", "generalized"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_value_matches_lifted_invariants(self, rng, lift, n):
        sys = toda.TodaSystem(n, rng.uniform(0.5, 1.5, n - 1))
        chart, _, random_packed = _lift_pieces(lift, sys)
        points = random_packed(rng, 4)
        for k in range(1, n + 1):
            value = toda.lax_trace_gradient(*chart(points), k)[0]
            for b in range(points.shape[1]):
                if lift == "eisenhart":
                    st_ = eisenhart.EISENHART.unpack(sys, points[:, b])
                    want = eisenhart.lifted_invariants(sys, st_, k)[k - 1]
                else:
                    st_ = oplift.GENERALIZED.unpack(sys, points[:, b], centered=False)
                    want = oplift.generalized_invariants(st_, k)[k - 1]
                assert abs(value[b] - want) < 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("lift", ["eisenhart", "generalized"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gradient_matches_coordinate_brackets(self, rng, lift, n):
        # {I, p_mu} = dI/dx_mu and {I, x_mu} = -dI/dp_mu reach every packed
        # component, including the coupling momenta that no lift flow moves
        g = rng.uniform(0.5, 1.5, n - 1)
        dim = n + 1 if lift == "eisenhart" else 2 * n - 1
        for k in range(1, n + 1):
            sys, inv, _, _ = _phase_functions(lift, n, k, g, g)
            chart, gradient, random_packed = _lift_pieces(lift, sys)
            point = random_packed(rng, 1)[:, 0]
            _, d_q, d_p, d_c = toda.lax_trace_gradient(*chart(point[:, None]), k)
            grad = gradient(d_q, d_p, d_c)[:, 0]
            pos, mom = point[:dim], point[dim:]
            for mu in range(dim):
                d_x = killing.poisson_bracket_fd(inv, lambda x, p: p[mu], pos, mom, richardson=True)
                d_mom = -killing.poisson_bracket_fd(inv, lambda x, p: x[mu], pos, mom, richardson=True)
                assert abs(d_x - grad[mu]) <= 1e-6 * max(1.0, abs(grad[mu])), (k, mu)
                assert abs(d_mom - grad[dim + mu]) <= 1e-6 * max(1.0, abs(grad[dim + mu])), (k, mu)

    @pytest.mark.parametrize("lift", ["eisenhart", "generalized"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_richardson_finite_differences(self, rng, lift, n):
        g = rng.uniform(0.5, 1.5, n - 1)
        g_other = rng.uniform(0.5, 1.5, n - 1)
        dim = n + 1 if lift == "eisenhart" else 2 * n - 1
        for k in range(1, n + 1):
            sys, inv, ham, field = _phase_functions(lift, n, k, g, g_other)
            chart, gradient, random_packed = _lift_pieces(lift, sys)
            points = random_packed(rng, 3)
            _, d_q, d_p, d_c = toda.lax_trace_gradient(*chart(points), k)
            exact = np.sum(gradient(d_q, d_p, d_c) * field(0.0, points), axis=0)
            for b in range(points.shape[1]):
                pos, mom = points[:dim, b], points[dim:, b]
                fd = killing.poisson_bracket_fd(inv, ham, pos, mom, richardson=True)
                assert abs(fd - exact[b]) <= 1e-6 * max(1.0, abs(exact[b])), (k, fd, exact[b])
            if k >= 2:
                # the pair does not commute, so the comparison is not 0 == 0
                assert np.max(np.abs(exact)) > 1e-3


class TestVerifyKilling:
    @pytest.mark.parametrize("lift", ["eisenhart", "generalized"])
    def test_small_chain_passes(self, lift):
        sys = toda.TodaSystem(3, [0.8, 1.1])
        for k in range(1, 4):
            report = killing.verify_killing(sys, lift, k, samples=30, seed=5, geodesics=3, t_final=10.0)
            assert report.passed, (lift, k, report)

    def test_deterministic_for_a_seed(self):
        sys = toda.TodaSystem(3, [0.8, 1.1])
        for lift in ("eisenhart", "generalized"):
            a = killing.verify_killing(sys, lift, 3, samples=20, seed=7, geodesics=3, t_final=5.0)
            b = killing.verify_killing(sys, lift, 3, samples=20, seed=7, geodesics=3, t_final=5.0)
            assert a == b

    def test_needs_samples_and_geodesics(self):
        sys = toda.TodaSystem(2, [1.0])
        with pytest.raises(DomainError):
            killing.verify_killing(sys, "eisenhart", 1, samples=0)
        with pytest.raises(DomainError):
            killing.verify_killing(sys, "generalized", 1, geodesics=0)

    def test_rank_out_of_range(self):
        sys = toda.TodaSystem(3, [1.0, 1.0])
        with pytest.raises(DomainError):
            killing.verify_killing(sys, "eisenhart", 4)

    def test_unknown_lift(self):
        # the chain has a picture record but no lift to verify; a list is not a name
        sys = toda.TodaSystem(2, [1.0])
        for lift in ("both", "chain", ["eisenhart"]):
            with pytest.raises(DomainError):
                killing.verify_killing(sys, lift, 1)

    def test_a_nan_drift_fails(self, monkeypatch):
        # the second geodesic's drift turns NaN, after a finite first geodesic: max would keep the finite one
        real = killing.relative_drift

        def poisoned(values):  # (geodesics, samples)
            drift = real(values)
            drift[1, 1:] = np.nan
            return drift

        monkeypatch.setattr(killing, "relative_drift", poisoned)
        sys = toda.TodaSystem(3, [0.8, 1.1])
        report = killing.verify_killing(sys, "eisenhart", 2, samples=5, seed=5, geodesics=3, t_final=2.0)
        assert math.isnan(report.drift_max) and not report.passed

    def test_report_serialises(self):
        sys = toda.TodaSystem(2, [1.0])
        report = killing.verify_killing(sys, "eisenhart", 1, samples=5, geodesics=1, t_final=2.0)
        doc = json.loads(json.dumps(report.to_dict()))
        assert set(doc) == {"lift", "k", "bracket_max", "drift_max", "pass"}


class TestIsometryFlow:
    def state(self, rng, n=4):
        q = rng.uniform(-1, 1, n)
        q -= q.mean()
        return oplift.OPState(
            q=q,
            omega=rng.uniform(-1, 1, n - 1),
            p_q=rng.uniform(-1, 1, n),
            p_omega=rng.uniform(0.3, 1.5, n - 1),
        )

    def test_zero_parameter_is_identity(self, rng):
        s = self.state(rng)
        for kind, idx in (("omega-translation", 2), ("lambda", 3)):
            out = killing.isometry_flow(kind, idx, s, 0.0)
            assert np.array_equal(out.q, s.q)
            assert np.array_equal(out.omega, s.omega)
            assert np.array_equal(out.p_omega, s.p_omega)

    def test_omega_translation_preserves_energy_exactly(self, rng):
        sys = toda.TodaSystem(4, [1.0, 1.0, 1.0])
        s = self.state(rng)
        before = oplift.GENERALIZED.energy(sys, s)
        out = killing.isometry_flow("omega-translation", 1, s, 2.7)
        assert oplift.GENERALIZED.energy(sys, out) == before
        assert out.omega[0] == s.omega[0] + 2.7

    @pytest.mark.parametrize("index", [1, 2, 4])
    def test_lambda_flow_preserves_energy(self, rng, index):
        sys = toda.TodaSystem(4, [1.0, 1.0, 1.0])
        s = self.state(rng)
        before = oplift.GENERALIZED.energy(sys, s)
        out = killing.isometry_flow("lambda", index, s, 1.5)
        after = oplift.GENERALIZED.energy(sys, out)
        assert abs(after - before) < 1e-13 * max(1.0, abs(before))
        assert out.centered is False

    def test_invalid_generator(self, rng):
        s = self.state(rng)
        with pytest.raises(DomainError):
            killing.isometry_flow("boost", 1, s, 0.5)
        with pytest.raises(DomainError):
            killing.isometry_flow("omega-translation", 4, s, 0.5)
        with pytest.raises(DomainError):
            killing.isometry_flow("lambda", 5, s, 0.5)


def _unmemoised_polarization(invariant, rank, dim, pos):
    """The polarization sum with one invariant evaluation per term."""
    table = {}
    for idx in combinations_with_replacement(range(1, dim + 1), rank):
        acc = 0.0
        for mask in range(1, 2**rank):
            vec = np.zeros(dim)
            bits = 0
            for slot in range(rank):
                if mask >> slot & 1:
                    vec[idx[slot] - 1] += 1.0
                    bits += 1
            acc += (-1.0) ** (rank - bits) * invariant(pos, vec)
        table[idx] = acc
    return table


class TestPolarizationMemo:
    @pytest.mark.parametrize("lift", ["eisenhart", "generalized"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tables_bit_identical_to_unmemoised(self, rng, lift, n):
        g = rng.uniform(0.5, 1.5, n - 1)
        dim = n + 1 if lift == "eisenhart" else 2 * n - 1
        for k in range(2, n + 1):
            _, inv, _, _ = _phase_functions(lift, n, k, g, g)
            pos = rng.uniform(-1.0, 1.0, dim)
            table = killing.extract_tensor(inv, k, dim, pos)
            reference = _unmemoised_polarization(inv, k, dim, pos)
            assert list(table) == list(reference)
            assert all(table[idx] == reference[idx] for idx in reference), (lift, n, k)

    @pytest.mark.parametrize("rank, dim", [(1, 3), (2, 4), (3, 5), (4, 7)])
    def test_each_polarization_vector_evaluated_once(self, rank, dim):
        # C(dim + k, k) - 1 distinct non-empty sub-multisets, plus the two
        # homogeneity probes and the three contraction checks
        calls = []

        def inv(pos, mom):
            calls.append(mom.copy())
            return float(np.sum(mom) ** rank)

        killing.extract_tensor(inv, rank, dim, np.zeros(dim))
        assert len(calls) == math.comb(dim + rank, rank) - 1 + 5


def power_sum_invariant(rank, dim, terms=3):
    """I(pos, p) = sum_j w_j(pos) (u_j(pos) . p)^rank: a homogeneous rank-degree polynomial in p."""
    j = np.arange(1, terms + 1)[:, None]
    mu = np.arange(1, dim + 1)

    def inv(pos, mom):
        u = np.cos(j * mu + j * pos)
        return float(np.sin(j[:, 0] + np.sum(pos)) @ (u @ mom) ** rank)

    return inv


def same_bits(table, reference):
    """Same keys in the same order, and every component equal as floats (-0.0 and 0.0 apart)."""
    return list(table) == list(reference) and all(
        np.float64(table[idx]).tobytes() == np.float64(reference[idx]).tobytes() for idx in reference
    )


class TestArrayPolarization:
    """extract_tensor's array polarization against the loop in polarization_oracle, bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=7),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=7, max_size=7),
    )
    def test_tables_equal_the_loop(self, rank, dim, position):
        inv = power_sum_invariant(rank, dim)
        pos = np.array(position[:dim])
        calls = []
        table = killing.extract_tensor(lambda p, m: calls.append(None) or inv(p, m), rank, dim, pos)
        assert same_bits(table, loop_polarization(inv, rank, dim, pos))
        # each sub-multiset of 1..rank entries once, two scaling probes and three gate momenta
        assert len(calls) == sum(math.comb(dim + s - 1, s) for s in range(1, rank + 1)) + 5

    def test_signed_zero_terms_sum_as_the_loop(self):
        # every term is +-0.0: the loop's sum from 0.0 is 0.0, never -0.0
        for rank in (1, 2, 3):
            table = killing._polarize(lambda pos, mom: -0.0, rank, 2, np.zeros(2))
            assert same_bits(table, loop_polarization(lambda pos, mom: -0.0, rank, 2, np.zeros(2)))

    @pytest.mark.parametrize("rank, dim", [(1, 64), (2, 40)])
    def test_keys_past_a_base_rank_plus_one_code(self, rank, dim):
        # (rank + 1)^dim > 2^63: a count vector read as a base-(rank + 1) number would overflow int64
        assert (rank + 1) ** dim > 2**63
        inv, pos = power_sum_invariant(rank, dim), np.linspace(-1.0, 1.0, dim)
        assert same_bits(killing.extract_tensor(inv, rank, dim, pos), loop_polarization(inv, rank, dim, pos))

    def test_chunk_size_does_not_change_the_table(self, monkeypatch):
        inv, pos = power_sum_invariant(4, 5), np.linspace(-1.0, 1.0, 5)
        whole = killing.extract_tensor(inv, 4, 5, pos)
        for chunk in (1, 37):
            monkeypatch.setattr(killing, "_POLARIZATION_CHUNK", chunk)
            assert same_bits(killing.extract_tensor(inv, 4, 5, pos), whole)

    def test_unindexable_polarization_is_refused(self):
        # C(1008, 8) > 2^62 sub-multisets: refused before anything is allocated or evaluated
        calls = []
        inv = lambda pos, mom: calls.append(None) or float(np.sum(mom)) ** 8  # noqa: E731
        with pytest.raises(DomainError, match="sub-multisets"):
            killing.extract_tensor(inv, 8, 1000, np.zeros(1000))
        assert len(calls) == 2  # the scaling probes

    def test_evaluation_cap_is_checked_before_the_first_evaluation(self, monkeypatch):
        # rank 8 in dim 59, killing extract -k 8 on an n = 30 generalised lift: C(67, 8) - 1 = 6.5e9
        calls = []
        inv = lambda pos, mom: calls.append(None) or float(np.sum(mom)) ** 8  # noqa: E731
        assert math.comb(59 + 8, 8) - 1 > killing._MAX_POLARIZATION_EVALS
        with pytest.raises(DomainError, match="sub-multisets"):
            killing.extract_tensor(inv, 8, 59, np.zeros(59))
        assert len(calls) == 2
        # the cap is on C(dim + rank, rank) - 1 evaluations: at it, the table is extracted
        rank, dim = 3, 4
        inv = power_sum_invariant(rank, dim)
        monkeypatch.setattr(killing, "_MAX_POLARIZATION_EVALS", math.comb(dim + rank, rank) - 1)
        assert same_bits(killing.extract_tensor(inv, rank, dim, np.zeros(dim)), loop_polarization(inv, rank, dim, np.zeros(dim)))
        monkeypatch.setattr(killing, "_MAX_POLARIZATION_EVALS", math.comb(dim + rank, rank) - 2)
        with pytest.raises(DomainError, match="sub-multisets"):
            killing.extract_tensor(inv, rank, dim, np.zeros(dim))
