import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalift import linalg
from todalift.errors import DefinitenessError, DomainError
from todalift.linalg import (
    basis_matrix,
    mat_exp,
    product_identity_residuals,
    udu_compose,
    udu_decompose,
    unitriangular_inverse,
)


class TestBasisMatrix:
    def test_upper_elementary(self):
        assert np.array_equal(basis_matrix("upper", 1, 2, dim=2), [[0.0, 1.0], [0.0, 0.0]])

    def test_diagonal_traceless(self):
        assert np.array_equal(basis_matrix("diagonal-traceless", 1, dim=2), np.diag([1.0, -1.0]))
        m = basis_matrix("diagonal-traceless", 2, dim=4)
        assert np.array_equal(m, np.diag([0.0, 1.0, 0.0, -1.0]))

    def test_last_diagonal_is_zero_by_convention(self):
        assert np.array_equal(basis_matrix("diagonal-traceless", 3, dim=3), np.zeros((3, 3)))

    def test_index_order_enforced(self):
        with pytest.raises(DomainError):
            basis_matrix("upper", 2, 1, dim=3)
        with pytest.raises(DomainError):
            basis_matrix("lower", 1, 2, dim=3)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            basis_matrix("upper", 1, 4, dim=3)
        with pytest.raises(DomainError):
            basis_matrix("diagonal-traceless", 0, dim=3)
        with pytest.raises(DomainError):
            basis_matrix("sideways", 1, 2, dim=3)


@pytest.mark.parametrize("dim", range(2, 7))
def test_product_identities_exact(dim):
    residuals = product_identity_residuals(dim)
    assert set(residuals) == {
        "upper_product",
        "upper_diagonal_rule",
        "lower_diagonal_rule",
        "mixed_product",
        "upper_square_zero",
    }
    for name, value in residuals.items():
        assert value == 0.0, name


def test_product_identities_see_a_broken_basis(monkeypatch):
    # a transposed lower kind is the upper M_ba: the lower rules must see it, the upper ones not
    real = linalg.basis_matrix

    def transposed_lower(kind, a, b=None, *, dim):
        return real(kind, a, b, dim=dim).T if kind == "lower" else real(kind, a, b, dim=dim)

    monkeypatch.setattr(linalg, "basis_matrix", transposed_lower)
    assert product_identity_residuals(4) == {
        "upper_product": 0.0,
        "upper_diagonal_rule": 0.0,
        "lower_diagonal_rule": 3.0,
        "mixed_product": 1.0,
        "upper_square_zero": 0.0,
    }


@pytest.mark.parametrize("floats", [1, 100, 2**30])
def test_product_identities_do_not_depend_on_the_chunk(monkeypatch, floats):
    # one left factor per chunk, a few, and all at once see the same broken basis
    real = linalg.basis_matrix

    def shifted_lower(kind, a, b=None, *, dim):
        m = real(kind, a, b, dim=dim)
        return np.roll(m, 1, axis=0) if kind == "lower" else m

    monkeypatch.setattr(linalg, "basis_matrix", shifted_lower)
    monkeypatch.setattr(linalg, "_PRODUCT_CHUNK_FLOATS", floats)
    assert product_identity_residuals(5) == {
        "upper_product": 0.0,
        "upper_diagonal_rule": 0.0,
        "lower_diagonal_rule": 4.0,
        "mixed_product": 1.0,
        "upper_square_zero": 0.0,
    }


class TestMatExp:
    def test_zero(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_chain_generator(self):
        gen = basis_matrix("upper", 1, 2, dim=3) + 2.0 * basis_matrix("upper", 2, 3, dim=3)
        out = mat_exp(gen)
        expected = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_diagonal(self):
        out = mat_exp(np.diag([1.0, -1.0]))
        assert np.max(np.abs(out - np.diag([math.e, 1.0 / math.e]))) < 1e-14

    def test_large_norm_closed_form(self):
        # exp([[0, a], [a, 0]]) = [[cosh a, sinh a], [sinh a, cosh a]]
        for a in (1.0, 10.0, 25.0, 50.0):
            out = mat_exp(np.array([[0.0, a], [a, 0.0]]))
            expected = np.array(
                [[math.cosh(a), math.sinh(a)], [math.sinh(a), math.cosh(a)]]
            )
            rel = np.max(np.abs(out - expected)) / np.max(np.abs(expected))
            assert rel < 1e-13, a

    def test_rotation_closed_form(self):
        for a in (0.5, 5.0, 20.0):
            out = mat_exp(np.array([[0.0, -a], [a, 0.0]]))
            expected = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            assert np.max(np.abs(out - expected)) < 1e-13

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            mat_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_nilpotent_closed_form(self, n, seed):
        # chain generators: exp has entries prod(omega) / (b-a)!
        omega = np.random.default_rng(seed).uniform(-2.0, 2.0, n - 1)
        gen = np.zeros((n, n))
        for a in range(n - 1):
            gen[a, a + 1] = omega[a]
        out = mat_exp(gen)
        expected = np.eye(n)
        for a in range(n):
            prod = 1.0
            for b in range(a + 1, n):
                prod *= omega[b - 1]
                expected[a, b] = prod / math.factorial(b - a)
        assert np.max(np.abs(out - expected)) < 1e-13


class TestUDU:
    def test_identity(self):
        fac = udu_decompose(np.eye(4))
        assert np.array_equal(fac.z, np.eye(4))
        assert np.array_equal(fac.hsq, np.ones(4))

    def test_two_by_two_explicit(self):
        # compose x = Z h^2 Z^T by hand for q = (0.3, -0.3), z = 0.7
        q1, q2, z = 0.3, -0.3, 0.7
        x = np.array(
            [
                [math.exp(2 * q1) + z**2 * math.exp(2 * q2), z * math.exp(2 * q2)],
                [z * math.exp(2 * q2), math.exp(2 * q2)],
            ]
        )
        fac = udu_decompose(x)
        assert abs(fac.z[0, 1] - z) < 1e-14
        assert abs(0.5 * math.log(fac.hsq[0]) - q1) < 1e-14
        assert abs(0.5 * math.log(fac.hsq[1]) - q2) < 1e-14

    def test_indefinite_rejected(self):
        with pytest.raises(DefinitenessError):
            udu_decompose(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            udu_decompose(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_on_factor_space(self, n, seed):
        rng = np.random.default_rng(seed)
        z = np.eye(n) + np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        hsq = rng.uniform(0.1, 5.0, n)
        x = udu_compose(z, hsq)
        fac = udu_decompose(x)
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(udu_compose(fac.z, fac.hsq) - x)) < 1e-12 * scale
        assert np.max(np.abs(fac.z - z)) < 1e-9
        assert np.max(np.abs(fac.hsq - hsq)) < 1e-9 * max(1.0, hsq.max())


class TestUnitriangularInverse:
    def test_identity(self):
        assert np.array_equal(unitriangular_inverse(np.eye(5)), np.eye(5))

    def test_multiply_back(self, rng):
        z = np.eye(6) + np.triu(rng.uniform(-1.0, 1.0, (6, 6)), 1)
        zinv = unitriangular_inverse(z)
        assert np.max(np.abs(z @ zinv - np.eye(6))) < 1e-14
        # structure is exact
        assert np.array_equal(np.tril(zinv, -1), np.zeros((6, 6)))
        assert np.array_equal(np.diag(zinv), np.ones(6))

    def test_non_unitriangular_rejected(self):
        with pytest.raises(DomainError):
            unitriangular_inverse(np.array([[1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(DomainError):
            unitriangular_inverse(np.diag([2.0, 1.0]))
