"""Every picture's flow field against an oracle built from the shared Lax core,
and the memory discipline the integrator relies on.

The oracle is the symplectic gradient of H = I_2 = Tr(L^2)/2, taken from the
exact Lax-trace gradient (toda.lax_trace_gradient) through each record's
chain rule (Picture.gradient): position rates are dH/dmomenta, momentum
rates -dH/dpositions.  It shares no code with the flow fields.
"""

import numpy as np
import pytest

import evolution_oracle
from conftest import random_chain
from todalift import eisenhart, oplift, toda
from todalift.integrate import IntegratorConfig

PICTURES = [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED]


def picture_id(picture):
    return picture.name


def system(rng, n, zero_coupling=False):
    g = rng.uniform(0.5, 1.5, n - 1)
    if zero_coupling:
        g[(n - 1) // 2] = 0.0
    return toda.TodaSystem(n, g)


def batch(rng, picture, n, size=5):
    """Component-first packed states (dim, size)."""
    return picture.random_states(rng, n, size)


def symplectic_gradient(picture, sys, x):
    """Rates (dim, B) of H = I_2 at the packed states x."""
    _, d_q, d_p, d_c = toda.lax_trace_gradient(*picture.chart(sys.n, sys.g)(x), 2)
    grad = picture.gradient(sys.g, d_q, d_p, d_c)
    half = len(grad) // 2
    return np.concatenate([grad[half:], -grad[:half]])


@pytest.mark.parametrize("picture", PICTURES, ids=picture_id)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("zero_coupling", [False, True], ids=["generic", "zero-coupling"])
def test_field_is_the_symplectic_gradient_of_I2(rng, picture, n, zero_coupling):
    sys = system(rng, n, zero_coupling)
    field = picture.flow_field(sys)
    x = batch(rng, picture, n)
    want = symplectic_gradient(picture, sys, x)
    tol = 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(field(0.0, x) - want)) <= tol
    for b in range(x.shape[1]):
        assert np.max(np.abs(field(0.0, x[:, b].copy()) - want[:, b])) <= tol


# The Eisenhart field's p_y-fibre rate sums over the pairs, and numpy sums a
# vector and the columns of a batch in different orders, so its batch agrees
# with its columns to roundoff (checked by the oracle above), not bit for bit.
@pytest.mark.parametrize("picture", [toda.CHAIN, oplift.GENERALIZED], ids=picture_id)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_batch_columns_equal_single_states_bit_for_bit(rng, picture, n):
    sys = system(rng, n, zero_coupling=True)
    field = picture.flow_field(sys)
    x = batch(rng, picture, n)
    out = field(0.0, x)
    assert out.shape == x.shape
    for b in range(x.shape[1]):
        assert out[:, b].tobytes() == field(0.0, x[:, b].copy()).tobytes()


@pytest.mark.parametrize("picture", PICTURES, ids=picture_id)
@pytest.mark.parametrize("size", [None, 3], ids=["one-state", "batch"])
def test_zero_coupling_far_apart_is_free_motion(rng, picture, size):
    # 2 (q_1 - q_2) = 800: exp overflows there, and a zero coupling times it is 0, not NaN
    x = picture.random_states(rng, 2, 1 if size is None else size)
    q, _, p, p_fibre = picture.split(x, 2)
    q[:] = [[200.0], [-200.0]]
    if picture is oplift.GENERALIZED:
        p_fibre[:] = 0.0  # its coupling is p_omega
    want = np.zeros(x.shape)
    want[:2] = p  # the q rates are p, every other rate is 0
    if size is None:
        x, want = x[:, 0].copy(), want[:, 0]
    assert np.array_equal(picture.flow_field(toda.TodaSystem(2, [0.0]))(0.0, x), want)


@pytest.mark.parametrize("picture", PICTURES, ids=picture_id)
@pytest.mark.parametrize("size", [None, 4], ids=["one-state", "batch"])
def test_field_returns_a_fresh_array_and_leaves_its_input(rng, picture, size):
    sys = system(rng, 4)
    field = picture.flow_field(sys)
    x = picture.random_states(rng, 4, 1)[:, 0] if size is None else batch(rng, picture, 4, size)
    before = x.copy()
    out = field(0.0, x)
    kept = out.copy()
    assert out.shape == x.shape
    assert not np.shares_memory(out, x)
    assert x.tobytes() == before.tobytes()
    # a second call neither reuses nor overwrites the first call's array
    again = field(0.0, 2.0 * x)
    assert not np.shares_memory(again, out)
    assert out.tobytes() == kept.tobytes()


def test_evolve_A_rhs_returns_fresh_arrays_and_leaves_its_input(rng, monkeypatch):
    # the co-integration of dA/dt = -M A, kept as toda.evolve_A's test oracle
    sys, st = random_chain(rng, 4)
    traj = toda.run(sys, st, IntegratorConfig(t_final=2.0, stride=5))
    real = evolution_oracle.integrate_at_times
    returned = []

    def checked(rhs, y0, sample_times, cfg, monitors=None, labels=None):
        def guarded(t, z):
            before = z.copy()
            out = rhs(t, z)
            assert not np.shares_memory(out, z)
            assert z.tobytes() == before.tobytes()
            returned.append((out, out.copy()))
            return out

        return real(guarded, y0, sample_times, cfg, monitors, labels)

    monkeypatch.setattr(evolution_oracle, "integrate_at_times", checked)
    mats = evolution_oracle.co_integrated_A(sys, traj)
    assert len(mats) == len(traj) and len(returned) > 100
    # no later evaluation wrote into an earlier one's array
    assert all(out.tobytes() == kept.tobytes() for out, kept in returned)
    monkeypatch.undo()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(mats, evolution_oracle.co_integrated_A(sys, traj)))


# The flow fields as they were written before their buffers were trimmed: a
# zero buffer from a helper, fresh `out` filled explicitly.  Every product
# keeps its operands and order in the trimmed fields, so they must agree
# with these to the bit, at zero couplings, at gaps past the exponent cap and
# at subnormal fibre momenta too.
def _gap_buffer(x, n):
    buf = np.zeros((n + 1,) + x.shape[1:])
    return buf, toda.gaps(x[:n], out=buf[1:n])


def _chain_field(sys):
    n, two_gsq = sys.n, 2.0 * sys.g**2

    def rhs(t, y):
        buf, force = _gap_buffer(y, n)
        force *= two_gsq if y.ndim == 1 else two_gsq[:, None]
        out = np.empty(y.shape)
        out[:n] = y[n:]
        np.subtract(buf[:-1], buf[1:], out=out[n:])
        return out

    return rhs


def _eisenhart_field(sys):
    n, gsq = sys.n, sys.g**2

    def rhs(t, vec):
        buf, w = _gap_buffer(vec, n)
        w *= gsq if vec.ndim == 1 else gsq[:, None]
        p_y = vec[2 * n + 1]
        out = np.empty(vec.shape)
        out[:n] = vec[n + 1 : 2 * n + 1]
        out[n] = 2.0 * p_y * np.add.reduce(w, axis=0)
        w *= 2.0 * p_y**2
        np.subtract(buf[:-1], buf[1:], out=out[n + 1 : 2 * n + 1])
        out[2 * n + 1] = 0.0
        return out

    return rhs


def _generalized_field(sys):
    n = sys.n

    def rhs(t, vec):
        buf, gap = _gap_buffer(vec, n)
        p_w = vec[3 * n - 1 :]
        out = np.empty(vec.shape)
        out[:n] = vec[2 * n - 1 : 3 * n - 1]
        rate = out[n : 2 * n - 1]
        np.add(p_w, p_w, out=rate)
        rate *= gap
        gap *= p_w * p_w
        gap += gap
        np.subtract(buf[:-1], buf[1:], out=out[2 * n - 1 : 3 * n - 1])
        out[3 * n - 1 :] = 0.0
        return out

    return rhs


REFERENCE_FIELDS = {"chain": _chain_field, "eisenhart": _eisenhart_field, "generalized": _generalized_field}


@pytest.mark.parametrize("picture", PICTURES, ids=picture_id)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_field_bits_equal_the_reference_expressions(rng, picture, n):
    # columns: generic states; a zero coupling's pair 800 apart, past the
    # cap; a small coupling's pair past the cap; subnormal fibre momenta;
    # fibre momenta whose square is subnormal, at a gap past the cap
    sys = toda.TodaSystem(n, np.concatenate([[0.0], rng.uniform(1e-3, 1e-2, n - 2)]))
    x = picture.random_states(rng, n, 8)
    q, _, _, p_fibre = picture.split(x, n)
    q[:2, 4] = [400.0, -400.0]
    q[-2:, 5] = [400.0, -400.0]
    p_fibre[:, 6] = 3e-310
    q[-2:, 7] = [400.0, -400.0]
    p_fibre[:, 7] = 1e-160
    if picture is oplift.GENERALIZED:
        p_fibre[0, 4] = 0.0  # the zero coupling
        p_fibre[-1, 5] = 1e-3
    field, reference = picture.flow_field(sys), REFERENCE_FIELDS[picture.name](sys)
    want = reference(0.0, x)
    assert np.isfinite(want).all()
    assert field(0.0, x).tobytes() == want.tobytes()
    for b in range(x.shape[1]):
        column = x[:, b].copy()
        assert field(0.0, column).tobytes() == reference(0.0, column).tobytes()
