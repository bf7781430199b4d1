"""The monitor protocol: one call per trajectory on the (samples, d) array.

Every built-in monitor is checked against its per-state reference on random
sample arrays.  The trace invariants are stacked traces of the same matrix
powers, so they must agree to the bit; everything else to 1e-14 relative.
"""

import numpy as np
import pytest

from conftest import random_chain
from todalift import eisenhart, oplift, toda
from todalift.errors import DomainError
from todalift.integrate import IntegratorConfig, integrate, integrate_at_times

SAMPLES = 23


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def check_monitors(mons, states, reference):
    """reference(name, row) is the per-state value of monitor `name`."""
    for name, fn in mons.items():
        got = fn(states)
        want = np.array([reference(name, row) for row in states])
        if name.startswith("I_"):
            assert np.array_equal(got, want), name
        else:
            assert_close(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_monitors(rng, n):
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    states = rng.uniform(-1.0, 1.0, (SAMPLES, 2 * n))

    def reference(name, row):
        state = toda.CHAIN.unpack(sys, row)
        if name == "H":
            return toda.CHAIN.energy(sys, state)
        return toda.invariants(sys, state, n)[int(name[2:]) - 1]

    mons = toda.CHAIN.monitors(sys)
    assert list(mons) == [f"I_{k}" for k in range(1, n + 1)] + ["H"]
    check_monitors(mons, states, reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eisenhart_monitors(rng, n):
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    states = rng.uniform(-1.0, 1.0, (SAMPLES, 2 * n + 2))

    def reference(name, row):
        state = eisenhart.EISENHART.unpack(sys, row)
        if name == "p_y":
            return state.p_y
        if name == "H":
            return eisenhart.EISENHART.energy(sys, state)
        return eisenhart.lifted_invariants(sys, state, n)[int(name[2:]) - 1]

    mons = eisenhart.EISENHART.monitors(sys)
    assert list(mons) == ["p_y"] + [f"I_{k}" for k in range(1, n + 1)] + ["H"]
    assert np.array_equal(mons["p_y"](states), states[:, 2 * n + 1])
    check_monitors(mons, states, reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generalized_and_form_monitors(rng, n):
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    states = rng.uniform(-1.0, 1.0, (SAMPLES, 4 * n - 2))
    forms = oplift.monitors_general(sys) + (oplift.monitors_n2(sys) if n == 2 else [])
    by_name = {fm.name: fm for fm in forms}

    def reference(name, row):
        state = oplift.GENERALIZED.unpack(sys, row, centered=False)
        if name in by_name:
            return by_name[name].evaluate(state)
        if name == "H":
            return oplift.GENERALIZED.energy(sys, state)
        return oplift.generalized_invariants(state, n)[int(name[2:]) - 1]

    mons = oplift.GENERALIZED.monitors(sys, forms=forms)
    names = [f"I_{k}" for k in range(1, n + 1)] + ["H"] + [fm.name for fm in forms]
    assert list(mons) == names
    check_monitors(mons, states, reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_velocity_matrix(rng, n):
    # batch against per-state, and against the independent product xdot x^-1
    sys, st = random_chain(rng, n)
    rows = []
    for _ in range(5):
        s = oplift.OPState(
            q=st.q + 0.1 * rng.standard_normal(n),
            omega=rng.uniform(-1.0, 1.0, n - 1),
            p_q=st.p,
            p_omega=rng.uniform(0.3, 1.2, n - 1),
            centered=False,
        )
        rows.append(oplift.GENERALIZED.pack(s))
    states = np.array(rows)
    batch = oplift.GENERALIZED.monitors(sys, 1, oplift.monitors_general(sys))
    for row in states:
        s = oplift.GENERALIZED.unpack(sys, row, centered=False)
        centered = oplift.OPState(q=s.q - s.q.mean(), omega=s.omega, p_q=s.p_q, p_omega=s.p_omega)
        x = oplift.build_x(centered.q, centered.omega).x
        oracle = oplift.initial_xdot(centered, sys) @ np.linalg.inv(x)
        assert np.max(np.abs(oplift.xdot_xinv(s) - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))
    for a in range(1, n):
        want = [oplift.xdot_xinv(oplift.GENERALIZED.unpack(sys, row, centered=False))[a - 1, a] for row in states]
        assert_close(batch[f"rho_{a}_{a + 1}"](states), want)


def product_xdot_xinv(state):
    """xdot x^-1 as the product Zdot Z^-1 + Z (2 qdot) Z^-1 + Z h2 Zdot^T Z^-T h2^-1 Z^-1, h2 = exp(2q)."""
    z, zd = oplift._chain_z(state.omega, state.omega_dot())
    zinv = oplift._chain_z(-state.omega)[0]
    h2 = np.exp(2.0 * state.q).T[..., None, :]
    qdot = state.p_q.T[..., None, :]
    term3 = ((z * h2) @ np.swapaxes(zd, -1, -2)) @ (np.swapaxes(zinv, -1, -2) * (1.0 / h2)) @ zinv
    return zd @ zinv + (z * (2.0 * qdot)) @ zinv + term3


@pytest.mark.parametrize("batch", [None, 9])
def test_two_body_velocity_matrix_is_the_product_form(rng, batch):
    # n = 2 reads xdot x^-1 off the momenta; on bounded states it is the product form
    dim = oplift.GENERALIZED.dim(2)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, dim if batch is None else (dim, batch))
        state = oplift.GENERALIZED.view(x, 2)
        got, want = oplift.xdot_xinv(state), product_xdot_xinv(state)
        assert got.shape == want.shape == x.shape[1:] + (2, 2)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_two_body_velocity_matrix_is_finite_far_apart():
    # 2 (q_1 - q_2) = 1600: the product form is NaN, its value is finite
    state = oplift.OPState(q=np.array([400.0, -400.0]), omega=np.array([0.5]), p_q=np.array([10.0, -10.0]),
                           p_omega=np.array([0.0]), centered=False)
    got = oplift.xdot_xinv(state)
    assert got.tolist() == [[20.0, 0.5 * (-40.0)], [0.0, -20.0]]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_chain_z_batch_matches_closed_form(rng, n):
    omega = rng.uniform(-2.0, 2.0, (n - 1, 7))
    omega_dot = rng.uniform(-2.0, 2.0, (n - 1, 7))
    z, zd = oplift._chain_z(omega, omega_dot)
    zinv = oplift._chain_z(-omega)[0]
    for j in range(7):
        assert np.array_equal(z[j], oplift.z_from_omega(omega[:, j], n))
        assert np.array_equal(zd[j], oplift.z_dot_from_omega(omega[:, j], omega_dot[:, j]))
        assert np.max(np.abs(zinv[j] @ z[j] - np.eye(n))) < 1e-12


def counted(mons, calls):
    def wrap(name, fn):
        def monitor(states):
            calls[name] = calls.get(name, 0) + 1
            return fn(states)

        return monitor

    return {name: wrap(name, fn) for name, fn in mons.items()}


def test_each_monitor_called_once_per_trajectory(rng):
    sys, st = random_chain(rng, 4)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=3.0, stride=1)
    plain = toda.run(sys, st, cfg)
    calls = {}
    traj = integrate(toda.flow_field(sys), toda.CHAIN.pack(st), cfg, monitors=counted(toda.CHAIN.monitors(sys), calls))
    assert len(traj) > 20
    assert calls == {name: 1 for name in plain.monitors}
    for name, values in plain.monitors.items():
        assert np.array_equal(traj.monitors[name], values)
        assert traj.drift[name] == plain.drift[name]

    calls.clear()
    gbs = IntegratorConfig(method="extrapolation", t_final=1.0, stride=3)
    integrate(toda.flow_field(sys), toda.CHAIN.pack(st), gbs, monitors=counted(toda.CHAIN.monitors(sys), calls))
    assert calls == {name: 1 for name in plain.monitors}

    calls.clear()
    times = np.linspace(0.0, 2.0, 9)
    at = integrate_at_times(
        toda.flow_field(sys), toda.CHAIN.pack(st), times, cfg, monitors=counted(toda.CHAIN.monitors(sys), calls)
    )
    assert calls == {name: 1 for name in plain.monitors}
    assert at.monitors["H"].shape == (9,)


def test_form_monitors_called_once_per_run(rng, monkeypatch):
    sys, st = random_chain(rng, 3)
    s = oplift.OPState(q=st.q, omega=rng.uniform(-0.5, 0.5, 2), p_q=st.p, p_omega=sys.g)
    calls = {}
    real = toda.integrate
    monkeypatch.setattr(toda, "integrate", lambda *args, monitors, **kw: real(*args, monitors=counted(monitors, calls), **kw))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=2.0, stride=1)
    traj = oplift.run_geodesic_generalized(sys, s, cfg, kmax=1, extra_monitors=oplift.monitors_general(sys))
    assert len(traj) > 10
    assert calls == {name: 1 for name in traj.monitors}


def test_monitor_must_return_one_value_per_sample():
    cfg = IntegratorConfig(t_final=1.0, stride=1)
    with pytest.raises(DomainError, match="'E'"):
        integrate(lambda t, y: -y, [1.0], cfg, monitors={"E": lambda states: float(states[0, 0])})


@pytest.mark.parametrize("n", [2, 3, 5])
def test_invariant_functions_take_packed_states(rng, n):
    # the batch form is the stack of the per-state values, to the bit
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    cases = [
        (lambda s: toda.invariants(sys, s, n), 2 * n, lambda row: toda.CHAIN.unpack(sys, row)),
        (lambda s: eisenhart.lifted_invariants(sys, s, n), 2 * n + 2, lambda row: eisenhart.EISENHART.unpack(sys, row)),
        (lambda s: oplift.generalized_invariants(s, n), 4 * n - 2,
         lambda row: oplift.GENERALIZED.unpack(sys, row, centered=False)),
    ]
    for invariants, dim, unpack in cases:
        states = rng.uniform(-1.0, 1.0, (SAMPLES, dim))
        got = invariants(states)
        assert got.shape == (n, SAMPLES)
        assert np.array_equal(got, np.array([invariants(unpack(row)) for row in states]).T)
        with pytest.raises(DomainError, match="packed states"):
            invariants(states[:, 1:])
        with pytest.raises(DomainError, match="packed states"):
            invariants(states[0])
    with pytest.raises(DomainError, match="packed states"):
        oplift.generalized_invariants(np.zeros((3, 2)), 1)  # 4n - 2 = 2 would be n = 1


def test_monitors_evaluate_through_the_public_invariant_functions(rng, monkeypatch):
    # one call of the picture's invariants function per run, with the run's
    # kmax, on the recorded (samples, d) states
    sys, st = random_chain(rng, 3)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=2.0, stride=1)
    runs = [
        (toda, "invariants", lambda kmax: toda.run(sys, st, cfg, kmax)),
        (eisenhart, "lifted_invariants", lambda kmax: eisenhart.run_geodesic(
            sys, eisenhart.EisenhartState(q=st.q, y=0.0, p=st.p, p_y=1.0), cfg, kmax)),
        (oplift, "generalized_invariants", lambda kmax: oplift.run_geodesic_generalized(
            sys, oplift.OPState(q=st.q, omega=np.zeros(2), p_q=st.p, p_omega=sys.g), cfg, kmax)),
    ]
    for module, name, run in runs:
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
        for kmax in (None, 2):
            calls.clear()
            traj = run(kmax)
            assert [args[-1] for args in calls] == [kmax or sys.n]
            assert all(args[-2] is traj.states and traj.states.shape == (len(traj), len(traj.labels)) for args in calls)
            assert [m for m in traj.monitors if m.startswith("I_")] == [f"I_{k}" for k in range(1, (kmax or sys.n) + 1)]


@pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
@pytest.mark.parametrize("n", range(2, 11))
def test_shared_sweep_is_each_invariant_bit_for_bit(rng, picture, n):
    # the I_k of one dict read one sweep; each equals its own invariants call
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    states = picture.random_states(rng, n, SAMPLES).T
    for kmax in range(1, n + 1):
        mons = picture.monitors(sys, kmax)
        for k in range(1, kmax + 1):
            want = picture.invariants(sys, states, k)[k - 1]
            assert mons[f"I_{k}"](states).tobytes() == want.tobytes(), (kmax, k)


@pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
def test_shared_sweep_follows_the_states_array(rng, picture):
    # alternating arrays, including a copy of the first: each call reads its own array's values
    n = 4
    sys = toda.TodaSystem(n, rng.uniform(0.3, 1.5, n - 1))
    first, second = (picture.random_states(rng, n, SAMPLES).T for _ in range(2))
    mons = picture.monitors(sys)
    for states in (first, second, first, first.copy(), second):
        want = picture.invariants(sys, states, n)
        for k in (n, 1, 2):
            assert mons[f"I_{k}"](states).tobytes() == want[k - 1].tobytes()


def test_lax_charts_read_the_packed_layouts():
    sys = toda.TodaSystem(3, [0.7, 1.3])
    x = np.arange(8.0)[:, None]
    q, p, c = eisenhart.EISENHART.chart(sys.n, sys.g)(x)
    assert np.array_equal(q[:, 0], [0, 1, 2]) and np.array_equal(p[:, 0], [4, 5, 6])
    assert np.array_equal(c[:, 0], 7.0 * sys.g)
    x = np.arange(10.0)[:, None]
    q, p, c = oplift.GENERALIZED.chart(3)(x)
    assert np.array_equal(q[:, 0], [0, 1, 2]) and np.array_equal(p[:, 0], [5, 6, 7])
    assert np.array_equal(c[:, 0], [8, 9])


@pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
def test_records_share_one_packed_layout(rng, picture):
    # [q, fibre, p, p_fibre]: labels, pack/unpack and the chart agree on it
    n = 3
    sys = toda.TodaSystem(n, [0.7, 1.3])
    f = picture.fibres(n)
    assert f == {"chain": 0, "eisenhart": 1, "generalized": n - 1}[picture.name]
    labels = picture.labels(n)
    assert len(labels) == picture.dim(n) == 2 * (n + f)
    assert labels[:n] == ("q_1", "q_2", "q_3") and labels[n + f : 2 * n + f] == ("p_1", "p_2", "p_3")
    assert labels[2 * n + f :] == tuple("p_" + name for name in labels[n : n + f])
    vec = rng.uniform(-1.0, 1.0, picture.dim(n))
    assert np.array_equal(picture.pack(picture.unpack(sys, vec, **({"centered": False} if picture is oplift.GENERALIZED else {}))), vec)
    with pytest.raises(DomainError, match="packed state"):
        picture.unpack(sys, vec[1:])
    q, p, _ = picture.chart(n, sys.g)(vec[:, None])
    assert np.array_equal(q[:, 0], vec[:n]) and np.array_equal(p[:, 0], vec[n + f : 2 * n + f])


def random_state_by_point(picture, rng, n):
    """One packed phase point drawn on its own, as random_states draws each of its columns."""
    q, p = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    if picture.centred:
        q -= q.mean()
        p -= p.mean()
    f = picture.fibres(n)
    return np.concatenate([q, rng.uniform(-1.0, 1.0, f), p, rng.uniform(-1.0, 1.0, f)])


@pytest.mark.parametrize("picture", [eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
def test_random_start_draw_order(picture):
    # q, p, fibre, fibre momenta; a centred picture centres q and p
    got = picture.random_states(np.random.default_rng(3), 4, 1)[:, 0]
    assert np.array_equal(got, random_state_by_point(picture, np.random.default_rng(3), 4))
    assert picture.centred == (picture is oplift.GENERALIZED)


@pytest.mark.parametrize("picture", [eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_states_match_draws_point_by_point(picture, n):
    # one draw for the whole batch gives the bits of the point-by-point loop
    # and leaves the generator where the loop leaves it
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    for count in (1, 10, 110):
        got = picture.random_states(got_rng, n, count)
        want = np.stack([random_state_by_point(picture, want_rng, n) for _ in range(count)], axis=1)
        assert got.shape == (picture.dim(n), count) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()


def test_chain_metric_is_flat():
    sys = toda.TodaSystem(3, [0.8, 1.1])
    assert np.array_equal(toda.CHAIN.inverse_metric(sys, [0.3, -0.2, 0.1]), np.eye(3))
    assert np.array_equal(toda.CHAIN.metric(sys, [0.3, -0.2, 0.1]), np.eye(3))


@pytest.mark.parametrize("picture", [eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
def test_lift_energy_is_half_the_inverse_metric_contraction(rng, picture):
    # the couplings are fibre momenta: H = sum(p^2)/2 + sum c^2 e^{2 dq} = P G^{-1} P / 2
    n, f = 4, picture.fibres(4)
    sys = toda.TodaSystem(n, rng.uniform(0.5, 1.5, n - 1))
    for vec in picture.random_states(rng, n, 20).T:
        state = picture.unpack(sys, vec, **({"centered": False} if picture.centred else {}))
        q, _, p, p_fibre = picture.split(vec, n)
        mom = np.concatenate([p, p_fibre])
        minv = picture.inverse_metric(sys, q)
        assert minv.shape == (n + f, n + f) and np.array_equal(minv[:n, :n], np.eye(n))
        assert_close(picture.energy(sys, state), 0.5 * mom @ minv @ mom)
        assert np.max(np.abs(picture.metric(sys, q) @ minv - np.eye(n + f))) < 1e-14


@pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART], ids=lambda p: p.name)
def test_runners_monitor_extra_forms(rng, picture):
    # every picture's runner takes the form monitors the generalised one does, listed after H
    sys = toda.TodaSystem(3, [0.8, 1.1])
    state = picture.unpack(sys, picture.random_states(rng, 3, 1)[:, 0])
    total = oplift.FormMonitor(name="sum_p", evaluate=lambda s: np.sum(s.p, axis=0))
    traj = picture.run(sys, state, IntegratorConfig(t_final=1.0, stride=1), kmax=1, extra_monitors=[total])
    assert list(traj.monitors)[-2:] == ["H", "sum_p"]
    assert_close(traj.monitors["sum_p"], traj.monitors["I_1"])
