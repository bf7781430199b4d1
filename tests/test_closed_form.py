"""Oracles for oplift.exact_coordinates, the closed-form exact geodesic.

Each reference is computed here independently of the graded-QR evaluation:
an rtol-1e-13 Dormand-Prince run of the generalised flow, a Cauchy-Binet
sum over column subsets, the materialised exp(Bt) x0 path, the two-body
closed form, Moser's scattering limit and the conserved fibre momenta.
"""

import itertools
import math

import numpy as np
import pytest

from todalift import eisenhart, oplift, toda
from todalift.errors import ConstraintError, DomainError
from todalift.integrate import IntegratorConfig, integrate_at_times


def start(rng, n, generic_omega=False):
    """Ascending positions, small momenta, couplings p_omega unrelated to any g."""
    q = np.sort(rng.uniform(-1.0, 1.0, n))
    q -= q.mean()
    p = rng.uniform(-0.5, 0.5, n)
    p -= p.mean()
    p_omega = rng.uniform(0.3, 1.2, n - 1)
    omega = rng.uniform(-0.7, 0.7, n - 1) if generic_omega else np.zeros(n - 1)
    sys = toda.TodaSystem(n=n, g=rng.uniform(0.3, 1.2, n - 1))
    return sys, oplift.OPState(q=q, omega=omega, p_q=p, p_omega=p_omega)


@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_matches_high_accuracy_flow(rng, n):
    # from omega = 0 the exact geodesic's UDU coordinates follow the 2n-1 flow
    sys, state = start(rng, n)
    times = np.linspace(0.0, 40.0, 161)
    q, omega, qdot = oplift.exact_coordinates(state, sys, times)
    cfg = IntegratorConfig(rtol=1e-13, atol=1e-15, t_final=40.0)
    ref = integrate_at_times(oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(state), times, cfg).states
    assert np.max(np.abs(q - ref[:, :n])) < 1e-10
    assert np.max(np.abs(qdot - ref[:, 2 * n - 1 : 3 * n - 1])) < 1e-10
    ref_omega = ref[:, n : 2 * n - 1]
    assert np.max(np.abs(omega - ref_omega)) < 1e-10 * max(1.0, float(np.max(np.abs(ref_omega))))


# each picture's runner, and its system couplings and fibre momenta for chain couplings g
P_Y = 0.7
RUNNERS = {
    "chain": (toda.run, lambda g: (g, [])),
    "eisenhart": (eisenhart.run_geodesic, lambda g: (g / P_Y, [P_Y])),
    "generalized": (oplift.run_geodesic_generalized, lambda g: (g, g)),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("picture", [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED], ids=lambda p: p.name)
def test_runners_match_the_closed_form(rng, picture, n):
    # every picture's run at the CLI tolerance, read through its record, against
    # the exact geodesic from omega = 0 with p_omega = g, at the run's own times
    sys, state = start(rng, n)
    g = state.p_omega
    runner, couplings = RUNNERS[picture.name]
    g_run, p_fibre = couplings(g)
    system = toda.TodaSystem(n=n, g=g_run)
    f = picture.fibres(n)
    start_run = picture.unpack(system, np.concatenate([state.q, np.zeros(f), state.p_q, p_fibre]))
    traj = runner(system, start_run, IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0))
    q, omega, qdot = oplift.exact_coordinates(state, sys, traj.times)
    q_run, fibre, p_run, _ = picture.split(traj.states.T, n)
    assert len(traj) > 10 and traj.times[-1] == 10.0
    assert np.max(np.abs(q_run.T - q)) < 1e-8
    assert np.max(np.abs(p_run.T - qdot)) < 1e-8
    if picture is oplift.GENERALIZED:
        assert np.max(np.abs(fibre.T - omega)) < 1e-8


def cauchy_binet(state, sys, times):
    """log D_a(t) = log sum_S det(M[a:, S])^2 exp(t sum lam_S) and its time derivative."""
    n = state.n
    w = oplift.z_from_omega(state.omega, n) * np.exp(state.q)
    s = np.linalg.solve(w, np.linalg.solve(w, oplift.initial_xdot(state, sys)).T)
    lam, qmat = np.linalg.eigh(0.5 * (s + s.T))
    m = w @ qmat
    logd = np.zeros((n + 1, len(times)))
    dlogd = np.zeros((n + 1, len(times)))
    for a in range(n):
        subsets = [list(c) for c in itertools.combinations(range(n), n - a)]
        expo = np.array([math.log(np.linalg.det(m[a:, c]) ** 2) + times * lam[c].sum() for c in subsets])
        top = expo.max(axis=0)
        weights = np.exp(expo - top)
        logd[a] = top + np.log(weights.sum(axis=0))
        dlogd[a] = np.array([lam[c].sum() for c in subsets]) @ weights / weights.sum(axis=0)
    return 0.5 * (logd[:-1] - logd[1:]).T, 0.5 * (dlogd[:-1] - dlogd[1:]).T


@pytest.mark.parametrize("n", [2, 3, 5, 6])
@pytest.mark.parametrize("generic_omega", [False, True])
def test_matches_cauchy_binet_minor_sum(rng, n, generic_omega):
    sys, state = start(rng, n, generic_omega)
    times = np.linspace(0.0, 10.0, 41)
    q, _, qdot = oplift.exact_coordinates(state, sys, times)
    q_ref, qdot_ref = cauchy_binet(state, sys, times)
    assert np.max(np.abs(q - q_ref)) < 1e-12
    assert np.max(np.abs(qdot - qdot_ref)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matches_materialised_path_at_generic_omega(rng, n):
    sys, state = start(rng, n, generic_omega=True)
    times = np.linspace(0.0, 2.0, 9)
    q, omega, _ = oplift.exact_coordinates(state, sys, times)
    x0 = oplift.build_x(state.q, state.omega)
    xd0 = oplift.initial_xdot(state, sys)
    for i, t in enumerate(times):
        q_ref, omega_ref = oplift.project_to_coordinates(oplift.exact_geodesic_raw(x0, xd0, float(t)))
        assert np.max(np.abs(q[i] - q_ref)) < 1e-11
        assert np.max(np.abs(omega[i] - omega_ref)) < 1e-11


def test_starts_at_the_state(rng):
    sys, state = start(rng, 6, generic_omega=True)
    q, omega, qdot = oplift.exact_coordinates(state, sys, [0.0])
    assert np.max(np.abs(q[0] - state.q)) < 1e-14
    assert np.max(np.abs(omega[0] - state.omega)) < 1e-14
    assert np.max(np.abs(qdot[0] - state.p_q)) < 1e-14


def test_times_in_any_order(rng):
    # the sorted evaluation, permuted; a repeated time gives repeated rows
    sys, state = start(rng, 4, generic_omega=True)
    times = np.array([3.0, 0.0, 12.0, 0.5, 3.0, 7.25])
    order = np.argsort(times)
    shuffled = oplift.exact_coordinates(state, sys, times)
    for got, ref in zip(shuffled, oplift.exact_coordinates(state, sys, times[order])):
        assert got[order].tobytes() == ref.tobytes()


@pytest.mark.parametrize("generic_omega", [False, True])
def test_stationary_start_stays_put(rng, generic_omega):
    # p_q = 0 and p_omega = 0: xdot0 = 0, so x(t) = x0 at every time, however far
    sys, moving = start(rng, 5, generic_omega)
    state = oplift.OPState(q=moving.q, omega=moving.omega, p_q=np.zeros(5), p_omega=np.zeros(4))
    q, omega, qdot = oplift.exact_coordinates(state, sys, [0.0, 1.0, 1e3, 1e12])
    assert np.max(np.abs(q - state.q)) < 1e-14
    assert np.max(np.abs(omega - state.omega)) < 1e-14
    assert np.all(qdot == 0.0)


@pytest.mark.parametrize("t", [1.0, 10.0])
def test_two_body_closed_form(t):
    sys = toda.TodaSystem(2, [1.0])
    state = oplift.OPState(q=[0.0, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0])
    q, _, _ = oplift.exact_coordinates(state, sys, [t])
    # ln cosh 2t without overflow or cancellation
    ln_cosh = 2.0 * t - math.log(2.0) + math.log1p(math.exp(-4.0 * t))
    assert abs(q[0, 0] - q[0, 1] + ln_cosh) <= 1e-12


@pytest.mark.parametrize(
    "n, far", [pytest.param(3, False, id="3"), pytest.param(5, False, id="5"), pytest.param(5, True, id="5-far")]
)
def test_momenta_tend_to_the_spectrum_of_L(rng, n, far):
    # Moser (1975): qdot(t) -> sorted eigenvalues of L(0) as t -> infinity; far
    # samples where the graded factor spans more than the double range, 1000 > 708
    sys, state = start(rng, n)
    chain = toda.TodaSystem(n=n, g=state.p_omega)
    lmat, _ = toda.lax_pair(chain, toda.PhaseState(q=state.q, p=state.p_q))
    eig = np.sort(np.linalg.eigvals(lmat).real)
    t_final = 40.0 / float(np.min(np.diff(eig)))
    if far:
        t_final = max(t_final, 1000.0 / float(np.ptp(eig)))
    _, _, qdot = oplift.exact_coordinates(state, sys, [t_final])
    assert np.max(np.abs(np.sort(qdot[0]) - eig)) < 1e-10


def test_omega_fibre_from_the_momenta(rng):
    # along the 2n-1 flow, p_omega_a omega_a + sum_{b<=a} p_b is conserved
    sys, state = start(rng, 5)
    times = np.linspace(0.0, 12.0, 49)
    _, omega, qdot = oplift.exact_coordinates(state, sys, times)
    fibre = state.omega - np.cumsum(qdot - state.p_q, axis=1)[:, :-1] / state.p_omega
    assert np.max(np.abs(omega - fibre)) < 1e-10 * max(1.0, float(np.max(np.abs(omega))))


@pytest.mark.parametrize("p_y", [1.3, 0.0])
def test_eisenhart_fibre_from_the_momenta(rng, p_y):
    # y(t) = y0 + (sum_a a p_a(t) - sum_a a p_a(0)) / p_y; y and p stay put at p_y = 0
    sys, chain = toda.TodaSystem(n=4, g=rng.uniform(0.3, 1.2, 3)), start(rng, 4)[1]
    state = eisenhart.EisenhartState(q=chain.q, y=0.4, p=chain.p_q, p_y=p_y)
    traj = eisenhart.run_geodesic(sys, state, IntegratorConfig(rtol=1e-12, atol=1e-14, t_final=8.0, stride=5))
    y, p = traj.states[:, 4], traj.states[:, 5:9]
    if p_y:
        weighted = p @ np.arange(1.0, 5.0)
        assert np.max(np.abs(y - (0.4 + (weighted - weighted[0]) / p_y))) < 1e-9
    else:
        assert np.all(y == 0.4)
        assert np.all(p == chain.p_q)


@pytest.mark.parametrize("p", [[1.0, -1.0], [-1.0, 1.0]])
def test_uncoupled_two_body_moves_freely(p):
    # p_omega = 0: omega stays 0 and q moves with constant momenta.  On the
    # receding start the frame's leading minor vanishes, so R's diagonal grows
    # out of order, and the step's zeros must not meet its overflowing exponent
    sys = toda.TodaSystem(2, [1.0])
    state = oplift.OPState(q=[0.0, 0.0], omega=[0.0], p_q=p, p_omega=[0.0])
    times = np.array([10.0, 400.0, 1e4])
    q, omega, qdot = oplift.exact_coordinates(state, sys, times)
    assert np.max(np.abs(q - np.multiply.outer(times, p))) <= 1e-12 * times[-1]
    assert np.all(omega == 0.0) and np.max(np.abs(qdot - p)) < 1e-15


def test_momenta_of_a_split_chain():
    # p_omega_2 = 0 at omega = 0 splits off the third particle, which moves freely,
    # and the first two scatter to their block's eigenvalues -0.5 and 1.5.  By
    # t = 50 a diagonal entry of R underflows to 0, and Q must stay orthogonal
    sys = toda.TodaSystem(3, [1.0, 1.0])
    state = oplift.OPState(q=[0.0, 0.0, 0.0], omega=[0.0, 0.0], p_q=[0.5, 0.5, -1.0], p_omega=[1.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        qdot = oplift.exact_coordinates(state, sys, [50.0])[2]
    assert np.max(np.abs(qdot[0] - [-0.5, 1.5, -1.0])) < 1e-14


# omega = 0 starts whose zero p_omega_a splits the chain after particle a: (q, p_q, p_omega, t_final)
SPLIT_STARTS = {
    "cut-2-3": ([0.0, 0.0, 0.0], [0.5, 0.5, -1.0], [1.0, 0.0], 50.0),
    "cut-1-2": ([0.3, 0.0, -0.3], [1.0, -0.5, -0.5], [0.0, 1.0], 10.0),
}


@pytest.mark.parametrize("name", SPLIT_STARTS)
def test_split_chain_matches_high_accuracy_flow(name):
    # each block's frame is factored on its own; the whole chain's frame has vanishing
    # leading minors, which left R's diagonal out of order and q_1 at -inf by t = 1000
    q0, p, p_omega, t_final = SPLIT_STARTS[name]
    sys = toda.TodaSystem(3, p_omega)
    state = oplift.OPState(q=q0, omega=[0.0, 0.0], p_q=p, p_omega=p_omega)
    cfg = IntegratorConfig(rtol=1e-13, atol=1e-15, t_final=t_final, stride=1)
    traj = oplift.run_geodesic_generalized(sys, state, cfg, kmax=1)
    q, omega, qdot = oplift.exact_coordinates(state, sys, traj.times)
    ref_q, ref_omega, ref_p, _ = oplift.GENERALIZED.split(traj.states.T, 3)
    assert np.max(np.abs(q - ref_q.T)) < 1e-11
    assert np.max(np.abs(qdot - ref_p.T)) < 1e-12
    assert np.max(np.abs(omega - ref_omega.T)) < 1e-12
    q, omega, qdot = oplift.exact_coordinates(state, sys, [1e3, 1e6])
    cut = p_omega.index(0.0)
    assert np.all(np.isfinite(q)) and np.all(omega[:, cut] == 0.0) and np.all(np.isfinite(omega))
    assert np.max(np.abs(q.sum(axis=1))) < 1e-15 * 1e6


def test_fully_split_chain_moves_freely():
    # p_omega = 0 at omega = 0: every particle is its own block, with equal rates, so one
    # QR serves every time; the whole chain's frame took one QR per 600 of grading
    sys = toda.TodaSystem(3, [1.0, 1.0])
    state = oplift.OPState(q=[0.0, 0.0, 0.0], omega=[0.0, 0.0], p_q=[1.0, 1.0, -2.0], p_omega=[0.0, 0.0])
    times = np.array([1.0, 1e5, 1e8])
    q, omega, qdot = oplift.exact_coordinates(state, sys, times)
    assert np.max(np.abs(q - np.multiply.outer(times, state.p_q))) <= 1e-15 * times[-1]
    assert np.all(omega == 0.0) and np.all(qdot == state.p_q)


def test_validates_the_start():
    sys = toda.TodaSystem(3, [1.0, 1.0])
    moving = oplift.OPState(q=[-0.5, 0.0, 0.5], omega=[0.0, 0.0], p_q=[0.1, 0.0, 0.0], p_omega=[1.0, 1.0])
    with pytest.raises(ConstraintError, match="q-momenta"):
        oplift.exact_coordinates(moving, sys, [1.0])
    with pytest.raises(DomainError, match="particles"):
        oplift.exact_coordinates(moving, toda.TodaSystem(2, [1.0]), [1.0])


@pytest.mark.parametrize("t", [300.0, 400.0, 1e4, 1e8])
def test_two_body_far_past_one_grading(t):
    # lam = (2, -2), so the rows of the graded factor span exp(-2t): past t = 354
    # they leave the double range, and by t = 1e4 the march of the factorisation has stopped
    sys = toda.TodaSystem(2, [1.0])
    state = oplift.OPState(q=[0.0, 0.0], omega=[0.0], p_q=[0.0, 0.0], p_omega=[1.0])
    q, omega, qdot = oplift.exact_coordinates(state, sys, [t])
    ln_cosh = 2.0 * t - math.log(2.0) + math.log1p(math.exp(-4.0 * t))
    assert abs(q[0, 0] - q[0, 1] + ln_cosh) <= 1e-15 * ln_cosh
    assert np.all(np.isfinite(omega)) and np.max(np.abs(qdot[0] - [-1.0, 1.0])) < 1e-14
    with pytest.raises(DomainError, match="non-negative"):
        oplift.exact_coordinates(state, sys, [t, -1.0])
