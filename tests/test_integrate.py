import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from gbs_oracle import gbs_step_by_rows

from todalift import eisenhart, oplift, toda
from todalift.errors import DivergenceError, DomainError, StiffnessError
from todalift.integrate import (
    _GBS_SEQUENCE,
    _STEPPERS,
    IntegratorConfig,
    _ExtrapolationStepper,
    _gbs_step,
    integrate,
    integrate_at_times,
    monitor_drift,
    rk4_step,
)


def one_dof_rhs(t, y):
    # dq/dt = p, dp/dt = -4 exp(2q); energy p^2/2 + 2 exp(2q) is conserved.
    # y is one state (2,) or, from extrapolation's substeps, a (2, C) batch
    return np.array([y[1], -4.0 * np.exp(2.0 * y[0])])


def closed_form_q(t):
    return -math.log(math.cosh(2.0 * t))


def test_closed_form_is_a_solution():
    # oracle sanity: q(t) = -ln cosh 2t satisfies the one-dof system
    for t in (0.1, 0.5, 1.3):
        h = 1e-6
        q, qp, qm = closed_form_q(t), closed_form_q(t + h), closed_form_q(t - h)
        qddot = (qp - 2.0 * q + qm) / h**2
        assert abs(qddot + 4.0 * math.exp(2.0 * q)) < 1e-3
        p = (qp - qm) / (2.0 * h)
        assert abs(0.5 * p**2 + 2.0 * math.exp(2.0 * q) - 2.0) < 1e-8


def test_free_particle():
    cfg = IntegratorConfig(t_final=2.0)
    traj = integrate(lambda t, y: np.array([y[1], 0.0]), [0.0, 1.0], cfg)
    assert traj.times[-1] == 2.0
    assert abs(traj.states[-1][0] - 2.0) < 1e-12


def test_one_dof_against_closed_form():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=1.0)
    traj = integrate(one_dof_rhs, [0.0, 0.0], cfg)
    assert abs(traj.states[-1][0] - closed_form_q(1.0)) < 1e-9


def test_energy_monitor_drift():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=1.0, stride=1)
    mon = {"E": lambda y: 0.5 * y[:, 1] ** 2 + 2.0 * np.exp(2.0 * y[:, 0])}
    traj = integrate(one_dof_rhs, [0.0, 0.0], cfg, monitors=mon)
    assert traj.drift["E"] < 1e-9


class TestRK4Step:
    def test_zero_rhs(self):
        y = np.array([1.0, -2.0])
        assert np.array_equal(rk4_step(lambda t, y: np.zeros(2), y, 0.0, 0.1), y)

    def test_scalar_exponential(self):
        out = rk4_step(lambda t, y: y, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - math.exp(0.1)) < 1e-7

    def test_one_step_error_scales_as_dt5(self, rng):
        sys = toda.TodaSystem(2, [1.0])
        st = toda.PhaseState([0.2, -0.2], [0.3, -0.3])
        rhs = toda.flow_field(sys)
        y0 = toda.CHAIN.pack(st)
        ref_cfg = IntegratorConfig(rtol=1e-13, atol=1e-15, t_final=0.2)

        def one_step_error(dt):
            y = rk4_step(rhs, y0, 0.0, dt)
            ref = integrate_at_times(rhs, y0, [0.0, dt], ref_cfg).states[-1]
            return np.max(np.abs(y - ref))

        ratio = one_step_error(0.05) / one_step_error(0.025)
        assert 24.0 < ratio < 40.0

    def test_bad_step(self):
        with pytest.raises(DomainError):
            rk4_step(lambda t, y: y, np.array([1.0]), 0.0, 0.0)


def test_rk4_global_order(rng):
    sys = toda.TodaSystem(2, [1.0])
    st = toda.PhaseState([0.3, -0.3], [0.1, -0.1])
    rhs = toda.flow_field(sys)
    y0 = toda.CHAIN.pack(st)
    ref = integrate(rhs, y0, IntegratorConfig(rtol=1e-13, atol=1e-15, t_final=2.0)).states[-1]
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for dt in dts:
        out = integrate(rhs, y0, IntegratorConfig(method="rk4", dt=dt, t_final=2.0)).states[-1]
        errs.append(np.max(np.abs(out - ref)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 3.9


def test_adaptive_matches_fixed_step():
    sys = toda.TodaSystem(2, [1.0])
    st = toda.PhaseState([0.3, -0.3], [0.1, -0.1])
    rhs = toda.flow_field(sys)
    y0 = toda.CHAIN.pack(st)
    rtol = 1e-10
    adaptive = integrate(rhs, y0, IntegratorConfig(rtol=rtol, atol=1e-12, t_final=2.0)).states[-1]
    fixed = integrate(rhs, y0, IntegratorConfig(method="rk4", dt=2e-4, t_final=2.0)).states[-1]
    assert np.max(np.abs(adaptive - fixed)) < 10.0 * rtol


def test_deterministic():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=3.0, stride=3)
    a = integrate(one_dof_rhs, [0.1, -0.2], cfg)
    b = integrate(one_dof_rhs, [0.1, -0.2], cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


def test_final_time_exact_and_strided():
    cfg = IntegratorConfig(method="rk4", dt=0.3, t_final=1.0, stride=2)
    traj = integrate(lambda t, y: np.array([1.0]), [0.0], cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert abs(traj.states[-1][0] - 1.0) < 1e-14


def test_integrate_at_times_hits_samples():
    times = [0.0, 0.37, 1.0, 1.61]
    traj = integrate_at_times(
        lambda t, y: np.array([math.cos(t)]), [0.0], times, IntegratorConfig(rtol=1e-12, atol=1e-14, t_final=2.0)
    )
    assert np.array_equal(traj.times, times)
    for t, s in zip(traj.times, traj.states):
        assert abs(s[0] - math.sin(t)) < 1e-11


def test_blowup_raises_stiffness():
    with pytest.raises(StiffnessError):
        integrate(lambda t, y: y**2, [1.0], IntegratorConfig(t_final=2.0))


def test_non_finite_initial_raises_divergence():
    with pytest.raises(DivergenceError):
        integrate(lambda t, y: np.array([float("nan")]), [1.0], IntegratorConfig(t_final=1.0))


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(method="euler")
    with pytest.raises(DomainError):
        IntegratorConfig(method=["adaptive"])
    assert IntegratorConfig(method="extrapolation").method == "extrapolation"
    assert IntegratorConfig().method is None
    # the start step is per method unless given; the stepper that runs sets it
    assert IntegratorConfig().dt is None
    assert IntegratorConfig(method="extrapolation").dt is None
    assert IntegratorConfig(method="extrapolation", dt=1e-3).dt == 1e-3
    with pytest.raises(DomainError):
        IntegratorConfig(dt=-0.1)
    with pytest.raises(DomainError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(t_final=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(stride=0)


@pytest.mark.parametrize("name", ["dt", "rtol", "atol", "t_final"])
def test_integer_beyond_the_float_range_is_a_domain_error(name):
    # 10**400 passes 0 < value < inf as an int, and float() of it overflows
    with pytest.raises(DomainError, match=name):
        IntegratorConfig(**{name: 10**400})
    assert getattr(IntegratorConfig(**{name: 10**300}), name) == 1e300


@pytest.mark.parametrize("method, dt", [(None, 1e-3), ("adaptive", 1e-3), ("rk4", 1e-3), ("extrapolation", 0.1)])
def test_unset_dt_is_the_steppers_default(method, dt):
    base = IntegratorConfig(method=method, rtol=1e-10, atol=1e-12, t_final=0.05, stride=1)
    unset = integrate(one_dof_rhs, [0.0, 0.0], base)
    given = integrate(one_dof_rhs, [0.0, 0.0], replace(base, dt=dt))
    assert np.array_equal(unset.times, given.times)
    assert np.array_equal(unset.states, given.states)
    assert unset.stats == given.stats
    other = integrate(one_dof_rhs, [0.0, 0.0], replace(base, dt=0.1 if dt == 1e-3 else 1e-3))
    assert other.stats != unset.stats


def test_monitor_drift_definition():
    assert monitor_drift(np.array([2.0, 2.5, 1.5])) == 0.25
    assert monitor_drift(np.array([0.1, 0.3])) == pytest.approx(0.2)


def test_stats_count_every_rhs_evaluation():
    calls = []

    def counted(t, y):
        calls.append(t)
        return one_dof_rhs(t, y)

    # a large first trial step forces rejections
    cfg = IntegratorConfig(dt=1.0, rtol=1e-10, atol=1e-12, t_final=1.0, stride=4)
    for run in (
        lambda: integrate(counted, [0.0, 0.0], cfg),
        lambda: integrate_at_times(counted, [0.0, 0.0], [0.0, 0.3, 1.0], cfg),
    ):
        calls.clear()
        stats = run().stats
        assert stats["rejected"] > 0
        assert stats["nfev"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
        assert stats["nfev"] == len(calls)


class TestExtrapolation:
    """Gragg-Bulirsch-Stoer stepping: order 12, true substep times, batches."""

    @staticmethod
    def one_step_error(rhs, exact, big_step):
        # atol = rtol = 1 accepts the first trial step, which spans the run
        cfg = IntegratorConfig(method="extrapolation", dt=big_step, rtol=1.0, atol=1.0, t_final=big_step)
        traj = integrate(rhs, [1.0], cfg)
        assert traj.stats == {"nfev": 13, "accepted": 1, "rejected": 0, "dt_min": big_step, "dt_max": big_step}
        return abs(traj.states[-1][0] - exact(big_step))

    @pytest.mark.parametrize(
        "rhs, exact",
        [
            (lambda t, y: y, math.exp),
            # non-autonomous: only the true substep times give order 12
            (lambda t, y: np.cos(t) * y, lambda t: math.exp(math.sin(t))),
        ],
        ids=["exponential", "cos-modulated"],
    )
    def test_observed_order_is_twelve(self, rhs, exact):
        ratio = self.one_step_error(rhs, exact, 2.0) / self.one_step_error(rhs, exact, 1.0)
        # a local error of order dt^13 halves by 2^13
        assert 12.0 <= math.log2(ratio) <= 14.5

    def test_two_body_closed_form(self):
        sys = toda.TodaSystem(2, [1.0])
        st = toda.PhaseState([0.0, 0.0], [0.0, 0.0])
        cfg = IntegratorConfig(method="extrapolation", rtol=1e-12, atol=1e-14, t_final=10.0, stride=10**9)
        traj = toda.run(sys, st, cfg)
        assert traj.times[-1] == 10.0
        assert abs((traj.states[-1][0] - traj.states[-1][1]) - closed_form_q(10.0)) < 1e-11

    def test_stats_count_every_rhs_evaluation(self):
        calls = []

        def counted(t, y):
            calls.append(t)
            return one_dof_rhs(t, y)

        cfg = IntegratorConfig(method="extrapolation", dt=1.0, rtol=1e-10, atol=1e-12, t_final=3.0, stride=4)
        for run in (
            lambda: integrate(counted, [0.0, 0.0], cfg),
            lambda: integrate_at_times(counted, [0.0, 0.0], [0.0, 0.3, 3.0], cfg),
        ):
            calls.clear()
            stats = run().stats
            assert stats["rejected"] > 0
            trials = stats["accepted"] + stats["rejected"]
            assert stats["nfev"] == 1 + 11 * trials + stats["accepted"]
            assert stats["nfev"] == len(calls)

    def test_matches_adaptive_method(self):
        cfg = IntegratorConfig(method="adaptive", rtol=1e-12, atol=1e-14, t_final=1.0)
        times = np.linspace(0.0, 1.0, 6)
        ref = integrate_at_times(one_dof_rhs, [0.0, 0.0], times, cfg)
        gbs = integrate_at_times(one_dof_rhs, [0.0, 0.0], times, replace(cfg, method="extrapolation"))
        assert np.max(np.abs(gbs.states - ref.states)) < 1e-10
        assert gbs.stats["nfev"] < ref.stats["nfev"]


class TestBatchedTableau:
    """A trial step runs substep m of every row still substepping as one rhs
    call; checked against the row-by-row step of tests/gbs_oracle.py."""

    @staticmethod
    def starts(rng, picture, n):
        """(field, one state, a (d, 3) batch) for a random system of n particles."""
        field = picture.flow_field(toda.TodaSystem(n, rng.uniform(0.5, 2.0, n - 1)))
        batch = picture.random_states(rng, n, 4)
        return field, batch[:, 0].copy(), batch[:, 1:].copy()

    @pytest.mark.parametrize("picture", [toda.CHAIN, oplift.GENERALIZED], ids=lambda p: p.name)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_bit_identical_to_rows(self, rng, picture, n):
        field, one, batch = self.starts(rng, picture, n)
        for y in (one, batch):
            f0 = field(0.3, y)
            for dt in (0.01, 0.05, 0.2):
                for got, want in zip(_gbs_step(field, 0.3, y, dt, f0), gbs_step_by_rows(field, 0.3, y, dt, f0)):
                    assert got.shape == y.shape and np.isfinite(got).all()
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_eisenhart_agrees_to_roundoff(self, rng, n):
        # the y rate sums n - 1 terms, which numpy orders differently for a
        # (d,) state and for a (d, C) batch once there are 8 or more
        field, one, batch = self.starts(rng, eisenhart.EISENHART, n)
        eps = np.finfo(float).eps
        for y in (one, batch):
            f0 = field(0.3, y)
            for dt in (0.01, 0.05, 0.2):
                (y12, err), (ref, ref_err) = _gbs_step(field, 0.3, y, dt, f0), gbs_step_by_rows(field, 0.3, y, dt, f0)
                scale = np.max(np.abs(ref)) + dt * np.max(np.abs(f0))
                assert np.isfinite(y12).all()
                assert np.max(np.abs(y12 - ref)) <= 32 * eps * scale
                assert np.max(np.abs(err - ref_err)) <= 4 * eps * scale
                if y is batch or n < 9:
                    assert y12.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("width", [None, 3])
    def test_substep_times_are_true_for_the_active_rows(self, width):
        calls = []

        def field(t, y):
            calls.append((np.array(t, copy=True), y.shape))
            return np.cos(t) * y

        t, dt = 0.7, 0.3
        y = np.array([1.0, -2.0]) if width is None else np.arange(1.0, 7.0).reshape(2, width)
        y12, _ = _gbs_step(field, t, y, dt, field(t, y))
        assert np.isfinite(y12).all()
        assert calls[0] == (np.array(t), y.shape)
        assert len(calls) == 1 + _GBS_SEQUENCE[-1] - 1
        for m, (times, shape) in enumerate(calls[1:], 1):
            want = np.array([t + m * (dt / n) for n in _GBS_SEQUENCE if n > m])
            if width is not None:
                want = want.repeat(width)
            assert times.tobytes() == want.tobytes()
            assert shape == (2, len(want))

    def test_one_accepted_trial_makes_twelve_rhs_calls(self):
        # eleven batched substep calls, then one at the accepted state
        calls = []

        def counted(t, y):
            calls.append(np.ndim(t))
            return np.cos(t) * y

        cfg = IntegratorConfig(method="extrapolation", dt=0.5, rtol=1.0, atol=1.0, t_final=0.5)
        traj = integrate(counted, [1.0], cfg)
        assert (traj.stats["accepted"], traj.stats["rejected"]) == (1, 0)
        assert calls[1:] == [1] * 11 + [0]
        assert traj.stats["nfev"] == len(calls) == 13


def test_rk4_stats():
    cfg = IntegratorConfig(method="rk4", dt=0.3, t_final=1.0)
    stats = integrate(lambda t, y: np.array([1.0]), [0.0], cfg).stats
    # steps end at 0.3, 0.6, 0.9 and 1.0
    assert stats == {
        "nfev": 16, "accepted": 4, "rejected": 0, "dt_min": pytest.approx(0.1), "dt_max": pytest.approx(0.3)
    }


class TestRK4Grid:
    """Step ends sit on t0 + i*dt; rounding must not add a sliver step."""

    def test_tenth_steps_to_one(self):
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_final=1.0, stride=1)
        traj = integrate(lambda t, y: np.array([1.0]), [0.0], cfg)
        assert len(traj) == 11
        assert traj.times[-1] == 1.0
        assert np.allclose(traj.times, np.linspace(0.0, 1.0, 11), rtol=0.0, atol=1e-15)

    def test_long_run_has_no_tiny_last_step(self):
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_final=10.0, stride=1)
        traj = integrate(lambda t, y: np.array([1.0]), [0.0], cfg)
        assert len(traj) == 10001
        assert traj.times[-1] == 10.0
        assert np.min(np.diff(traj.times)) > 0.999e-3
        assert traj.stats["accepted"] == 10000

    def test_integrate_at_times_uses_the_same_grid(self):
        times = [0.0, 1.0]
        traj = integrate_at_times(
            lambda t, y: np.array([1.0]), [0.0], times, IntegratorConfig(method="rk4", dt=0.1)
        )
        assert traj.stats["accepted"] == 10
        traj = integrate_at_times(
            lambda t, y: np.array([1.0]),
            [0.0],
            [0.0, 5.0, 10.0],
            IntegratorConfig(method="rk4", dt=1e-3),
        )
        assert traj.stats["accepted"] == 10000
        assert abs(traj.states[-1][0] - 10.0) < 1e-12


class TestBatch:
    """A (d, B) state advances B trajectories on one shared step sequence."""

    def starts(self, rng, n, count):
        sys = toda.TodaSystem(n, rng.uniform(0.6, 1.4, n - 1))
        cols = []
        for _ in range(count):
            q = rng.uniform(-1, 1, n)
            p = rng.uniform(-1, 1, n)
            cols.append(np.concatenate([q, [0.0], p, [rng.uniform(0.5, 1.5)]]))
        return sys, np.stack(cols, axis=1)

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("method", ["adaptive", "rk4", "extrapolation"])
    def test_single_column_is_bit_identical(self, rng, n, method):
        sys, y0 = self.starts(rng, n, 1)
        rhs = eisenhart.flow_field(sys)
        cfg = IntegratorConfig(method=method, dt=0.01, rtol=1e-10, atol=1e-12, t_final=5.0, stride=7)
        solo = integrate(rhs, y0[:, 0], cfg)
        column = integrate(rhs, y0, cfg)
        assert column.states.shape == solo.states.shape + (1,)
        assert np.array_equal(column.times, solo.times)
        assert np.array_equal(column.states[:, :, 0], solo.states)
        assert column.stats == solo.stats

    def test_quiet_column_does_not_loosen_the_norm(self, rng):
        # a resting column has zero error; the batch must still step as
        # tightly as the moving column does alone
        sys, y0 = self.starts(rng, 3, 2)
        y0[:, 1] = 0.0
        rhs = eisenhart.flow_field(sys)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0)
        solo = integrate(rhs, y0[:, 0], cfg)
        batch = integrate(rhs, y0, cfg)
        # the step sizes agree to roundoff: the batch combines its stages in
        # a wider product
        dt_range = {key: pytest.approx(solo.stats[key], rel=1e-8) for key in ("dt_min", "dt_max")}
        assert batch.stats == {**solo.stats, **dt_range}
        assert np.allclose(batch.states[-1, :, 0], solo.states[-1], rtol=1e-12, atol=1e-12)
        assert np.all(batch.states[:, :, 1] == 0.0)

    def test_columns_match_solo_runs(self, rng):
        sys, y0 = self.starts(rng, 4, 5)
        rhs = eisenhart.flow_field(sys)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=5.0)
        times = np.linspace(0.0, 5.0, 11)
        batch = integrate_at_times(rhs, y0, times, cfg)
        assert batch.states.shape == (11,) + y0.shape
        for b in range(y0.shape[1]):
            solo = integrate_at_times(rhs, y0[:, b], times, cfg)
            scale = np.maximum(1.0, np.abs(solo.states))
            assert np.max(np.abs(batch.states[:, :, b] - solo.states) / scale) < 100.0 * cfg.rtol

    def test_generalized_field_batches(self, rng):
        n = 3
        sys = toda.TodaSystem(n, [0.8, 1.2])
        rhs = oplift.flow_field_generalized(sys)
        y0 = rng.uniform(-1, 1, (4 * n - 2, 3))
        out = rhs(0.0, y0)
        for b in range(3):
            assert np.array_equal(out[:, b], rhs(0.0, y0[:, b]))

    def test_non_finite_column_raises(self, rng):
        sys, y0 = self.starts(rng, 3, 3)
        y0[2, 1] = float("nan")
        for method in ("adaptive", "rk4", "extrapolation"):
            with pytest.raises(DivergenceError):
                integrate(eisenhart.flow_field(sys), y0, IntegratorConfig(method=method, t_final=1.0))


class TestDenseOutput:
    """Dormand-Prince samples by its continuous extension instead of cutting steps."""

    def test_step_end_samples_are_the_steps_bit_for_bit(self):
        sys, state = toda.TodaSystem(4, [0.7, 1.1, 0.9]), toda.PhaseState([-0.6, -0.1, 0.2, 0.5], [0.3, -0.2, 0.1, -0.2])
        rhs = toda.flow_field(sys)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=8.0, stride=1)
        stepped = integrate(rhs, toda.CHAIN.pack(state), cfg)
        sampled = integrate_at_times(rhs, toda.CHAIN.pack(state), stepped.times, cfg)
        assert np.array_equal(sampled.times, stepped.times)
        assert np.array_equal(sampled.states, stepped.states)
        assert sampled.stats == stepped.stats

    def test_samples_do_not_cut_steps(self):
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=2.0, stride=1)
        whole = integrate(one_dof_rhs, [0.0, 0.0], cfg)
        # a fine grid whose points mostly fall inside steps
        traj = integrate_at_times(one_dof_rhs, [0.0, 0.0], np.linspace(0.0, 2.0, 1001), cfg)
        assert traj.stats == whole.stats
        assert traj.stats["dt_max"] > 10 * 2.0 / 1000
        q = np.array([closed_form_q(t) for t in traj.times])
        assert np.max(np.abs(traj.states[:, 0] - q)) < 1e-9

    P_Y = 0.7

    @pytest.mark.parametrize("picture", ["chain", "eisenhart", "generalized"])
    def test_interpolated_states_match_the_closed_form(self, rng, picture):
        # every sample is the midpoint of an accepted step; the oracle is the
        # exact geodesic from omega = 0 with p_omega = g, which is each picture's motion
        n = 4
        q = np.sort(rng.uniform(-1.0, 1.0, n))
        q -= q.mean()
        p = rng.uniform(-0.5, 0.5, n)
        p -= p.mean()
        g = rng.uniform(0.3, 1.2, n - 1)
        exact_start = oplift.OPState(q=q, omega=np.zeros(n - 1), p_q=p, p_omega=g)
        if picture == "chain":
            rhs, y0 = toda.flow_field(toda.TodaSystem(n, g)), np.concatenate([q, p])
        elif picture == "eisenhart":
            rhs = eisenhart.flow_field(toda.TodaSystem(n, g / self.P_Y))
            y0 = np.concatenate([q, [0.0], p, [self.P_Y]])
        else:
            rhs, y0 = oplift.flow_field_generalized(toda.TodaSystem(n, g)), oplift.GENERALIZED.pack(exact_start)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=10.0, stride=1)
        stepped = integrate(rhs, y0, cfg)
        steps = stepped.times
        times = np.concatenate([[0.0], 0.5 * (steps[:-1] + steps[1:])])
        traj = integrate_at_times(rhs, y0, times, cfg)
        assert traj.stats["accepted"] == stepped.stats["accepted"]
        q_exact, _, qdot_exact = oplift.exact_coordinates(exact_start, toda.TodaSystem(n, g), times)
        f = len(y0) // 2 - n
        worst = max(
            np.max(np.abs(traj.states[:, :n] - q_exact)),
            np.max(np.abs(traj.states[:, n + f : 2 * n + f] - qdot_exact)),
        )
        # measured: 2.1e-10 (chain), 2.4e-10 (eisenhart), 2.7e-10 (generalized)
        assert worst < 1e-8

    @pytest.mark.parametrize("method", ["adaptive", "rk4", "extrapolation"])
    def test_batch_columns_match_solo_runs(self, rng, method):
        sys = toda.TodaSystem(3, [0.8, 1.2])
        rhs = eisenhart.flow_field(sys)
        y0 = np.stack([np.concatenate([rng.uniform(-1, 1, 3), [0.0], rng.uniform(-1, 1, 3), [1.0]]) for _ in range(3)], axis=1)
        cfg = IntegratorConfig(method=method, dt=0.01, rtol=1e-10, atol=1e-12, t_final=4.0)
        times = np.linspace(0.0, 4.0, 17)
        batch = integrate_at_times(rhs, y0, times, cfg)
        assert batch.states.shape == (17,) + y0.shape
        column = integrate_at_times(rhs, y0[:, :1], times, cfg)
        assert np.array_equal(column.states[:, :, 0], integrate_at_times(rhs, y0[:, 0], times, cfg).states)
        for b in range(y0.shape[1]):
            solo = integrate_at_times(rhs, y0[:, b], times, cfg)
            scale = np.maximum(1.0, np.abs(solo.states))
            assert np.max(np.abs(batch.states[:, :, b] - solo.states) / scale) < 100.0 * cfg.rtol


class TestRideSamples:
    """Extrapolation steps as integrate does; each sample time inside a trial
    step rides in that trial's batch, as one column per main column stepped
    from the step's start to the sample."""

    PICTURES = [toda.CHAIN, eisenhart.EISENHART, oplift.GENERALIZED]
    CFG = IntegratorConfig(method="extrapolation", rtol=1e-10, atol=1e-12, t_final=20.0, stride=1)

    @staticmethod
    def start(rng, picture, width):
        # n = 4: the Eisenhart field's column sums keep their bits at any batch width below n = 9
        n = 4
        sys = toda.TodaSystem(n, rng.uniform(0.5, 1.5, n - 1))
        y0 = picture.random_states(rng, n, width or 1)
        return picture.flow_field(sys), y0[:, 0] if width is None else y0

    @staticmethod
    def with_midpoints(times):
        """The step ends and the midpoint of every step, so each step carries one ride."""
        out = np.empty(2 * len(times) - 1)
        out[::2] = times
        out[1::2] = 0.5 * (times[:-1] + times[1:])
        return out

    @pytest.mark.parametrize("picture", PICTURES, ids=lambda p: p.name)
    @pytest.mark.parametrize("width", [None, 10])
    def test_step_ends_are_the_steps_of_integrate_bit_for_bit(self, rng, picture, width):
        rhs, y0 = self.start(rng, picture, width)
        stepped = integrate(rhs, y0, self.CFG)
        sampled = integrate_at_times(rhs, y0, self.with_midpoints(stepped.times), self.CFG)
        assert sampled.method == "extrapolation"
        assert sampled.states[::2].tobytes() == stepped.states.tobytes()
        assert sampled.stats == stepped.stats
        # the drift check's grid: 31 samples, none of them cutting a step
        grid = integrate_at_times(rhs, y0, np.linspace(0.0, self.CFG.t_final, 31), self.CFG)
        assert grid.stats == stepped.stats
        assert grid.states[-1].tobytes() == stepped.states[-1].tobytes()

    @pytest.mark.parametrize("picture", PICTURES, ids=lambda p: p.name)
    @pytest.mark.parametrize("width", [None, 10])
    def test_each_ride_is_a_solo_step_from_its_step_start(self, rng, picture, width):
        rhs, y0 = self.start(rng, picture, width)
        stepped = integrate(rhs, y0, self.CFG)
        # two rides in every step, at a third and at nine tenths of it
        starts, ends = stepped.times[:-1], stepped.times[1:]
        inside = np.stack([starts + (ends - starts) / 3.0, starts + 0.9 * (ends - starts)], axis=1)
        times = np.concatenate([[0.0], np.column_stack([inside, ends]).reshape(-1)])
        sampled = integrate_at_times(rhs, y0, times, self.CFG)
        assert sampled.stats == stepped.stats
        for i, (t, y) in enumerate(zip(starts, stepped.states[:-1])):
            f0 = rhs(t, y)
            for r, t_s in enumerate(inside[i]):
                want, _ = _gbs_step(rhs, t, y, t_s - t, f0)
                assert sampled.states[1 + 3 * i + r].tobytes() == want.tobytes()

    @pytest.mark.parametrize("picture", PICTURES, ids=lambda p: p.name)
    @pytest.mark.parametrize("width", [None, 10])
    def test_samples_match_a_tight_dormand_prince_run(self, rng, picture, width):
        rhs, y0 = self.start(rng, picture, width)
        times = np.linspace(0.0, self.CFG.t_final, 31)
        sampled = integrate_at_times(rhs, y0, times, self.CFG)
        ref = integrate_at_times(rhs, y0, times, IntegratorConfig(method="adaptive", rtol=1e-13, atol=1e-15, t_final=20.0))
        # measured: at most 6.7e-10 (Eisenhart, one state), against 1.2e-10 for samples that cut steps
        assert np.max(np.abs(sampled.states - ref.states) / np.maximum(1.0, np.abs(ref.states))) < 1e-9

    @pytest.mark.parametrize("picture", PICTURES, ids=lambda p: p.name)
    def test_one_state_steps_like_a_single_column(self, rng, picture):
        rhs, y0 = self.start(rng, picture, None)
        times = np.linspace(0.0, self.CFG.t_final, 31)
        solo = integrate_at_times(rhs, y0, times, self.CFG)
        column = integrate_at_times(rhs, y0[:, None], times, self.CFG)
        assert column.states.shape == solo.states.shape + (1,)
        assert column.states[:, :, 0].tobytes() == solo.states.tobytes()
        assert column.stats == solo.stats

    @pytest.mark.parametrize("width", [None, 10])
    def test_stats_count_every_rhs_call(self, rng, width):
        rhs, y0 = self.start(rng, toda.CHAIN, width)
        calls = []

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        # a large first step, so that some trials are rejected
        traj = integrate_at_times(counted, y0, np.linspace(0.0, 20.0, 31), replace(self.CFG, dt=1.0))
        trials = traj.stats["accepted"] + traj.stats["rejected"]
        assert traj.stats["rejected"] > 0
        assert traj.stats["nfev"] == 1 + 11 * trials + traj.stats["accepted"] == len(calls)

    def test_non_finite_main_column_rejects_the_trial(self, rng):
        # a column that runs far off on a large step goes non-finite; the
        # trial is rejected and retried smaller, as under integrate
        rhs, y0 = self.start(rng, toda.CHAIN, 10)
        poisoned = []

        def fragile(t, y):
            out = rhs(t, y)
            far = np.abs(y).max(axis=0) > 50.0
            if far.any():
                poisoned.append(t)
                out[:, far] = np.inf
            return out

        cfg = replace(self.CFG, dt=5.0, t_final=5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = integrate(fragile, y0, cfg)
            sampled = integrate_at_times(fragile, y0, self.with_midpoints(stepped.times), cfg)
        assert poisoned and stepped.stats["rejected"] > 0
        assert sampled.stats == stepped.stats
        assert sampled.states[::2].tobytes() == stepped.states.tobytes()
        assert np.isfinite(sampled.states).all()

    def test_ride_columns_stay_out_of_the_step_decision(self, rng):
        # a ride that goes non-finite changes no decision about its step: the
        # error norm, the finiteness check and acceptance read the main columns
        rhs, y0 = self.start(rng, toda.CHAIN, None)
        cfg = replace(self.CFG, t_final=5.0)
        main_times = []

        def recorded(t, y):
            main_times.append(np.atleast_1d(t).copy())
            return rhs(t, y)

        stepped = integrate(recorded, y0, cfg)
        i = len(stepped.times) // 2
        t0, t1 = stepped.times[i], stepped.times[i + 1]
        t_s = t0 + 0.3 * (t1 - t0)
        # the first substep time of the ride's two-substep row, which no main column meets
        tau = t0 + (t_s - t0) / _GBS_SEQUENCE[0]
        assert not np.isin(tau, np.concatenate(main_times))

        def poisoned(t, y):
            out = rhs(t, y)
            if np.ndim(t):
                out[:, t == tau] = np.nan
            return out

        sampled = integrate_at_times(poisoned, y0, [0.0, t_s, cfg.t_final], cfg)
        assert sampled.stats == stepped.stats
        assert sampled.states[-1].tobytes() == stepped.states[-1].tobytes()
        assert np.isnan(sampled.states[1]).all()


class TestStepperTableau:
    """The extrapolation stepper builds its tableau once and refills it on
    every trial, whatever the trial's step and ride count."""

    SAMPLES = np.array([0.0, 0.45, 0.6, 0.7, 10.0])
    # (t, dt, rides): the samples strictly inside (t, t + dt) are the rides
    TRIALS = [(0.0, 0.3, ()), (0.4, 0.25, (0.45, 0.6)), (0.5, 0.15, (0.6,)), (0.75, 0.05, ())]

    @pytest.mark.parametrize("width", [None, 3])
    def test_trials_of_changing_rides_and_steps_are_the_row_steps(self, rng, width):
        n = 4
        rhs = toda.CHAIN.flow_field(toda.TodaSystem(n, rng.uniform(0.5, 1.5, n - 1)))
        starts = toda.CHAIN.random_states(rng, n, len(self.TRIALS) * (width or 1))
        starts = np.split(starts, len(self.TRIALS), axis=1) if width else starts.T.copy()
        stepper = _ExtrapolationStepper(rhs, starts[0], IntegratorConfig(method="extrapolation"))
        stepper.sample_at(self.SAMPLES)
        kept = []
        for (t, dt, rides), y in zip(self.TRIALS, starts):
            # a fresh state each time, so no buffer can carry the last trial's values
            stepper.t, stepper.y, stepper.k1 = t, y, rhs(t, y)
            y12, err, stages = stepper.trial(dt)
            assert stages is None
            for got, want in zip((y12, err), gbs_step_by_rows(rhs, t, y, dt, stepper.k1)):
                assert got.shape == y.shape and got.tobytes() == want.tobytes()
            results = [y12, err]
            if rides:
                assert stepper.ride_states.shape == (len(rides),) + y.shape
                for got, t_s in zip(stepper.ride_states, rides):
                    assert got.tobytes() == gbs_step_by_rows(rhs, t, y, t_s - t, stepper.k1)[0].tobytes()
                results.append(stepper.ride_states)
            kept.append([(a, a.tobytes()) for a in results])
        # no trial's results alias a buffer that a later trial refills
        assert all(a.tobytes() == data for results in kept for a, data in results)

    @pytest.mark.parametrize("samples", [None, np.linspace(0.0, 5.0, 31)], ids=["integrate", "at_times"])
    def test_stepper_is_freed_on_return(self, monkeypatch, samples):
        # no reference cycle: the stepper goes with its last reference, without the cycle collector
        refs = []

        class Recorded(_ExtrapolationStepper):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setitem(_STEPPERS, "extrapolation", Recorded)
        cfg = IntegratorConfig(method="extrapolation", rtol=1e-10, atol=1e-12, t_final=5.0)
        gc.disable()
        try:
            if samples is None:
                traj = integrate(one_dof_rhs, [0.0, 0.0], cfg)
            else:
                traj = integrate_at_times(one_dof_rhs, [0.0, 0.0], samples, cfg)
            assert traj.stats["accepted"] > 0 and len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("method", ["adaptive", "rk4", "extrapolation"])
def test_no_step_reports_zero_step_sizes(method):
    traj = integrate_at_times(one_dof_rhs, [0.0, 0.0], [0.0], IntegratorConfig(method=method))
    assert traj.stats["accepted"] == 0
    assert traj.stats["dt_min"] == traj.stats["dt_max"] == 0.0


class TestSampleTimeValidation:
    @pytest.mark.parametrize(
        "times",
        [[0.0, float("nan"), 1.0], [0.0, float("inf")], [0.0, 1.0, float("nan")], [[0.0, 1.0]], []],
        ids=["nan", "inf", "trailing-nan", "2-D", "empty"],
    )
    @pytest.mark.parametrize("method", ["adaptive", "rk4", "extrapolation"])
    def test_rejected(self, times, method):
        with pytest.raises(DomainError):
            integrate_at_times(one_dof_rhs, [0.0, 0.0], times, IntegratorConfig(method=method, t_final=1.0))


class TestStrideValidation:
    @pytest.mark.parametrize("stride", [2.5, 1.0, True, False, "3", 0, -2, np.float64(2.0)])
    def test_rejected(self, stride):
        with pytest.raises(DomainError):
            IntegratorConfig(stride=stride)

    def test_numpy_integer_accepted(self):
        cfg = IntegratorConfig(method="rk4", dt=0.1, t_final=1.0, stride=np.int64(5))
        traj = integrate(lambda t, y: np.array([1.0]), [0.0], cfg)
        assert np.allclose(traj.times, [0.0, 0.5, 1.0], rtol=0.0, atol=1e-15)


class TestScalarValidation:
    NAMES = ["dt", "rtol", "atol", "t_final"]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "value",
        [True, False, float("inf"), float("-inf"), float("nan"), 0.0, -1e-3, "1e-10", "x", [1e-3], 1e-3 + 0j],
        ids=["true", "false", "inf", "-inf", "nan", "zero", "negative", "numeric-string", "string", "list", "complex"],
    )
    def test_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            IntegratorConfig(**{name: value})

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1], ids=["f64", "f32", "i64", "int"])
    def test_real_numbers_are_stored_as_floats(self, name, value):
        got = getattr(IntegratorConfig(**{name: value}), name)
        assert type(got) is float and got == value


class TestDefaultMethod:
    """With no method, integrate runs extrapolation below rtol 1e-10 and
    Dormand-Prince otherwise; integrate_at_times always runs Dormand-Prince."""

    PICTURES = ["chain", "eisenhart", "generalized"]

    @staticmethod
    def start(rng, picture):
        n = 4
        q = rng.uniform(-1.0, 1.0, n)
        q -= q.mean()
        p = rng.uniform(-0.5, 0.5, n)
        g = rng.uniform(0.5, 1.5, n - 1)
        sys = toda.TodaSystem(n, g)
        if picture == "chain":
            return toda.CHAIN, sys, toda.PhaseState(q=q, p=p)
        if picture == "eisenhart":
            return eisenhart.EISENHART, sys, eisenhart.EisenhartState(q=q, y=0.3, p=p, p_y=0.8)
        state = oplift.OPState(q=q, omega=rng.uniform(-1.0, 1.0, n - 1), p_q=p, p_omega=g)
        return oplift.GENERALIZED, sys, state

    @staticmethod
    def assert_identical(got, want):
        assert got.method == want.method
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)
        assert got.stats == want.stats
        assert got.drift == want.drift

    @pytest.mark.parametrize("picture", PICTURES)
    @pytest.mark.parametrize(
        "rtol, chosen", [(1e-12, "extrapolation"), (1e-10, "adaptive"), (1e-8, "adaptive")]
    )
    def test_integrate_chooses_by_rtol(self, rng, picture, rtol, chosen):
        record, sys, state = self.start(rng, picture)
        cfg = IntegratorConfig(rtol=rtol, atol=1e-2 * rtol, t_final=5.0, stride=3)
        default = record.run(sys, state, cfg)
        assert default.method == chosen
        self.assert_identical(default, record.run(sys, state, replace(cfg, method=chosen)))

    @pytest.mark.parametrize("picture", PICTURES)
    def test_integrate_at_times_keeps_dormand_prince(self, rng, picture):
        record, sys, state = self.start(rng, picture)
        rhs, y0 = record.flow_field(sys), record.pack(state)
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, t_final=5.0)
        times = np.linspace(0.0, 5.0, 6)
        default = integrate_at_times(rhs, y0, times, cfg)
        assert default.method == "adaptive"
        self.assert_identical(default, integrate_at_times(rhs, y0, times, replace(cfg, method="adaptive")))

    def test_overflowing_step_count_still_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            IntegratorConfig(t_final=1e308)
        # unset, the check uses the smallest start step the config can run with
        with pytest.raises(DomainError, match="overflows"):
            IntegratorConfig(t_final=1e306)
        assert IntegratorConfig(method="extrapolation", t_final=1e306).dt is None

    def test_step_baseline_config_stays_on_dormand_prince(self, rng):
        # the per-step timing config of the benchmark's layer baselines
        record, sys, state = self.start(rng, "chain")
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10**9)
        traj = record.run(sys, state, cfg)
        assert traj.method == "adaptive"
        assert traj.stats["nfev"] == 1 + 6 * (traj.stats["accepted"] + traj.stats["rejected"])

    def test_method_is_not_a_stat(self):
        traj = integrate(one_dof_rhs, [0.0, 0.0], IntegratorConfig(method="rk4", t_final=0.01))
        assert traj.method == "rk4"
        assert set(traj.stats) == {"nfev", "accepted", "rejected", "dt_min", "dt_max"}
