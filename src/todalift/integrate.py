"""First-order ODE integration: fixed-step RK4, an adaptive 5(4) pair and
adaptive order-12 extrapolation.

The adaptive method ("adaptive") is the Dormand-Prince embedded pair with
the standard step controller (safety 0.9, growth clamped to [0.2, 5.0]).
"extrapolation" is a Gragg-Bulirsch-Stoer method (Hairer, Norsett & Wanner,
Solving ODEs I, II.9): Gragg's modified midpoint rule with 2, 4, ..., 12
substeps and Aitken-Neville extrapolation in the squared substep, order 12,
under the same controller with exponent 1/11.  The six rows of a trial
step are independent, so substep m of every row still substepping is one
right-hand-side call on the batch of their states: eleven calls per trial
step, plus one at each accepted state.  It takes far fewer right-hand-side
evaluations than Dormand-Prince at tight tolerances.  Its steps are long,
so integrate's stride output from it is sparse; integrate_at_times samples
it anywhere (below).  The last step is always shortened to land exactly on
the requested end time.

When the config names no method, the integrator chooses one.  integrate
runs extrapolation when rtol < 1e-10, where it needs about a third of
Dormand-Prince's evaluations, and Dormand-Prince otherwise, so the default
rtol of 1e-10 keeps Dormand-Prince.  integrate_at_times always runs
Dormand-Prince.  The returned trajectory's method names the stepper that
ran.

integrate_at_times samples the solution at given times.  Dormand-Prince
steps straight through them to the last one and evaluates its order-4
continuous extension (Hairer, Norsett & Wanner, II.6; the dense output of
DOPRI5), built from the seven stages of the step that contains each sample,
at no extra right-hand-side evaluation; a sample on a step end is that
step's state.  Extrapolation also steps exactly as integrate does: each
sample time t_s strictly inside a trial step (t, t + dt) adds one ride
column per state column to that trial's batch, started from the column's
state at t and stepped by t_s - t.  The rides go through the same eleven
batched calls, so they cost wider batches and no extra call; the error
norm, the finiteness check and the accept/reject decision read the main
columns alone, and on acceptance the rides are the samples.  RK4 has
neither: it shortens a step to land on every sample time.  Conserved
quantities are monitored at the recorded samples: each monitor is called
once, on the (samples, d) array of recorded states, and returns one value
per sample.  Their relative drift is recorded on the returned trajectory.

A state is a vector of shape (d,) or a component-first batch of shape
(d, B) whose columns advance together on one step sequence.  The step error
norm is the largest per-column RMS, so no column is held to a looser
tolerance than it would be alone, and a (d,) vector steps exactly like the
same start passed as a (d, 1) column.

The right-hand side rhs(t, y) is called with the state's own shape and a
float t, and, under extrapolation, also with a (d, C) batch of columns and
a (C,) array holding each column's time: the substep states of the rows
still substepping, C = rows x B, or rows x B x (1 + rides) under
integrate_at_times.  rhs must return an array of y's shape and
must not write into y.  The t and y handed to rhs may be views into the
stepper's buffers, which later calls overwrite: the extrapolation stepper
builds its tableau once per run and refills it on every trial step, so an
rhs must copy what it keeps.  Every call counts once in a trajectory's
nfev, whatever its batch width.

Fixed-step RK4 places its steps on the grid t0 + i*dt, with the last step
shortened to land on the requested time.

Everything here is deterministic: identical inputs produce bit-identical
trajectories.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "rk4_step",
    "integrate",
    "integrate_at_times",
    "checked_sample_times",
    "monitor_drift",
]

# rhs(t, y) -> dy/dt of y's shape; t is a float, or a (C,) array of column times for a (d, C) y
Rhs = Callable[[float | np.ndarray, np.ndarray], np.ndarray]
Monitor = Callable[[np.ndarray], np.ndarray]  # states (samples, d) -> values (samples,)

# Dormand-Prince 5(4) tableau.  The fifth-order result is propagated; the
# difference row gives the embedded fourth-order error estimate.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Stage weights of the fifth coefficient of the continuous extension (the
# d_i of DOPRI5's dense output).
_DP_DENSE = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])

# Substep counts of the extrapolation tableau's rows; the first row still
# substepping at substep m = 1, 2, ..., 11 (row j takes substeps 1..n_j - 1);
# and, for column k = 1..5, the Aitken-Neville weights
# 1 / ((n_j / n_{j-k})^2 - 1) of rows j = k..5.
_GBS_SEQUENCE = (2, 4, 6, 8, 10, 12)
_GBS_SUBSTEPS, _GBS_ROWS = np.array(_GBS_SEQUENCE), np.arange(len(_GBS_SEQUENCE))
_GBS_SUBSTEPS_GRID = _GBS_SUBSTEPS[:, None, None]
_GBS_STEP_INDEX = np.arange(_GBS_SEQUENCE[-1], dtype=float)[:, None]
_GBS_FIRST_ROW = tuple(
    next(j for j, n in enumerate(_GBS_SEQUENCE) if n > m) for m in range(1, _GBS_SEQUENCE[-1])
)
_GBS_WEIGHTS = tuple(
    np.array([1.0 / ((n / _GBS_SEQUENCE[j - k]) ** 2 - 1.0) for j, n in enumerate(_GBS_SEQUENCE) if j >= k])[:, None, None]
    for k in range(1, len(_GBS_SEQUENCE))
)

_MIN_STEP_FRACTION = 1e-14
# integrate runs extrapolation below this rtol when the config names no method
_EXTRAPOLATION_RTOL = 1e-10
_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROWTH_LIMIT = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate`.

    method is "adaptive" (Dormand-Prince), "extrapolation" (order-12
    Gragg-Bulirsch-Stoer, for tight tolerances; its rhs must also take a (d, C)
    batch with a (C,) array of column times, and integrate_at_times takes
    its samples as ride columns of the trial batches, see the module
    docstring), "rk4" or None.  None lets the integrator choose: integrate
    runs extrapolation when rtol < 1e-10, where it is the cheaper method,
    and Dormand-Prince otherwise; integrate_at_times always runs
    Dormand-Prince.  dt is the fixed step for rk4 and the initial trial step
    for the adaptive methods; unset, the stepper that runs starts at 1e-3,
    or at 0.1 for extrapolation, whose error estimate is roundoff at small
    steps, so that the controller grows dt only about 2x per step from a
    small start.
    stride decimates the output: every stride-th accepted step is recorded
    (the endpoints always are).  dt, rtol, atol and t_final are finite
    positive reals, not bools, and are stored as floats; t_final / dt must
    be finite for every start step the config can run with.
    """

    method: str | None = None
    dt: float | None = None
    rtol: float = 1e-10
    atol: float = 1e-12
    t_final: float = 10.0
    stride: int = 10

    def __post_init__(self):
        # a tuple, not the dict: an unhashable method is a DomainError too
        if self.method not in (None, *_STEPPERS):
            raise DomainError(f"unknown integration method {self.method!r}")
        for name in ("dt", "rtol", "atol", "t_final"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            try:
                ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and 0.0 < float(value) < math.inf
            except OverflowError:  # an integer beyond the float range
                ok = False
            if not ok:
                raise DomainError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        # an unset dt is the default of the stepper that runs; without a
        # method, the smallest default any stepper has
        dt = self.dt
        if dt is None:
            dt = (_STEPPERS[self.method] if self.method else _Stepper).default_dt
        if not math.isfinite(self.t_final / dt):
            raise DomainError(f"t_final / dt overflows: {self.t_final} / {dt}")
        if isinstance(self.stride, bool) or not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise DomainError(f"stride must be an integer >= 1, got {self.stride!r}")


@dataclass
class Trajectory:
    """Sampled solution plus monitored conserved quantities.

    drift maps each monitor name to max over samples of
    |m(t) - m(0)| / max(1, |m(0)|).  stats records the integrator's work:
    nfev right-hand-side calls (a batched call counts once), accepted and
    rejected steps, and the smallest and largest accepted step, dt_min and
    dt_max (0.0 when no step was taken).  method names the stepper that ran
    ("adaptive", "extrapolation" or "rk4"); it is None on a trajectory
    built by hand.
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)
    drift: dict[str, float] = field(default_factory=dict)
    labels: tuple[str, ...] | None = None
    stats: dict[str, float] = field(default_factory=dict)
    method: str | None = None

    def __len__(self) -> int:
        return len(self.times)


def monitor_drift(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return 0.0
    ref = values[0]
    return float(np.max(np.abs(values - ref)) / max(1.0, abs(ref)))


def rk4_step(rhs: Rhs, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step."""
    if not (dt > 0.0):
        raise DomainError("rk4 step size must be positive")
    y = np.asarray(y, dtype=float)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"rk4 produced a non-finite state at t={t}")
    return out


def _rk4_grid(t0: float, t1: float, dt: float):
    """Step ends t0 + i*dt for i = 1, 2, ..., the last one moved onto t1.

    Each point is built from t0 rather than by summing steps, so rounding
    cannot add a sliver step at the end; a remainder below 1e-9 dt is
    absorbed into the last step.
    """
    nsteps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    return (t1 if i == nsteps else t0 + i * dt for i in range(1, nsteps + 1))


def _dp54_step(rhs: Rhs, t: float, y: np.ndarray, dt: float, k1: np.ndarray):
    """One trial Dormand-Prince step: returns (y5, error_estimate, stages).

    The stages k have shape (7,) + y.shape; k[6] is rhs at y5.  A batch of
    shape (d, B) is combined through a flat (7, d B) view, so it costs one
    vector-matrix product per stage like a vector.
    """
    k = np.empty((7,) + y.shape)
    k[0] = k1
    batch = y.ndim > 1
    flat, yflat = (k.reshape(7, -1), y.reshape(-1)) if batch else (k, y)
    h = np.array(dt)  # numpy scales by a 0-d array faster than by a Python float
    for i, row in enumerate(_DP_A, 1):
        z = row @ flat[:i]
        z *= h
        z += yflat
        k[i] = rhs(t + _DP_C[i] * dt, z.reshape(y.shape) if batch else z)
    y5 = _DP_B5 @ flat
    y5 *= h
    y5 += yflat
    err = _DP_ERR @ flat
    err *= h
    return (y5.reshape(y.shape), err.reshape(y.shape), k) if batch else (y5, err, k)


class _Tableau:
    """The buffers of Gragg-Bulirsch-Stoer trial steps on one batch shape.

    The batch is `groups` copies of a (d, width) state: column g width + b
    is start column b stepped by the g-th step (groups > 1 only for ride
    columns, see _ExtrapolationStepper.trial).  Column j groups width + c of
    a substep batch is tableau row j's state from column c.  Everything here
    depends on the shape alone, so it is built once and every trial step of
    that shape refills it in place.
    """

    def __init__(self, d: int, groups: int, width: int):
        rows = len(_GBS_SEQUENCE)
        columns = groups * width
        self.groups = groups
        self.h = np.empty((rows, groups, width))  # h[j, g, b] = step_g / n_j
        self.h_cols = self.h.reshape(-1)
        self.two_h = np.empty_like(self.h_cols)
        self.times = np.empty((_GBS_SEQUENCE[-1], rows * columns))  # times[m] = t + m h_j per column
        # zs[m] is every row's state after m substeps, a (d, rows columns) batch
        self.zs = np.empty((_GBS_SEQUENCE[-1] + 1, d, rows * columns))
        self.start = self.zs[0].reshape(d, rows, groups, width)
        self.first = self.zs[1].reshape(self.start.shape)
        # each row's end value zs[n_j, :, j] is read through this view
        self.ends = self.zs.reshape(len(self.zs), d, rows, columns)
        # (z_{m+1}, z_m, z_{m-1}, t_m, 2 h) over the rows still substepping at m
        self.substeps = []
        for m, first in enumerate(_GBS_FIRST_ROW, 1):
            active = slice(first * columns, None)
            zs = self.zs[:, :, active]
            self.substeps.append((zs[m + 1], zs[m], zs[m - 1], self.times[m, active], self.two_h[active]))

    def step(self, rhs: Rhs, t: float, y: np.ndarray, steps, f0: np.ndarray):
        """(y12, error_estimate), each (d, groups width), of one trial step
        from the (d,) or (d, width) state y with f0 = rhs(t, y); steps
        broadcasts against (groups, width)."""
        d = len(y)
        np.divide(steps, _GBS_SUBSTEPS_GRID, out=self.h)
        np.add(self.h_cols, self.h_cols, out=self.two_h)
        np.multiply(_GBS_STEP_INDEX, self.h_cols, out=self.times)
        self.times += t  # t + m h_j: addition commutes, so in place keeps its bits
        self.start[...] = y.reshape(d, 1, 1, -1)
        np.multiply(f0.reshape(d, 1, 1, -1), self.h, out=self.first)
        self.first += self.start
        for z_next, z, z_prev, t_m, two_h in self.substeps:
            np.multiply(rhs(t_m, z), two_h, out=z_next)
            z_next += z_prev
        # Aitken-Neville, one tableau column at a time over all its rows,
        # on a fresh array, so no result aliases the buffers
        column = self.ends[_GBS_SUBSTEPS, :, _GBS_ROWS]
        for weights in _GBS_WEIGHTS:
            prev = column
            column = prev[1:] - prev[:-1]
            column *= weights
            column += prev[1:]
        return column[0], column[0] - prev[-1]


def _gbs_step(rhs: Rhs, t: float, y: np.ndarray, dt, f0: np.ndarray):
    """One trial Gragg-Bulirsch-Stoer step: returns (y12, error_estimate).

    Row j of the tableau is Gragg's modified midpoint rule over dt with
    n_j = _GBS_SEQUENCE[j] substeps of h_j = dt / n_j, evaluating rhs at the
    true substep times; f0 = rhs(t, y) is shared by every row.  The rows do
    not depend on each other, so substep m of every row still substepping
    (n_j > m) is one rhs call on the (d, C) batch of their states, with the
    (C,) array of their times t + m h_j: eleven calls per trial step.  Each
    column meets the same arithmetic as a row run on its own.  The error
    estimate is the difference of the last two extrapolated values (orders
    12 and 10).  dt is one step for every column or, for a (d, B) batch, a
    (B,) array of per-column steps; either way h_j = dt_b / n_j is one
    division, so a column's bits do not depend on the steps beside it.
    The stepper runs the same _Tableau, built once per run.
    """
    d = len(y)
    y12, err = _Tableau(d, 1, y.size // d).step(rhs, t, y, dt, f0)
    return y12.reshape(y.shape), err.reshape(y.shape)


class _Stepper:
    """The current (t, y) of an integration and a record of its accepted steps."""

    method: str  # the IntegratorConfig.method that selects this stepper
    # whether interpolate() can evaluate the solution inside the last accepted step
    dense = False
    # the fixed or initial trial step when the config leaves dt unset
    default_dt = 1e-3

    def __init__(self, rhs: Rhs, y0: np.ndarray, cfg: IntegratorConfig):
        self.rhs = rhs
        self.cfg = cfg
        self.t = 0.0
        self.y = np.asarray(y0, dtype=float)
        self.dt = self.default_dt if cfg.dt is None else cfg.dt
        self.accepted = 0
        self.rejected = 0
        self.dt_min = math.inf
        self.dt_max = 0.0

    def nfev(self) -> int:
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        return {
            "nfev": self.nfev(),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dt_min": self.dt_min if self.accepted else 0.0,
            "dt_max": self.dt_max,
        }

    def _count(self, dt: float) -> None:
        self.accepted += 1
        self.dt_min = min(self.dt_min, dt)
        self.dt_max = max(self.dt_max, dt)


class _AdaptiveStepper(_Stepper):
    """Advances a Dormand-Prince integration to requested target times."""

    method = "adaptive"
    # the step controller scales dt by err ** exponent; the error estimate is O(dt^5)
    exponent = -0.2
    dense = True

    def __init__(self, rhs: Rhs, y0: np.ndarray, cfg: IntegratorConfig):
        super().__init__(rhs, y0, cfg)
        if not np.all(np.isfinite(self.y)):
            raise DivergenceError("initial state is not finite")
        self.k1 = rhs(0.0, self.y)
        if not np.all(np.isfinite(self.k1)):
            raise DivergenceError("derivative is not finite at the initial state")
        # the last accepted step: its start, its size and its stages
        self.t_prev = self.y_prev = self.step = self.stages = None

    def nfev(self) -> int:
        # one evaluation at the start, then six per trial step (the seventh
        # stage is reused as the next step's first)
        return 1 + 6 * (self.accepted + self.rejected)

    def sample_at(self, sample_times: np.ndarray) -> None:
        """Prepare to sample at sample_times; the continuous extension needs nothing."""

    def trial(self, dt: float):
        """(new state, error estimate, stages) of one trial step.

        The stages may be None; rhs at the new state is then evaluated on
        acceptance.  Otherwise their last entry is that value.
        """
        return _dp54_step(self.rhs, self.t, self.y, dt, self.k1)

    def interpolate(self, times: np.ndarray) -> np.ndarray:
        """States at times inside the last accepted step, shape (len(times),) + y.shape.

        The continuous extension of DOPRI5: with theta = (t - t_prev) / h,
        y(t) = y0 + theta (dy + (1 - theta) (r3 + theta (r4 + (1 - theta) r5))),
        where dy = y1 - y0, r3 = h k1 - dy, r4 = dy - h k7 - r3 and
        r5 = h sum_i d_i k_i.
        """
        h = self.step
        flat = self.stages.reshape(7, -1)
        y0 = self.y_prev.reshape(-1)
        dy = self.y.reshape(-1) - y0
        r3 = h * flat[0] - dy
        r4 = dy - h * flat[6] - r3
        r5 = h * (_DP_DENSE @ flat)
        theta = ((times - self.t_prev) / h)[:, None]
        theta1 = 1.0 - theta
        out = y0 + theta * (dy + theta1 * (r3 + theta * (r4 + theta1 * r5)))
        return out.reshape((len(theta),) + self.y.shape)

    def advance_to(self, t_target: float, on_accept=None) -> None:
        rtol, atol = np.array(self.cfg.rtol), np.array(self.cfg.atol)  # 0-d: cheaper operands than floats
        min_step = _MIN_STEP_FRACTION * max(t_target, self.cfg.t_final)
        abs_y = np.abs(self.y)  # kept for the accepted state, shared by its trial steps
        while self.t < t_target:
            dt = min(self.dt, t_target - self.t)
            if dt < min_step:
                raise StiffnessError(f"step underflow at t={self.t}: dt={dt}")
            y_new, err_vec, stages = self.trial(dt)
            if not np.isfinite(y_new).all():
                # treat an overflowing trial step as rejected and retry smaller
                self.rejected += 1
                self.dt = dt * _SHRINK_LIMIT
                continue
            # (err / tol)^2 with tol = atol + rtol max(|y|, |y_new|), in one buffer
            abs_new = np.abs(y_new)
            scaled = np.maximum(abs_y, abs_new)
            scaled *= rtol
            scaled += atol
            np.divide(err_vec, scaled, out=scaled)
            scaled *= scaled
            # RMS over each column's components; a batch steps by its worst column
            total = np.add.reduce(scaled, axis=0)
            err = math.sqrt(float(total.max() if scaled.ndim > 1 else total) / len(scaled))
            if err <= 1.0:
                self.t_prev, self.y_prev, self.step, self.stages = self.t, self.y, dt, stages
                self.t = self.t + dt
                self.y = y_new
                abs_y = abs_new
                self.k1 = self.rhs(self.t, y_new) if stages is None else stages[6]
                self._count(dt)
                if on_accept is not None:
                    on_accept(self.t, self.y)
            else:
                self.rejected += 1
            factor = _GROWTH_LIMIT if err == 0.0 else _SAFETY * err ** self.exponent
            self.dt = dt * min(_GROWTH_LIMIT, max(_SHRINK_LIMIT, factor))


class _ExtrapolationStepper(_AdaptiveStepper):
    """Advances a Gragg-Bulirsch-Stoer integration to requested target times."""

    method = "extrapolation"
    # the error estimate is the order-10 value's, O(dt^11)
    exponent = -1.0 / 11.0
    # the error estimate is roundoff at small steps, so start large
    default_dt = 0.1

    def __init__(self, rhs: Rhs, y0: np.ndarray, cfg: IntegratorConfig):
        super().__init__(rhs, y0, cfg)
        self.sample_times = None
        # the tableau of plain trials, kept for the run, and that of the
        # latest ride count, kept until the count changes; built when first needed
        self.tableau = self.ride_tableau = None

    def nfev(self) -> int:
        # one call at the start, one per substep index per trial step (rhs at
        # the step's start is shared by the six rows) and one at each
        # accepted state
        return 1 + len(_GBS_FIRST_ROW) * (self.accepted + self.rejected) + self.accepted

    def sample_at(self, sample_times: np.ndarray) -> None:
        """Make every later trial step also take the sample times strictly
        inside it, as ride columns of its batch; interpolate returns them."""
        self.sample_times = sample_times

    def trial(self, dt: float):
        """(new state, error estimate, None) of one trial step.

        Once sample_at has run, the batch also holds, for each sample time
        t_s in (t, t + dt), one ride column per main column: that column's
        start, stepped by t_s - t.  Only the main columns' new state and
        error estimate are returned, so the error norm, the finiteness check
        and the accept/reject decision never see a ride.
        """
        t, y = self.t, self.y
        d = len(y)
        width = y.size // d  # B, or 1 for one state
        rides = ()
        if self.sample_times is not None:
            lo = np.searchsorted(self.sample_times, t, side="right")
            hi = np.searchsorted(self.sample_times, t + dt, side="left")
            rides = self.sample_times[lo:hi] - t
        if not len(rides):
            if self.tableau is None:
                self.tableau = _Tableau(d, 1, width)
            y12, err = self.tableau.step(self.rhs, t, y, dt, self.k1)
            return y12.reshape(y.shape), err.reshape(y.shape), None
        # group 0 is the main step, group s ride s
        groups = 1 + len(rides)
        if self.ride_tableau is None or self.ride_tableau.groups != groups:
            self.ride_tableau = _Tableau(d, groups, width)
        steps = np.concatenate(([dt], rides))[:, None]
        y12, err = self.ride_tableau.step(self.rhs, t, y, steps, self.k1)
        self.ride_states = y12[:, width:].reshape(d, len(rides), width).transpose(1, 0, 2).reshape(rides.shape + y.shape)
        return y12[:, :width].reshape(y.shape), err[:, :width].reshape(y.shape), None

    def interpolate(self, times: np.ndarray) -> np.ndarray:
        """States at the sample times inside the last accepted step, shape
        (len(times),) + y.shape: the ride columns of that step's trial."""
        return self.ride_states


class _RK4Stepper(_Stepper):
    """Advances fixed-step RK4 to requested target times, on the grid
    t + i*dt of each segment (see _rk4_grid)."""

    method = "rk4"

    def nfev(self) -> int:
        return 4 * self.accepted

    def advance_to(self, t_target: float, on_accept=None) -> None:
        for t_next in _rk4_grid(self.t, t_target, self.dt):
            dt = t_next - self.t
            self.y = rk4_step(self.rhs, self.y, self.t, dt)
            self.t = t_next
            self._count(dt)
            if on_accept is not None:
                on_accept(self.t, self.y)


_STEPPERS = {cls.method: cls for cls in (_RK4Stepper, _AdaptiveStepper, _ExtrapolationStepper)}


def _finish(times, states, monitors_spec, labels, stepper):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    monitors: dict[str, np.ndarray] = {}
    drift: dict[str, float] = {}
    for name, fn in (monitors_spec or {}).items():
        vals = np.asarray(fn(states), dtype=float)
        if vals.shape != times.shape:
            raise DomainError(f"monitor {name!r} returned shape {vals.shape}, expected {times.shape}")
        monitors[name] = vals
        drift[name] = monitor_drift(vals)
    return Trajectory(
        times=times, states=states, monitors=monitors, drift=drift, labels=labels,
        stats=stepper.stats(), method=stepper.method,
    )


def integrate(
    rhs: Rhs,
    y0,
    cfg: IntegratorConfig,
    monitors: dict[str, Monitor] | None = None,
    labels: tuple[str, ...] | None = None,
) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t=0 to cfg.t_final.

    y0 is one state of shape (d,) or a batch of shape (d, B), and the
    recorded states have shape (samples, d) or (samples, d, B).  Output
    contains the initial state, every stride-th accepted step and the final
    state exactly at t_final.  Each monitor is called once, on the array of
    recorded states, after the integration.  Without cfg.method, the run is
    extrapolation when cfg.rtol < 1e-10 and Dormand-Prince otherwise.
    """
    y0 = np.asarray(y0, dtype=float)
    times = [0.0]
    states = [y0.copy()]
    method = cfg.method or ("extrapolation" if cfg.rtol < _EXTRAPOLATION_RTOL else "adaptive")
    stepper = _STEPPERS[method](rhs, y0, cfg)

    def record(t, y):
        if stepper.accepted % cfg.stride == 0:
            times.append(t)
            states.append(y.copy())

    stepper.advance_to(cfg.t_final, on_accept=record)
    if times[-1] != stepper.t:
        times.append(stepper.t)
        states.append(stepper.y.copy())
    return _finish(times, states, monitors, labels, stepper)


def checked_sample_times(sample_times) -> np.ndarray:
    """The sample times as a float array; raise unless finite, 1-D, non-empty, from 0 and strictly increasing."""
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.ndim != 1 or len(sample_times) == 0:
        raise DomainError(f"sample_times must be a non-empty 1-D array, got shape {sample_times.shape}")
    if not np.all(np.isfinite(sample_times)):
        raise DomainError("sample_times must be finite")
    if sample_times[0] != 0.0:
        raise DomainError("sample_times must start at 0")
    if np.any(np.diff(sample_times) <= 0.0):
        raise DomainError("sample_times must be strictly increasing")
    return sample_times


def integrate_at_times(
    rhs: Rhs,
    y0,
    sample_times,
    cfg: IntegratorConfig,
    monitors: dict[str, Monitor] | None = None,
    labels: tuple[str, ...] | None = None,
) -> Trajectory:
    """Integrate recording the state at the given increasing times.

    The first sample time must be 0.  Useful for comparing formulations on a
    common grid and for co-evolving auxiliary quantities along a previously
    computed trajectory.  Dormand-Prince steps straight to the last sample
    and interpolates the samples inside its steps; extrapolation steps
    straight there too and takes those samples as ride columns of its trial
    batches; RK4 shortens a step to land on each sample.  Without
    cfg.method, the run is Dormand-Prince.
    """
    sample_times = checked_sample_times(sample_times)
    y0 = np.asarray(y0, dtype=float)
    states = np.empty(sample_times.shape + y0.shape)
    states[0] = y0
    stepper = _STEPPERS[cfg.method or "adaptive"](rhs, y0, cfg)
    if stepper.dense:
        stepper.sample_at(sample_times)
        done = 1

        def record(t, y):
            # the samples in (t_prev, t]: interpolated inside, copied at t
            nonlocal done
            if sample_times[done] > t:
                return
            end = done + int(np.searchsorted(sample_times[done:], t, side="right"))
            inside = end - 1 if sample_times[end - 1] == t else end
            if inside > done:
                states[done:inside] = stepper.interpolate(sample_times[done:inside])
            if inside < end:
                states[inside] = y
            done = end

        stepper.advance_to(sample_times[-1], on_accept=record)
    else:
        for i, target in enumerate(sample_times[1:], 1):
            stepper.advance_to(target)
            states[i] = stepper.y
    return _finish(sample_times, states, monitors, labels, stepper)
