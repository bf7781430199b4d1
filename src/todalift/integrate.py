"""First-order ODE integration: an adaptive 5(4) pair and adaptive order-12
extrapolation.

The adaptive method ("adaptive") is the Dormand-Prince embedded pair with
the standard step controller (safety 0.9, growth clamped to [0.2, 5.0]).
The fifth-order state y5 is the seventh stage's state, and rhs there is
the next step's first stage (first same as last), so a trial step makes six
right-hand-side calls and no combination for y5 of its own; a non-finite
seventh stage makes the error estimate non-finite, which rejects the trial.
"extrapolation" is a Gragg-Bulirsch-Stoer method (Hairer, Norsett & Wanner,
Solving ODEs I, II.9): Gragg's modified midpoint rule with 2, 4, ..., 12
substeps and Aitken-Neville extrapolation in the squared substep, order 12,
under the same controller with exponent 1/11.  The six rows of a trial
step are independent, so substep m of every row still substepping is one
right-hand-side call on the batch of their states: eleven calls per trial
step, plus one at each accepted state.  It takes far fewer right-hand-side
evaluations than Dormand-Prince at tight tolerances.  The last step is
always shortened to land exactly on the last sample time.

When the config names no method, one rule picks the stepper: extrapolation
when rtol < 1e-10, where it needs about a third of Dormand-Prince's
evaluations, and Dormand-Prince otherwise, so the default rtol of 1e-10
keeps Dormand-Prince.  The returned trajectory's method names the stepper
that ran.

Every run samples the solution at given times: integrate at grid_times(cfg),
every stride-th point of the 201-point grid over [0, t_final] and t_final,
integrate_at_times at the caller's.  The rows of a run are its sample times,
whichever stepper ran.  Dormand-Prince steps straight through them to the
last one, keeping the start, end and seven stages of each step that contains
samples.  After the last step it evaluates its order-4 continuous extension
(Hairer, Norsett & Wanner, II.6; the dense output of DOPRI5) once over all
kept steps, at no extra right-hand-side evaluation, with the bits of one
step's own evaluation; a sample on a step end is that step's state.
Extrapolation also steps straight through them: each sample time t_s
strictly inside a trial step (t, t + dt) adds one ride column per state
column to that trial's batch, started from the column's state at t and
stepped by t_s - t.  The rides go through the same eleven batched calls, so
they cost wider batches and no extra call; the error norm, the finiteness
check and the accept/reject decision read the main columns alone, and on
acceptance the rides are the samples.  Conserved quantities are monitored
at the samples: each monitor is called once, on the (samples, d) array of
sampled states, and returns one value per sample.  Their relative drift is
recorded on the returned trajectory.

A state is a vector of shape (d,) or a component-first batch of shape
(d, B) whose columns advance together on one step sequence.  The step error
norm is the largest per-column RMS, so no column is held to a looser
tolerance than it would be alone, and a (d,) vector steps exactly like the
same start passed as a (d, 1) column.

The right-hand side rhs(t, y) is called with the state's own shape and a
float t, and, under extrapolation, also with a (d, C) batch of columns and
a (C,) array holding each column's time: the substep states of the rows
still substepping, C = rows x B, or rows x B x (1 + rides) on a trial step
with samples inside.  That batch is always a C-contiguous (d, C) array.
rhs must return an array of y's shape and must not write into y.  The t
and y handed to rhs may be the stepper's own buffers or views into them,
which later calls overwrite: the extrapolation stepper builds its tableau
once per run and refills it on every trial step, so an rhs must copy what
it keeps.  Every call counts once in a trajectory's nfev, whatever its
batch width.

Everything here is deterministic: identical inputs produce bit-identical
trajectories.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "integrate_at_times",
    "grid_times",
    "checked_sample_times",
    "monitor_drift",
    "relative_drift",
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
    # the fifth-order weights b_i (b_7 = 0): the seventh stage's state is y5 (FSAL)
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# (a_i, i, c_i) of stages 2..7: stage i + 1 evaluates rhs at y + h a_i . (k_1..k_i)
_DP_STAGES = tuple((row, i, _DP_C[i]) for i, row in enumerate(_DP_A, 1))
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Stage weights of the fifth coefficient of the continuous extension (the
# d_i of DOPRI5's dense output).
_DP_DENSE = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])

# Substep counts of the extrapolation tableau's rows (row j takes substeps
# 1..n_j - 1); the first row with n_j >= m, m = 0, 1, ..., 12, whose state
# after m substeps is kept (so _GBS_HELD[m + 1] is the first row still
# substepping at substep m); and, for column k = 1..5, the Aitken-Neville
# weights 1 / ((n_j / n_{j-k})^2 - 1) of rows j = k..5.
_GBS_SEQUENCE = (2, 4, 6, 8, 10, 12)
_GBS_SUBSTEPS_GRID = np.array(_GBS_SEQUENCE)[:, None, None]
_GBS_STEP_INDEX = np.arange(_GBS_SEQUENCE[-1], dtype=float)[:, None]
_GBS_HELD = tuple(
    next(j for j, n in enumerate(_GBS_SEQUENCE) if n >= m) for m in range(_GBS_SEQUENCE[-1] + 1)
)
# z_m holds 6 - _GBS_HELD[m] rows; in a tableau's block, z_m starts after
# _GBS_OFFSETS[m] row blocks.  Row j ends in z_{n_j}, which starts after
# _GBS_END_OFFSETS[j] blocks and holds _GBS_END_ROWS[j] rows, (rows, 1, 1) grids.
_GBS_OFFSETS = (0, *itertools.accumulate(len(_GBS_SEQUENCE) - first for first in _GBS_HELD))
_GBS_END_OFFSETS = np.array([_GBS_OFFSETS[n] for n in _GBS_SEQUENCE])[:, None, None]
_GBS_END_ROWS = np.array([len(_GBS_SEQUENCE) - _GBS_HELD[n] for n in _GBS_SEQUENCE])[:, None, None]
_GBS_WEIGHTS = tuple(
    np.array([1.0 / ((n / _GBS_SEQUENCE[j - k]) ** 2 - 1.0) for j, n in enumerate(_GBS_SEQUENCE) if j >= k])[:, None, None]
    for k in range(1, len(_GBS_SEQUENCE))
)

_MIN_STEP_FRACTION = 1e-14
# a config without a method runs extrapolation below this rtol
_EXTRAPOLATION_RTOL = 1e-10
# the points of integrate's time grid over [0, t_final]: a run samples every stride-th, and t_final
_GRID_POINTS = 201
_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROWTH_LIMIT = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate` and :func:`integrate_at_times`.

    method is "adaptive" (Dormand-Prince), "extrapolation" (order-12
    Gragg-Bulirsch-Stoer, for tight tolerances; its rhs must also take a (d, C)
    batch with a (C,) array of column times, and it takes its samples as
    ride columns of the trial batches, see the module docstring) or None.
    None picks by rtol: extrapolation when rtol < 1e-10, where it is the
    cheaper method, and Dormand-Prince otherwise.
    dt is the initial trial step; unset, the stepper that runs starts at
    1e-3, or at 0.1 for extrapolation, whose error estimate is roundoff at
    small steps, so that the controller grows dt only about 2x per step
    from a small start.
    stride decimates integrate's time grid: it samples every stride-th of
    201 evenly spaced points over [0, t_final], and t_final (grid_times).
    dt, rtol, atol and t_final are finite positive reals, not bools, and are
    stored as floats; t_final / dt must be finite for the start step of the
    stepper that runs.
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
        # an unset dt is the default of the stepper that runs
        dt = self.dt
        if dt is None:
            dt = _STEPPERS[_stepper(self)].default_dt
        if not math.isfinite(self.t_final / dt):
            raise DomainError(f"t_final / dt overflows: {self.t_final} / {dt}")
        if isinstance(self.stride, bool) or not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise DomainError(f"stride must be an integer >= 1, got {self.stride!r}")


@dataclass
class Trajectory:
    """Sampled solution plus monitored conserved quantities.

    drift maps each monitor name to its monitor_drift, the largest
    relative_drift over the samples.  stats records the integrator's work:
    nfev right-hand-side calls (a batched call counts once), accepted and
    rejected steps, and the smallest and largest accepted step, dt_min and
    dt_max (0.0 when no step was taken).  method names the stepper that ran
    ("adaptive" or "extrapolation"); it is None on a trajectory
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


def relative_drift(values) -> np.ndarray:
    """|m(t) - m(0)| / max(1, |m(0)|) at every sample, the samples along the last axis."""
    values = np.asarray(values, dtype=float)
    ref = values[..., :1]
    return np.abs(values - ref) / np.maximum(1.0, np.abs(ref))


def monitor_drift(values: np.ndarray) -> float:
    """The largest relative drift of one monitor's samples, 0.0 for none; a NaN is kept.
    The scale is positive and one per row, so this is max|m(t) - m(0)| / max(1, |m(0)|) bit for bit."""
    values = np.asarray(values, dtype=float)
    return float(np.max(relative_drift(values))) if len(values) else 0.0


def _dp54_step(rhs: Rhs, t: float, y: np.ndarray, dt: float, k1: np.ndarray):
    """One trial Dormand-Prince step: returns (y5, error_estimate, stages).

    The stages k have shape (7,) + y.shape; k[6] is rhs at y5, which is the
    seventh stage's state, so y5 costs no combination of its own.  A batch
    of shape (d, B) is combined through a flat (7, d B) view, so it costs
    one vector-matrix product per stage like a vector.
    """
    k = np.empty((7,) + y.shape)
    k[0] = k1
    batch = y.ndim > 1
    flat, yflat = (k.reshape(7, -1), y.reshape(-1)) if batch else (k, y)
    h = np.array(dt)  # numpy scales by a 0-d array faster than by a Python float
    for row, i, c in _DP_STAGES:
        # .dot reaches the same gemv as @ without the matmul ufunc's dispatch
        z = row.dot(flat[:i])
        z *= h
        z += yflat
        if batch:
            z = z.reshape(y.shape)
        k[i] = rhs(t + c * dt, z)
    err = _DP_ERR.dot(flat)
    err *= h
    return z, err.reshape(y.shape) if batch else err, k


class _Tableau:
    """The buffers of Gragg-Bulirsch-Stoer trial steps on one batch shape.

    The batch is `groups` copies of a (d, width) state: column g width + b
    is start column b stepped by the g-th step (groups > 1 only for ride
    columns, see _ExtrapolationStepper.trial).  There are `columns` =
    groups width of them.  The state after m substeps, z_m, is one
    C-contiguous (d, rows_m columns) buffer holding only the rows with
    n_j >= m, so substep m writes z_{m+1} whole; column (j - j_m) columns + c
    of it is row j's state from column c, j_m the first row held.  At an even
    m the row with n_j = m has just ended, and the rows still substepping
    are a trailing block of z_m, which is copied into a contiguous batch for
    rhs; at an odd m, z_m is that batch itself.  The thirteen buffers are
    views of one allocation.  Everything here depends on the shape alone, so
    it is built once and every trial step of that shape refills it in place.
    """

    def __init__(self, d: int, groups: int, width: int):
        rows = len(_GBS_SEQUENCE)
        columns = groups * width
        self.groups = groups
        self.h = np.empty((rows, groups, width))  # h[j, g, b] = step_g / n_j
        self.h_cols = self.h.reshape(-1)
        self.two_h = np.empty_like(self.h_cols)
        self.times = np.empty((_GBS_SEQUENCE[-1], rows * columns))  # times[m] = t + m h_j per column
        # zs[m] is z_m of the rows with n_j >= m, the first row held being _GBS_HELD[m]
        size = d * columns  # of one row's block
        self.block = np.empty(_GBS_OFFSETS[-1] * size)
        zs = [self.block[lo * size : hi * size].reshape(d, -1) for lo, hi in zip(_GBS_OFFSETS, _GBS_OFFSETS[1:])]
        self.start = zs[0].reshape(d, rows, groups, width)
        self.first = zs[1].reshape(self.start.shape)
        # row j's end value, the first `columns` columns of zs[n_j], sits at
        # these indices of the block, gathered by one take into (rows, d, columns)
        self.ends = _GBS_END_OFFSETS * size + np.arange(d)[:, None] * (_GBS_END_ROWS * columns) + np.arange(columns)
        # (z_{m+1}, the batch of z_m, its source in zs[m] or None, z_{m-1}, t_m, 2 h)
        # over the rows still substepping at m
        self.substeps = []
        batch = zs[0]
        for m in range(1, _GBS_SEQUENCE[-1]):
            first = _GBS_HELD[m + 1]
            active = slice(first * columns, None)
            if _GBS_HELD[m] < first:  # the row with n_j = m ended: copy the others out of z_m
                z_prev = zs[m - 1][:, (first - _GBS_HELD[m - 1]) * columns :]
                source, batch = zs[m][:, columns:], np.empty((d, (rows - first) * columns))
            else:  # z_m is the batch, and the batch before holds these rows' z_{m-1}
                z_prev, source, batch = batch, None, zs[m]
            self.substeps.append((zs[m + 1], batch, source, z_prev, self.times[m, active], self.two_h[active]))
        # Aitken-Neville's columns 1..4 go to buffers; for columns 2..5 the
        # (upper rows, lower rows) of the column before, its weights and its
        # buffer are made here once.  Column 5 is fresh, so no result aliases a buffer.
        prev = self.first_column = np.empty((rows - 1, d, columns))
        self.columns = []
        for k, weights in enumerate(_GBS_WEIGHTS[1:], 2):
            out = np.empty((rows - k, d, columns)) if k < rows - 1 else None
            self.columns.append((prev[1:], prev[:-1], weights, out))
            prev = out

    def step(self, rhs: Rhs, t: float, y: np.ndarray, steps, f0: np.ndarray):
        """One trial Gragg-Bulirsch-Stoer step: returns (y12, error_estimate),
        each (d, groups width), from the (d,) or (d, width) state y.

        Row j of the tableau is Gragg's modified midpoint rule over the step
        with n_j = _GBS_SEQUENCE[j] substeps of h_j = step / n_j, evaluating
        rhs at the true substep times; f0 = rhs(t, y) is shared by every row.
        The rows do not depend on each other, so substep m of every row still
        substepping (n_j > m) is one rhs call on the (d, C) batch of their
        states, with the (C,) array of their times t + m h_j: eleven calls
        per trial step.  Each column meets the same arithmetic as a row run
        on its own.  The error estimate is the difference of the last two
        extrapolated values (orders 12 and 10).  steps broadcasts against
        (groups, width): one step for every column, or per-column steps;
        either way h_j = step_b / n_j is one division, so a column's bits do
        not depend on the steps beside it.
        """
        d = len(y)
        np.divide(steps, _GBS_SUBSTEPS_GRID, out=self.h)
        np.add(self.h_cols, self.h_cols, out=self.two_h)
        np.multiply(_GBS_STEP_INDEX, self.h_cols, out=self.times)
        self.times += t  # t + m h_j: addition commutes, so in place keeps its bits
        self.start[...] = y.reshape(d, 1, 1, -1)
        np.multiply(f0.reshape(d, 1, 1, -1), self.h, out=self.first)
        self.first += self.start
        for z_next, z, source, z_prev, t_m, two_h in self.substeps:
            if source is not None:
                np.copyto(z, source)
            np.multiply(rhs(t_m, z), two_h, out=z_next)
            z_next += z_prev
        # Aitken-Neville, one tableau column at a time over all its rows,
        # from column 0: the rows' end values, gathered afresh
        column = self.block.take(self.ends)
        first = (column[1:], column[:-1], _GBS_WEIGHTS[0], self.first_column)
        for upper, lower, weights, out in (first, *self.columns):
            column = np.subtract(upper, lower, out)
            column *= weights
            column += upper
        # the orders-12 and -10 values: column 5 and the last row of column 4
        return column[0], column[0] - upper[0]


class _AdaptiveStepper:
    """The current (t, y) of a Dormand-Prince integration and its states at
    the sample times; advances to requested target times."""

    method = "adaptive"  # the IntegratorConfig.method that selects this stepper
    # the step controller scales dt by err ** exponent; the error estimate is O(dt^5)
    exponent = -0.2
    # the initial trial step when the config leaves dt unset
    default_dt = 1e-3

    def __init__(self, rhs: Rhs, y0: np.ndarray, sample_times: np.ndarray, cfg: IntegratorConfig):
        self.rhs = rhs
        self.cfg = cfg
        self.t = 0.0
        self.y = np.asarray(y0, dtype=float)
        self.dt = self.default_dt if cfg.dt is None else cfg.dt
        self.accepted = 0
        self.rejected = 0
        self.dt_min = math.inf
        self.dt_max = 0.0
        if not np.all(np.isfinite(self.y)):
            raise DivergenceError("initial state is not finite")
        self.k1 = rhs(0.0, self.y)
        if not np.all(np.isfinite(self.k1)):
            raise DivergenceError("derivative is not finite at the initial state")
        # the last accepted step: its start, its size and its stages
        self.t_prev = self.y_prev = self.step = self.stages = None
        self.sample_times = sample_times
        self.states = np.empty(sample_times.shape + self.y.shape)
        self.states[0] = self.y
        # samples before index done are taken; the first after t is next_sample, a float
        self.done = 1
        self.next_sample = float(sample_times[1]) if len(sample_times) > 1 else math.inf
        # what hold kept for write_held: one entry per accepted step holding samples
        self.held = []

    def nfev(self) -> int:
        # one evaluation at the start, then six per trial step (the seventh
        # stage is reused as the next step's first)
        return 1 + 6 * (self.accepted + self.rejected)

    def stats(self) -> dict[str, float]:
        return {
            "nfev": self.nfev(),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dt_min": self.dt_min if self.accepted else 0.0,
            "dt_max": self.dt_max,
        }

    def trial(self, dt: float):
        """(new state, error estimate, stages) of one trial step.

        The stages may be None; rhs at the new state is then evaluated on
        acceptance.  Otherwise their last entry is that value.
        """
        return _dp54_step(self.rhs, self.t, self.y, dt, self.k1)

    def hold(self, samples: slice) -> None:
        """Keep what the samples at sample_times[samples], strictly inside the last
        accepted step, need: that step's start, size, end states and stages.
        Each step's arrays are fresh, so nothing is copied."""
        self.held.append((samples, self.t_prev, self.step, self.y_prev, self.y, self.stages))

    def record(self, t: float, y: np.ndarray) -> None:
        """Take the samples in (t_prev, t] after an accepted step: hold the
        ones strictly inside it and copy y to the one at t."""
        if self.next_sample > t:
            return
        times, done = self.sample_times, self.done
        end = done + int(np.searchsorted(times[done:], t, side="right"))
        inside = end - 1 if times[end - 1] == t else end
        if inside > done:
            self.hold(slice(done, inside))
        if inside < end:
            self.states[inside] = y
        self.done = end
        self.next_sample = float(times[end]) if end < len(times) else math.inf

    def write_held(self) -> None:
        """Write every held sample into states.

        The continuous extension of DOPRI5: with theta = (t - t_prev) / h,
        y(t) = y0 + theta (dy + (1 - theta) (r3 + theta (r4 + (1 - theta) r5))),
        where dy = y1 - y0, r3 = h k1 - dy, r4 = dy - h k7 - r3 and
        r5 = h sum_i d_i k_i.  It runs once over the held steps stacked, each
        sample taking its step's row, with the ufuncs in the order a single
        step would use, so every sample has the bits of its step's own
        evaluation.
        """
        if not self.held:
            return
        samples, t_prev, h, y0, y1, stages = zip(*self.held)
        steps = len(samples)
        index = np.r_[samples]  # the held sample indices, in order
        owner = np.repeat(np.arange(steps), [s.stop - s.start for s in samples])  # each one's step
        h = np.array(h)
        theta = ((self.sample_times[index] - np.array(t_prev)[owner]) / h[owner])[:, None]
        h = h[:, None]
        y0 = np.stack(y0).reshape(steps, -1)
        flat = np.stack(stages).reshape(steps, 7, -1)
        dy = np.stack(y1).reshape(steps, -1) - y0
        r3 = h * flat[:, 0] - dy
        r4 = dy - h * flat[:, 6] - r3
        r5 = h * (_DP_DENSE @ flat)
        theta1 = 1.0 - theta
        out = y0[owner] + theta * (dy[owner] + theta1 * (r3[owner] + theta * (r4[owner] + theta1 * r5[owner])))
        self.states[index] = out.reshape((len(index),) + self.y.shape)

    def advance_to(self, t_target: float, on_accept) -> None:
        """Step to t_target, calling on_accept(t, y) after every accepted step."""
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
                self.accepted += 1
                self.dt_min = min(self.dt_min, dt)
                self.dt_max = max(self.dt_max, dt)
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

    def __init__(self, rhs: Rhs, y0: np.ndarray, sample_times: np.ndarray, cfg: IntegratorConfig):
        super().__init__(rhs, y0, sample_times, cfg)
        # the tableau of plain trials, kept for the run, and that of the
        # latest ride count, kept until the count changes; built when first needed
        self.tableau = self.ride_tableau = None

    def nfev(self) -> int:
        # one call at the start, one per substep index per trial step (rhs at
        # the step's start is shared by the six rows) and one at each
        # accepted state
        return 1 + (_GBS_SEQUENCE[-1] - 1) * (self.accepted + self.rejected) + self.accepted

    def trial(self, dt: float):
        """(new state, error estimate, None) of one trial step.

        The batch also holds, for each sample time t_s in (t, t + dt), one
        ride column per main column: that column's start, stepped by t_s - t.
        Only the main columns' new state and error estimate are returned, so
        the error norm, the finiteness check and the accept/reject decision
        never see a ride.
        """
        t, y = self.t, self.y
        d = len(y)
        width = y.size // d  # B, or 1 for one state
        rides = ()
        if self.next_sample < t + dt:  # a sample may lie inside: next_sample is the first after t
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

    def hold(self, samples: slice) -> None:
        """Keep the ride columns of the last accepted step, the states at sample_times[samples]."""
        self.held.append((samples, self.ride_states))

    def write_held(self) -> None:
        """Write every held sample into states."""
        for samples, ride_states in self.held:
            self.states[samples] = ride_states


_STEPPERS = {cls.method: cls for cls in (_AdaptiveStepper, _ExtrapolationStepper)}


def _stepper(cfg: IntegratorConfig) -> str:
    """The method a run on cfg steps with: cfg.method, or without one
    extrapolation below rtol 1e-10 and Dormand-Prince otherwise."""
    return cfg.method or ("extrapolation" if cfg.rtol < _EXTRAPOLATION_RTOL else "adaptive")


def grid_times(cfg: IntegratorConfig) -> np.ndarray:
    """The times integrate samples at: every stride-th point of the
    201-point grid over [0, t_final], then t_final where the stride skips it."""
    times = np.linspace(0.0, cfg.t_final, _GRID_POINTS)[:: cfg.stride]
    return times if times[-1] == cfg.t_final else np.append(times, cfg.t_final)


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


def _sample(rhs: Rhs, y0, sample_times: np.ndarray, cfg: IntegratorConfig, monitors, labels) -> Trajectory:
    """The run behind integrate and integrate_at_times.  Neither calls the other, so
    a tracer that wraps both sees each run, and each of its rhs calls, once."""
    stepper = _STEPPERS[_stepper(cfg)](rhs, np.asarray(y0, dtype=float), sample_times, cfg)
    stepper.advance_to(float(sample_times[-1]), stepper.record)
    stepper.write_held()
    states = stepper.states
    results: dict[str, np.ndarray] = {}
    drift: dict[str, float] = {}
    for name, fn in (monitors or {}).items():
        vals = np.asarray(fn(states), dtype=float)
        if vals.shape != sample_times.shape:
            raise DomainError(f"monitor {name!r} returned shape {vals.shape}, expected {sample_times.shape}")
        results[name] = vals
        drift[name] = monitor_drift(vals)
    return Trajectory(
        times=sample_times, states=states, monitors=results, drift=drift, labels=labels,
        stats=stepper.stats(), method=stepper.method,
    )


def integrate(
    rhs: Rhs,
    y0,
    cfg: IntegratorConfig,
    monitors: dict[str, Monitor] | None = None,
    labels: tuple[str, ...] | None = None,
) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t=0 to cfg.t_final, sampled at grid_times(cfg).

    y0 is one state of shape (d,) or a batch of shape (d, B), and the
    sampled states have shape (samples, d) or (samples, d, B).  Each monitor
    is called once, on the array of sampled states, after the integration.
    Without cfg.method, the run is extrapolation when cfg.rtol < 1e-10 and
    Dormand-Prince otherwise.
    """
    return _sample(rhs, y0, grid_times(cfg), cfg, monitors, labels)


def integrate_at_times(
    rhs: Rhs,
    y0,
    sample_times,
    cfg: IntegratorConfig,
    monitors: dict[str, Monitor] | None = None,
    labels: tuple[str, ...] | None = None,
) -> Trajectory:
    """Integrate as integrate does, sampled at the given increasing times instead of the grid.

    The first sample time must be 0; the run ends on the last, whatever
    cfg.t_final.  Useful for comparing formulations on a common grid and for
    co-evolving auxiliary quantities along a previously computed trajectory.
    """
    return _sample(rhs, y0, checked_sample_times(sample_times), cfg, monitors, labels)
