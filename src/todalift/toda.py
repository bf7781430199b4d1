"""The non-periodic Toda chain.

Hamiltonian

    H(q, p) = sum_i p_i^2 / 2 + sum_{i<n} g_i^2 exp(2 (q_i - q_{i+1}))

with canonical equations of motion, the tridiagonal Lax pair (L, M), trace
invariants I_k = Tr(L^k) / k, and the evolution matrix A(t) solving
dA/dt = -M A, which conjugates L(0) into L(t).

The normalisation I_k = Tr(L^k) / k is the one for which I_1 is the total
momentum and I_2 the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMetricError, DomainError
from .integrate import IntegratorConfig, Trajectory, checked_sample_times, integrate

__all__ = [
    "TodaSystem",
    "PictureState",
    "PhaseState",
    "lax_pair",
    "invariants",
    "power_traces",
    "lax_traces",
    "lax_trace_gradient",
    "lax_energy",
    "check_dims",
    "Picture",
    "CHAIN",
    "gaps",
    "flow_field",
    "run",
    "evolve_A",
]


@dataclass(frozen=True)
class TodaSystem:
    """Particle count n and the n-1 nearest-neighbour couplings g.

    The potential depends on g squared, so the sign of each coupling only
    matters inside the Lax matrices.  Zero couplings are allowed.
    """

    n: int
    g: np.ndarray

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"need at least two particles, got n={self.n}")
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        if g.shape != (self.n - 1,):
            raise DomainError(f"coupling vector must have length n-1={self.n - 1}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise DomainError("couplings must be finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "g", g)

    def scaled(self, factor: float) -> TodaSystem:
        """The system with every coupling multiplied by factor; only the new couplings are checked."""
        g = factor * self.g
        if not np.isfinite(g).all():
            raise DomainError("couplings must be finite")
        out = object.__new__(TodaSystem)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "g", g)
        return out


class PictureState:
    """Base of the state dataclasses of every picture: the particle count and field validation."""

    @property
    def n(self) -> int:
        return len(self.q)

    def _store(self, **lengths) -> None:
        """Store each named field as a finite float vector of the given length."""
        values = []
        for name, length in lengths.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim == 0:
                value = value.reshape(1)
            if value.shape != (length,):
                raise DomainError(f"{name} must be a vector of length {length}, got shape {value.shape}")
            values.append(value)
        # one finiteness check per state, since extraction builds a state per
        # evaluation; only a failure looks field by field, to name the first bad one
        if not np.isfinite(np.concatenate(values)).all():
            name, value = next((name, v) for name, v in zip(lengths, values) if not np.isfinite(v).all())
            raise DomainError(f"state entries must be finite, got {name} = {value}")
        for name, value in zip(lengths, values):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PhaseState(PictureState):
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        n = np.size(self.q)
        self._store(q=n, p=n)


def check_dims(sys: TodaSystem, state) -> None:
    """Raise unless a state of any picture has the system's particle count."""
    if state.n != sys.n:
        raise DomainError(f"state has {state.n} particles, system has {sys.n}")


def lax_pair(sys: TodaSystem, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Lax matrices with dL/dt = [L, M] along the flow.

    L carries p on the diagonal, g on the subdiagonal and g_i e^{2(q_i -
    q_{i+1})} on the superdiagonal; M is twice the superdiagonal part of L.
    state is a PhaseState or a packed float vector [q, p] of length 2n, whose
    entries are not validated: eisenhart.lifted_lax passes the lift's q and p
    packed, with the couplings p_y g in sys.
    """
    n = sys.n
    if isinstance(state, PhaseState):
        check_dims(sys, state)
        q, p = state.q, state.p
    else:
        y = np.asarray(state, dtype=float)
        if y.shape != (2 * n,):
            raise DomainError(f"packed state must have shape ({2 * n},), got {y.shape}")
        q, p = y[:n], y[n:]
    lmat, _, upper = _lax_stack(q[:, None], p[:, None], sys.g[:, None])
    return lmat[0], np.diag(2.0 * upper[:, 0], 1)


def power_traces(lmat: np.ndarray, kmax: int) -> np.ndarray:
    """Tr(L^k)/k for k = 1..kmax of one matrix (n, n) or of each matrix in a stack (M, n, n)."""
    n = lmat.shape[-1]
    if not (1 <= kmax <= n):
        raise DomainError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
    out = np.empty((kmax,) + lmat.shape[:-2])
    power = lmat
    for k in range(1, kmax + 1):
        out[k - 1] = power.trace(axis1=-2, axis2=-1) / k
        if k < kmax:
            power = power @ lmat
    return out


def invariants(sys: TodaSystem, state: PhaseState, kmax: int) -> np.ndarray:
    """I_k = Tr(L^k) / k for k = 1..kmax.  I_1 = sum(p), I_2 = H.  Shape (kmax,)
    for one PhaseState, (kmax, S) for packed states [q, p] of shape (S, 2n)."""
    if isinstance(state, PhaseState):
        return power_traces(lax_pair(sys, state)[0], kmax)
    return CHAIN.traces(sys.n, sys.g, state, kmax)


def _lax_stack(q, p, couplings):
    """Lax matrices (M, n, n) of q, p (n, M) and couplings (n-1, M) or (n-1, 1).

    The one place that writes entries of L, for every picture: p on the
    diagonal, c_i below it and c_i gap_i above it, gap_i = exp(2 (q_i -
    q_{i+1})).  Returns (L, gap, upper = c gap).
    """
    n, m = p.shape
    gap = gaps(q)
    upper = couplings * gap
    lmat = np.zeros((m, n, n))
    # entry (i, j) sits at i n + j of each flattened matrix: the diagonal is
    # every (n+1)-th entry from 0, the subdiagonal from n, the superdiagonal from 1
    flat = lmat.reshape(m, n * n)
    flat[:, :: n + 1] = p.T
    flat[:, n :: n + 1] = couplings.T
    flat[:, 1 :: n + 1] = upper.T
    return lmat, gap, upper


def lax_traces(q, p, couplings, kmax: int) -> np.ndarray:
    """Tr(L^k)/k for k = 1..kmax of component-first batches, shape (kmax, M)."""
    return power_traces(_lax_stack(q, p, couplings)[0], kmax)


def lax_trace_gradient(q, p, couplings, k: int):
    """I_k = Tr(L^k)/k of component-first batches and its exact gradient.

    With G = (L^{k-1})^T the differential dI_k = Tr(L^{k-1} dL) (Flaschka
    1974) reads

        dI/dp_i = G_ii,   dI/dc_i = G_{i+1,i} + G_{i,i+1} exp(2 (q_i - q_{i+1})),

    and each pair adds +-2 G_{i,i+1} L_{i,i+1} to dI/dq_i and dI/dq_{i+1}.
    Returns (I (M,), dI/dq (n, M), dI/dp (n, M), dI/dc (n-1, M)).
    """
    lmat, gap, upper = _lax_stack(q, p, couplings)
    m, n, _ = lmat.shape
    diag = np.arange(n)
    sub = np.arange(n - 1)
    power = np.broadcast_to(np.eye(n), (m, n, n))
    for _ in range(k - 1):
        power = power @ lmat
    gmat = power.transpose(0, 2, 1)
    value = np.sum(gmat * lmat, axis=(1, 2)) / k
    g_upper = gmat[:, sub, sub + 1].T
    flux = 2.0 * g_upper * upper
    d_q = np.zeros((n, m))
    d_q[:-1] += flux
    d_q[1:] -= flux
    d_c = gmat[:, sub + 1, sub].T + g_upper * gap
    return value, d_q, gmat[:, diag, diag].T, d_c


def lax_energy(q, p, couplings) -> np.ndarray:
    """sum(p^2)/2 + sum_i c_i^2 exp(2 (q_i - q_{i+1})) of component-first batches."""
    return 0.5 * np.sum(p * p, axis=0) + np.sum(couplings**2 * gaps(q), axis=0)


@dataclass(frozen=True)
class Picture:
    """One picture of the chain over the shared packed layout [q, fibre, p, p_fibre].

    The chain and its two lifts differ in their fibre and in where the Lax
    couplings come from: g, p_y g or p_omega.  Each picture module holds one
    record; everything else is written here once.
    """

    name: str
    state: type  # the state dataclass
    fields: tuple  # its attributes in packed order, None where there is no fibre
    fibre_labels: Callable[[int], tuple]  # fibre coordinates of n particles; each momentum is "p_" + label
    couplings: Callable  # (p_fibre (f, M), g (n-1, 1)) -> the Lax couplings (n-1, M)
    coupling_grad: Callable  # (dI/dc (n-1, M), g) -> dI/dp_fibre (f, M), the chain rule of couplings
    flow_field: Callable  # sys -> the vector field over packed states
    # (sys, states, k) -> the public invariants function, looked up when called
    invariants: Callable
    extra_monitors: Callable[[int], dict] = lambda n: {}  # listed before I_k and H
    centred: bool = False  # lives on sum q = 0; random starts centre q and p

    def fibres(self, n: int) -> int:
        """Fibre count: 0, 1 or n-1."""
        return len(self.fibre_labels(n))

    def dim(self, n: int) -> int:
        return 2 * (n + self.fibres(n))

    def split(self, x, n: int):
        """(q, fibre, p, p_fibre) of packed states, along the first axis of x."""
        f = self.fibres(n)
        return x[:n], x[n : n + f], x[n + f : 2 * n + f], x[2 * n + f :]

    def pack(self, state) -> np.ndarray:
        return np.concatenate([np.atleast_1d(getattr(state, name)) for name in self.fields if name])

    def unpack(self, sys: TodaSystem, vec, **options):
        """The validated state of one packed vector; options go to the state dataclass."""
        if len(vec) != self.dim(sys.n):
            raise DomainError(f"packed state must have length {self.dim(sys.n)}")
        parts = self.split(np.asarray(vec, dtype=float), sys.n)
        return self.state(**{name: v for name, v in zip(self.fields, parts) if name}, **options)

    def view(self, x, n: int):
        """Unvalidated state whose fields are rows of component-first packed states (dim, S)."""
        state = object.__new__(self.state)
        for name, v in zip(self.fields, self.split(x, n)):
            if name:
                object.__setattr__(state, name, v)
        return state

    def labels(self, n: int) -> tuple[str, ...]:
        fibre = self.fibre_labels(n)
        q, p = (tuple(f"{c}_{i}" for i in range(1, n + 1)) for c in "qp")
        return q + fibre + p + tuple("p_" + name for name in fibre)

    def chart(self, n: int, g=None):
        """Map component-first packed states (dim, M) to the Lax data (q, p, couplings)."""
        g = None if g is None else np.asarray(g)[:, None]

        def chart(x):
            q, _, p, p_fibre = self.split(x, n)
            return q, p, self.couplings(p_fibre, g)

        return chart

    def traces(self, n: int, g, states, kmax: int) -> np.ndarray:
        """Tr(L^k)/k, k = 1..kmax, of recorded packed states (S, dim); shape (kmax, S)."""
        if np.ndim(states) != 2 or np.shape(states)[1] != self.dim(n):
            raise DomainError(f"packed states must have shape (samples, {self.dim(n)}), got {np.shape(states)}")
        return lax_traces(*self.chart(n, g)(np.asarray(states, dtype=float).T), kmax)

    def monitors(self, sys: TodaSystem, kmax: int | None = None, forms=()):
        """Monitors over recorded packed states (S, dim), one value per sample: the
        extra monitors, I_1..I_kmax, H, then each form monitor on a view of all samples.

        The I_k of one dict share one invariants(sys, states, kmax) sweep per
        states array: the first I_k called on an array computes every I_k, and
        the others read it while they are called on that same array object.
        So a caller must not modify an array between those calls."""
        n = sys.n
        kmax = n if kmax is None else kmax
        if not (1 <= kmax <= n):
            raise DomainError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
        chart = self.chart(n, sys.g)
        mons = dict(self.extra_monitors(n))
        sweep = [None, None]  # the last states array and its I_1..I_kmax

        def invariant(states, k):
            if sweep[0] is not states:
                sweep[:] = states, self.invariants(sys, states, kmax)
            return sweep[1][k - 1]

        for k in range(1, kmax + 1):
            mons[f"I_{k}"] = lambda states, k=k: invariant(states, k)
        mons["H"] = lambda states: lax_energy(*chart(states.T))
        for fm in forms:
            mons[fm.name] = lambda states, fm=fm: fm.evaluate(self.view(states.T, n))
        return mons

    def run(self, sys: TodaSystem, state, cfg: IntegratorConfig, kmax: int | None = None,
            extra_monitors=None) -> Trajectory:
        """Integrate from one state, monitoring the record's monitors and each form monitor in extra_monitors."""
        check_dims(sys, state)
        return integrate(rhs=self.flow_field(sys), y0=self.pack(state), cfg=cfg,
                         monitors=self.monitors(sys, kmax, extra_monitors or ()), labels=self.labels(sys.n))

    def energy(self, sys: TodaSystem, state) -> float:
        """sum(p^2)/2 + sum_i c_i^2 exp(2 (q_i - q_{i+1})) of one state, c the record's couplings.

        For either lift this is the geodesic energy: the couplings return as momenta.
        """
        check_dims(sys, state)
        return float(lax_energy(*self.chart(sys.n, sys.g)(self.pack(state)[:, None]))[0])

    def inverse_metric(self, sys: TodaSystem, q) -> np.ndarray:
        """Inverse metric over the positions (q, fibre); a lift's energy is P G^{-1} P / 2.

        It is the identity on q and J^T diag(2 exp(2 (q_i - q_{i+1}))) J on the fibre,
        J = dc/dp_fibre: 2V(q) for the Eisenhart lift, diag(2 exp(2 (q_a - q_{a+1})))
        for the generalised one.
        """
        q = np.asarray(q, dtype=float)
        n = sys.n
        if q.shape != (n,):
            raise DomainError(f"position vector must have length {n}")
        jac_t = self.coupling_grad(np.eye(n - 1), sys.g[:, None])
        fibre = (jac_t * (2.0 * gaps(q))) @ jac_t.T
        if not np.all(np.diagonal(fibre) > 0.0):
            raise DegenerateMetricError("lift metric degenerates where a fibre block entry vanishes")
        out = np.eye(n + len(fibre))
        out[n:, n:] = fibre
        return out

    def metric(self, sys: TodaSystem, q) -> np.ndarray:
        """Lift metric over the positions (q, fibre), the inverse of inverse_metric."""
        return np.linalg.inv(self.inverse_metric(sys, q))

    def gradient(self, g, d_q, d_p, d_c) -> np.ndarray:
        """Packed gradient (dim, M) of I_k from its Lax-data gradient; I does not depend on the fibre."""
        fibre = np.zeros((self.fibres(len(d_q)), d_q.shape[1]))
        return np.concatenate([d_q, fibre, d_p, self.coupling_grad(d_c, np.asarray(g)[:, None])])

    def random_states(self, rng, n: int, count: int) -> np.ndarray:
        """count packed phase points (dim, count), uniform in [-1, 1], from one draw: each
        point draws in turn q, p, fibre, fibre momenta, and a centred picture centres its q and p."""
        f = self.fibres(n)
        q, p, fibre, p_fibre = np.split(rng.uniform(-1.0, 1.0, (count, self.dim(n))), [n, 2 * n, 2 * n + f], axis=1)
        if self.centred:
            q -= q.mean(axis=1, keepdims=True)
            p -= p.mean(axis=1, keepdims=True)
        return np.ascontiguousarray(np.concatenate([q, fibre, p, p_fibre], axis=1).T)

    def invariant(self, sys: TodaSystem, k: int):
        """I_k(position, momenta) of one phase point, as killing.extract_tensor takes it."""
        return lambda pos, mom: float(self.invariants(sys, np.concatenate([pos, mom])[None, :], k)[k - 1, 0])


# just below exp's overflow at 709.78; an array, since np.minimum converts a float on every call
_GAP_EXPONENT_CAP = np.array(709.0)


def gaps(q, out=None) -> np.ndarray:
    """gap_i = exp(2 (q_i - q_{i+1})) along the first axis of q, into out if given.  The exponent
    is capped at 709, where exp is still finite, so a zero coupling times its gap is 0, not NaN:
    uncoupled particles pass each other freely.  Below the cap the value is exp's, bit for bit."""
    gap = np.subtract(q[:-1], q[1:], out=out)
    gap += gap  # doubling by addition is exact, and cheaper than by 2.0
    np.minimum(gap, _GAP_EXPONENT_CAP, out=gap)
    return np.exp(gap, out=gap)


def flow_field(sys: TodaSystem):
    """Vector field over packed states [q, p]: one (2n,) state or a component-first (2n, B) batch."""
    n = sys.n
    two_gsq = 2.0 * sys.g**2

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # the forces f_i fill rows 1..n-1 of a zero buffer of n+1 rows, so
        # buf[:-1] - buf[1:] are the momentum rates f_{i-1} - f_i
        buf = np.zeros((n + 1,) + y.shape[1:])
        force = gaps(y[:n], out=buf[1:n])
        force *= two_gsq if y.ndim == 1 else two_gsq[:, None]
        out = np.empty(y.shape)
        out[:n] = y[n:]
        np.subtract(buf[:-1], buf[1:], out=out[n:])
        return out

    return rhs


CHAIN = Picture(
    name="chain",
    state=PhaseState,
    fields=("q", None, "p", None),
    fibre_labels=lambda n: (),
    couplings=lambda p_fibre, g: g,
    coupling_grad=lambda d_c, g: np.zeros((0, d_c.shape[1])),
    flow_field=flow_field,
    invariants=lambda sys, states, k: invariants(sys, states, k),
)


run = CHAIN.run


def evolve_A(sys: TodaSystem, traj: Trajectory) -> list[np.ndarray]:
    """Evolution matrices A(t) with dA/dt = -M A and A(0) = I, at the trajectory times.

    A(t) L(0) A(t)^-1 = L(t).  A is read from L(0) alone, in closed form: it
    is the unit upper factor of exp(-2t L(0)) = B(t) A(t), B lower triangular
    (Kostant 1979; Symes 1982), so it is exactly unit upper triangular and A(0)
    is exactly I.  A coupling that is zero in the symmetric gauge, g_i = 0 or
    g_i e^(q_i - q_i+1) underflowing, splits the chain into blocks that evolve
    independently.  Only the times and the first state of traj are read.
    """
    times = checked_sample_times(traj.times)
    state = CHAIN.unpack(sys, traj.states[0])  # checks the width and finiteness
    lmat, _ = lax_pair(sys, state)
    q = state.q
    off = np.diagonal(lmat, -1) * np.exp(q[:-1] - q[1:])  # the symmetric gauge's couplings
    mats = np.broadcast_to(np.eye(sys.n), (len(times), sys.n, sys.n)).copy()
    for lo, hi in _blocks(off == 0.0):
        if hi - lo > 1:
            mats[1:, lo:hi, lo:hi] = _evolve_block(np.diagonal(lmat)[lo:hi], off[lo : hi - 1], q[lo:hi], times)
    return list(mats)


def _blocks(split) -> list[tuple[int, int]]:
    """Particle ranges [lo, hi) of the blocks of a chain cut after particle i + 1 wherever split[i] is set."""
    cuts = [0, *(np.flatnonzero(split) + 1), len(split) + 1]
    return list(zip(cuts[:-1], cuts[1:]))


def _evolve_block(p, off, q, times) -> np.ndarray:
    """A(t) (samples - 1, m, m) at times[1:] of one block with nonzero gauge couplings off.

    With D = diag(e^q), S = D^-1 L(0) D = E diag(lam) E^T, lam ascending, exp(-2tS) = F^T F
    for F = e^{-t(lam - lam_0)} E^T, and D^-1 A D is the unit upper factor U of F in _graded_factor.
    """
    lam, guide = np.linalg.eigh(np.diag(p) + np.diag(off, -1))  # reads the lower triangle
    unit = _graded_factor(lam[0] - lam, _twisted_eigenvectors(p, off, lam, guide).T, times[1:])[2]
    # A_ij = e^(q_i - q_j) (D^-1 A D)_ij, exponentiated on and above the
    # diagonal only: below it the exponent may overflow where the entry is 0
    return unit * np.exp(np.triu(q[:, None] - q))


# Largest exponent of one row grading: e^-600 is far from underflow.
_GRADING_SPAN = 600.0


def _graded_factor(rate, frame, times):
    """Factor diag(e^{t rate}) frame = Q diag(e^log_diag) U at each of the ascending times >= 0.

    rate (m,) is non-increasing from 0, so the rows of the matrix are graded,
    which keeps every row's digits in its Householder QR.  Q is orthogonal and
    U exactly unit upper triangular.  The samples within _GRADING_SPAN of the
    grading past a checkpoint c share one batched QR, restarted from it:
    diag(e^{t rate}) frame = diag(e^{(t-c) rate}) Q(c) diag(e^log_diag(c)) U(c).
    Once R's diagonal entries are e^746 apart, every factor e^(log_diag_j -
    log_diag_i), j > i, of a further step underflows to 0, so U would not
    change, bit for bit, and Q is a signed identity up to rounding: the march
    stops, Q and U stay, and log_diag advances by rate.
    Returns Q (T, m, m), log_diag (T, m) and U (T, m, m) for T times.
    """
    m = len(rate)
    # all-equal rates never grade: reach is +inf, and one QR serves every time
    with np.errstate(divide="ignore", over="ignore"):
        reach = _GRADING_SPAN / (rate[0] - rate[-1])
    lo, start, log_diag, unit = 0, 0.0, np.zeros(m), np.eye(m)
    qs, logs, units = np.empty((len(times), m, m)), np.empty((len(times), m)), np.empty((len(times), m, m))
    while lo < len(times):
        # only after a QR: for one row (m = 1) np.diff is empty, and the test would pass at once
        if start > 0.0 and np.all(np.diff(log_diag) < -746.0):
            qs[lo:], logs[lo:], units[lo:] = frame, log_diag + np.multiply.outer(times[lo:] - start, rate), unit
            break
        hi = lo + int(np.count_nonzero(times[lo:] - start <= reach))
        # this interval's samples, then as the last row the next checkpoint if a sample lies past it
        exponents = np.multiply.outer(np.append(times[lo:hi] - start, [reach] * (hi < len(times))), rate)
        qmat, r = np.linalg.qr(np.exp(exponents)[:, :, None] * frame)
        d = np.diagonal(r, axis1=1, axis2=2)
        scaled = r / d[:, :, None]
        # row i of r diag(e^log_diag) over its diagonal entry; where r is 0 the exponent may overflow:
        # below the diagonal, or above it where vanishing leading minors leave log_diag out of order
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.where(scaled == 0.0, scaled, scaled * np.exp(log_diag - log_diag[:, None]))
        qmat, log_diag, unit = qmat * np.copysign(1.0, d)[:, None, :], log_diag + np.log(np.abs(d)), step @ unit
        qs[lo:hi], logs[lo:hi], units[lo:hi] = qmat[: hi - lo], log_diag[: hi - lo], unit[: hi - lo]
        start, frame, log_diag, unit = start + reach, qmat[-1], log_diag[-1], unit[-1]
        lo = hi
    return qs, logs, units


def _twisted_eigenvectors(diag, off, lam, guide) -> np.ndarray:
    """Unit eigenvectors (columns) of the symmetric tridiagonal matrix (diag, off) at lam.

    Each is built outward from its largest entry, located by guide, from the
    LDL^T pivots of T - lam taken from either end (a twisted factorisation;
    Parlett & Dhillon 2000).  Every ratio runs the way the entries decay, so
    small entries keep their relative accuracy.  A(t) needs it: rotating the
    eigenbasis by 1e-16, the rounding of a dense eigensolver, moved A(t) by
    3e-11 relative on an n = 10 start.  The signs follow guide.
    """
    n = len(diag)
    floor = np.finfo(float).eps * np.max(np.abs(lam))  # stands in for a zero pivot

    def ratios(diag, off):
        # row i: v[i-1] / v[i] of each vector, from the pivots of rows 0..i-1
        out, pivot = np.zeros((n, n)), lam - diag[0]
        for i in range(1, n):
            out[i] = off[i - 1] / np.where(pivot == 0.0, floor, pivot)
            pivot = lam - diag[i] - off[i - 1] * out[i]
        return out

    top, bottom = ratios(diag, off), ratios(diag[::-1], off[::-1])[::-1]  # bottom[i] = v[i+1] / v[i]
    # v[i] / v[twist] is the product of the ratios in between, each partial
    # product at most about 1 in size
    row = np.arange(n)[:, None]
    twist = np.argmax(np.abs(guide), axis=0)
    vecs = np.ones((n, n))
    vecs[:-1] = np.cumprod(np.where(row <= twist, top, 1.0)[:0:-1], axis=0)[::-1]
    vecs[1:] *= np.cumprod(np.where(row >= twist, bottom, 1.0)[:-1], axis=0)
    vecs *= np.sign(np.sum(vecs * guide, axis=0)) / np.linalg.norm(vecs, axis=0)
    return vecs
