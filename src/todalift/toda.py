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
from .integrate import IntegratorConfig, Trajectory, integrate, integrate_at_times

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
    "gap_buffer",
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


class PictureState:
    """Base of the state dataclasses of every picture: the particle count and field validation."""

    @property
    def n(self) -> int:
        return len(self.q)

    def _store(self, **lengths) -> None:
        """Store each named field as a finite float vector of the given length."""
        for name, length in lengths.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim == 0:
                value = value.reshape(1)
            if value.shape != (length,):
                raise DomainError(f"{name} must be a vector of length {length}, got shape {value.shape}")
            # half the cost of np.all(np.isfinite(v)); extraction builds a state per evaluation
            if not np.isfinite(value).all():
                raise DomainError(f"state entries must be finite, got {name} = {value}")
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
    entries are not validated (for integrator callbacks).
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
    mmat = np.zeros((n, n))
    mmat.reshape(-1)[1 :: n + 1] = 2.0 * upper[:, 0]
    return lmat[0], mmat


def power_traces(lmat: np.ndarray, kmax: int) -> np.ndarray:
    """Tr(L^k)/k for k = 1..kmax of one matrix (n, n) or of each matrix in a stack (M, n, n)."""
    n = lmat.shape[-1]
    if not (1 <= kmax <= n):
        raise DomainError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
    out = np.empty((kmax,) + lmat.shape[:-2])
    power = lmat
    for k in range(1, kmax + 1):
        out[k - 1] = np.trace(power, axis1=-2, axis2=-1) / k
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
    gap = np.exp(2.0 * (q[:-1] - q[1:]))
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
    return 0.5 * np.sum(p * p, axis=0) + np.sum(couplings**2 * np.exp(2.0 * (q[:-1] - q[1:])), axis=0)


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
        extra monitors, I_1..I_kmax, H, then each form monitor on a view of all samples."""
        n = sys.n
        kmax = n if kmax is None else kmax
        if not (1 <= kmax <= n):
            raise DomainError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
        chart = self.chart(n, sys.g)
        mons = dict(self.extra_monitors(n))
        for k in range(1, kmax + 1):
            mons[f"I_{k}"] = lambda states, k=k: self.invariants(sys, states, k)[k - 1]
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
        fibre = (jac_t * (2.0 * np.exp(2.0 * (q[:-1] - q[1:])))) @ jac_t.T
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

    def random_state(self, rng, n: int) -> np.ndarray:
        """Packed phase point, uniform in [-1, 1], drawn in the order q, p, fibre, fibre momenta."""
        q, p = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        if self.centred:
            q -= q.mean()
            p -= p.mean()
        f = self.fibres(n)
        return np.concatenate([q, rng.uniform(-1.0, 1.0, f), p, rng.uniform(-1.0, 1.0, f)])

    def invariant(self, sys: TodaSystem, k: int):
        """I_k(position, momenta) of one phase point, as killing.extract_tensor takes it."""
        return lambda pos, mom: float(self.invariants(sys, np.concatenate([pos, mom])[None, :], k)[k - 1, 0])


def gap_buffer(x, n: int):
    """(buffer, gap): gap_i = exp(2 (q_i - q_{i+1})) of one packed state or batch x, as the
    rows 1..n-1 of a zero buffer of n+1 rows.  Once a flow field scales gap in place into
    the forces f_i, buffer[:-1] - buffer[1:] are the momentum rates f_{i-1} - f_i."""
    buf = np.zeros((n + 1,) + x.shape[1:])
    gap = buf[1:n]
    np.subtract(x[: n - 1], x[1:n], out=gap)
    gap += gap  # doubling by addition is exact, and cheaper than by 2.0
    np.exp(gap, out=gap)
    return buf, gap


def flow_field(sys: TodaSystem):
    """Vector field over packed states [q, p]: one (2n,) state or a component-first (2n, B) batch."""
    n = sys.n
    two_gsq = 2.0 * sys.g**2

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        buf, force = gap_buffer(y, n)
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


def evolve_A(
    sys: TodaSystem, traj: Trajectory, cfg: IntegratorConfig | None = None
) -> list[np.ndarray]:
    """Evolution matrices A(t) with dA/dt = -M A and A(0) = I.

    The chain state and A are co-integrated from the trajectory's initial
    state and sampled exactly at the trajectory times, so that
    A(t) L(0) A(t)^-1 reproduces L(t).  The default cfg is order-12
    extrapolation at rtol 1e-12, which suits the usual few sample times.
    """
    if len(traj) == 0:
        raise DomainError("cannot evolve A along an empty trajectory")
    n = sys.n
    if traj.states.shape[1] != 2 * n:
        raise DomainError("trajectory was not produced by this system")
    CHAIN.unpack(sys, traj.states[0])  # validates the start; rhs reads packed states unchecked
    if cfg is None:
        cfg = IntegratorConfig(
            method="extrapolation", rtol=1e-12, atol=1e-14, t_final=max(traj.times[-1], 1e-6)
        )

    base = flow_field(sys)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        y = z[: 2 * n]
        _, mmat = lax_pair(sys, y)
        out = np.empty(z.shape)
        out[: 2 * n] = base(t, y)
        np.matmul(-mmat, z[2 * n :].reshape(n, n), out=out[2 * n :].reshape(n, n))
        return out

    z0 = np.concatenate([traj.states[0], np.eye(n).ravel()])
    out = integrate_at_times(rhs, z0, traj.times, cfg)
    return [row[2 * n :].reshape(n, n).copy() for row in out.states]
