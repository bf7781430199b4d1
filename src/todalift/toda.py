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

import numpy as np

from .errors import DomainError
from .integrate import IntegratorConfig, Trajectory, integrate, integrate_at_times

__all__ = [
    "TodaSystem",
    "PhaseState",
    "potential",
    "hamiltonian",
    "lax_pair",
    "invariants",
    "power_traces",
    "lax_chart",
    "lax_traces",
    "packed_lax_traces",
    "lax_trace_gradient",
    "lax_energy",
    "lax_trace_monitors",
    "pack_state",
    "unpack_state",
    "state_labels",
    "flow_field",
    "invariant_monitors",
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


@dataclass(frozen=True)
class PhaseState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise DomainError(f"q and p must be equal-length vectors, got {q.shape} and {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise DomainError("phase-space entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return len(self.q)


def _check_dims(sys: TodaSystem, state: PhaseState):
    if state.n != sys.n:
        raise DomainError(f"state has {state.n} particles, system has {sys.n}")


def potential(sys: TodaSystem, q) -> float:
    q = np.asarray(q, dtype=float)
    if q.shape != (sys.n,):
        raise DomainError(f"position vector must have length {sys.n}")
    return float(np.sum(sys.g**2 * np.exp(2.0 * (q[:-1] - q[1:]))))


def hamiltonian(sys: TodaSystem, state: PhaseState) -> float:
    _check_dims(sys, state)
    return float(0.5 * np.dot(state.p, state.p) + potential(sys, state.q))


def lax_pair(sys: TodaSystem, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Lax matrices with dL/dt = [L, M] along the flow.

    L carries p on the diagonal, g on the subdiagonal and g_i e^{2(q_i -
    q_{i+1})} on the superdiagonal; M is twice the superdiagonal part of L.
    state is a PhaseState or a packed float vector [q, p] of length 2n, whose
    entries are not validated (for integrator callbacks).
    """
    n = sys.n
    if isinstance(state, PhaseState):
        _check_dims(sys, state)
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
        out[k - 1] = np.trace(power, axis1=-2, axis2=-1) / k
        if k < kmax:
            power = power @ lmat
    return out


def invariants(sys: TodaSystem, state: PhaseState, kmax: int) -> np.ndarray:
    """I_k = Tr(L^k) / k for k = 1..kmax.  I_1 = sum(p), I_2 = H.  Shape (kmax,)
    for one PhaseState, (kmax, S) for packed states [q, p] of shape (S, 2n)."""
    if isinstance(state, PhaseState):
        return power_traces(lax_pair(sys, state)[0], kmax)
    return packed_lax_traces(state, 2 * sys.n, lax_chart(sys), kmax)


def lax_chart(sys: TodaSystem):
    """Map component-first packed states [q, p] (2n, M) to the Lax data (q, p, g)."""
    n = sys.n
    return lambda x: (x[:n], x[n:], sys.g[:, None])


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


def packed_lax_traces(states, dim: int, chart, kmax: int) -> np.ndarray:
    """lax_traces of recorded packed states (S, dim), read through a picture's Lax chart."""
    if np.ndim(states) != 2 or np.shape(states)[1] != dim:
        raise DomainError(f"packed states must have shape (samples, {dim}), got {np.shape(states)}")
    return lax_traces(*chart(np.asarray(states, dtype=float).T), kmax)


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


def lax_trace_monitors(n: int, kmax: int | None, traces, chart):
    """Monitors I_1..I_kmax and H over recorded states of shape (S, d).

    traces(states, k) is the picture's invariants function on recorded
    states, shape (k, S); chart maps the component-first states (d, S) to
    (q, p, couplings).  Each monitor returns one value per sample.
    """
    kmax = n if kmax is None else kmax
    if not (1 <= kmax <= n):
        raise DomainError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
    mons = {f"I_{k}": (lambda states, k=k: traces(states, k)[k - 1]) for k in range(1, kmax + 1)}
    mons["H"] = lambda states: lax_energy(*chart(states.T))
    return mons


def pack_state(state: PhaseState) -> np.ndarray:
    return np.concatenate([state.q, state.p])


def unpack_state(sys: TodaSystem, y: np.ndarray) -> PhaseState:
    n = sys.n
    if len(y) != 2 * n:
        raise DomainError(f"packed state must have length {2 * n}")
    return PhaseState(q=y[:n], p=y[n : 2 * n])


def state_labels(sys: TodaSystem) -> tuple[str, ...]:
    n = sys.n
    return tuple(f"q_{i}" for i in range(1, n + 1)) + tuple(f"p_{i}" for i in range(1, n + 1))


def flow_field(sys: TodaSystem):
    """Vector field over the packed state [q, p] for the integrator."""
    n = sys.n
    two_gsq = 2.0 * sys.g**2

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        q = y[:n]
        force = two_gsq * np.exp(2.0 * (q[:-1] - q[1:]))
        out = np.empty(2 * n)
        out[:n] = y[n:]
        out[n:] = 0.0
        out[n : 2 * n - 1] -= force
        out[n + 1 :] += force
        return out

    return rhs


def invariant_monitors(sys: TodaSystem, kmax: int | None = None):
    """Monitors I_1..I_kmax and H over recorded packed states [q, p]."""
    return lax_trace_monitors(sys.n, kmax, lambda states, k: invariants(sys, states, k), lax_chart(sys))


def run(
    sys: TodaSystem,
    state: PhaseState,
    cfg: IntegratorConfig,
    kmax: int | None = None,
) -> Trajectory:
    """Integrate the chain, monitoring the trace invariants and the energy."""
    _check_dims(sys, state)
    return integrate(
        flow_field(sys),
        pack_state(state),
        cfg,
        monitors=invariant_monitors(sys, kmax),
        labels=state_labels(sys),
    )


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
    unpack_state(sys, traj.states[0])  # validates the start; rhs reads packed states unchecked
    if cfg is None:
        cfg = IntegratorConfig(
            method="extrapolation", rtol=1e-12, atol=1e-14, t_final=max(traj.times[-1], 1e-6)
        )

    base = flow_field(sys)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        y = z[: 2 * n]
        amat = z[2 * n :].reshape(n, n)
        _, mmat = lax_pair(sys, y)
        return np.concatenate([base(t, y), (-mmat @ amat).ravel()])

    z0 = np.concatenate([traj.states[0], np.eye(n).ravel()])
    out = integrate_at_times(rhs, z0, traj.times, cfg)
    return [row[2 * n :].reshape(n, n).copy() for row in out.states]
