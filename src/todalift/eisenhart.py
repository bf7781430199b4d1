"""The one-extra-dimension Eisenhart lift of the Toda chain.

Positions (q_1..q_n, y) with metric diag(1, ..., 1, 1/(2V(q))) turn the chain
into geodesic motion: the geodesic Hamiltonian is

    H = sum_i p_i^2 / 2 + p_y^2 V(q),

p_y is conserved, and p_y = 1 reproduces the original trajectories while
p_y = c reproduces the chain with every coupling scaled by c.  The Lax pair
lifts by attaching one factor of p_y to every coupling, which makes all of
its entries homogeneous of degree one in the momenta; the lifted invariants
are then momentum polynomials, the raw material for Killing tensors.

Geodesics are integrated in Hamiltonian form throughout; the metric itself
is only materialised for tests and tensor comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, DomainError
from .integrate import IntegratorConfig, Trajectory, integrate
from .toda import PhaseState, TodaSystem, lax_pair, lax_trace_monitors, packed_lax_traces, potential, power_traces

__all__ = [
    "EisenhartState",
    "metric_eisenhart",
    "metric_eisenhart_inverse",
    "hamiltonian_eisenhart",
    "lifted_lax",
    "lifted_invariants",
    "lax_chart",
    "lift_from_toda",
    "pack_state",
    "unpack_state",
    "state_labels",
    "flow_field",
    "geodesic_monitors",
    "run_geodesic",
]


@dataclass(frozen=True)
class EisenhartState:
    """Point of the lifted phase space: (q, y; p, p_y)."""

    q: np.ndarray
    y: float
    p: np.ndarray
    p_y: float

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise DomainError("q and p must be equal-length vectors")
        vals = [float(self.y), float(self.p_y)]
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p)) and np.all(np.isfinite(vals))):
            raise DomainError("state entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "p_y", float(self.p_y))

    @property
    def n(self) -> int:
        return len(self.q)


def _check_dims(sys: TodaSystem, state: EisenhartState):
    if state.n != sys.n:
        raise DomainError(f"state has {state.n} particles, system has {sys.n}")


def metric_eisenhart(sys: TodaSystem, q) -> np.ndarray:
    """Lift metric diag(1, ..., 1, 1/(2V(q))) over positions (q, y)."""
    v = potential(sys, q)
    if v <= 0.0:
        raise DegenerateMetricError("lift metric degenerates where the potential vanishes")
    diag = np.ones(sys.n + 1)
    diag[-1] = 1.0 / (2.0 * v)
    return np.diag(diag)


def metric_eisenhart_inverse(sys: TodaSystem, q) -> np.ndarray:
    v = potential(sys, q)
    if v <= 0.0:
        raise DegenerateMetricError("lift metric degenerates where the potential vanishes")
    diag = np.ones(sys.n + 1)
    diag[-1] = 2.0 * v
    return np.diag(diag)


def hamiltonian_eisenhart(sys: TodaSystem, state: EisenhartState) -> float:
    """Geodesic energy sum(p^2)/2 + p_y^2 V(q)."""
    _check_dims(sys, state)
    return float(0.5 * np.dot(state.p, state.p) + state.p_y**2 * potential(sys, state.q))


def lifted_lax(sys: TodaSystem, state: EisenhartState) -> tuple[np.ndarray, np.ndarray]:
    """Lax pair with every coupling multiplied by p_y.

    Each entry is homogeneous of degree one in (p, p_y), so Tr(L^k) is a
    degree-k momentum polynomial.
    """
    _check_dims(sys, state)
    return lax_pair(TodaSystem(n=sys.n, g=state.p_y * sys.g), np.concatenate([state.q, state.p]))


def lifted_invariants(sys: TodaSystem, state: EisenhartState, kmax: int) -> np.ndarray:
    """Tr(L^k)/k of the lifted Lax matrix for k = 1..kmax: shape (kmax,) for
    one EisenhartState, (kmax, S) for packed states [q, y, p, p_y] of shape (S, 2n+2)."""
    if isinstance(state, EisenhartState):
        return power_traces(lifted_lax(sys, state)[0], kmax)
    return packed_lax_traces(state, 2 * sys.n + 2, lax_chart(sys), kmax)


def lax_chart(sys: TodaSystem):
    """Map component-first packed states [q, y, p, p_y] (2n+2, M) to the Lax data (q, p, p_y g)."""
    n = sys.n
    g = sys.g[:, None]
    return lambda x: (x[:n], x[n + 1 : 2 * n + 1], x[2 * n + 1] * g)


def lift_from_toda(state: PhaseState, p_y: float = 1.0, y: float = 0.0) -> EisenhartState:
    return EisenhartState(q=state.q, y=y, p=state.p, p_y=p_y)


def pack_state(state: EisenhartState) -> np.ndarray:
    return np.concatenate([state.q, [state.y], state.p, [state.p_y]])


def unpack_state(sys: TodaSystem, vec: np.ndarray) -> EisenhartState:
    n = sys.n
    if len(vec) != 2 * n + 2:
        raise DomainError(f"packed state must have length {2 * n + 2}")
    return EisenhartState(q=vec[:n], y=float(vec[n]), p=vec[n + 1 : 2 * n + 1], p_y=float(vec[2 * n + 1]))


def state_labels(sys: TodaSystem) -> tuple[str, ...]:
    n = sys.n
    return (
        tuple(f"q_{i}" for i in range(1, n + 1))
        + ("y",)
        + tuple(f"p_{i}" for i in range(1, n + 1))
        + ("p_y",)
    )


def flow_field(sys: TodaSystem):
    """Geodesic vector field over the packed state [q, y, p, p_y].

    vec is one state of shape (2n+2,) or a component-first batch of shape
    (2n+2, B).
    """
    n = sys.n
    gsq = sys.g**2
    gsq_col = gsq[:, None]

    def rhs(t: float, vec: np.ndarray) -> np.ndarray:
        q = vec[:n]
        p = vec[n + 1 : 2 * n + 1]
        p_y = vec[2 * n + 1]
        w = (gsq if vec.ndim == 1 else gsq_col) * np.exp(2.0 * (q[:-1] - q[1:]))
        out = np.zeros(vec.shape)
        out[:n] = p
        out[n] = 2.0 * p_y * w.sum(axis=0)
        force = 2.0 * p_y**2 * w
        out[n + 1 : 2 * n] -= force
        out[n + 2 : 2 * n + 1] += force
        return out

    return rhs


def geodesic_monitors(sys: TodaSystem, kmax: int | None = None):
    """Monitors p_y, lifted I_1..I_kmax and the lift energy over recorded states."""
    mons = {"p_y": lambda states: states[:, 2 * sys.n + 1]}
    mons.update(
        lax_trace_monitors(sys.n, kmax, lambda states, k: lifted_invariants(sys, states, k), lax_chart(sys))
    )
    return mons


def run_geodesic(
    sys: TodaSystem,
    state: EisenhartState,
    cfg: IntegratorConfig,
    kmax: int | None = None,
) -> Trajectory:
    _check_dims(sys, state)
    return integrate(
        flow_field(sys),
        pack_state(state),
        cfg,
        monitors=geodesic_monitors(sys, kmax),
        labels=state_labels(sys),
    )
