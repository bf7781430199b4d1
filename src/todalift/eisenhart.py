"""The one-extra-dimension Eisenhart lift of the Toda chain.

Positions (q_1..q_n, y) with metric diag(1, ..., 1, 1/(2V(q))) turn the chain
into geodesic motion: the geodesic Hamiltonian is

    H = sum_i p_i^2 / 2 + p_y^2 V(q),

p_y is conserved, and p_y = 1 reproduces the original trajectories while
p_y = c reproduces the chain with every coupling scaled by c.  The Lax pair
lifts by attaching one factor of p_y to every coupling, which makes all of
its entries homogeneous of degree one in the momenta; the lifted invariants
are then momentum polynomials, the raw material for Killing tensors.

Geodesics are integrated in Hamiltonian form throughout; the energy, the
metric and the runner come from the EISENHART record (see toda.Picture), and
the metric is only materialised for tests and tensor comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toda import Picture, PictureState, TodaSystem, check_dims, gaps, lax_pair, power_traces

__all__ = [
    "EisenhartState",
    "hamiltonian_eisenhart",
    "lifted_lax",
    "lifted_invariants",
    "flow_field",
    "EISENHART",
    "run_geodesic",
]


@dataclass(frozen=True)
class EisenhartState(PictureState):
    """Point of the lifted phase space: (q, y; p, p_y).  y and p_y are floats,
    given as scalars or, from a packed vector, as length-1 arrays."""

    q: np.ndarray
    y: float
    p: np.ndarray
    p_y: float

    def __post_init__(self):
        n = np.size(self.q)
        self._store(q=n, y=1, p=n, p_y=1)
        object.__setattr__(self, "y", float(self.y[0]))
        object.__setattr__(self, "p_y", float(self.p_y[0]))


def lifted_lax(sys: TodaSystem, state: EisenhartState) -> tuple[np.ndarray, np.ndarray]:
    """Lax pair with every coupling multiplied by p_y.

    Each entry is homogeneous of degree one in (p, p_y), so Tr(L^k) is a
    degree-k momentum polynomial.
    """
    check_dims(sys, state)
    return lax_pair(sys.scaled(state.p_y), np.concatenate([state.q, state.p]))


def lifted_invariants(sys: TodaSystem, state: EisenhartState, kmax: int) -> np.ndarray:
    """Tr(L^k)/k of the lifted Lax matrix for k = 1..kmax: shape (kmax,) for
    one EisenhartState, (kmax, S) for packed states [q, y, p, p_y] of shape (S, 2n+2)."""
    if isinstance(state, EisenhartState):
        return power_traces(lifted_lax(sys, state)[0], kmax)
    return EISENHART.traces(sys.n, sys.g, state, kmax)


def flow_field(sys: TodaSystem):
    """Geodesic vector field over the packed state [q, y, p, p_y].

    vec is one state of shape (2n+2,) or a component-first batch of shape
    (2n+2, B).
    """
    n = sys.n
    gsq = sys.g**2
    gsq_col = gsq[:, None]

    def rhs(t: float, vec: np.ndarray) -> np.ndarray:
        buf = np.zeros((n + 1,) + vec.shape[1:])  # as in the chain's field
        w = gaps(vec[:n], out=buf[1:n])
        w *= gsq if vec.ndim == 1 else gsq_col
        p_y = vec[2 * n + 1]
        out = np.zeros(vec.shape)  # p_y is conserved
        out[:n] = vec[n + 1 : 2 * n + 1]
        out[n] = 2.0 * p_y * np.add.reduce(w, axis=0)
        w *= 2.0 * p_y**2  # the forces
        np.subtract(buf[:-1], buf[1:], out=out[n + 1 : 2 * n + 1])
        return out

    return rhs


EISENHART = Picture(
    name="eisenhart",
    state=EisenhartState,
    fields=("q", "y", "p", "p_y"),
    fibre_labels=lambda n: ("y",),
    couplings=lambda p_y, g: p_y * g,
    # dI/dp_y = g . dI/dc
    coupling_grad=lambda d_c, g: np.sum(g * d_c, axis=0, keepdims=True),
    flow_field=flow_field,
    invariants=lambda sys, states, k: lifted_invariants(sys, states, k),
    extra_monitors=lambda n: {"p_y": lambda states: states[:, 2 * n + 1]},
)


hamiltonian_eisenhart = EISENHART.energy  # sum(p^2)/2 + p_y^2 V(q)
run_geodesic = EISENHART.run
