"""Killing tensors from momentum-homogeneous conserved quantities.

A conserved quantity that is a homogeneous degree-k polynomial in the
momenta of a geodesic Hamiltonian is the full contraction

    I = (1/k!) K^{mu_1 ... mu_k} p_{mu_1} ... p_{mu_k}

of a rank-k Killing tensor K.  The components are recovered pointwise by
exact multivariate polarization: evaluating I on sums of basis momentum
vectors (entries in {0, 1, ..., k}) and combining with alternating signs.
Killing-ness itself is verified operationally, through vanishing Poisson
brackets with the geodesic Hamiltonian and through conservation along
integrated geodesics; for quadratic Hamiltonians this is equivalent to the
vanishing symmetrised covariant derivative.

For the lifted Toda invariants I_k = Tr(L^k)/k the bracket is exact: the
gradient follows from dI_k = Tr(L^{k-1} dL) (Flaschka 1974), and both lifts
share it, differing only in how the couplings depend on the momenta (p_y g
or p_omega).  The geodesics are integrated together as one batch.  The
finite-difference bracket poisson_bracket_fd remains as an independent
cross-check for any pair of phase-space functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from . import eisenhart, oplift
from .errors import ConditioningError, DomainError, NotHomogeneousError
from .integrate import IntegratorConfig, integrate_at_times, monitor_drift
from .toda import TodaSystem, lax_energy, lax_trace_gradient, lax_traces

__all__ = [
    "KillingReport",
    "LIFTS",
    "extract_tensor",
    "contract_table",
    "poisson_bracket_fd",
    "verify_killing",
    "isometry_flow",
]

Invariant = Callable[[np.ndarray, np.ndarray], float]

_HOMOGENEITY_TOL = 1e-8
_RESIDUAL_GATE = 1e-9
_FD_STEP = 1e-5
# sample times of each checked geodesic, evenly spaced over [0, t_final]
_DRIFT_SAMPLES = 31


def _multi_indices(rank: int, dim: int):
    """Sorted 1-based multi-indices of the given rank."""
    return combinations_with_replacement(range(1, dim + 1), rank)


def _multiplicity_factor(idx: tuple[int, ...]) -> float:
    """Product of factorials of repeat counts within a sorted multi-index."""
    out = 1.0
    run = 1
    for a, b in zip(idx, idx[1:]):
        run = run + 1 if a == b else 1
        out *= run if a == b else 1
    return out


def contract_table(table: dict[tuple[int, ...], float], rank: int, momenta) -> float:
    """Evaluate (1/k!) K^{mu_1..mu_k} p_{mu_1} ... p_{mu_k} from sorted components."""
    p = np.asarray(momenta, dtype=float)
    total = 0.0
    for idx, val in table.items():
        prod = val
        for mu in idx:
            prod *= p[mu - 1]
        total += prod / _multiplicity_factor(idx)
    return total


def extract_tensor(
    invariant: Invariant, rank: int, dim: int, position
) -> dict[tuple[int, ...], float]:
    """Recover the symmetric tensor components at one position.

    The invariant must be homogeneous of degree `rank` in the momenta
    (checked by a scaling probe).  Components come from the polarization
    identity, exact for polynomials; a contraction residual gate guards
    against a non-polynomial input slipping through.
    """
    if rank < 1 or rank > 8:
        raise DomainError(f"rank must be in 1..8, got {rank}")
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    pos = np.asarray(position, dtype=float)
    if pos.shape != (dim,):
        raise DomainError(f"position must have length {dim}")

    probe = (1.0 + np.arange(dim)) / dim
    f1 = invariant(pos, probe)
    f2 = invariant(pos, 2.0 * probe)
    if abs(f2 - (2.0**rank) * f1) > _HOMOGENEITY_TOL * max(1.0, abs(f2)):
        raise NotHomogeneousError(
            f"scaling probe failed: f(2p) = {f2}, 2^k f(p) = {(2.0 ** rank) * f1}"
        )

    # multi-indices share sub-multisets, so each polarization vector is evaluated once
    values: dict[tuple[int, ...], float] = {}
    table: dict[tuple[int, ...], float] = {}
    for idx in _multi_indices(rank, dim):
        acc = 0.0
        for mask in range(1, 2**rank):
            sub = tuple(idx[slot] for slot in range(rank) if mask >> slot & 1)
            if sub not in values:
                vec = np.zeros(dim)
                for mu in sub:
                    vec[mu - 1] += 1.0
                values[sub] = invariant(pos, vec)
            acc += (-1.0) ** (rank - len(sub)) * values[sub]
        table[idx] = acc

    rng = np.random.default_rng(0)
    for _ in range(3):
        p = rng.uniform(-1.0, 1.0, dim)
        want = invariant(pos, p)
        got = contract_table(table, rank, p)
        if abs(got - want) > _RESIDUAL_GATE * max(1.0, abs(want)):
            raise ConditioningError(
                f"extracted tensor fails its contraction gate: |{got} - {want}|"
            )
    return table


def poisson_bracket_fd(
    f: Invariant, g: Invariant, position, momenta, h: float = _FD_STEP, richardson: bool = False
) -> float:
    """Central-difference Poisson bracket {f, g} at a phase point.

    Error is O(h^2); richardson=True combines steps h and h/2 for O(h^4).
    """
    if not (h > 0.0):
        raise DomainError("finite-difference step must be positive")
    if richardson:
        coarse = poisson_bracket_fd(f, g, position, momenta, h)
        fine = poisson_bracket_fd(f, g, position, momenta, 0.5 * h)
        return (4.0 * fine - coarse) / 3.0

    pos = np.asarray(position, dtype=float)
    mom = np.asarray(momenta, dtype=float)
    d = len(pos)
    total = 0.0
    for mu in range(d):
        dx = np.zeros(d)
        dx[mu] = h
        df_dq = (f(pos + dx, mom) - f(pos - dx, mom)) / (2.0 * h)
        dg_dq = (g(pos + dx, mom) - g(pos - dx, mom)) / (2.0 * h)
        df_dp = (f(pos, mom + dx) - f(pos, mom - dx)) / (2.0 * h)
        dg_dp = (g(pos, mom + dx) - g(pos, mom - dx)) / (2.0 * h)
        if not all(map(math.isfinite, (df_dq, dg_dq, df_dp, dg_dp))):
            raise DomainError("non-finite sample in Poisson bracket")
        total += df_dq * dg_dp - df_dp * dg_dq
    return total


@dataclass(frozen=True)
class KillingReport:
    """Outcome of one verification run, serialisable as JSON."""

    lift: str
    k: int
    bracket_max: float
    drift_max: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lift": self.lift,
            "k": self.k,
            "bracket_max": self.bracket_max,
            "drift_max": self.drift_max,
            "pass": self.passed,
        }


# the lifts whose I_k verify_killing checks, by name
LIFTS = {picture.name: picture for picture in (eisenhart.EISENHART, oplift.GENERALIZED)}


def verify_killing(
    sys: TodaSystem,
    lift: str,
    k: int,
    samples: int = 100,
    seed: int = 0,
    geodesics: int = 10,
    t_final: float = 20.0,
) -> KillingReport:
    """Check the rank-k invariant of a lift for Killing behaviour.

    Reports the max scaled Poisson bracket |{I_k, H}| / max(1, |I_k| |H|)
    over random phase points and the max relative drift of I_k along random
    geodesics.  PASS needs bracket < 1e-5 and drift < 1e-8.

    The bracket is exact to roundoff: {I_k, H} = grad I_k . X_H, with the
    gradient from the Lax matrix (see toda.lax_trace_gradient) and X_H the lift's
    own flow field, so it does not depend on any integrator or step size.
    The geodesics are integrated together as one (dim, geodesics) batch by
    order-12 extrapolation, and each one's drift is read off 31 samples
    evenly spaced over [0, t_final].  The phase points are
    drawn first and the geodesic starts after them, from one seeded
    generator, so a seed always selects the same points.
    """
    picture = LIFTS.get(lift) if isinstance(lift, str) else None
    if picture is None:
        raise DomainError(f"unknown lift {lift!r}")
    if not (1 <= k <= sys.n):
        raise DomainError(f"k must satisfy 1 <= k <= {sys.n}, got {k}")
    if samples < 1 or geodesics < 1:
        raise DomainError("samples and geodesics must be positive")

    rng = np.random.default_rng(seed)
    points = np.stack([picture.random_state(rng, sys.n) for _ in range(samples)], axis=1)
    starts = np.stack([picture.random_state(rng, sys.n) for _ in range(geodesics)], axis=1)
    chart, field = picture.chart(sys.n, sys.g), picture.flow_field(sys)

    q, p, c = chart(points)
    value, d_q, d_p, d_c = lax_trace_gradient(q, p, c, k)
    bracket = np.sum(picture.gradient(sys.g, d_q, d_p, d_c) * field(0.0, points), axis=0)
    scale = np.maximum(1.0, np.abs(value) * np.abs(lax_energy(q, p, c)))
    bracket_max = float(np.max(np.abs(bracket) / scale))

    cfg = IntegratorConfig(method="extrapolation", rtol=1e-10, atol=1e-12, t_final=t_final)
    traj = integrate_at_times(field, starts, np.linspace(0.0, t_final, _DRIFT_SAMPLES), cfg)
    # states are (time, component, geodesic); evaluate I_k on all of them at once
    flat = traj.states.transpose(1, 0, 2).reshape(len(starts), -1)
    along = lax_traces(*chart(flat), k)[k - 1].reshape(len(traj), geodesics)
    drift_max = max(monitor_drift(values) for values in along.T)

    return KillingReport(
        lift=lift,
        k=k,
        bracket_max=bracket_max,
        drift_max=drift_max,
        passed=bracket_max < 1e-5 and drift_max < 1e-8,
    )


def isometry_flow(kind: str, index: int, state: oplift.OPState, parameter: float) -> oplift.OPState:
    """Finite isometry of the generalised lift metric.

    "omega-translation" shifts omega_index; "lambda" shifts q_index while
    rescaling the neighbouring omegas and their momenta so the energy is
    untouched (boundary terms are simply absent).  Lambda flows move the
    positions off the centered slice, so the result is tagged non-centered.
    """
    n = state.n
    if kind == "omega-translation":
        if not (1 <= index <= n - 1):
            raise DomainError(f"omega index must be in 1..{n - 1}, got {index}")
        omega = state.omega.copy()
        omega[index - 1] += parameter
        return oplift.OPState(
            q=state.q, omega=omega, p_q=state.p_q, p_omega=state.p_omega, centered=state.centered
        )
    if kind == "lambda":
        if not (1 <= index <= n):
            raise DomainError(f"lambda index must be in 1..{n}, got {index}")
        q = state.q.copy()
        omega = state.omega.copy()
        p_omega = state.p_omega.copy()
        q[index - 1] += parameter
        scale = math.exp(parameter)
        if index <= n - 1:
            omega[index - 1] *= scale
            p_omega[index - 1] /= scale
        if index >= 2:
            omega[index - 2] /= scale
            p_omega[index - 2] *= scale
        return oplift.OPState(q=q, omega=omega, p_q=state.p_q, p_omega=p_omega, centered=False)
    raise DomainError(f"unknown isometry generator kind {kind!r}")
