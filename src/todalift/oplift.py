"""The generalised (symmetric-space) lift of the Toda chain.

The arena is the space of symmetric positive definite unit-determinant
matrices x, factored as x = Z h^2 Z^T with Z unit upper triangular and
h^2 = diag(exp(2 q_1), ..., exp(2 q_n)).  Restricting Z to the chain
parameterisation Z = exp(sum_a omega_a M_{a,a+1}) gives coordinates
(q, omega) and the geodesic Hamiltonian

    H = sum_a p_{q_a}^2 / 2 + sum_a p_{omega_a}^2 exp(2 (q_a - q_{a+1})),

a multi-particle Eisenhart lift: one omega per coupling, and p_omega = g on
the trajectories that reproduce the chain.  Auto-parallel curves are exact,
x(t) = exp(B t) x0 with B = xdot0 x0^{-1}, which gives an integrator-free
route to the same dynamics through the UDU projection.  exact_coordinates
reads that projection off the trailing minors of x(t), the tau-functions of
the chain, with the graded-QR core of toda.evolve_A, never forming x(t).

Right-invariant one-forms contracted with the velocity supply conserved
monitors.  Where a closed form for them admits more than one reading, the
coefficients are extracted numerically from xdot x^{-1} and the candidate
closed forms are compared against that ground truth (see the findings
module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintError, DefinitenessError, DomainError
# integrate is not called here, but the benchmark's tracer tests read it off this module
from .integrate import IntegratorConfig, Trajectory, integrate, integrate_at_times  # noqa: F401
from .linalg import udu_decompose, unitriangular_inverse
from .toda import Picture, PictureState, TodaSystem, _blocks, _graded_factor, check_dims, gap_buffer, gaps, lax_traces

__all__ = [
    "OPState",
    "XPoint",
    "FormMonitor",
    "AdjointExpansion",
    "ReductionReport",
    "z_from_omega",
    "z_dot_from_omega",
    "build_x",
    "project_to_coordinates",
    "generalized_hamiltonian",
    "generalized_invariants",
    "exact_coordinates",
    "exact_geodesic",
    "exact_geodesic_raw",
    "initial_xdot",
    "xdot_xinv",
    "monitors_general",
    "monitors_n2",
    "adjoint_expansion",
    "reduction_check",
    "compare_reduced_eisenhart",
    "flow_field_generalized",
    "GENERALIZED",
    "run_geodesic_generalized",
]

_CENTER_TOL = 1e-10


@dataclass(frozen=True)
class OPState(PictureState):
    """Point of the lifted phase space: (q, omega; p_q, p_omega).

    q is centered (sum q = 0) because the unit-determinant constraint pins
    the centre of mass; flows that deliberately leave the centered slice set
    centered=False.
    """

    q: np.ndarray
    omega: np.ndarray
    p_q: np.ndarray
    p_omega: np.ndarray
    centered: bool = True

    def __post_init__(self):
        n = np.size(self.q)
        self._store(q=n, omega=n - 1, p_q=n, p_omega=n - 1)
        q = self.q
        if self.centered and abs(float(np.sum(q))) > _CENTER_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise ConstraintError(f"positions must be centered, sum q = {float(np.sum(q))}")

    def omega_dot(self) -> np.ndarray:
        """Velocities 2 p_omega_a exp(2 (q_a - q_{a+1})) implied by the momenta."""
        return 2.0 * self.p_omega * gaps(self.q)


@dataclass(frozen=True)
class XPoint:
    """Symmetric positive definite matrix with unit determinant."""

    x: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("x must be a square matrix")
        if not np.all(np.isfinite(arr)):
            raise DomainError("x must be finite")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - arr.T))) > 1e-8 * scale:
            raise ConstraintError("x must be symmetric")
        # pivot-based determinant; the measurement itself degrades with the
        # grading of the matrix, so the gate widens with the pivot spread
        try:
            factors = udu_decompose(arr)
        except DefinitenessError as exc:
            raise ConstraintError(f"x must be positive definite: {exc}") from exc
        logdet = float(np.sum(np.log(factors.hsq)))
        spread = float(np.max(factors.hsq) / np.min(factors.hsq))
        tol = max(1e-10, 64.0 * np.finfo(float).eps * spread)
        if abs(math.expm1(logdet)) > tol:
            raise ConstraintError(f"x must have unit determinant, got det = {math.exp(logdet)}")
        object.__setattr__(self, "x", arr)

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class FormMonitor:
    """Named quantity conserved along geodesics.

    evaluate takes one OPState, or an unvalidated OPState whose fields are
    component-first batches (see toda.Picture.view) and then returns one
    value per state.
    """

    name: str
    evaluate: Callable[[OPState], float | np.ndarray]


def _chain_z(omega, omega_dot=None) -> tuple[np.ndarray, np.ndarray]:
    """Chain Z = exp(sum_a omega_a M_{a,a+1}) and Zdot, by the product rule on Z_ab.

    omega and omega_dot are (n-1,) or component-first (n-1, S); Z and Zdot
    are (n, n) or (S, n, n), with Zdot = 0 when omega_dot is not given.
    """
    om = np.asarray(omega, dtype=float).T
    dom = np.zeros_like(om) if omega_dot is None else np.asarray(omega_dot, dtype=float).T
    n = om.shape[-1] + 1
    z = np.zeros(om.shape[:-1] + (n, n))
    zd = np.zeros_like(z)
    for a in range(n):
        z[..., a, a] = 1.0
        prod, dprod = 1.0, 0.0
        for b in range(a + 1, n):
            dprod = dprod * om[..., b - 1] + prod * dom[..., b - 1]
            prod = prod * om[..., b - 1]
            z[..., a, b] = prod / math.factorial(b - a)
            zd[..., a, b] = dprod / math.factorial(b - a)
    return z, zd


def z_from_omega(omega, n: int) -> np.ndarray:
    """Chain unitriangular matrix exp(sum_a omega_a M_{a,a+1}) in closed form:

        Z_ab = omega_a omega_{a+1} ... omega_{b-1} / (b-a)!   for a < b.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if om.shape != (n - 1,):
        raise DomainError(f"omega must have length n-1={n - 1}, got {om.shape}")
    return _chain_z(om)[0]


def z_dot_from_omega(omega, omega_dot) -> np.ndarray:
    """Time derivative of the chain Z for given omega velocities."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    dom = np.atleast_1d(np.asarray(omega_dot, dtype=float))
    if om.shape != dom.shape:
        raise DomainError("omega and omega_dot must have equal length")
    return _chain_z(om, dom)[1]


def build_x(q, omega) -> XPoint:
    """Assemble x = Z h^2 Z^T from centered positions and chain omegas.

    The (machine-level) centering residual of q is removed before
    exponentiating so that det x is exactly one.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = len(q)
    total = float(np.sum(q))
    if abs(total) > _CENTER_TOL * max(1.0, float(np.max(np.abs(q)))):
        raise ConstraintError(f"positions must be centered, sum q = {total}")
    qc = q - total / n
    z = z_from_omega(omega, n)
    h2 = np.exp(2.0 * qc)
    return XPoint(x=(z * h2) @ z.T)


def project_to_coordinates(x) -> tuple[np.ndarray, np.ndarray]:
    """Read (q, omega) back off a lift point via the UDU factorisation.

    q = log(hsq)/2 and omega is the superdiagonal of Z; higher
    superdiagonals of Z are not consulted (they are determined by the chain
    closed form on the restricted submanifold).
    """
    arr = x.x if isinstance(x, XPoint) else np.asarray(x, dtype=float)
    factors = udu_decompose(arr)
    q = 0.5 * np.log(factors.hsq)
    omega = np.diag(factors.z, 1).copy()
    return q, omega


def generalized_invariants(state: OPState, kmax: int) -> np.ndarray:
    """Tr(L^k)/k for the momentum-promoted Lax matrix, k = 1..kmax: shape (kmax,) for
    one OPState, (kmax, S) for packed states [q, omega, p_q, p_omega] of shape (S, 4n-2).

    L is the chain's Lax matrix with each coupling g_a replaced by p_omega_a, so
    its entries are homogeneous of degree one in the momenta and I_2 is the
    generalised Hamiltonian."""
    if isinstance(state, OPState):
        return lax_traces(state.q[:, None], state.p_q[:, None], state.p_omega[:, None], kmax)[:, 0]
    return GENERALIZED.traces(max(2, (np.shape(state)[-1] + 2) // 4), None, state, kmax)


def _require_velocity_state(state: OPState, sys: TodaSystem) -> None:
    """The start of an exact geodesic: n matches the system and sum(p_q) = 0."""
    check_dims(sys, state)
    total_p = float(np.sum(state.p_q))
    if abs(total_p) > _CENTER_TOL * max(1.0, float(np.max(np.abs(state.p_q)))):
        raise ConstraintError(f"sum of q-momenta must vanish, got {total_p}")


def initial_xdot(state: OPState, sys: TodaSystem) -> np.ndarray:
    """Velocity matrix xdot = Zdot h2 Z^T + Z d(h2)/dt Z^T + Z h2 Zdot^T.

    Velocities are the ones implied by the momenta.  Requires sum(p_q) = 0
    so that the motion stays on the unit-determinant slice
    (Tr(xdot x^{-1}) = 2 sum(qdot) = 0).
    """
    _require_velocity_state(state, sys)
    z = z_from_omega(state.omega, state.n)
    zd = z_dot_from_omega(state.omega, state.omega_dot())
    h2 = np.exp(2.0 * state.q)
    h2dot = 2.0 * state.p_q * h2
    wing = (zd * h2) @ z.T
    middle = (z * h2dot) @ z.T
    return wing + wing.T + 0.5 * (middle + middle.T)


def exact_geodesic_raw(x0: XPoint, xdot0, t: float) -> np.ndarray:
    """Auto-parallel curve exp(B t) x0 with B = xdot0 x0^{-1}, no cleanup.

    Evaluated in factored form: with x0 = w w^T (w = Z h from the UDU
    factors) and the symmetric S = w^{-1} xdot0 w^{-T} = Q Lam Q^T,

        exp(B t) x0 = w Q exp(Lam t) Q^T w^T,

    which is the same matrix as mat_exp(B t) @ x0 but keeps only half the
    dynamic range in any intermediate and is symmetric to the bit.  The
    determinant still carries the raw floating-point drift; use
    exact_geodesic for the renormalised point.
    """
    xd = np.asarray(xdot0, dtype=float)
    if xd.shape != x0.x.shape:
        raise DomainError("xdot0 must match the shape of x0")
    if not np.all(np.isfinite(xd)):
        raise DomainError("xdot0 must be finite")
    scale = max(1.0, float(np.max(np.abs(xd))))
    if float(np.max(np.abs(xd - xd.T))) > 1e-9 * scale:
        raise ConstraintError("xdot0 must be symmetric")
    b = np.linalg.solve(x0.x, xd).T
    if abs(float(np.trace(b))) > _CENTER_TOL * max(1.0, float(np.max(np.abs(b)))):
        raise ConstraintError(f"Tr(xdot x^-1) must vanish, got {float(np.trace(b))}")
    factors = udu_decompose(x0.x)
    w = factors.z * np.sqrt(factors.hsq)
    half = np.linalg.solve(w, xd)
    s = np.linalg.solve(w, half.T).T
    s = 0.5 * (s + s.T)
    lam, qmat = np.linalg.eigh(s)
    m = w @ qmat
    return (m * np.exp(lam * t)) @ m.T


def exact_coordinates(state: OPState, sys: TodaSystem, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UDU coordinates (q, omega, qdot) of the exact geodesic through state, at times in any order.

    With w = Z(omega) e^q (so x0 = w w^T) and S = w^{-1} xdot0 w^{-T} = Q Lam Q^T,
    Lam descending, the curve is x(t) = M e^{Lam t} M^T for M = w Q.  Its UDU
    coordinates follow from the trailing minors D_a = det x[a:, a:], the
    tau-functions of the chain, without forming x(t): toda._graded_factor
    factors e^{(Lam - lam_max) t/2} M^T, its columns reversed, as
    Q_t diag(e^{l_t}) U_t, whose leading k columns belong to the trailing
    k x k block of x(t).  For particles a = 1..n and j = n - a (from 0):

        q_a     = (log D_a - log D_{a+1}) / 2 = l_j + lam_max t / 2,
        qdot_a  = d/dt q_a = sum_i lam_i (Q_t)_ij^2 / 2,
        omega_a = Z(t)_{a,a+1} = (U_t)_{j-1,j}     (a < n),

    the last by Cramer's rule on the UDU factorisation of x[a:, a:].  Where
    omega_a = 0 and p_omega_a = 0, x0 and xdot0 are block diagonal, so x(t)
    is too: the chain splits there, and each block is factored on its own
    (its D_a are the block's minors).  Shapes (T, n), (T, n-1), (T, n) for T
    times.
    """
    _require_velocity_state(state, sys)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or not np.all((times >= 0.0) & np.isfinite(times)):
        raise DomainError("times must be a 1-d array of finite non-negative values")
    ascending, back = np.unique(times, return_inverse=True)
    q, qdot = np.empty((2, len(ascending), sys.n))
    omega = np.zeros((len(ascending), sys.n - 1))  # 0 at each cut
    for lo, hi in _blocks((state.omega == 0.0) & (state.p_omega == 0.0)):
        q[:, lo:hi], omega[:, lo : hi - 1], qdot[:, lo:hi] = _exact_block(
            state.q[lo:hi], state.omega[lo : hi - 1], state.p_q[lo:hi], state.p_omega[lo : hi - 1], ascending
        )
    return q[back], omega[back], qdot[back]


def _exact_block(q0, omega0, p_q, p_omega, times):
    """(q, omega, qdot) at the ascending times of one block of exact_coordinates."""
    z, zd = _chain_z(omega0, 2.0 * p_omega * gaps(q0))
    # w^{-1} xdot0 w^{-T} = 2 diag(p_q) + h^{-1} K h + (h^{-1} K h)^T with K = Z^{-1} Zdot
    wing = (_chain_z(-omega0)[0] @ zd) * np.exp(q0[None, :] - q0[:, None])
    lam, qmat = np.linalg.eigh(np.diag(2.0 * p_q) + wing + wing.T)
    lam, qmat = lam[::-1], qmat[:, ::-1]
    m = (z * np.exp(q0)) @ qmat
    qt, log_diag, unit = _graded_factor(0.5 * (lam - lam[0]), m[::-1].T, times)
    q = log_diag[:, ::-1] + 0.5 * lam[0] * times[:, None]
    return q, np.diagonal(unit, 1, axis1=1, axis2=2)[:, ::-1], 0.5 * (lam @ qt**2)[:, ::-1]


def exact_geodesic(x0: XPoint, xdot0, t: float) -> XPoint:
    """Auto-parallel curve through x0, renormalised back to det = 1."""
    raw = exact_geodesic_raw(x0, xdot0, t)
    logdet = float(np.sum(np.log(udu_decompose(0.5 * (raw + raw.T)).hsq)))
    return XPoint(x=raw * math.exp(-logdet / x0.dim))


def xdot_xinv(state) -> np.ndarray:
    """The right-invariant velocity matrix xdot x^{-1}.

    One (n, n) matrix for an OPState, (S, n, n) for a component-first batch
    of states.  Constant along geodesics; its basis coefficients are the
    contracted right-invariant forms.  For n = 2 it is read off the momenta,
    with c = exp(-2(q_1 - q_2)) omega_dot = 2 p_omega, so it stays finite
    on scattering starts:

        [[2 qdot_1 + omega c, omega_dot + 2 omega (qdot_2 - qdot_1) - omega^2 c],
         [c,                  2 qdot_2 - omega c]]
    """
    if len(state.q) == 2:
        omega, omega_dot, c = state.omega[0], state.omega_dot()[0], 2.0 * state.p_omega[0]
        rate_1, rate_2 = 2.0 * state.p_q[0], 2.0 * state.p_q[1]
        out = np.empty(np.shape(omega) + (2, 2))
        out[..., 0, 0] = rate_1 + omega * c
        out[..., 0, 1] = omega_dot + omega * (rate_2 - rate_1) - omega**2 * c
        out[..., 1, 0] = c
        out[..., 1, 1] = rate_2 - omega * c
        return out
    z, zd = _chain_z(state.omega, state.omega_dot())
    # Z = exp(N) for nilpotent N, so Z^-1 = exp(-N) is the chain Z at -omega
    zinv = _chain_z(-state.omega)[0]
    h2 = np.exp(2.0 * state.q).T[..., None, :]
    qdot = state.p_q.T[..., None, :]
    # xdot x^-1 = Zdot Z^-1 + Z (h2dot/h2) Z^-1 + Z h2 Zdot^T Z^-T h2^-1 Z^-1
    term1 = zd @ zinv
    term2 = (z * (2.0 * qdot)) @ zinv
    term3 = ((z * h2) @ np.swapaxes(zd, -1, -2)) @ (np.swapaxes(zinv, -1, -2) * (1.0 / h2)) @ zinv
    return term1 + term2 + term3


def monitors_general(sys: TodaSystem) -> list[FormMonitor]:
    """Conserved-form monitors for the generalised lift of sys.n particles.

    The gated charges are read off the momenta.  Their velocity forms carry
    exp(-2(q_a - q_{a+1})) omega_dot_a with omega_dot_a = 2 p_omega_a
    exp(2(q_a - q_{a+1})), which is inf * 0 once the particles scatter.
    cbar_{a+1}_a = exp(-2(q_a - q_{a+1})) omega_dot_a = 2 p_omega_a is the
    charge of the translation of omega_a.  lambda_a = p_{q_a} + p_{omega_a}
    omega_a - p_{omega_{a-1}} omega_{a-1} (boundary terms absent) is that of
    q_a + s with omega_a e^s and omega_{a-1} e^{-s} (killing.isometry_flow);
    this unit coefficient on p_q is the normalisation that is actually
    conserved, see the findings module.  rho_a, the diagonal form contracted
    with the velocity, is 2 p_{q_a} + exp(-2(q_a - q_{a+1})) omega_a
    omega_dot_a - (the same at a-1) = 2 lambda_a.  rho_a_{a+1}, the
    strictly-upper contraction read off xdot x^{-1}, is reported, not gated;
    for n >= 3 it overflows on scattering starts.
    """
    n = sys.n

    def lam(a):  # a = 1..n
        def value(s):
            out = s.p_q[a - 1]
            if a <= n - 1:
                out = out + s.p_omega[a - 1] * s.omega[a - 1]
            if a >= 2:
                out = out - s.p_omega[a - 2] * s.omega[a - 2]
            return out

        return value

    return (
        [FormMonitor(f"cbar_{a + 1}_{a}", lambda s, a=a: 2.0 * s.p_omega[a - 1]) for a in range(1, n)]
        + [FormMonitor(f"lambda_{a}", lam(a)) for a in range(1, n + 1)]
        + [FormMonitor(f"rho_{a}", lambda s, lam_a=lam(a): 2.0 * lam_a(s)) for a in range(1, n + 1)]
        + [FormMonitor(f"rho_{a}_{a + 1}", lambda s, a=a: xdot_xinv(s)[..., a - 1, a]) for a in range(1, n)]
    )


def monitors_n2(sys: TodaSystem) -> list[FormMonitor]:
    """The three right-invariant charges of the two-particle lift.

    In the relative variables q = q_1 - q_2, z = omega_1, with the
    velocities qdot = p_{q_1} - p_{q_2} and zdot = 2 p_omega exp(2q) implied
    by the momenta, each velocity form equals a momentum expression, which
    is the one evaluated (the velocity form is inf * 0 after scattering):

        C_1 = exp(-2q) zdot / 2                    = p_omega
        C_2 = -z qdot + (1 - z^2 exp(-2q)) zdot / 2 = -z qdot + p_omega (exp(2q) - z^2)
        C_3 = qdot / 2 + z exp(-2q) zdot / 2       = qdot / 2 + z p_omega

    The relative motion is a geodesic of the half-plane with coordinates
    (z, e^q).  C_1 is the charge of the translation of z, C_3 = (lambda_1 -
    lambda_2)/2 that of the dilation (q + s, z e^s), and -C_2 that of the
    special conformal map; p_omega^2 exp(2q) <= H bounds C_2's exp(2q).
    C_1 = g_1 picks out the trajectories of the chain, and
    differentiating C_3 under that condition gives the reduced equation of
    motion qddot = -4 g_1^2 exp(2q).
    """
    if sys.n != 2:
        raise DomainError("the explicit three-charge family is specific to n = 2")

    def c2(s):
        z = s.omega[0]
        return -z * (s.p_q[0] - s.p_q[1]) + s.p_omega[0] * (gaps(s.q)[0] - z**2)

    return [
        FormMonitor("C_1", lambda s: s.p_omega[0]),
        FormMonitor("C_2", c2),
        FormMonitor("C_3", lambda s: 0.5 * (s.p_q[0] - s.p_q[1]) + s.omega[0] * s.p_omega[0]),
    ]


@dataclass(frozen=True)
class AdjointExpansion:
    """Coefficients of Z G Z^{-1} over the basis {M_a, M_ab, Mbar_ab}.

    diag holds the traceless-diagonal coefficients for a = 1..n-1; upper and
    lower hold the strictly triangular coefficients in matrix layout.
    diag_residual is the consistency defect of the dependent last diagonal
    entry (zero when the conjugated generator is traceless).
    """

    dim: int
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    diag_residual: float


def _identify_basis(generator: np.ndarray) -> None:
    """Raise unless the matrix is exactly one of the basis elements."""
    n = generator.shape[0]
    nz = np.argwhere(generator != 0.0)
    if len(nz) == 0:
        return  # M_n = 0 convention
    if len(nz) == 1:
        i, j = nz[0]
        if i != j and generator[i, j] == 1.0:
            return
    if len(nz) == 2:
        (i1, j1), (i2, j2) = nz
        if (
            i1 == j1
            and i2 == j2
            and i2 == n - 1
            and i1 < n - 1
            and generator[i1, j1] == 1.0
            and generator[i2, j2] == -1.0
        ):
            return
    raise DomainError("generator must be a single basis matrix (M_a, M_ab or Mbar_ab)")


def adjoint_expansion(q, omega, generator) -> AdjointExpansion:
    """Numerically expand Z G Z^{-1} over the Lie-algebra basis.

    This is the ground truth that the closed-form coefficient families
    (f_abc, g_abc, lambda_ab) are tested against.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = len(q)
    gen = np.asarray(generator, dtype=float)
    if gen.shape != (n, n):
        raise DomainError(f"generator must be {n}x{n}")
    _identify_basis(gen)
    z = z_from_omega(omega, n)
    zinv = unitriangular_inverse(z)
    conj = z @ gen @ zinv
    diag_full = np.diag(conj)
    residual = abs(float(diag_full[-1] + np.sum(diag_full[:-1])))
    return AdjointExpansion(
        dim=n,
        diag=diag_full[:-1].copy(),
        upper=np.triu(conj, 1),
        lower=np.tril(conj, -1),
        diag_residual=residual,
    )


# ---------------------------------------------------------------------------
# The Hamiltonian flow and the picture record


def flow_field_generalized(sys: TodaSystem):
    """Vector field over the packed state [q, omega, p_q, p_omega].

    vec is one state of shape (4n-2,) or a component-first batch of shape
    (4n-2, B).
    """
    n = sys.n

    def rhs(t: float, vec: np.ndarray) -> np.ndarray:
        buf, gap = gap_buffer(vec, n)
        p_w = vec[3 * n - 1 :]
        out = np.empty(vec.shape)
        out[:n] = vec[2 * n - 1 : 3 * n - 1]
        rate = out[n : 2 * n - 1]
        np.add(p_w, p_w, out=rate)  # 2 p_w, exactly
        rate *= gap
        gap *= p_w * p_w
        gap += gap  # the forces 2 p_w^2 gap
        np.subtract(buf[:-1], buf[1:], out=out[2 * n - 1 : 3 * n - 1])
        out[3 * n - 1 :] = 0.0
        return out

    return rhs


GENERALIZED = Picture(
    name="generalized",
    state=OPState,
    fields=("q", "omega", "p_q", "p_omega"),
    fibre_labels=lambda n: tuple(f"omega_{i}" for i in range(1, n)),
    couplings=lambda p_omega, g: p_omega,
    coupling_grad=lambda d_c, g: d_c,
    flow_field=flow_field_generalized,
    invariants=lambda sys, states, k: generalized_invariants(states, k),
    centred=True,
)


# the couplings appear nowhere in the energy: they return as the conserved p_omega,
# and at p_omega = g it equals the chain energy of (q, p_q)
generalized_hamiltonian = GENERALIZED.energy
run_geodesic_generalized = GENERALIZED.run


# ---------------------------------------------------------------------------
# Dimensional reduction back to the one-extra-dimension lift


@dataclass(frozen=True)
class ReductionReport:
    """Sampled residuals of the reduction identities along a trajectory.

    On p_omega = g trajectories, ydot = sum(g_a omega_dot_a) must equal
    2 V(q), the omega kinetic form must equal 2 V(q) as well, and the
    reconstructed fibre kinetic energy ydot^2/(4V) must match the
    omega-block kinetic term.  Residuals are scaled by max(1, 2V).
    """

    n_samples: int
    max_ydot_residual: float
    max_kinetic_residual: float
    max_block_residual: float


def reduction_check(sys: TodaSystem, traj: Trajectory) -> ReductionReport:
    """The reduction identities along a generalised-lift trajectory.  The omega
    kinetic form sum_a exp(-2(q_a - q_{a+1})) omega_dot_a^2 / 2 is evaluated as
    the momentum form it equals, sum_a p_omega_a omega_dot_a (the omega-translation
    charges against the velocities), which stays finite after scattering."""
    n = sys.n
    if traj.states.ndim != 2 or traj.states.shape[1] != GENERALIZED.dim(n):
        raise DomainError("trajectory was not produced by the generalised lift")
    q, _, _, p_omega = GENERALIZED.split(traj.states.T, n)
    g = sys.g[:, None]
    if float(np.max(np.abs(p_omega - g))) > 1e-8 * max(1.0, float(np.max(np.abs(sys.g)))):
        raise DomainError("reduction identities need a trajectory with p_omega = g")
    gap = gaps(q)
    od = 2.0 * p_omega * gap
    v = np.sum(g**2 * gap, axis=0)
    scale = np.maximum(1.0, 2.0 * v)
    ydot = np.sum(g * od, axis=0)
    kin = np.sum(p_omega * od, axis=0)
    block = np.abs(ydot**2 / (4.0 * np.where(v > 0.0, v, 1.0)) - 0.5 * kin) / scale
    return ReductionReport(
        n_samples=len(traj),
        max_ydot_residual=float(np.max(np.abs(ydot - 2.0 * v) / scale, initial=0.0)),
        max_kinetic_residual=float(np.max(np.abs(kin - 2.0 * v) / scale, initial=0.0)),
        max_block_residual=float(np.max(block, where=v > 0.0, initial=0.0)),
    )


def compare_reduced_eisenhart(
    sys: TodaSystem, state: OPState, cfg: IntegratorConfig
) -> tuple[float, Trajectory]:
    """Integrate the generalised geodesic and its reduced (q, y) twin.

    The reduced run starts from y = sum(g_a omega_a), p_y = 1 and must stay
    on top of the generalised one; returns (sup over samples of max |dq|,
    generalised trajectory).
    """
    from . import eisenhart

    traj = run_geodesic_generalized(sys, state, cfg, kmax=1)
    e0 = eisenhart.EisenhartState(
        q=state.q,
        y=float(np.dot(sys.g, state.omega)),
        p=state.p_q,
        p_y=1.0,
    )
    etraj = integrate_at_times(eisenhart.flow_field(sys), eisenhart.EISENHART.pack(e0), traj.times, cfg)
    sup = float(np.max(np.abs(traj.states[:, : sys.n] - etraj.states[:, : sys.n])))
    return sup, traj
