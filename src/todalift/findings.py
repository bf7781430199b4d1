"""Numerical adjudication of ambiguous closed forms.

Four families of closed-form statements around the chain and its
generalised lift admit more than one plausible reading or normalisation.
Each function here settles one of them by direct computation and returns a
residual table plus a one-line conclusion:

* which trace normalisation makes I_1 the total momentum and I_2 the energy,
* the coefficient on qdot in the conserved lambda combinations,
* whether Z^{-1} Zdot or Zdot Z^{-1} reproduces the Lax matrix M (and how
  far the chain-exponential parameterisation tracks the exact auto-parallel
  curves at all),
* which displayed closed form for the adjoint coefficients f_abc agrees
  with the numerically computed conjugation.

`generate_findings` bundles everything into one JSON-serialisable report.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from . import oplift, toda
from .integrate import IntegratorConfig, Trajectory, integrate_at_times, relative_drift
from .linalg import basis_matrix

__all__ = [
    "invariant_normalization_finding",
    "lambda_factor_finding",
    "zdot_orientation_finding",
    "f_variant_finding",
    "generate_findings",
    "write_findings",
]


def _sample_chain(rng, n):
    g = rng.uniform(0.5, 2.0, n - 1)
    q = rng.uniform(-1.0, 1.0, n)
    q -= q.mean()
    p = rng.uniform(-1.0, 1.0, n)
    return toda.TodaSystem(n=n, g=g), toda.PhaseState(q=q, p=p)


def invariant_normalization_finding(seed: int = 0, samples: int = 50) -> dict:
    """Compare Tr(L^k)/k against Tr(L^k)/2^k on the defining identities."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        sys, state = _sample_chain(rng, n)
        lmat, _ = toda.lax_pair(sys, state)
        rows.append((np.trace(lmat), np.trace(lmat @ lmat), np.sum(state.p), toda.CHAIN.energy(sys, state)))
    tr1, tr2, sump, ham = np.array(rows).T
    table = {
        key: {"I1_vs_sum_p": float(np.max(np.abs(tr1 / div1 - sump), initial=0.0)),
              "I2_vs_H": float(np.max(np.abs(tr2 / div2 - ham), initial=0.0))}
        for key, div1, div2 in (("reciprocal_k", 1.0, 2.0), ("reciprocal_2^k", 2.0, 4.0))
    }
    return {
        "residuals": table,
        "conclusion": "I_k = Tr(L^k)/k reproduces I_1 = sum(p) and I_2 = H; "
        "the 1/2^k normalisation reproduces neither.",
    }


def _reference_trajectory(seed: int, n: int, t_final: float = 10.0):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.5, 1.2, n - 1)
    q = np.cumsum(np.concatenate([[0.0], rng.uniform(0.3, 0.8, n - 1)]))
    q -= q.mean()
    p = rng.uniform(-0.3, 0.3, n)
    p -= p.mean()
    sys = toda.TodaSystem(n=n, g=g)
    state = oplift.OPState(q=q, omega=np.zeros(n - 1), p_q=p, p_omega=g)
    # from omega = 0 the exact geodesic's UDU coordinates are the Hamiltonian flow with p_omega = g
    times = np.linspace(0.0, t_final, 51)
    q_t, omega_t, qdot_t = oplift.exact_coordinates(state, sys, times)
    states = np.column_stack([q_t, omega_t, qdot_t, np.broadcast_to(g, (len(times), n - 1))])
    return sys, state, Trajectory(times=times, states=states)


def lambda_factor_finding(seed: int = 0, n: int = 4) -> dict:
    """Fit the conserved coefficient alpha in alpha qdot_a + g_a w_a - g_{a-1} w_{a-1}.

    The variance-minimising alpha is computed per index from trajectory
    samples, and the drift of the alpha = 1 and alpha = 2 combinations is
    tabulated.
    """
    sys, _, traj = _reference_trajectory(seed, n)
    # contiguous rows: each reduces, bit for bit, as one index's series alone does
    _, omega, qdot, _ = oplift.GENERALIZED.split(np.ascontiguousarray(traj.states.T), n)
    # row a-1: g_a w_a - g_{a-1} w_{a-1}, the boundary terms absent
    coupling = np.diff(np.pad(sys.g[:, None] * omega, ((1, 1), (0, 0))), axis=0)
    var = np.var(qdot, axis=1)
    cov = np.mean((qdot - qdot.mean(axis=1, keepdims=True)) * (coupling - coupling.mean(axis=1, keepdims=True)), axis=1)
    labels = [f"a={a}" for a in range(1, n + 1)]
    fitted = {key: float(-c / v) for key, c, v in zip(labels, cov, var) if v > 1e-18}
    series = np.array([1.0, 2.0])[:, None, None] * qdot + coupling  # alpha = 1, 2
    rel = np.max(relative_drift(series), axis=2)
    drift = {f"alpha={alpha}": dict(zip(labels, row)) for alpha, row in zip((1, 2), rel.tolist())}
    return {
        "fitted_alpha": fitted,
        "drift": drift,
        "conclusion": "the conserved combination carries coefficient 1 on qdot for every "
        "index (lambda_a = p_{q_a} + p_{w_a} w_a - p_{w_{a-1}} w_{a-1}); the "
        "coefficient-2 variant is not conserved.",
    }


def zdot_orientation_finding(seed: int = 0, n: int = 3) -> dict:
    """Measure Z^{-1} Zdot and Zdot Z^{-1} against the Lax matrix M.

    Both match M on the superdiagonal; for n >= 3 both acquire equal-size
    residuals beyond it, because the chain-exponential parameterisation
    satisfies Z^{-1} dZ = sum dw_a M_{a,a+1} only modulo higher brackets.
    The conserved monitors and the Lax equation are insensitive to the
    orientation.  Also records how far the exact auto-parallel curve tracks
    the Hamiltonian flow in the UDU coordinates, from omega = 0 and from
    generic omega seeds.
    """
    sys, state0, traj = _reference_trajectory(seed, n)
    s = oplift.GENERALIZED.view(traj.states.T, n)
    od = s.omega_dot()
    zd = oplift._chain_z(s.omega, od)[1]
    zinv = oplift._chain_z(-s.omega)[0]  # Z = exp(N) for nilpotent N, so Z^-1 is the chain Z at -omega
    mmat = 2.0 * np.triu(toda._lax_stack(s.q, s.p_q, sys.g[:, None])[0], 1)  # M, as toda.lax_pair builds it
    r1 = zinv @ zd - mmat
    r2 = zd @ zinv - mmat
    sup_anomaly = 0.0
    if n >= 3:
        predicted = 0.5 * (s.omega[1] * od[0] - s.omega[0] * od[1])
        sup_anomaly = float(np.max(np.abs((zinv @ zd)[:, 0, 2] - predicted)))

    # six samples are sparse output, which extrapolation takes in far fewer steps
    tracking = {}
    cfg = IntegratorConfig(method="extrapolation", rtol=1e-11, atol=1e-13, t_final=5.0, stride=1)
    rng = np.random.default_rng(seed + 1)
    for tag, omega0 in (("omega0=0", np.zeros(n - 1)), ("omega0 generic", rng.uniform(-0.7, 0.7, n - 1))):
        s0 = oplift.OPState(q=state0.q, omega=omega0, p_q=state0.p_q, p_omega=state0.p_omega)
        times = np.linspace(0.0, 5.0, 6)
        htraj = integrate_at_times(oplift.flow_field_generalized(sys), oplift.GENERALIZED.pack(s0), times, cfg)
        q_exact = oplift.exact_coordinates(s0, sys, times)[0]
        tracking[tag] = float(np.max(np.abs(q_exact - htraj.states[:, :n])))

    return {
        "residuals": {
            "Zinv_Zdot_minus_M": float(np.max(np.abs(r1))),
            "Zdot_Zinv_minus_M": float(np.max(np.abs(r2))),
            "superdiagonal_both": float(np.max(np.abs(np.diagonal(np.concatenate([r1, r2]), 1, 1, 2)))),
            "extra_13_component_vs_(w2 dw1 - w1 dw2)/2": sup_anomaly,
        },
        "autoparallel_tracking_sup_dq": tracking,
        "conclusion": "both orientations reproduce M on the superdiagonal exactly and "
        "deviate identically beyond it for n >= 3; the deviation of Z^{-1} Zdot from "
        "the naive coordinate form is the predicted (w2 wdot1 - w1 wdot2)/2 component. "
        "Exact auto-parallel curves reproduce the Hamiltonian flow through the UDU "
        "coordinates when seeded at omega = 0; generic omega seeds do not track for "
        "n >= 3.",
    }


def f_variant_finding(seed: int = 0, dims=(2, 3, 4, 5)) -> dict:
    """Compare the two displayed f_abc closed forms and the direct conjugation.

    The direct form f_abc = (-1)^{c-a} Z_ba Z_ac - delta_cn Z_bn follows from
    Z M_a Z^{-1} with the sign rule for the chain inverse; the displayed
    variants double-count boundary terms.
    """
    rng = np.random.default_rng(seed)
    residuals = {}
    lambda_exact = 0.0
    for n in dims:
        omega = rng.uniform(-1.5, 1.5, n - 1)
        zt = np.triu(oplift.z_from_omega(omega, n))
        expansion = functools.partial(oplift.adjoint_expansion, np.zeros(n), omega)  # G -> Z G Z^{-1}
        # numeric[a-1, b-1, c-1] = f_abc, read off Z M_a Z^{-1} for a = 1..n-1
        numeric = np.array([expansion(basis_matrix("diagonal-traceless", a, dim=n)).upper for a in range(1, n)])
        a, b, c = np.ogrid[1:n, 1 : n + 1, 1 : n + 1]
        d_ac, d_ab, d_cn = (a == c) * 1.0, (a == b) * 1.0, (c == n) * 1.0
        sgn_cb, sgn_ca = (-1.0) ** (c - b), (-1.0) ** (c - a)
        z_bc, z_ba, z_ac = zt[b - 1, c - 1], zt[b - 1, a - 1], zt[a - 1, c - 1]
        variants = {
            "variant_1": d_ac * z_bc + sgn_cb * d_ab * z_bc + sgn_ca * z_ba * z_ac - d_cn * z_bc,
            "variant_2": d_ac * z_ba + sgn_cb * d_ab * z_ac + sgn_ca * z_ba * z_ac - d_cn * z_bc,
            "direct_conjugation": sgn_ca * z_ba * z_ac - d_cn * zt[b - 1, n - 1],
        }
        residuals[f"n={n}"] = {key: float(np.max(np.abs(numeric - v), where=c > b, initial=0.0))
                               for key, v in variants.items()}
        # the lambda_ab family is clean: check it stays exact
        diag = np.array([expansion(basis_matrix("lower", a + 1, a, dim=n)).diag for a in range(1, n)])
        a, b = np.ogrid[1:n, 1:n]
        want = np.where(a == b, omega[b - 1], 0.0) - np.where(a + 1 == b, omega[b - 2], 0.0)
        lambda_exact = max(lambda_exact, float(np.max(np.abs(diag - want))))
    return {
        "residuals": residuals,
        "lambda_ab_residual": lambda_exact,
        "conclusion": "neither displayed variant matches the numerical conjugation; the "
        "direct form (-1)^{c-a} Z_ba Z_ac - delta_cn Z_bn does, and the lambda_ab "
        "coefficients delta_ab w_b - delta_{a+1,b} w_{b-1} are exact.",
    }


def generate_findings(seed: int = 0, n: int = 4) -> dict:
    return {
        "invariant_normalization": invariant_normalization_finding(seed),
        "lambda_velocity_factor": lambda_factor_finding(seed, n=n),
        "zdot_orientation": zdot_orientation_finding(seed, n=min(n, 3)),
        "f_coefficient_variant": f_variant_finding(seed),
    }


def write_findings(path: str, findings: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(findings, fh, indent=2, sort_keys=True)
        fh.write("\n")
