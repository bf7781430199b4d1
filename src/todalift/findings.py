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

import json

import numpy as np

from . import oplift, toda
from .integrate import IntegratorConfig, Trajectory, integrate_at_times
from .linalg import basis_matrix, unitriangular_inverse

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
    table = {"reciprocal_k": {"I1_vs_sum_p": 0.0, "I2_vs_H": 0.0},
             "reciprocal_2^k": {"I1_vs_sum_p": 0.0, "I2_vs_H": 0.0}}
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        sys, state = _sample_chain(rng, n)
        lmat, _ = toda.lax_pair(sys, state)
        tr1 = float(np.trace(lmat))
        tr2 = float(np.trace(lmat @ lmat))
        sump = float(np.sum(state.p))
        ham = toda.hamiltonian(sys, state)
        for key, div1, div2 in (("reciprocal_k", 1.0, 2.0), ("reciprocal_2^k", 2.0, 4.0)):
            row = table[key]
            row["I1_vs_sum_p"] = max(row["I1_vs_sum_p"], abs(tr1 / div1 - sump))
            row["I2_vs_H"] = max(row["I2_vs_H"], abs(tr2 / div2 - ham))
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
    g = sys.g
    _, omega, qdots, _ = oplift.GENERALIZED.split(traj.states.T, n)
    fitted = {}
    drift = {"alpha=1": {}, "alpha=2": {}}
    for a in range(1, n + 1):
        qdot = qdots[a - 1]
        coupling_part = np.zeros(len(traj.times))
        if a <= n - 1:
            coupling_part += g[a - 1] * omega[a - 1]
        if a >= 2:
            coupling_part -= g[a - 2] * omega[a - 2]
        var = float(np.var(qdot))
        if var > 1e-18:
            alpha = -float(np.mean((qdot - qdot.mean()) * (coupling_part - coupling_part.mean()))) / var
            fitted[f"a={a}"] = alpha
        for alpha, key in ((1.0, "alpha=1"), (2.0, "alpha=2")):
            series = alpha * qdot + coupling_part
            ref = series[0]
            drift[key][f"a={a}"] = float(np.max(np.abs(series - ref)) / max(1.0, abs(ref)))
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
    sup_zinv_zdot = 0.0
    sup_zdot_zinv = 0.0
    sup_superdiag = 0.0
    sup_anomaly = 0.0
    for vec in traj.states:
        s = oplift.GENERALIZED.unpack(sys, vec, centered=False)
        z = oplift.z_from_omega(s.omega, n)
        zd = oplift.z_dot_from_omega(s.omega, s.omega_dot())
        zinv = unitriangular_inverse(z)
        _, mmat = toda.lax_pair(sys, toda.PhaseState(q=s.q, p=s.p_q))
        r1 = zinv @ zd - mmat
        r2 = zd @ zinv - mmat
        sup_zinv_zdot = max(sup_zinv_zdot, float(np.max(np.abs(r1))))
        sup_zdot_zinv = max(sup_zdot_zinv, float(np.max(np.abs(r2))))
        sup_superdiag = max(
            sup_superdiag,
            float(np.max(np.abs(np.diag(r1, 1)))),
            float(np.max(np.abs(np.diag(r2, 1)))),
        )
        if n >= 3:
            od = s.omega_dot()
            predicted = 0.5 * (s.omega[1] * od[0] - s.omega[0] * od[1])
            sup_anomaly = max(sup_anomaly, abs((zinv @ zd)[0, 2] - predicted))

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
            "Zinv_Zdot_minus_M": sup_zinv_zdot,
            "Zdot_Zinv_minus_M": sup_zdot_zinv,
            "superdiagonal_both": sup_superdiag,
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
        z = oplift.z_from_omega(omega, n)

        def zval(i, j):
            return z[i - 1, j - 1] if i <= j else 0.0

        worst = {"variant_1": 0.0, "variant_2": 0.0, "direct_conjugation": 0.0}
        for a in range(1, n):
            exp = oplift.adjoint_expansion(
                np.zeros(n), omega, basis_matrix("diagonal-traceless", a, dim=n)
            )
            for b in range(1, n + 1):
                for c in range(b + 1, n + 1):
                    numeric = exp.upper[b - 1, c - 1]
                    d_ac = 1.0 if a == c else 0.0
                    d_ab = 1.0 if a == b else 0.0
                    d_cn = 1.0 if c == n else 0.0
                    sgn_cb = (-1.0) ** (c - b)
                    sgn_ca = (-1.0) ** (c - a)
                    v1 = d_ac * zval(b, c) + sgn_cb * d_ab * zval(b, c) + sgn_ca * zval(b, a) * zval(a, c) - d_cn * zval(b, c)
                    v2 = d_ac * zval(b, a) + sgn_cb * d_ab * zval(a, c) + sgn_ca * zval(b, a) * zval(a, c) - d_cn * zval(b, c)
                    direct = sgn_ca * zval(b, a) * zval(a, c) - d_cn * zval(b, n)
                    worst["variant_1"] = max(worst["variant_1"], abs(numeric - v1))
                    worst["variant_2"] = max(worst["variant_2"], abs(numeric - v2))
                    worst["direct_conjugation"] = max(worst["direct_conjugation"], abs(numeric - direct))
        residuals[f"n={n}"] = worst
        # the lambda_ab family is clean: check it stays exact
        for a in range(1, n):
            exp = oplift.adjoint_expansion(np.zeros(n), omega, basis_matrix("lower", a + 1, a, dim=n))
            for b in range(1, n):
                want = (omega[b - 1] if a == b else 0.0) - (omega[b - 2] if a + 1 == b else 0.0)
                lambda_exact = max(lambda_exact, abs(exp.diag[b - 1] - want))
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
