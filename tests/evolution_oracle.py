"""The co-integration of dA/dt = -M A, the test oracle of toda.evolve_A's closed form.

The chain state and A are integrated together from the trajectory's initial
state and sampled at the trajectory times, independently of the
Kostant-Symes factorisation that toda.evolve_A evaluates.
"""

import numpy as np

from todalift import toda
from todalift.integrate import IntegratorConfig, integrate_at_times


def evolve_A_rhs(sys: toda.TodaSystem):
    """Vector field over packed [q, p, A.ravel()]: the chain flow and dA/dt = -M A."""
    n = sys.n
    base = toda.flow_field(sys)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        y = z[: 2 * n]
        _, mmat = toda.lax_pair(sys, y)
        out = np.empty(z.shape)
        out[: 2 * n] = base(t, y)
        np.matmul(-mmat, z[2 * n :].reshape(n, n), out=out[2 * n :].reshape(n, n))
        return out

    return rhs


def co_integrated_A(sys: toda.TodaSystem, traj) -> list[np.ndarray]:
    """A(t) at the trajectory times by order-12 extrapolation of the co-integrated system at rtol 1e-12."""
    n = sys.n
    cfg = IntegratorConfig(method="extrapolation", rtol=1e-12, atol=1e-14, t_final=max(traj.times[-1], 1e-6))
    z0 = np.concatenate([traj.states[0], np.eye(n).ravel()])
    out = integrate_at_times(evolve_A_rhs(sys), z0, traj.times, cfg)
    return [row[2 * n :].reshape(n, n).copy() for row in out.states]
