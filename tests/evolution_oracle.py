"""The co-integration of dA/dt = -M A, the test oracle of toda.evolve_A's closed form.

The chain state and A are integrated together from the trajectory's initial
state and sampled at the trajectory times, independently of the
Kostant-Symes factorisation that toda.evolve_A evaluates.
"""

import numpy as np

from todalift import toda
from todalift.integrate import IntegratorConfig, integrate_at_times


def evolve_A_rhs(sys: toda.TodaSystem):
    """Vector field over packed [q, p, A.ravel()]: the chain flow and dA/dt = -M A.

    z is one state or a component-first batch of them; M is built by
    toda.lax_pair from each column's own chain state.
    """
    n = sys.n
    base = toda.flow_field(sys)

    def rhs(t, z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape)
        out[: 2 * n] = base(t, z[: 2 * n])
        cols, out_cols = z.reshape(len(z), -1), out.reshape(len(z), -1)
        for c in range(cols.shape[1]):
            _, mmat = toda.lax_pair(sys, cols[: 2 * n, c])
            out_cols[2 * n :, c] = (-mmat @ cols[2 * n :, c].reshape(n, n)).ravel()
        return out

    return rhs


def co_integrated_A(sys: toda.TodaSystem, traj) -> list[np.ndarray]:
    """A(t) at the trajectory times by order-12 extrapolation of the co-integrated system at rtol 1e-12."""
    n = sys.n
    cfg = IntegratorConfig(method="extrapolation", rtol=1e-12, atol=1e-14, t_final=max(traj.times[-1], 1e-6))
    z0 = np.concatenate([traj.states[0], np.eye(n).ravel()])
    out = integrate_at_times(evolve_A_rhs(sys), z0, traj.times, cfg)
    return [row[2 * n :].reshape(n, n).copy() for row in out.states]
