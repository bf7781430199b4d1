"""The row-by-row Gragg-Bulirsch-Stoer trial step, the test oracle of integrate._Tableau.step.

It runs each row of the tableau on its own, one rhs call per substep on one
state or batch at a time, with the same arithmetic per row as the batched
step, so the two agree bit for bit wherever the field's value at a column
does not depend on the columns beside it.
"""

import numpy as np

from todalift.integrate import _GBS_SEQUENCE

# the Aitken-Neville weights 1 / ((n_j / n_{j-k-1})^2 - 1) of row j, column k
WEIGHTS = tuple(
    tuple(1.0 / ((n / _GBS_SEQUENCE[j - k - 1]) ** 2 - 1.0) for k in range(j))
    for j, n in enumerate(_GBS_SEQUENCE)
)


def gbs_step_by_rows(rhs, t: float, y: np.ndarray, dt: float, f0: np.ndarray):
    """One trial step: returns (y12, error_estimate), the orders-12 and -10 difference."""
    prev: list[np.ndarray] = []
    for n, weights in zip(_GBS_SEQUENCE, WEIGHTS):
        h = dt / n
        two_h = 2.0 * h
        z_prev, z = y, y + h * f0
        for m in range(1, n):
            z_prev, z = z, z_prev + two_h * rhs(t + m * h, z)
        row = [z]
        for k, w in enumerate(weights):
            row.append(row[k] + (row[k] - prev[k]) * w)
        prev = row
    return prev[-1], prev[-1] - prev[-2]
