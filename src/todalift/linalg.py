"""Dense linear algebra for small real matrices.

Provides the sl(n, R) basis matrices used throughout the package (strictly
upper M_ab, strictly lower Mbar_ab, traceless diagonal M_a), a matrix
exponential built on scaling-and-squaring of a truncated series, the UDU
factorisation x = Z diag(hsq) Z^T with Z unit upper triangular, and exact
inversion of unit triangular matrices.

Matrices are plain float64 numpy arrays.  Basis labels are 1-based in every
public signature; storage is the usual 0-based numpy layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, DomainError

__all__ = [
    "UDUFactors",
    "basis_matrix",
    "mat_exp",
    "udu_decompose",
    "udu_compose",
    "unitriangular_inverse",
    "product_identity_residuals",
]

# Series is truncated once the next term is this small relative to the sum.
_EXP_TRUNCATION = 1e-19
# Inputs are scaled down below this max-norm bound before the series.
_EXP_SCALE_LIMIT = 0.5
_SYMMETRY_RTOL = 1e-10


def _as_square(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DomainError(f"{name} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class UDUFactors:
    """Factors of x = Z diag(hsq) Z^T with Z unit upper triangular."""

    z: np.ndarray
    hsq: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.hsq)


def basis_matrix(kind: str, a: int, b: int | None = None, *, dim: int) -> np.ndarray:
    """Return an sl(dim, R) basis element.

    kind "upper" gives (M_ab)_ij = delta_ia delta_jb with a < b, "lower" the
    same with a > b, and "diagonal-traceless" gives
    M_a = diag[0, ..., 1 (slot a), ..., 0, -1].  By convention a = dim is
    allowed for the diagonal kind and yields the zero matrix.
    """
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    m = np.zeros((dim, dim))
    if kind == "upper":
        if b is None:
            raise DomainError("upper basis matrix needs both indices")
        if not (1 <= a < b <= dim):
            raise DomainError(f"upper basis matrix needs 1 <= a < b <= dim, got a={a}, b={b}")
        m[a - 1, b - 1] = 1.0
    elif kind == "lower":
        if b is None:
            raise DomainError("lower basis matrix needs both indices")
        if not (1 <= b < a <= dim):
            raise DomainError(f"lower basis matrix needs 1 <= b < a <= dim, got a={a}, b={b}")
        m[a - 1, b - 1] = 1.0
    elif kind == "diagonal-traceless":
        if b is not None:
            raise DomainError("diagonal-traceless basis matrix takes a single index")
        if not (1 <= a <= dim):
            raise DomainError(f"diagonal index must satisfy 1 <= a <= dim, got a={a}")
        if a < dim:
            m[a - 1, a - 1] = 1.0
            m[dim - 1, dim - 1] = -1.0
        # a == dim: zero matrix by convention
    else:
        raise DomainError(f"unknown basis kind {kind!r}")
    return m


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the truncated series.

    Strictly triangular input is nilpotent, so the series terminates exactly
    after at most dim terms; such input skips the scaling step and the result
    is the exact polynomial.  Evaluation order is fixed, so identical inputs
    give bit-identical output.
    """
    arr = _as_square(a, "mat_exp input")
    if not np.all(np.isfinite(arr)):
        raise DomainError("mat_exp input has non-finite entries")
    n = arr.shape[0]

    lower_abs = np.max(np.abs(np.tril(arr))) if n > 1 else abs(arr[0, 0])
    upper_abs = np.max(np.abs(np.triu(arr))) if n > 1 else abs(arr[0, 0])
    strictly_triangular = n > 1 and (lower_abs == 0.0 or upper_abs == 0.0)

    squarings = 0
    if not strictly_triangular:
        bound = float(np.max(np.abs(arr))) * n
        if bound > _EXP_SCALE_LIMIT:
            squarings = int(np.ceil(np.log2(bound / _EXP_SCALE_LIMIT)))
    scaled = arr / (2.0**squarings)

    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 400):
        term = term @ scaled / k
        result = result + term
        tmax = np.max(np.abs(term))
        if tmax == 0.0 or tmax <= _EXP_TRUNCATION * np.max(np.abs(result)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def udu_decompose(x) -> UDUFactors:
    """Factor a symmetric positive definite matrix as Z diag(hsq) Z^T.

    Z is unit upper triangular and hsq positive; the factorisation is the
    mirror image of the usual LDL^T, eliminating from the last row up.
    Raises DomainError for asymmetric input (relative tolerance 1e-10, sized
    for matrices assembled from products of exponentials) and
    DefinitenessError when a pivot is not positive.
    """
    arr = _as_square(x, "udu input")
    if not np.all(np.isfinite(arr)):
        raise DomainError("udu input has non-finite entries")
    scale = max(float(np.max(np.abs(arr))), 1.0)
    if np.max(np.abs(arr - arr.T)) > _SYMMETRY_RTOL * scale:
        raise DomainError("udu input is not symmetric")
    w = 0.5 * (arr + arr.T)
    n = arr.shape[0]
    z = np.eye(n)
    hsq = np.zeros(n)
    for j in range(n - 1, -1, -1):
        pivot = w[j, j]
        if not (pivot > 0.0) or not np.isfinite(pivot):
            raise DefinitenessError(f"non-positive pivot {pivot} at position {j + 1}")
        hsq[j] = pivot
        col = w[:j, j] / pivot
        z[:j, j] = col
        w[:j, :j] -= pivot * np.outer(col, col)
    return UDUFactors(z=z, hsq=hsq)


def udu_compose(z, hsq) -> np.ndarray:
    """Rebuild Z diag(hsq) Z^T from its factors."""
    zarr = _as_square(z, "Z factor")
    darr = np.asarray(hsq, dtype=float)
    if darr.ndim != 1 or len(darr) != zarr.shape[0]:
        raise DomainError("hsq length must match Z dimension")
    return (zarr * darr) @ zarr.T


def _check_unitriangular(z, name: str) -> np.ndarray:
    arr = _as_square(z, name)
    n = arr.shape[0]
    scale = max(float(np.max(np.abs(arr))), 1.0)
    if np.max(np.abs(np.diag(arr) - 1.0)) > 1e-12 * scale:
        raise DomainError(f"{name} must have unit diagonal")
    if n > 1 and np.max(np.abs(np.tril(arr, -1))) > 1e-12 * scale:
        raise DomainError(f"{name} must have zero strictly-lower part")
    return arr


def unitriangular_inverse(z) -> np.ndarray:
    """Invert a unit upper triangular matrix.

    Uses the terminating alternating series in the strictly-upper part, so
    the result is exactly unit upper triangular and Z Z^-1 recovers the
    identity to roundoff.
    """
    arr = _check_unitriangular(z, "unitriangular_inverse input")
    n = arr.shape[0]
    nilpotent = np.triu(arr, 1)
    out = np.eye(n)
    term = np.eye(n)
    for _ in range(n - 1):
        term = -term @ nilpotent
        out = out + term
    return out


def product_identity_residuals(dim: int) -> dict[str, float]:
    """Exhaustively check the basis product rules at one dimension.

    Covers M_ab M_cd = delta_bc M_ad, the diagonal-matrix product rules for
    both triangular families, the mixed rule
    M_ab Mbar_cd = delta_bc (strictly-upper + strictly-lower + diagonal split
    of E_ad), and M_ab^2 = 0, each as one batched product of the stacked basis
    matrices.  Returns the max absolute deviation per rule; the matrices are
    integer valued so every residual should be exactly 0.
    """
    if dim < 2:
        raise DomainError("identity checks need dim >= 2")
    dvals = np.arange(1, dim + 1) + 0.5
    d_test = np.diag(dvals)
    up, lo = np.triu_indices(dim, 1), np.tril_indices(dim, -1)  # 0-based labels (a, b) of M_ab and Mbar_ab
    upper = np.array([basis_matrix("upper", a + 1, b + 1, dim=dim) for a, b in zip(*up)])
    lower = np.array([basis_matrix("lower", a + 1, b + 1, dim=dim) for a, b in zip(*lo)])

    def worst(lhs, rhs) -> float:
        return float(np.max(np.abs(lhs - rhs)))

    def diagonal_rule(m, a, b) -> float:  # M_ab D = d_b M_ab and D M_ab = d_a M_ab
        return max(worst(m @ d_test, dvals[b, None, None] * m), worst(d_test @ m, dvals[a, None, None] * m))

    def product_rule(right, c, d) -> float:  # M_ab R_cd = delta_bc E_ad, over every pair
        lhs = upper[:, None] @ right
        i, j = np.nonzero(up[1][:, None] == c)
        lhs[i, j, up[0][i], d[j]] -= 1.0  # less the expected stack, in place
        return float(np.max(np.abs(lhs, out=lhs)))

    return {
        "upper_product": product_rule(upper, *up),
        "upper_diagonal_rule": diagonal_rule(upper, *up),
        "lower_diagonal_rule": diagonal_rule(lower, *lo),
        "mixed_product": product_rule(lower, *lo),
        "upper_square_zero": worst(upper @ upper, 0.0),
    }
