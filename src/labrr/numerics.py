"""Dense linear-algebra substrate shared by the kernel solvers.

Everything operates on plain float64 numpy arrays, validated on entry to be
finite and correctly shaped.  The solver wraps a partial-pivot LU
factorization: the Gram matrices built elsewhere in this package are
asymmetric, so symmetric factorizations (Cholesky) are not an option.  A
collapsed pivot raises :class:`SingularSystem` instead of letting garbage
propagate into the fit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

__all__ = [
    "DimensionMismatch",
    "SingularSystem",
    "FactorizedMatrix",
    "as_matrix",
    "as_vector",
    "solve_regularized",
]

#: A pivot smaller than this fraction of the largest absolute row sum marks
#: the system as numerically singular.
PIVOT_RTOL = 1e-14


class DimensionMismatch(ValueError):
    """Shapes of the supplied arrays do not line up."""


class SingularSystem(ArithmeticError):
    """The coefficient matrix is numerically rank deficient."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite float64 2-d array.

    Raises
    ------
    DimensionMismatch
        If the input is not two-dimensional.
    ValueError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite float64 1-d array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class FactorizedMatrix:
    """Partial-pivot LU factorization reusable for solves against A and A^T.

    Factoring once and solving twice is the workhorse pattern of the
    bandwidth gradient, which needs both ``A x = b`` and ``A^T u = v`` for
    every mini-batch.
    """

    def __init__(self, a) -> None:
        a = as_matrix(a, "a")
        n, m = a.shape
        if n != m:
            raise DimensionMismatch(f"matrix must be square, got {n}x{m}")
        if n == 0:
            raise DimensionMismatch("matrix must be non-empty")
        scale = float(np.abs(a).sum(axis=1).max())
        lu, piv = lu_factor(a, check_finite=False)
        pivots = np.abs(np.diagonal(lu))
        if scale == 0.0 or bool((pivots < PIVOT_RTOL * scale).any()):
            raise SingularSystem(
                f"pivot below {PIVOT_RTOL:g} * max row sum {scale:g}; "
                "matrix is numerically singular"
            )
        self._lu_piv = (lu, piv)
        self.shape = (n, m)

    def solve(self, b, transpose: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (or ``A^T x = b`` with ``transpose=True``)."""
        b = as_vector(b, "b")
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"right-hand side has length {b.shape[0]}, expected {self.shape[0]}"
            )
        return lu_solve(self._lu_piv, b, trans=1 if transpose else 0, check_finite=False)


def solve_regularized(a, b, jitter: float = 0.0) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` by pivoted LU factorization.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Coefficient matrix; may be asymmetric.
    b : array_like, shape (n,)
        Right-hand side.
    jitter : float
        Nonnegative diagonal regularization added before factorizing.

    Returns
    -------
    numpy.ndarray
        The solution vector.  Deterministic for fixed inputs.

    Raises
    ------
    SingularSystem
        If a pivot of the factorization falls below ``PIVOT_RTOL`` times the
        largest absolute row sum of ``A + jitter * I``.
    DimensionMismatch
        If ``A`` is not square or ``b`` has the wrong length.
    """
    a = as_matrix(a, "a")
    if not (jitter >= 0.0):
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    m = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
    return FactorizedMatrix(m).solve(as_vector(b, "b"))
