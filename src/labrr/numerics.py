"""Dense linear-algebra substrate shared by the kernel solvers.

Everything operates on plain float64 numpy arrays, validated on entry to be
finite and correctly shaped.  :class:`FactorizedMatrix` is the only code that
adds the diagonal jitter and factors: a partial-pivot LU, because the Gram
matrices built elsewhere in this package are asymmetric, so symmetric
factorizations (Cholesky) are not an option.  It calls LAPACK's ``dgetrf``,
``dgetrs`` and ``dlange`` directly on a private copy, so no caller's matrix
is ever changed.  A collapsed pivot raises :class:`SingularSystem` instead of
letting garbage propagate into the fit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dlange

__all__ = [
    "DimensionMismatch",
    "SingularSystem",
    "FactorizedMatrix",
    "as_matrix",
    "as_pair",
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


def as_pair(x, y, x_name: str, y_name: str) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix(x)`` and ``as_vector(y)`` of points and their labels; the
    one check that ``y`` holds one entry per row of ``x`` (else
    :class:`DimensionMismatch`)."""
    x = as_matrix(x, x_name)
    y = as_vector(y, y_name)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{y_name} has {y.shape[0]} entries for {x.shape[0]} rows of {x_name}")
    return x, y


class FactorizedMatrix:
    """Partial-pivot LU factorization of ``A + jitter * I``, reusable for
    solves against it and its transpose.

    This is the one place that adds a jitter and factors.  It takes one
    private Fortran-order copy of ``A``, adds the jitter to its diagonal and
    factors that copy in place, so the caller's array is never changed.  The
    Gram matrices factored here stay small (a few hundred points), so a
    caller-owned work buffer would save no measurable time.  Factoring once
    and solving twice is the workhorse pattern of the bandwidth gradient,
    which needs both ``A x = b`` and ``A^T u = v`` for every mini-batch.

    Raises
    ------
    ValueError
        If ``jitter`` is negative, infinite or NaN.
    DimensionMismatch
        If ``A`` is not square and non-empty.
    SingularSystem
        If a pivot falls below ``PIVOT_RTOL`` times the largest absolute row
        sum of ``A + jitter * I`` (LAPACK ``dlange('I')``, taken before the
        factorization overwrites it).
    """

    def __init__(self, a, jitter: float = 0.0) -> None:
        a = as_matrix(a, "a")
        if not (0.0 <= jitter < np.inf):
            raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
        n, m = a.shape
        if n != m:
            raise DimensionMismatch(f"matrix must be square, got {n}x{m}")
        if n == 0:
            raise DimensionMismatch("matrix must be non-empty")
        # Fortran order lets LAPACK factor the copy in place.
        work = np.array(a, order="F")
        work.flat[:: n + 1] += jitter
        scale = dlange("I", work)
        lu, piv, _ = dgetrf(work, overwrite_a=True)
        pivots = np.abs(np.diagonal(lu))
        if scale == 0.0 or bool((pivots < PIVOT_RTOL * scale).any()):
            raise SingularSystem(
                f"pivot below {PIVOT_RTOL:g} * max row sum {scale:g}; "
                "matrix is numerically singular"
            )
        self._lu_piv = (lu, piv)
        self.shape = (n, m)

    def solve(self, b, transpose: bool = False) -> np.ndarray:
        """Solve ``(A + jitter*I) x = b``, or its transpose with ``transpose=True``."""
        b = as_vector(b, "b")
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"right-hand side has length {b.shape[0]}, expected {self.shape[0]}"
            )
        lu, piv = self._lu_piv
        x, _ = dgetrs(lu, piv, b, trans=1 if transpose else 0)
        return x


def solve_regularized(a, b, jitter: float = 0.0) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` with one :class:`FactorizedMatrix`.

    ``A`` may be asymmetric; the result is deterministic for fixed inputs.
    Raises what :class:`FactorizedMatrix` and its ``solve`` raise.
    """
    return FactorizedMatrix(a, jitter).solve(b)
