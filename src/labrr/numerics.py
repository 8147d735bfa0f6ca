"""Dense linear-algebra substrate shared by the kernel solvers.

Everything operates on plain float64 numpy arrays, validated on entry to be
finite and correctly shaped (:class:`FactorizedMatrix` folds the finiteness
check into its row-sum norm).  :class:`FactorizedMatrix` is the only code that
adds the diagonal jitter and factors: a partial-pivot LU, because the Gram
matrices built elsewhere in this package are asymmetric, so symmetric
factorizations (Cholesky) are not an option.  It calls LAPACK's ``dgetrf``,
``dgetrs`` and ``dlange`` directly on a private copy, so no caller's matrix
is ever changed.  A collapsed pivot raises :class:`SingularSystem` instead of
letting garbage propagate into the fit.  An LU may also serve a nearby
matrix (:meth:`FactorizedMatrix.solve_nearby`), but only for a solve whose
refined residual passes one acceptance test, which implies the normwise
backward-error rule of a direct solve.  :class:`DivergedStep` is the
trainer's error for an SGD step whose update makes a bandwidth NaN.
:func:`one_blas_thread` runs a block with both bundled OpenBLAS thread pools
at one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dgetrf, dgetrs, dlange

__all__ = [
    "DimensionMismatch",
    "DivergedStep",
    "SingularSystem",
    "FactorizedMatrix",
    "as_matrix",
    "as_pair",
    "as_vector",
    "one_blas_thread",
    "solve_regularized",
]

LOG = logging.getLogger(__name__)

#: The OpenBLAS builds bundled with numpy's and scipy's wheels: a library
#: pattern next to the package and the suffix of its thread-count symbols.
#: numpy's runs the matrix products, scipy's the LAPACK calls.
_BLAS_POOLS = (
    (np, "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    (scipy, "scipy.libs", "libscipy_openblas-*.so", ""),
)

#: A pivot smaller than this fraction of the largest absolute row sum marks
#: the system as numerically singular.
PIVOT_RTOL = 1e-14

#: Unit roundoff of float64, the backward error a refined solve must reach.
UNIT_ROUNDOFF = 2.0 ** -53

#: Correction sweeps a refined solve may take before it declines.
REFINE_SWEEPS = 2


class DimensionMismatch(ValueError):
    """Shapes of the supplied arrays do not line up."""


class SingularSystem(ArithmeticError):
    """The coefficient matrix is numerically rank deficient."""


class DivergedStep(ArithmeticError):
    """An SGD step's update made a bandwidth NaN."""


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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite float64 1-d array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
    factors that copy in place, so the caller's array is never changed.  ``A``
    may have any layout; the copy is cheapest when each column of ``A`` is
    contiguous, as in a Fortran-order array or a transposed column block
    ``wide[:, :n].T`` of a C-order array, which is how the Gram comes from
    ``SupportSystem``: the copy then moves whole columns instead of
    transposing.  Factoring once and solving twice is the workhorse pattern
    of the bandwidth gradient, which needs both ``A x = b`` and ``A^T u = v``
    for every mini-batch; :meth:`solve_nearby` lets the gradient's next
    steps solve through the same LU while their Gram has barely moved.  The
    jitter stays this object's: every solve, direct or nearby, is against a
    matrix plus ``jitter * I``.

    Finiteness is checked without a pass of its own: a NaN or infinite
    entry makes the ``dlange('I')`` row-sum norm of the copy non-finite, and
    only then is ``A`` scanned entry by entry.

    Raises
    ------
    ValueError
        If ``jitter`` is negative, infinite or NaN, or ``A`` has a NaN or
        infinite entry.
    DimensionMismatch
        If ``A`` is not square and non-empty.
    SingularSystem
        If a pivot falls below ``PIVOT_RTOL`` times the largest absolute row
        sum of ``A + jitter * I`` (LAPACK ``dlange('I')``, taken before the
        factorization overwrites it), also when that sum overflows.
    """

    def __init__(self, a, jitter: float = 0.0) -> None:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionMismatch(f"a must be 2-d, got shape {a.shape}")
        if not (0.0 <= jitter < np.inf):
            raise ValueError(f"jitter must be finite and nonnegative, got {jitter}")
        n, m = a.shape
        if n != m:
            raise DimensionMismatch(f"matrix must be square, got {n}x{m}")
        if n == 0:
            raise DimensionMismatch("matrix must be non-empty")
        # Fortran order lets LAPACK factor the copy in place.
        work = np.array(a, order="F")
        diagonal = work.ravel(order="F")[:: n + 1]  # a view: the copy is contiguous
        diagonal += jitter
        scale = dlange("I", work)
        if not np.isfinite(scale):
            as_matrix(a, "a")  # a NaN or inf entry raises; finite overflow is singular below
        lu, piv, _ = dgetrf(work, overwrite_a=True)
        # Written so that a NaN pivot also counts as collapsed.
        if scale == 0.0 or not np.abs(lu.diagonal()).min() >= PIVOT_RTOL * scale:
            raise SingularSystem(
                f"pivot below {PIVOT_RTOL:g} * max row sum {scale:g}; "
                "matrix is numerically singular"
            )
        self._lu_piv = (lu, piv)
        self.shape = (n, m)
        self.jitter = jitter

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

    def solve_nearby(self, a, b, transpose: bool = False) -> np.ndarray | None:
        """Solve ``(a + jitter*I) x = b`` (or its transpose) through this LU
        of a nearby matrix, or return ``None`` when the solve is not shown
        accurate.

        ``a``, of this LU's order, is only read; a NaN or infinite entry in
        it makes the solve decline.  With ``B`` the matrix plus ``jitter*I``
        this LU was made from, ``x = B^-1 b`` takes at most
        ``REFINE_SWEEPS`` sweeps ``x += B^-1 r`` of stationary iterative
        refinement (Moler, J. ACM 14(2), 1967; Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., ch. 12), and is
        returned only once its float64 residual ``r = b - (a x + jitter x)``
        meets ``||r||_inf <= u (2 ||b||_inf - ||r||_inf)``, ``u = 2**-53``.
        That test implies the normwise backward-error rule ``||r||_inf <= u
        (||a + jitter*I||_inf ||x||_inf + ||b||_inf)``, since ``||b|| - ||r||
        <= ||(a + jitter*I) x||``, without a pass over ``a``; a solve that
        meets it is as good as a direct solve (Rigal & Gaches, J. ACM 14(3),
        1967), whatever ``a`` is.  No a-priori bound on ``a - B`` is taken:
        when ``a + jitter*I`` is singular, or too far from ``B`` for the
        sweeps to converge, the residual stays large and the test declines.
        It is written so that a NaN residual fails it; a solve that misses
        it after the last sweep, or whose residual is not finite, declines.

        Every solve against the LU goes through :meth:`solve`, which also
        raises what it raises for ``b``.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.shape != self.shape:
            raise DimensionMismatch(f"matrix has shape {a.shape}, the LU has {self.shape}")
        op = a.T if transpose else a
        b_norm = np.abs(b).max()
        x = self.solve(b, transpose)
        for sweep in range(REFINE_SWEEPS + 1):
            r = b - (op @ x + self.jitter * x)
            r_norm = np.abs(r).max()
            # ||b|| - ||r|| <= ||(a + jitter*I) x|| <= ||a + jitter*I|| ||x||, so
            # this test implies the backward-error rule without a pass over ``a``.
            if r_norm <= UNIT_ROUNDOFF * (2.0 * b_norm - r_norm):
                return x
            if sweep == REFINE_SWEEPS or not np.isfinite(r_norm):
                return None
            x = x + self.solve(r, transpose)


def solve_regularized(a, b, jitter: float = 0.0) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` with one :class:`FactorizedMatrix`.

    ``A`` may be asymmetric; the result is deterministic for fixed inputs.
    Raises what :class:`FactorizedMatrix` and its ``solve`` raise.
    """
    return FactorizedMatrix(a, jitter).solve(b)


@functools.cache
def _blas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of each bundled OpenBLAS pool,
    or ``()`` when any of them is not found (another BLAS build)."""
    controls = []
    for package, libs, pattern, suffix in _BLAS_POOLS:
        found = sorted((Path(package.__file__).parent.parent / libs).glob(pattern))
        try:
            lib = ctypes.CDLL(str(found[0]))  # already loaded: the same handle
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (IndexError, OSError, AttributeError) as exc:
            LOG.debug("BLAS threads left as they are: no OpenBLAS thread control in %s (%s)", libs, exc)
            return ()
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS pools at one thread
    each, and restore their previous counts on exit.

    Trained models then do not depend on the host's BLAS thread count, and
    small products and LUs do not pay for two pools contending for the
    cores.  The counts are process-wide, so the pin covers every thread
    while the block runs.  Without both pools' thread controls it does
    nothing.
    """
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
