"""Radial-basis kernels with per-support-point bandwidths.

The kernel value between a probe point ``t`` and a support point ``x`` whose
bandwidth vector is ``theta`` is::

    k(t, x) = exp(-sum_m (theta[m] * (t[m] - x[m]))**2)

Each support point owns its bandwidths, so entry ``(i, j)`` of any kernel
matrix weights the difference ``rows[i] - cols[j]`` with the bandwidths of
*column* point ``j``.  A square matrix over a non-constant bandwidth set is
therefore generally asymmetric.  The classic RBF matrix is the special case
of a single bandwidth vector shared by every column.

Kernel matrices come in two forms.  ``lab_matrix`` is the reference: it
evaluates every entry from explicit differences; ``rbf_matrix`` and the tests
use it.  Training, fitting and prediction use only the expanded form, the
same entries to rounding from one product of ``_quadratic_features`` and
``_neg_coef`` passed through ``_clamped_exp``, the one clamp-and-exp, and
take every support Gram from ``ridgeless.SupportSystem.kernel_t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DimensionMismatch, as_matrix

__all__ = [
    "MIN_BANDWIDTH",
    "BandwidthSet",
    "lab_matrix",
    "rbf_matrix",
]

# Rows of the probe set are processed in blocks of this size so that the
# (block, n_support, dim) difference tensor stays cache-friendly.
_ROW_BLOCK = 256

#: Lower clamp of every expanded-form exponent, so no kernel entry is below
#: exp(-350) ~ 1e-152.  That is about the smallest entry whose square, 1e-304,
#: is still a normal float, with a margin of about 1e4 over
#: ``np.finfo(float).tiny``.  A product of two entries, as in the LU of a
#: Gram, then never underflows; underflows run on the CPU's slow microcode
#: path, which makes the LU of a wide-bandwidth Gram about four times
#: slower.  Zeroing the small entries instead does not do the same job: the
#: LU fills the zeros with products of the entries it kept, and products of
#: those fill-ins underflow again.
_EXP_FLOOR = -350.0

#: Smallest bandwidth any kernel form accepts: its square, 1e-300, is still a
#: normal float, so no ``theta**2`` underflows to 0 (which would turn an
#: overflowed far-probe distance into ``inf * 0 = NaN``).
MIN_BANDWIDTH = 1e-150


@dataclass(frozen=True)
class BandwidthSet:
    """One finite bandwidth vector per support point, each entry at least
    :data:`MIN_BANDWIDTH`: the one owner of that rule for every kernel form.

    Attributes
    ----------
    values : numpy.ndarray, shape (n_points, dim)
        Row ``i`` holds the per-dimension bandwidths of support point ``i``.
        The array is copied on construction and treated as immutable.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = as_matrix(self.values, "bandwidths").copy()
        if not bool((vals >= MIN_BANDWIDTH).all()):
            raise ValueError(f"bandwidths must be at least {MIN_BANDWIDTH:g}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, n_points: int, dim: int, value: float) -> "BandwidthSet":
        """Constant bandwidths — the usual warm start before training."""
        if n_points < 1 or dim < 1:
            raise ValueError("n_points and dim must be at least 1")
        return cls(np.full((n_points, dim), float(value)))


def _bandwidth_set(theta, cols: np.ndarray) -> BandwidthSet:
    """``theta`` (a ``BandwidthSet`` or raw array) as a ``BandwidthSet`` with
    one row per support point of ``cols``."""
    if not isinstance(theta, BandwidthSet):
        theta = BandwidthSet(theta)
    if theta.values.shape != cols.shape:
        raise DimensionMismatch(
            f"bandwidths have shape {theta.values.shape}, "
            f"support points have shape {cols.shape}"
        )
    return theta


def lab_matrix(rows, cols, theta) -> np.ndarray:
    """Kernel matrix between probe ``rows`` and support ``cols``.

    Parameters
    ----------
    rows : array_like, shape (n_rows, dim)
        Probe points; they carry no bandwidths.
    cols : array_like, shape (n_cols, dim)
        Support points.
    theta : BandwidthSet or array_like, shape (n_cols, dim)
        Bandwidths owned by the support points.

    Returns
    -------
    numpy.ndarray, shape (n_rows, n_cols)
        Entry ``(i, j) = exp(-||theta_j * (rows_i - cols_j)||^2)``.
        Column ``j`` depends only on ``theta_j``.  Entries of far pairs
        underflow to exactly 0; only the expanded form floors at
        ``exp(-350)``.
    """
    rows = as_matrix(rows, "rows")
    cols = as_matrix(cols, "cols")
    if rows.shape[1] != cols.shape[1]:
        raise DimensionMismatch(
            f"rows have dim {rows.shape[1]} but support points have dim {cols.shape[1]}"
        )
    th = _bandwidth_set(theta, cols).values

    n_rows = rows.shape[0]
    out = np.empty((n_rows, cols.shape[0]))
    for lo in range(0, n_rows, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n_rows)
        diff = (rows[lo:hi, None, :] - cols[None, :, :]) * th[None, :, :]
        out[lo:hi] = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _quadratic_features(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Rows ``[p**2, p, 1]`` of ``p = points - origin``: the left factor of
    every expanded squared distance.

    Expanding ``(r - c)**2`` cancels terms as large as the squared
    coordinates, so ``origin`` must lie near the data; the support mean keeps
    every term at the data's spread.
    """
    d = points.shape[1]
    out = np.empty((points.shape[0], 2 * d + 1))
    p = np.subtract(points, origin, out=out[:, d:2 * d])
    np.multiply(p, p, out=out[:, :d])
    out[:, 2 * d] = 1.0
    return out


def _neg_coef(centered: np.ndarray, th_sq: np.ndarray) -> np.ndarray:
    """Rows ``[-th_sq, 2 c th_sq, -sum_m c**2 th_sq]`` of centered columns ``c``:
    the right factor of every expanded squared distance ``sum_m th_sq[j, m] *
    (r[i, m] - c[j, m])**2 = (r**2) @ th_sq.T - 2 r @ (c * th_sq).T + sum_m
    c**2 * th_sq``, negated, filled into one array.  Agrees with the
    difference form to rounding."""
    c = centered
    d = c.shape[1]
    out = np.empty((c.shape[0], 2 * d + 1))
    np.negative(th_sq, out=out[:, :d])
    np.multiply(2.0 * c, th_sq, out=out[:, d:2 * d])
    np.negative((c * c * th_sq).sum(axis=1), out=out[:, 2 * d])
    return out


def _clamped_exp(exponents: np.ndarray) -> np.ndarray:
    """``exp`` of ``exponents`` clamped to ``[_EXP_FLOOR, 0]``, in place: the
    one clamp-and-exp of every expanded-form kernel.  A NaN stays NaN."""
    exponents.clip(_EXP_FLOOR, 0.0, out=exponents)
    return np.exp(exponents, out=exponents)


def rbf_matrix(x1, x2, sigma: float) -> np.ndarray:
    """Classic RBF matrix: one scalar bandwidth ``sigma``, at least
    :data:`MIN_BANDWIDTH`, shared by every dimension and every column.

    With ``x1 is x2`` the result is symmetric with a unit diagonal.
    """
    x2 = as_matrix(x2, "x2")
    return lab_matrix(x1, x2, np.full(x2.shape, float(sigma)))
