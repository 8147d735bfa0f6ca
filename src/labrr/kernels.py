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
``_neg_coef``, and take every support Gram from ``ridgeless.SupportSystem``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DimensionMismatch, as_matrix, as_vector

__all__ = [
    "BandwidthSet",
    "lab_entry",
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


@dataclass(frozen=True)
class BandwidthSet:
    """One strictly positive bandwidth vector per support point.

    Attributes
    ----------
    values : numpy.ndarray, shape (n_points, dim)
        Row ``i`` holds the per-dimension bandwidths of support point ``i``.
        The array is copied on construction and treated as immutable.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = as_matrix(self.values, "bandwidths").copy()
        if not bool((vals > 0.0).all()):
            raise ValueError("bandwidths must be strictly positive")
        object.__setattr__(self, "values", vals)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def uniform(cls, n_points: int, dim: int, value: float) -> "BandwidthSet":
        """Constant bandwidths — the usual warm start before training."""
        if n_points < 1 or dim < 1:
            raise ValueError("n_points and dim must be at least 1")
        if not (value > 0.0):
            raise ValueError(f"bandwidth value must be positive, got {value}")
        return cls(np.full((n_points, dim), float(value)))


def _bandwidth_values(theta, cols: np.ndarray) -> np.ndarray:
    """Validate bandwidths (``BandwidthSet`` or raw array) against ``cols``."""
    if not isinstance(theta, BandwidthSet):
        theta = BandwidthSet(theta)
    if theta.values.shape != cols.shape:
        raise DimensionMismatch(
            f"bandwidths have shape {theta.values.shape}, "
            f"support points have shape {cols.shape}"
        )
    return theta.values


def lab_entry(t, x, theta) -> float:
    """Kernel value between one probe point and one support point.

    Always in ``(0, 1]``, and exactly 1 when ``t == x``.
    """
    t = as_vector(t, "t")
    x = as_vector(x, "x")
    th = as_vector(theta, "theta")
    if not (t.shape == x.shape == th.shape):
        raise DimensionMismatch(
            f"t, x, theta must share a shape; got {t.shape}, {x.shape}, {th.shape}"
        )
    if not bool((th > 0.0).all()):
        raise ValueError("bandwidths must be strictly positive")
    diff = th * (t - x)
    return float(np.exp(-(diff @ diff)))


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
        Column ``j`` depends only on ``theta_j``.
    """
    rows = as_matrix(rows, "rows")
    cols = as_matrix(cols, "cols")
    if rows.shape[1] != cols.shape[1]:
        raise DimensionMismatch(
            f"rows have dim {rows.shape[1]} but support points have dim {cols.shape[1]}"
        )
    th = _bandwidth_values(theta, cols)

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
    p = points - origin
    return np.hstack([p * p, p, np.ones((p.shape[0], 1))])


def _neg_coef(centered: np.ndarray, th_sq: np.ndarray) -> np.ndarray:
    """Rows ``[-th_sq, 2 c th_sq, -sum_m c**2 th_sq]`` of centered columns ``c``:
    the right factor of every expanded squared distance ``sum_m th_sq[j, m] *
    (r[i, m] - c[j, m])**2 = (r**2) @ th_sq.T - 2 r @ (c * th_sq).T + sum_m
    c**2 * th_sq``, negated.  Agrees with the difference form to rounding."""
    c = centered
    return np.hstack([-th_sq, 2.0 * c * th_sq, -(c * c * th_sq).sum(axis=1, keepdims=True)])


def _expanded_kernel(features: np.ndarray, neg_coef: np.ndarray) -> np.ndarray:
    """``exp(features @ neg_coef.T)`` with exponents clamped to
    ``[_EXP_FLOOR, 0]``."""
    neg_dist = features @ neg_coef.T
    # At the floor exp(-350) ~ 1e-152 neither an entry nor a product of two
    # entries is subnormal, and such an entry is as negligible in any sum as
    # a zero.
    np.clip(neg_dist, _EXP_FLOOR, 0.0, out=neg_dist)
    return np.exp(neg_dist, out=neg_dist)


def rbf_matrix(x1, x2, sigma) -> np.ndarray:
    """Classic RBF matrix: one bandwidth vector shared by every column.

    ``sigma`` may be a positive scalar (replicated across dimensions) or a
    positive vector of length ``dim``.  With ``x1 is x2`` the result is
    symmetric with a unit diagonal.
    """
    x2 = as_matrix(x2, "x2")
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.ndim == 0:
        sig = np.full(x2.shape[1], float(sig))
    elif sig.ndim != 1 or sig.shape[0] != x2.shape[1]:
        raise DimensionMismatch(
            f"sigma must be a scalar or length-{x2.shape[1]} vector, got shape {sig.shape}"
        )
    if not bool((sig > 0.0).all()):
        raise ValueError("sigma must be strictly positive")
    return lab_matrix(x1, x2, np.tile(sig, (x2.shape[0], 1)))
