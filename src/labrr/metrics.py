"""Fit-quality metrics, output clamping, and the support-sparsity count."""

from __future__ import annotations

import numpy as np

from .data import InsufficientData, InvalidSetting
from .numerics import DimensionMismatch, as_vector
from .ridgeless import LabModel

__all__ = [
    "DegenerateLabels",
    "ZERO_COEF_TOL",
    "mse",
    "project",
    "r_squared",
    "sparsity_r0",
]

#: Coefficients at or below this magnitude count as zero: comfortably below
#: double-precision solve noise on normalized data.
ZERO_COEF_TOL = 1e-12


class DegenerateLabels(ValueError):
    """All reference labels are identical, so R-squared is undefined."""


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    yt = as_vector(y_true, "y_true")
    yp = as_vector(y_pred, "y_pred")
    if yt.shape[0] != yp.shape[0]:
        raise DimensionMismatch(f"length mismatch: {yt.shape[0]} vs {yp.shape[0]}")
    return yt, yp


def mse(y_true, y_pred) -> float:
    """Mean squared error; raises :class:`~labrr.data.InsufficientData` for
    no points."""
    yt, yp = _paired(y_true, y_pred)
    if yt.shape[0] == 0:
        raise InsufficientData("mse needs at least one point")
    return float(np.mean((yt - yp) ** 2))


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination, ``1 - SS_res / SS_tot``.

    Raises :class:`~labrr.data.InsufficientData` for fewer than two points
    and :class:`DegenerateLabels` when the reference labels are constant.
    """
    yt, yp = _paired(y_true, y_pred)
    if yt.shape[0] < 2:
        raise InsufficientData(f"r_squared needs at least two points, got {yt.shape[0]}")
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateLabels("all reference labels are equal")
    ss_res = float(np.sum((yt - yp) ** 2))
    return 1.0 - ss_res / ss_tot


def _check_clip(bound: float | None) -> None:
    """The one rule of a clip bound, :func:`project`'s and the CLI's ``--clip``:
    none, or positive; raises :class:`~labrr.data.InvalidSetting`."""
    if bound is not None and not (bound > 0.0):
        raise InvalidSetting(f"clip must be positive, got {bound}")


def project(values, bound: float) -> np.ndarray:
    """Clamp an array of predictions into ``[-bound, bound]``, as a float64
    array; idempotent and monotone."""
    _check_clip(bound)
    return np.clip(np.asarray(values, dtype=np.float64), -bound, bound)


def sparsity_r0(model: LabModel) -> int:
    """Number of support points with a nonzero coefficient
    (``|alpha| > ZERO_COEF_TOL``)."""
    return int(np.count_nonzero(np.abs(model.alpha) > ZERO_COEF_TOL))

