"""Closed-form kernel solvers: the adaptive-bandwidth interpolant and the
stationary-point regressor pair of asymmetric kernel ridge regression.

The interpolant is ``f(t) = sum_i alpha_i * k_theta_i(t, x_i)`` with ``alpha``
obtained from a (optionally jittered) linear solve against the asymmetric
Gram matrix of the support set.  For a general square kernel matrix ``K`` the
asymmetric problem has two natural regressors; their dual vectors equal the
respective training residuals, which is the identity the tests pin down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import NormMeta, ParseError, UnscalableData, _numbers, _typed
from .kernels import _EXP_FLOOR, BandwidthSet, _bandwidth_set, _clamped_exp, _neg_coef, _quadratic_features
# ``lab_matrix`` is no longer called here, but the benchmark's tracer rebinds
# ``ridgeless.lab_matrix`` by name, so the name must stay importable.
from .kernels import lab_matrix  # noqa: F401
from .numerics import DimensionMismatch, FactorizedMatrix, as_matrix, as_pair, as_vector, solve_regularized
from .numerics import one_blas_thread

__all__ = [
    "DEFAULT_JITTER",
    "AsymDualSolution",
    "LabModel",
    "SupportSystem",
    "fit_asym_duals",
    "fit_lab",
    "load_model",
    "predict",
    "predict_f1",
    "predict_f2",
    "save_model",
]

#: Default diagonal regularization: small enough to keep the fit effectively
#: interpolating, large enough to keep near-singular Gram matrices solvable.
DEFAULT_JITTER = 1e-5

#: Entries per row block of :func:`predict` (1 MB of float64).  A block's
#: kernel then stays in the 2 MB per-core L2 cache of a 2-core Xeon host
#: while its ``exp`` and its product with ``alpha`` read it, and a bulk
#: predict's peak memory is its inputs and outputs, not a block.  A
#: 100k x 500, d=6 predict at one BLAS thread there, median of 12
#: alternating runs per size: 0.128 s at 1 MB, 0.129 s at 0.5 MB, 0.133 s at
#: 2 MB, 0.153 s at 8 MB; smaller blocks pay more per-block overhead
#: (0.141 s at 0.25 MB, 0.196 s at 0.125 MB).
_PREDICT_BLOCK_ENTRIES = 1 << 17

_MODEL_FORMAT = "labrr.model"
_MODEL_VERSION = 1


@dataclass
class LabModel:
    """Interpolant over a fixed support set with learned bandwidths.

    Attributes
    ----------
    support_x : numpy.ndarray, shape (n_support, dim)
        Support inputs, in normalized space when ``norm_meta`` is set.
    theta : BandwidthSet
        Per-support-point bandwidths, each at least ``kernels.MIN_BANDWIDTH``.
    alpha : numpy.ndarray, shape (n_support,)
        Combination coefficients solving ``(K + jitter*I) alpha = y``.
    jitter : float
        The diagonal regularization used at fit time.
    norm_meta : NormMeta or None
        Original-unit ranges, kept so predictions can be de-normalized.
    """

    support_x: np.ndarray
    theta: BandwidthSet
    alpha: np.ndarray
    jitter: float = DEFAULT_JITTER
    norm_meta: NormMeta | None = None

    def __post_init__(self) -> None:
        self.support_x, self.alpha = as_pair(self.support_x, self.alpha, "support_x", "alpha")
        if 0 in self.support_x.shape:
            raise DimensionMismatch(f"support_x must be non-empty, got {self.support_x.shape}")
        self.theta = _bandwidth_set(self.theta, self.support_x)
        if not (0.0 <= self.jitter < np.inf):
            raise ValueError(f"jitter must be finite and nonnegative, got {self.jitter}")

    @property
    def n_support(self) -> int:
        return self.support_x.shape[0]

    @property
    def dim(self) -> int:
        return self.support_x.shape[1]


class SupportSystem:
    """The one builder of a support Gram: a training round's support, for
    its fit and every SGD step.

    Validates the support once and holds its points, their mean (the
    expanded form's origin), the centered points and their quadratic
    features, but no per-step state.
    """

    def __init__(self, support_x, support_y, jitter: float) -> None:
        self.x, self.y = as_pair(support_x, support_y, "support_x", "support_y")
        if 0 in self.x.shape:
            raise DimensionMismatch(f"support_x must be non-empty, got {self.x.shape}")
        self.jitter = jitter
        self.origin = self.x.mean(axis=0)
        self.centered = self.x - self.origin
        self.features = _quadratic_features(self.x, self.origin)

    def featurize(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Features about ``self.origin`` and labels of points checked against
        this support: the one such check (``as_pair`` and the dimension)."""
        x, y = as_pair(x, y, "x", "y")
        if x.shape[1] != self.x.shape[1]:
            raise DimensionMismatch(f"points {x.shape} and support {self.x.shape} disagree in dim")
        return _quadratic_features(x, self.origin), y

    def kernel_t(self, th: np.ndarray, batch_features: np.ndarray) -> np.ndarray:
        """``kt = exp(clamp(neg_coef @ [features; batch_features].T))``, an
        ``n x (n + B)`` C-order array; its callers check ``th``'s shape.

        ``kt[:, :n].T`` is ``lab_matrix(x, x, th)`` to rounding, floored at
        ``exp(-350)`` (so a product of two entries in its LU stays normal),
        with an exact unit diagonal, in the Fortran layout LAPACK factors.
        ``kt[:, n:]`` is the cross-kernel of the batch rows (``featurize``
        output) transposed.  Each block is its own product, written in place,
        so the Gram's bits do not depend on the batch (a fit passes
        ``features[:0]``); one ``_clamped_exp`` covers both."""
        n = self.x.shape[0]
        neg_coef = _neg_coef(self.centered, th * th)
        kt = np.empty((n, n + batch_features.shape[0]))
        np.matmul(neg_coef, self.features.T, out=kt[:, :n])
        np.matmul(neg_coef, batch_features.T, out=kt[:, n:])
        _clamped_exp(kt)
        kt.ravel()[:: kt.shape[1] + 1] = 1.0  # the Gram block's diagonal, n entries
        return kt

    def fit(self, theta, norm_meta: NormMeta | None) -> LabModel:
        """The interpolant of this support under ``theta``; see :func:`fit_lab`."""
        theta = _bandwidth_set(theta, self.centered)
        alpha = solve_regularized(self.kernel_t(theta.values, self.features[:0]).T, self.y, self.jitter)
        return LabModel(self.x, theta, alpha, self.jitter, norm_meta)


@one_blas_thread()
def fit_lab(
    support_x,
    support_y,
    theta,
    jitter: float = DEFAULT_JITTER,
    norm_meta: NormMeta | None = None,
) -> LabModel:
    """Solve for the interpolation coefficients of a support set.

    ``alpha`` solves ``(K + jitter*I) alpha = y`` where ``K`` is the
    (generally asymmetric) Gram matrix of the support points under their own
    bandwidths, built by :class:`SupportSystem` as in the SGD step, which
    solves for this ``alpha`` bit for bit.  With ``jitter=0`` and a
    nonsingular ``K`` the model interpolates the support labels exactly.
    Runs at one BLAS thread per pool, as :func:`~labrr.trainer.train` does.

    Raises
    ------
    DimensionMismatch
        If the support set is empty or the labels or bandwidths do not fit it.
    SingularSystem
        Propagated from the solve; signals duplicate support points or a
        degenerate bandwidth set.
    """
    return SupportSystem(support_x, support_y, jitter).fit(theta, norm_meta)


@one_blas_thread()
def predict(model: LabModel, t):
    """Evaluate the interpolant at one point ``(dim,)`` or a batch ``(m, dim)``.

    Returns a float for a single point, a vector for a batch.  Operates in
    the model's own (normalized) input space.  The kernel is built in the
    expanded form of :class:`SupportSystem` one block of rows at a time, so
    the full points-by-support matrix is never formed; predictions match
    ``lab_matrix(t, support_x, theta) @ alpha`` to rounding.  Runs at one
    BLAS thread per pool, as :func:`fit_lab` does, so the predictions' bits
    do not depend on the host's thread count.  Raises
    :class:`~labrr.data.UnscalableData` when the kernel or a prediction
    overflows float64.
    """
    arr = np.asarray(t, dtype=np.float64)
    single = arr.ndim == 1
    points = as_matrix(arr[None, :] if single else arr, "t")
    if points.shape[1] != model.dim:
        raise DimensionMismatch(
            f"points have dim {points.shape[1]}, model has dim {model.dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        origin = model.support_x.mean(axis=0)
        neg_coef = _neg_coef(model.support_x - origin, model.theta.values ** 2)
    if not np.isfinite(neg_coef).all():
        raise UnscalableData("model bandwidths or support points overflow float64 in the kernel")
    # A row of a block holds a kernel row and the row's quadratic features,
    # about 4 * dim + 1 entries with their temporaries; the larger one sets the size.
    block = max(1, _PREDICT_BLOCK_ENTRIES // max(model.n_support, 4 * model.dim + 1))
    values = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], block):
        rows, out = points[lo:lo + block], values[lo:lo + block]
        # Block arrays stay unnamed, so each is freed before the next is built.
        # A far probe overflows its squared distance to -inf, which the clamp
        # reads as the floor; where its cross term overflows to +inf instead,
        # the product may sum the two into NaN, and only such rows are rebuilt
        # with ``np.fmax``, which floors a NaN too.
        with np.errstate(over="ignore", invalid="ignore"):
            out[:] = _clamped_exp(_quadratic_features(rows, origin) @ neg_coef.T) @ model.alpha
            far = np.isnan(out)
            if far.any():
                neg_dist = np.fmax(_quadratic_features(rows[far], origin) @ neg_coef.T, _EXP_FLOOR)
                out[far] = _clamped_exp(neg_dist) @ model.alpha
    if not np.isfinite(values).all():
        raise UnscalableData("model coefficients overflow float64 in the prediction")
    return float(values[0]) if single else values


# ---------------------------------------------------------------------------
# General asymmetric kernel ridge regression


@dataclass(frozen=True)
class AsymDualSolution:
    """Dual vectors of the two stationary-point regressors.

    ``alpha = lam * (K + lam*I)^-1 y`` and ``beta = lam * (K^T + lam*I)^-1 y``;
    each equals the training residuals of its regressor entrywise.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lam: float


def fit_asym_duals(gram, y, lam: float) -> AsymDualSolution:
    """Solve both dual systems of an asymmetric square kernel matrix."""
    gram, y = as_pair(gram, y, "gram", "y")
    if not (lam > 0.0):
        raise ValueError(f"lam must be strictly positive, got {lam}")
    solver = FactorizedMatrix(gram, lam)  # checks squareness; transpose solve is (K^T + lam*I)
    alpha = lam * solver.solve(y)
    beta = lam * solver.solve(y, transpose=True)
    return AsymDualSolution(alpha=alpha, beta=beta, lam=lam)


def _predict_dual(kernel_rows, dual: np.ndarray, lam: float) -> np.ndarray:
    kernel_rows = as_matrix(kernel_rows, "kernel_rows")
    coef = as_vector(dual, "dual") / lam
    if kernel_rows.shape[1] != coef.shape[0]:
        raise DimensionMismatch(
            f"kernel rows have {kernel_rows.shape[1]} columns, expected {coef.shape[0]}"
        )
    return kernel_rows @ coef


def predict_f1(kernel_rows, duals: AsymDualSolution) -> np.ndarray:
    """First regressor: rows are kernel values ``k(t_i, x_j)`` against training points."""
    return _predict_dual(kernel_rows, duals.alpha, duals.lam)


def predict_f2(kernel_rows, duals: AsymDualSolution) -> np.ndarray:
    """Second regressor: rows are transposed kernel values ``k(x_j, t_i)``."""
    return _predict_dual(kernel_rows, duals.beta, duals.lam)


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: LabModel) -> dict:
    """Self-describing document; float lists round-trip bit-exactly via JSON."""
    return {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "dim": model.dim,
        "n_support": model.n_support,
        "jitter": model.jitter,
        "support_x": model.support_x.tolist(),
        "bandwidths": model.theta.values.tolist(),
        "alpha": model.alpha.tolist(),
        "normalization": model.norm_meta.to_dict() if model.norm_meta else None,
    }


def model_from_dict(doc) -> LabModel:
    """Rebuild a model document; any malformed document raises ``ValueError``."""
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != _MODEL_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')!r}")
    try:
        norm = doc["normalization"]
        model = LabModel(
            support_x=_numbers(doc, "support_x"),
            theta=_numbers(doc, "bandwidths"),
            alpha=_numbers(doc, "alpha"),
            jitter=float(_typed(doc, "jitter", (int, float))),
            norm_meta=NormMeta.from_dict(norm) if norm is not None else None,
        )
        declared = (_typed(doc, "dim", int), _typed(doc, "n_support", int))
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an integer past float64
        raise ValueError(f"malformed model document ({type(exc).__name__}: {exc})") from None
    meta_dim = model.dim if model.norm_meta is None else model.norm_meta.feature_min.shape[0]
    if declared != (model.dim, model.n_support) or meta_dim != model.dim:
        raise ValueError("model document is inconsistent with its declared shape")
    return model


def save_model(model: LabModel, path) -> None:
    """Write the model as deterministic JSON (stable bytes for fixed inputs)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> LabModel:
    """Load a model saved by :func:`save_model` (predictions are bit-identical);
    a malformed file raises :class:`~labrr.data.ParseError` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return model_from_dict(json.load(fh))
        except ValueError as exc:  # also JSON syntax and UTF-8 decoding errors
            raise ParseError(path, f"not a valid model file ({exc})") from None
