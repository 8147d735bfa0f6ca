"""Bandwidth learning with dynamic support growth.

The training loop alternates two phases until every held-out training
residual drops below the error budget ``B``:

1. A round of ``L`` SGD steps on the bandwidths.  Each step draws a fresh
   mini-batch from the non-support training points and descends the exact
   gradient of the batch squared error *through* the interpolating solve —
   the coefficients ``alpha`` are themselves a function of the bandwidths.
2. A growth step that promotes the ``k`` worst-predicted non-support points
   into the support set.

Support only ever grows.  All randomness flows from the config seed, and
:func:`train` runs at one BLAS thread, so a (dataset, config) pair reproduces
the model bitwise.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, InsufficientData, InvalidSetting
from .kernels import MIN_BANDWIDTH, BandwidthSet, _bandwidth_set
from .numerics import DimensionMismatch, DivergedStep, FactorizedMatrix, SingularSystem, as_vector
from .numerics import one_blas_thread
from .ridgeless import DEFAULT_JITTER, LabModel, SupportSystem, predict
# Not called here, but the benchmark's tracer rebinds ``trainer.lab_matrix``
# and ``trainer.fit_lab`` by name, so both names must stay importable.
from .kernels import lab_matrix  # noqa: F401
from .ridgeless import fit_lab  # noqa: F401

__all__ = [
    "SELECTION_STRATEGIES",
    "RoundRecord",
    "TrainConfig",
    "TrainTrace",
    "batch_loss_and_grad",
    "grow_support",
    "select_initial_support",
    "sgd_round",
    "train",
]

SELECTION_STRATEGIES = ("y_uniform", "x_kmeans")

_KMEANS_SWEEPS = 50

#: Trust region of one SGD step, scaled down as a whole until no bandwidth
#: moves by more than this fraction of itself.  Healthy runs stay well inside
#: it (largest relative step 0.1-0.26); diverging runs pass it at once.
MAX_RELATIVE_STEP = 0.5

#: What each ``TrainConfig`` annotation accepts; no field accepts a bool.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of the training loop, checked on construction (also by
    ``dataclasses.replace``); a value of the wrong type or out of range raises
    :class:`~labrr.data.InvalidSetting`, a ``ValueError``.  Each ``float``
    field is stored as ``float(value)``, and a value past float64's range
    (an integer such as ``10**400``) raises it too.

    Attributes
    ----------
    error_budget : float
        Stop once every non-support training squared error is at or below
        this value (normalized-label units squared).
    grow_count : int
        Support points promoted per growth step.
    learning_rate : float
        SGD step size for the bandwidths.
    inner_steps : int
        SGD steps per round.
    initial_support : int
        Size of the initial support set.
    init_bandwidth : float
        Constant initial bandwidth value.
    batch_size : int
        Mini-batch size (capped at the number of non-support points).
    bandwidth_min, bandwidth_max : float
        Bandwidths are clipped into this interval after every step.  At least
        ``MIN_BANDWIDTH`` (1e-150), so that ``th**2`` stays a normal float, and
        at most 1e150, so that ``th**2`` and ``2 c th**2`` stay finite for the
        centered coordinates ``|c| <= 2`` of normalized data.
    max_rounds : int
        Hard cap on outer rounds.
    max_support_ratio : float
        Support may grow to at most this fraction of the training set.
    selection : str
        Initial-support strategy: ``y_uniform`` (evenly spaced label ranks)
        or ``x_kmeans`` (points nearest seeded k-means centers).
    seed : int
        Drives initial selection and batch sampling.
    jitter : float
        Diagonal regularization used in every interpolating solve.
    """

    error_budget: float
    grow_count: int = 10
    learning_rate: float = 0.01
    inner_steps: int = 20
    initial_support: int = 20
    init_bandwidth: float = 1.0
    batch_size: int = 64
    bandwidth_min: float = 1e-4
    bandwidth_max: float = 1e4
    max_rounds: int = 200
    max_support_ratio: float = 0.8
    selection: str = "y_uniform"
    seed: int = 0
    jitter: float = DEFAULT_JITTER

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise InvalidSetting(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float":
                try:
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise InvalidSetting(f"{f.name} overflows float64") from None
        if not (self.error_budget > 0.0):
            raise InvalidSetting(f"error_budget must be positive, got {self.error_budget}")
        if self.grow_count < 1:
            raise InvalidSetting(f"grow_count must be at least 1, got {self.grow_count}")
        if not (0.0 <= self.learning_rate < np.inf):
            raise InvalidSetting(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.inner_steps < 0:
            raise InvalidSetting(f"inner_steps must be nonnegative, got {self.inner_steps}")
        if self.initial_support < 1:
            raise InvalidSetting(f"initial_support must be at least 1, got {self.initial_support}")
        if not (MIN_BANDWIDTH <= self.bandwidth_min <= self.bandwidth_max <= 1e150):
            raise InvalidSetting(
                f"need {MIN_BANDWIDTH:g} <= bandwidth_min <= bandwidth_max <= 1e150, got "
                f"[{self.bandwidth_min}, {self.bandwidth_max}]"
            )
        if not (self.bandwidth_min <= self.init_bandwidth <= self.bandwidth_max):
            raise InvalidSetting(
                f"init_bandwidth {self.init_bandwidth} outside "
                f"[{self.bandwidth_min}, {self.bandwidth_max}]"
            )
        if self.batch_size < 1:
            raise InvalidSetting(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_rounds < 1:
            raise InvalidSetting(f"max_rounds must be at least 1, got {self.max_rounds}")
        if not (0.0 < self.max_support_ratio <= 1.0):
            raise InvalidSetting(f"max_support_ratio must be in (0, 1], got {self.max_support_ratio}")
        if self.selection not in SELECTION_STRATEGIES:
            raise InvalidSetting(
                f"unknown selection strategy {self.selection!r}; "
                f"choose from {', '.join(SELECTION_STRATEGIES)}"
            )
        if self.seed < 0:
            raise InvalidSetting(f"seed must be nonnegative, got {self.seed}")
        if not (0.0 <= self.jitter < np.inf):
            raise InvalidSetting(f"jitter must be finite and nonnegative, got {self.jitter}")


@dataclass
class RoundRecord:
    """Diagnostics of one outer round.

    ``factorizations`` counts the LUs its SGD steps made: one per step,
    fewer when steps solved through an earlier step's LU.
    """

    round_index: int
    n_support: int
    max_sq_error: float
    mean_sq_error: float
    inner_losses: list[float] = field(default_factory=list)
    factorizations: int = 0

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "n_support": self.n_support,
            "max_sq_error": self.max_sq_error,
            "mean_sq_error": self.mean_sq_error,
            "inner_losses": self.inner_losses,
            "factorizations": self.factorizations,
        }


@dataclass
class TrainTrace:
    """Per-round history plus the stop condition.

    ``converged`` is False when a cap stopped training while the worst
    residual still exceeded the budget — reported, never raised.
    """

    rounds: list[RoundRecord]
    converged: bool
    stop_reason: str
    n_train: int
    wall_clock_seconds: float

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


# ---------------------------------------------------------------------------
# Initial support selection


def _rank_spaced(order: np.ndarray, count: int) -> np.ndarray:
    """Indices at evenly spaced ranks of a sorted order (rank 0 always included)."""
    n = order.shape[0]
    if count == 1:
        ranks = np.zeros(1, dtype=np.intp)
    else:
        ranks = (np.arange(count) * (n - 1)) // (count - 1)
    return order[ranks]


def _kmeans_representatives(x: np.ndarray, count: int, seed: int) -> list[int]:
    """Nearest data index to each center of a seeded k-means of at most
    ``_KMEANS_SWEEPS`` Lloyd sweeps.

    A sweep whose assignment equals the previous one's would set every center
    to the value it already has, and so would every later sweep: stopping
    there gives the capped run's centers bit for bit.

    The squared distances are ``x_sq + c_sq - 2.0 * (x @ centers.T)``, and
    each cluster's sum is a ``bincount`` per column, which adds its points
    in the order ``np.add.at`` does.
    """
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(x.shape[0], size=count, replace=False)].copy()
    x_sq = (x * x).sum(axis=1)

    def distances() -> np.ndarray:
        return x_sq[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)

    previous = None
    for _ in range(_KMEANS_SWEEPS):
        assign = distances().argmin(axis=1)
        if previous is not None and np.array_equal(assign, previous):
            break
        previous = assign
        counts = np.bincount(assign, minlength=count)
        sums = np.stack([np.bincount(assign, weights=col, minlength=count) for col in x.T], axis=1)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    return [int(i) for i in distances().argmin(axis=0)]


def select_initial_support(dataset: Dataset, count: int, strategy: str, seed: int) -> np.ndarray:
    """Pick the initial support indices.

    ``y_uniform`` sorts by label and takes evenly spaced ranks; ``x_kmeans``
    returns the data points nearest seeded k-means centers (deduplicated,
    topped up by label-rank spacing).
    """
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(
            f"unknown selection strategy {strategy!r}; choose from {', '.join(SELECTION_STRATEGIES)}"
        )
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if count > dataset.n:
        raise InsufficientData(
            f"requested {count} initial support points from {dataset.n} samples"
        )
    order = np.argsort(dataset.y, kind="stable")
    if strategy == "y_uniform":
        return _rank_spaced(order, count).astype(np.intp)
    # x_kmeans: dedupe the representatives, then fill from rank spacing, which
    # alone already holds ``count`` distinct indices.
    representatives = _kmeans_representatives(dataset.x, count, seed)
    chosen = list(dict.fromkeys([*representatives, *_rank_spaced(order, count).tolist()]))
    return np.asarray(chosen[:count], dtype=np.intp)


# ---------------------------------------------------------------------------
# The gradient


class _RoundLU:
    """An SGD round's step solver: its last LU and whether the round still
    tries reuse.

    It holds no kernel: :meth:`solve` takes the step's own Gram.  A round
    whose held LU declines once (a refined solve misses
    ``FactorizedMatrix.solve_nearby``'s one acceptance test) drops its LU
    and factors every later step.  ``factorizations`` counts the LUs the
    round's steps made.
    """

    def __init__(self) -> None:
        self.solver: FactorizedMatrix | None = None
        self.reusing = True
        self.factorizations = 0

    def solve(self, system, gram, cross_t, batch_y):
        """``(alpha, resid, u)`` of the step: through the held LU when
        ``FactorizedMatrix.solve_nearby`` accepts both solves against
        ``gram``; otherwise through a fresh LU of ``gram``, held while the
        round reuses."""
        if self.solver is not None:
            alpha = self.solver.solve_nearby(gram, system.y)
            if alpha is not None:
                resid = alpha @ cross_t - batch_y
                u = self.solver.solve_nearby(gram, cross_t @ resid, transpose=True)
                if u is not None:
                    return alpha, resid, u
            # Dropped before the fresh LU is made, so the two are never held at once.
            self.solver = None
            self.reusing = False
        solver = FactorizedMatrix(gram, system.jitter)
        self.factorizations += 1
        if self.reusing:
            self.solver = solver
        alpha = solver.solve(system.y)
        resid = alpha @ cross_t - batch_y
        # Adjoint of the solve: u solves (K + jitter*I)^T u = cross^T resid.
        return alpha, resid, solver.solve(cross_t @ resid, transpose=True)


def batch_loss_and_grad(
    system: SupportSystem,
    th: np.ndarray,
    batch_features: np.ndarray,
    batch_y: np.ndarray,
    round_lu: _RoundLU | None = None,
) -> tuple[float, np.ndarray]:
    """Batch squared error and its exact bandwidth gradient.

    The loss is ``sum_b (k_theta(x_b, X_sv) @ alpha - y_b)**2`` with
    ``alpha = (K + jitter*I)^-1 y_sv`` recomputed from the current
    bandwidths, so the gradient carries two terms per bandwidth entry: the
    direct dependence of the cross-kernel row and the dependence of
    ``alpha`` on the support Gram matrix.  The latter is evaluated with one
    adjoint (transposed) solve instead of per-entry solves.

    Both kernels come from one ``system.kernel_t(th, batch_features)``: the
    stacked, transposed product ``exp(clamp(neg_coef @ [support_features;
    batch_features].T))``, whose first ``n`` columns are the Gram already in
    the Fortran layout LAPACK factors (as ``system.fit`` builds it, so the
    fit solves for this step's ``alpha`` bit for bit) and whose last ``B``
    columns are the cross-kernel transposed.  Both weighted-distance terms
    then come from one non-transposed product with ``kt``.  The kernels
    match ``lab_matrix`` and the difference form to rounding, with entries
    below ``exp(-350)`` ~ 1e-152 read as ``exp(-350)``, so a product of two
    entries stays a normal float.  The Gram's LU is factored from a private
    copy; nothing the step is given is changed.

    Both solves, the ``alpha`` solve and the adjoint one, go through
    ``round_lu``, the SGD round's solver: it solves through the LU of an
    earlier step of the round when ``FactorizedMatrix.solve_nearby``'s
    residual test accepts both against this step's Gram, and factors this
    Gram otherwise; no bound on how far the Gram moved is taken.  A call
    without ``round_lu`` gets a fresh solver, which always factors.

    ``th`` is the raw bandwidth array and ``batch_features, batch_y`` what
    ``system.featurize`` returns for the batch, where it is checked; the step
    only checks that the shapes line up (else :class:`DimensionMismatch`).

    Returns
    -------
    (float, numpy.ndarray)
        The scalar loss and a gradient with one row per support point.
    """
    c = system.centered
    if th.shape != c.shape:
        raise DimensionMismatch(f"bandwidths have shape {th.shape}, support points have shape {c.shape}")
    if batch_features.shape[0] != batch_y.shape[0]:
        raise DimensionMismatch(f"{batch_y.shape[0]} labels for {batch_features.shape[0]} batch rows")
    n, d = c.shape
    kt = system.kernel_t(th, batch_features)
    cross_t = kt[:, n:]
    alpha, resid, u = (round_lu or _RoundLU()).solve(system, kt[:, :n].T, cross_t, batch_y)
    loss = float(resid @ resid)

    # sum_i v[i] * kt[j, i] * (rows[i, m] - c[j, m])**2 over the support rows
    # (v = -u) and the batch rows (v = resid) at once: with w = kt * v, it is
    # w @ r**2 - 2 c * (w @ r) + c**2 * rowsum(w), one product with kt.
    weighted = np.empty((kt.shape[1], 2 * d + 1))
    np.multiply(system.features, -u[:, None], out=weighted[:n])
    np.multiply(batch_features, resid[:, None], out=weighted[n:])
    sums = kt @ weighted
    grad = sums[:, :d] - 2.0 * c * sums[:, d:2 * d] + c * c * sums[:, 2 * d:]
    grad *= -4.0 * th * alpha[:, None]
    return loss, grad


def sgd_round(
    system: SupportSystem,
    theta: BandwidthSet,
    remainder_x,
    remainder_y,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[BandwidthSet, list[float], int]:
    """One round of ``inner_steps`` SGD updates on the bandwidths of ``system``.

    The remainder (non-support) points are checked and featurized by
    ``system.featurize``, and the bandwidths checked against the support,
    once.  Each step samples a fresh mini-batch uniformly without
    replacement from the remainder and descends the exact gradient; the
    bandwidths and the round's solver (``batch_loss_and_grad``'s
    ``round_lu``), the round's state, are updated in place.  The step is
    scaled down, as a whole, so that no bandwidth moves by more than
    ``MAX_RELATIVE_STEP`` of itself, and the bandwidths are then clipped
    into their bounds; a step whose update makes a bandwidth NaN raises
    ``DivergedStep``, and a step whose Gram is singular raises
    ``SingularSystem`` naming the step.  Returns the updated bandwidths, the
    per-step loss curve and the number of LUs the steps made.  With
    ``inner_steps=0``, ``learning_rate=0``, or an empty remainder the
    bandwidths come back unchanged.
    """
    features, remainder_y = system.featurize(remainder_x, remainder_y)
    n_rem = features.shape[0]
    losses: list[float] = []
    if n_rem == 0:
        return theta, losses, 0
    th = _bandwidth_set(theta, system.centered).values.copy()
    round_lu = _RoundLU()
    batch = min(config.batch_size, n_rem)
    for step in range(config.inner_steps):
        picks = rng.choice(n_rem, size=batch, replace=False)
        try:
            loss, grad = batch_loss_and_grad(system, th, features[picks], remainder_y[picks], round_lu)
        except SingularSystem as exc:
            raise SingularSystem(f"SGD step {step}: {exc}") from None
        losses.append(loss)
        # An overflowed step is held finite: a step beyond bandwidth_max is
        # past the trust region anyway, and held there its relative size stays
        # finite, so the trust-region scale is never 0 (inf * 0 is NaN).
        with np.errstate(over="ignore"):
            descent = config.learning_rate * grad
        descent.clip(-config.bandwidth_max, config.bandwidth_max, out=descent)
        largest_relative = np.abs(descent / th).max()
        # th is finite and descent held finite, so th - descent has a NaN
        # exactly when descent does, and then so does this max.
        if np.isnan(largest_relative):
            raise DivergedStep(f"SGD step {step} made a bandwidth NaN")
        if largest_relative > MAX_RELATIVE_STEP:
            descent *= MAX_RELATIVE_STEP / largest_relative
        th -= descent
        th.clip(config.bandwidth_min, config.bandwidth_max, out=th)
    return BandwidthSet(th), losses, round_lu.factorizations


def grow_support(sq_errors, count: int) -> np.ndarray:
    """Positions of the ``count`` largest squared errors.

    Ties break toward the lower position; asking for more than available
    returns every position (largest first).
    """
    errors = as_vector(sq_errors, "sq_errors")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    order = np.lexsort((np.arange(errors.shape[0]), -errors))
    return order[: min(count, errors.shape[0])]


# ---------------------------------------------------------------------------
# The outer loop


@one_blas_thread()
def train(dataset: Dataset, config: TrainConfig) -> tuple[LabModel, TrainTrace]:
    """Run the full loop: select support, learn bandwidths, grow, refit.

    Expects a normalized dataset.  Stops when the worst non-support squared
    error is at or below ``config.error_budget``; a round cap, the support
    ratio cap, or running out of non-support points stop early with
    ``converged=False`` flagged in the trace.  Every stop comes right after a
    round's fit, so the returned model is the fit of the final support set
    with the config jitter.  Runs at one BLAS thread per pool
    (:func:`~labrr.numerics.one_blas_thread`), so the model's bytes do not
    depend on the host's thread count.
    """
    started = time.perf_counter()
    n = dataset.n
    support_cap = max(int(config.max_support_ratio * n), 1)

    support = select_initial_support(
        dataset, config.initial_support, config.selection, config.seed
    ).tolist()
    in_support = np.zeros(n, dtype=bool)
    in_support[support] = True
    theta = BandwidthSet.uniform(len(support), dataset.dim, config.init_bandwidth)
    rng = np.random.default_rng([config.seed, 1])

    rounds: list[RoundRecord] = []
    converged = False
    stop_reason = "max_rounds"
    for round_index in range(config.max_rounds):
        remainder = np.flatnonzero(~in_support)
        system = SupportSystem(dataset.x[support], dataset.y[support], config.jitter)
        stage = ""
        try:
            theta, losses, factorizations = sgd_round(
                system, theta, dataset.x[remainder], dataset.y[remainder], config, rng
            )
            stage = "fit: "
            model = system.fit(theta, dataset.norm_meta)
        except (SingularSystem, DivergedStep) as exc:
            raise type(exc)(f"round {round_index} ({len(support)} support points), {stage}{exc}") from None
        # Error check per the growth rule: non-support points, or the support
        # itself once everything has been absorbed.
        eval_idx = remainder if remainder.shape[0] else np.asarray(support)
        sq_errors = (predict(model, dataset.x[eval_idx]) - dataset.y[eval_idx]) ** 2
        max_err = float(sq_errors.max())
        rounds.append(
            RoundRecord(round_index, len(support), max_err, float(sq_errors.mean()), losses, factorizations)
        )
        if max_err <= config.error_budget:
            converged = True
            stop_reason = "error_budget_met"
            break
        if remainder.shape[0] == 0:
            stop_reason = "all_data_in_support"
            break
        if round_index == config.max_rounds - 1:
            break  # stop_reason stays "max_rounds"
        room = support_cap - len(support)
        if room <= 0:
            stop_reason = "support_cap"
            break
        add_count = min(config.grow_count, room, remainder.shape[0])
        worst = grow_support(sq_errors, add_count)
        new_indices = remainder[worst]
        # Newcomers inherit the current mean bandwidth profile; a mean of
        # bandwidths at a bound can round one ulp past it.
        mean_profile = np.clip(theta.values.mean(axis=0), config.bandwidth_min, config.bandwidth_max)
        theta = BandwidthSet(
            np.vstack([theta.values, np.tile(mean_profile, (new_indices.shape[0], 1))])
        )
        support.extend(int(i) for i in new_indices)
        in_support[new_indices] = True

    trace = TrainTrace(
        rounds=rounds,
        converged=converged,
        stop_reason=stop_reason,
        n_train=n,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return model, trace
