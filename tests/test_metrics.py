"""Unit tests for metrics, the output clamp, and sparsity accounting."""

import numpy as np
import pytest

from labrr.data import InsufficientData
from labrr.kernels import BandwidthSet
from labrr.metrics import (
    DegenerateLabels,
    EvalReport,
    ZERO_COEF_TOL,
    make_report,
    mse,
    project,
    r_squared,
    sparsity_r0,
)
from labrr.ridgeless import LabModel


def test_mse_hand_values():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)
    assert mse([0.0, 0.0, 0.0], [3.0, 0.0, 0.0]) == pytest.approx(3.0)


def test_mse_needs_a_point():
    with pytest.raises(ValueError):
        mse([], [])


def test_r_squared_perfect_and_mean_predictor():
    y = [0.0, 1.0, 2.0, 3.0]
    assert r_squared(y, y) == 1.0
    assert r_squared(y, [1.5] * 4) == pytest.approx(0.0)


def test_r_squared_hand_value():
    # SS_res = 0.5, SS_tot = 2 -> R^2 = 0.75
    assert r_squared([0.0, 2.0], [0.5, 1.5]) == pytest.approx(0.75)


def test_r_squared_can_be_negative():
    assert r_squared([0.0, 1.0], [10.0, -10.0]) < 0.0


def test_r_squared_validation():
    with pytest.raises(DegenerateLabels):
        r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientData):  # a ValueError
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [1.0])


def test_project_scalar_and_array():
    assert project(2.0, 1.0) == 1.0
    assert project(-3.0, 1.0) == -1.0
    assert project(0.5, 1.0) == 0.5
    assert isinstance(project(2.0, 1.0), float)
    clipped = project(np.array([-5.0, 0.0, 5.0]), 2.0)
    assert np.array_equal(clipped, [-2.0, 0.0, 2.0])


def test_project_is_idempotent_and_monotone():
    rng = np.random.default_rng(5)
    values = np.sort(rng.normal(scale=3.0, size=50))
    once = project(values, 1.5)
    assert np.array_equal(project(once, 1.5), once)
    assert np.all(np.diff(once) >= 0.0)


def test_project_requires_positive_bound():
    with pytest.raises(ValueError):
        project(1.0, 0.0)
    with pytest.raises(ValueError):
        project(1.0, -2.0)


def _model_with_alpha(alpha):
    n = len(alpha)
    x = np.arange(float(n))[:, None]
    return LabModel(x, BandwidthSet.uniform(n, 1, 1.0), np.asarray(alpha, dtype=float))


def test_sparsity_counts_entries_above_tolerance():
    model = _model_with_alpha([0.5, 1e-13, 0.0, -2e-12, -0.25])
    # 0.5, -2e-12 and -0.25 exceed 1e-12 in magnitude; 1e-13 and 0.0 do not.
    assert sparsity_r0(model) == 3


def test_sparsity_custom_tolerance():
    model = _model_with_alpha([0.5, 0.01])
    assert sparsity_r0(model, tol=0.1) == 1


def test_zero_coef_tol_value():
    assert ZERO_COEF_TOL == 1e-12


def test_make_report_bundles_metrics():
    model = _model_with_alpha([1.0, -1.0, 0.0])
    y_true = [0.0, 1.0, 2.0, 3.0]
    y_pred = [0.0, 1.0, 2.0, 2.0]
    report = make_report(y_true, y_pred, model, max_train_sq_error=0.5, wall_clock_seconds=1.25)
    assert report.r_squared == pytest.approx(r_squared(y_true, y_pred))
    assert report.mse == pytest.approx(mse(y_true, y_pred))
    assert report.n_test == 4
    assert report.n_support == 3
    assert report.r0 == 2
    assert report.max_train_sq_error == 0.5
    assert report.wall_clock_seconds == 1.25


def test_eval_report_to_dict_keys():
    report = EvalReport(0.9, 0.01, 10, 5, 5)
    doc = report.to_dict()
    assert set(doc) == {
        "r_squared", "mse", "n_test", "n_support", "r0",
        "max_train_sq_error", "wall_clock_seconds",
    }
    assert doc["max_train_sq_error"] is None
