"""Unit tests for metrics, the output clamp, and sparsity accounting."""

import json

import numpy as np
import pytest

from labrr.cli import main
from labrr.data import InsufficientData, InvalidSetting, save_csv, split, synth
from labrr.kernels import BandwidthSet
from labrr.metrics import (
    DegenerateLabels,
    ZERO_COEF_TOL,
    mse,
    project,
    r_squared,
    sparsity_r0,
)
from labrr.numerics import DimensionMismatch
from labrr.ridgeless import LabModel, predict
from labrr.trainer import train


def test_mse_hand_values():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)
    assert mse([0.0, 0.0, 0.0], [3.0, 0.0, 0.0]) == pytest.approx(3.0)


def test_mse_needs_a_point():
    # As ``r_squared``'s check of too few points, which ``main`` maps to exit 2.
    with pytest.raises(InsufficientData, match="mse needs at least one point"):
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


@pytest.mark.parametrize("metric", [mse, r_squared])
def test_length_mismatch_is_a_dimension_mismatch(metric):
    # The shape error every other labrr check raises, which ``main`` maps to exit 2.
    with pytest.raises(DimensionMismatch, match="length mismatch: 3 vs 2"):
        metric([0.0, 1.0, 2.0], [0.0, 1.0])


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
    # The one clip rule, shared with ``predict --clip`` and ``benchmark --clip``.
    with pytest.raises(InvalidSetting, match="clip must be positive, got 0.0"):
        project(1.0, 0.0)
    with pytest.raises(InvalidSetting, match="clip must be positive, got -2.0"):
        project(1.0, -2.0)


def _model_with_alpha(alpha):
    n = len(alpha)
    x = np.arange(float(n))[:, None]
    return LabModel(x, BandwidthSet.uniform(n, 1, 1.0), np.asarray(alpha, dtype=float))


def test_sparsity_counts_entries_above_tolerance():
    model = _model_with_alpha([0.5, 1e-13, 0.0, -2e-12, -0.25])
    # 0.5, -2e-12 and -0.25 exceed 1e-12 in magnitude; 1e-13 and 0.0 do not.
    assert sparsity_r0(model) == 3


def test_zero_coef_tol_value():
    assert ZERO_COEF_TOL == 1e-12


# The evaluation report of one benchmark trial is the trial record that
# ``labrr benchmark --out`` writes; ``cmd_benchmark`` alone owns its format.
_TRIAL_KEYS = [
    "record", "trial", "seed", "r_squared", "mse", "n_test", "n_support", "r0",
    "max_train_sq_error", "wall_clock_seconds", "n_train", "rounds", "converged", "stop_reason",
]


def _benchmark_trials(out):
    data = out.with_name("bench.csv")
    save_csv(synth("f1", 60, 0.0, seed=0), data)
    assert main([
        "benchmark", "--data", str(data), "--trials", "2", "--clip", "0.9",
        "--B", "1e-3", "--n0", "10", "--k", "5", "--L", "3",
        "--batch", "16", "--max-outer", "5", "--out", str(out),
    ]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return [r for r in records if r["record"] == "trial"]


def test_make_report_bundles_metrics(tmp_path, monkeypatch):
    sides, models, predictions = [], [], []

    def recorded_split(dataset, spec):
        sides.append(split(dataset, spec))
        return sides[-1]

    def recorded_train(dataset, config):
        model, trace = train(dataset, config)
        models.append(model)
        return model, trace

    def recorded_predict(model, x):
        predictions.append((x, predict(model, x)))
        return predictions[-1][1]

    monkeypatch.setattr("labrr.cli.split", recorded_split)
    monkeypatch.setattr("labrr.cli.train", recorded_train)
    monkeypatch.setattr("labrr.cli.predict", recorded_predict)
    trials = _benchmark_trials(tmp_path / "results.jsonl")
    assert len(trials) == 2
    for row, (train_ds, test_ds), model in zip(trials, sides, models, strict=True):
        preds = project(next(v for x, v in predictions if x is test_ds.x), 0.9)
        assert row["r_squared"] == r_squared(test_ds.y, preds)
        assert row["mse"] == mse(test_ds.y, preds)
        assert (row["n_test"], row["n_train"]) == (test_ds.n, train_ds.n)
        assert (row["n_support"], row["r0"]) == (model.n_support, sparsity_r0(model))
        train_preds = next(v for x, v in predictions if x is train_ds.x)
        assert row["max_train_sq_error"] == float(np.max((train_preds - train_ds.y) ** 2))
        assert row["wall_clock_seconds"] > 0.0


def test_eval_report_to_dict_keys(tmp_path):
    trials = _benchmark_trials(tmp_path / "results.jsonl")
    assert len(trials) == 2
    for row in trials:
        assert list(row) == _TRIAL_KEYS
