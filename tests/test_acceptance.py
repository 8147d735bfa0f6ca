"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each criterion runs at a frozen configuration and prints a one-line summary;
the pytest verdict line is the pass/fail record.  The two external-dataset
benchmarks skip cleanly when their CSV files are absent (see
``scripts/fetch_uci.py``); everything else is self-contained and fast.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from labrr.data import Dataset, SplitSpec, load_csv, normalize, split, synth
from labrr.kernels import BandwidthSet, lab_matrix, rbf_matrix
from labrr.metrics import r_squared, sparsity_r0
from labrr.numerics import solve_regularized
from labrr.ridgeless import (
    DEFAULT_JITTER,
    SupportSystem,
    fit_asym_duals,
    fit_lab,
    predict,
    predict_f1,
    predict_f2,
    save_model,
)
from labrr.trainer import TrainConfig, batch_loss_and_grad, train

# ---------------------------------------------------------------------------
# Frozen benchmark configurations

_C5_SEED = 11
_C5_CONFIG = dict(
    error_budget=1e-3, grow_count=20, learning_rate=0.001, inner_steps=30,
    initial_support=20, init_bandwidth=2.0, batch_size=64,
    bandwidth_min=0.5, bandwidth_max=10.0, seed=0,
)

_C6_BASE_SEED = 202
_C6_TRIALS = 10
_C6_NOISE_RATIO = 0.2
_C6_CONFIG = dict(
    error_budget=1e-3, batch_size=64, grow_count=20, selection="x_kmeans",
    initial_support=150, max_support_ratio=0.25, init_bandwidth=1.1,
    inner_steps=600, jitter=1e-2, learning_rate=0.02,
    bandwidth_min=0.5, bandwidth_max=8.0,
)
_C6_BASELINE_SIGMAS = (2.0, 4.0, 6.0, 8.0, 12.0)
_C6_BASELINE_JITTER = 1e-5
#: A "full-data interpolant" must actually fit its own training data; wide
#: bandwidths under heavy smoothing-out of the labels are a different model.
_C6_INTERPOLANT_TRAIN_R2 = 0.95

_C7_CONFIG = dict(
    error_budget=5e-5, grow_count=10, learning_rate=0.01, inner_steps=30,
    initial_support=20, init_bandwidth=3.0, batch_size=128,
    bandwidth_min=0.5, bandwidth_max=30.0, max_support_ratio=0.4878,
)
_C7_TRIALS = 10
_C7_SUPPORT_CAP = 120

_C8_CONFIG = dict(
    error_budget=1e-4, grow_count=30, learning_rate=0.01, inner_steps=30,
    initial_support=20, init_bandwidth=10.0, batch_size=128,
    bandwidth_min=0.5, bandwidth_max=40.0, max_support_ratio=0.7487,
)
_C8_TRIALS = 5
_C8_SUPPORT_CAP = 900


def _dataset_path(name: str) -> Path:
    root = os.environ.get("LABRR_DATA_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent / "data"
    return base / name


def _note(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: the analytic bandwidth gradient

def test_criterion_01_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    step = 1e-5
    worst = 0.0
    for _ in range(100):
        sx = rng.uniform(-1.0, 1.0, size=(5, 3))
        sy = rng.normal(size=5)
        bx = rng.uniform(-1.0, 1.0, size=(4, 3))
        by = rng.normal(size=4)
        th = rng.uniform(0.1, 5.0, size=(5, 3))
        system = SupportSystem(sx, sy, DEFAULT_JITTER)
        batch = system.featurize(bx, by)
        _, grad = batch_loss_and_grad(system, BandwidthSet(th).values, *batch)
        fd = np.empty_like(grad)
        for j in range(5):
            for m in range(3):
                bumped = th.copy()
                bumped[j, m] = th[j, m] + step
                up, _ = batch_loss_and_grad(system, BandwidthSet(bumped).values, *batch)
                bumped[j, m] = th[j, m] - step
                down, _ = batch_loss_and_grad(system, BandwidthSet(bumped).values, *batch)
                fd[j, m] = (up - down) / (2.0 * step)
        rel = float(np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30))
        worst = max(worst, rel)
        assert rel <= 1e-4
    elapsed = time.perf_counter() - started
    _note(f"criterion 1: worst relative gradient error {worst:.3e} over 100 instances, {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: uniform bandwidths collapse to symmetric kernel ridge regression

def test_criterion_02_uniform_bandwidths_reduce_to_symmetric_krr():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    lam = 1e-3
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=(30, 3))
        y = rng.normal(size=30)
        sigma = float(rng.uniform(0.5, 2.0))
        gram = lab_matrix(x, x, BandwidthSet.uniform(30, 3, sigma))
        duals = fit_asym_duals(gram, y, lam)
        lab_coef = duals.alpha / lam
        krr_coef = solve_regularized(rbf_matrix(x, x, sigma), y, jitter=lam)
        diff = float(np.abs(lab_coef - krr_coef).max())
        worst = max(worst, diff)
        assert diff <= 1e-10
        assert float(np.abs(duals.alpha - duals.beta).max()) <= 1e-10
    elapsed = time.perf_counter() - started
    _note(f"criterion 2: worst coefficient difference {worst:.3e} over 20 problems, {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 3: dual vectors equal training residuals

def test_criterion_03_dual_vectors_equal_training_residuals():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=(25, 3))
        th = rng.uniform(0.3, 3.0, size=(25, 3))
        gram = lab_matrix(x, x, BandwidthSet(th))
        y = rng.normal(size=25)
        for lam in (1e-3, 1e-1, 10.0):
            duals = fit_asym_duals(gram, y, lam)
            gap1 = float(np.abs((y - predict_f1(gram, duals)) - duals.alpha).max())
            gap2 = float(np.abs((y - predict_f2(gram.T, duals)) - duals.beta).max())
            worst = max(worst, gap1, gap2)
            assert gap1 <= 1e-8
            assert gap2 <= 1e-8
    elapsed = time.perf_counter() - started
    _note(f"criterion 3: worst residual identity gap {worst:.3e} over 60 systems, {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 4: exact interpolation without jitter

def test_criterion_04_zero_jitter_interpolation():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(50, 3))
    assert np.unique(x, axis=0).shape[0] == 50
    th = rng.uniform(0.5, 2.0, size=(50, 3))
    y = rng.normal(size=50)
    model = fit_lab(x, y, th, jitter=0.0)
    residual = float(np.abs(predict(model, x) - y).max())
    elapsed = time.perf_counter() - started
    _note(f"criterion 4: max support residual {residual:.3e}, {elapsed:.2f}s")
    assert residual <= 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 5: training terminates under the error budget

@pytest.fixture(scope="module")
def interpolation_run(tmp_path_factory):
    started = time.perf_counter()
    dataset = normalize(synth("f1", 600, 0.0, seed=_C5_SEED))
    config = TrainConfig(**_C5_CONFIG)
    model, trace = train(dataset, config)
    elapsed = time.perf_counter() - started
    model_path = tmp_path_factory.mktemp("acceptance") / "budget_model.json"
    save_model(model, model_path)
    sq_errors = (predict(model, dataset.x) - dataset.y) ** 2
    return {
        "dataset": dataset,
        "model": model,
        "trace": trace,
        "model_path": model_path,
        "max_sq_error": float(sq_errors.max()),
        "elapsed": elapsed,
    }


def test_criterion_05_training_meets_error_budget(interpolation_run):
    run = interpolation_run
    trace, model = run["trace"], run["model"]
    ratio = model.n_support / run["dataset"].n
    _note(
        f"criterion 5: stop={trace.stop_reason} rounds={trace.n_rounds} "
        f"support={model.n_support}/600 max_train_sq_error={run['max_sq_error']:.3e} "
        f"{run['elapsed']:.2f}s"
    )
    assert trace.converged
    assert trace.stop_reason == "error_budget_met"
    assert run["max_sq_error"] <= _C5_CONFIG["error_budget"]
    assert ratio < 1.0
    assert run["elapsed"] < 120.0


# ---------------------------------------------------------------------------
# Criterion 6: robustness to training-label noise

@pytest.fixture(scope="module")
def noise_robustness_run():
    started = time.perf_counter()
    clean = normalize(synth("f1", 750, 0.0, seed=_C6_BASE_SEED))
    trials = []
    for t in range(_C6_TRIALS):
        tr, te = split(clean, SplitSpec(_C6_BASE_SEED, t, 0.8))
        rng = np.random.default_rng([_C6_BASE_SEED, t, 97])
        noise = rng.normal(0.0, np.sqrt(_C6_NOISE_RATIO * tr.y.var()), tr.n)
        noisy = Dataset(tr.x, tr.y + noise, tr.norm_meta, tr.name)

        config = TrainConfig(seed=_C6_BASE_SEED + t, **_C6_CONFIG)
        model, trace = train(noisy, config)
        lab_r2 = r_squared(te.y, predict(model, te.x))

        qualified, best_any = [], -np.inf
        for sigma in _C6_BASELINE_SIGMAS:
            baseline = fit_lab(
                noisy.x, noisy.y,
                BandwidthSet.uniform(noisy.n, noisy.dim, sigma),
                _C6_BASELINE_JITTER,
            )
            train_r2 = r_squared(noisy.y, predict(baseline, noisy.x))
            test_r2 = r_squared(te.y, predict(baseline, te.x))
            best_any = max(best_any, test_r2)
            if train_r2 >= _C6_INTERPOLANT_TRAIN_R2:
                qualified.append(test_r2)
        trials.append({
            "lab_r2": lab_r2,
            "baseline_r2": max(qualified),
            "baseline_any_r2": best_any,
            "support_ratio": model.n_support / tr.n,
            "model": model,
            "stop_reason": trace.stop_reason,
        })
    return {"trials": trials, "elapsed": time.perf_counter() - started}


def test_criterion_06_noise_robustness_gap(noise_robustness_run):
    run = noise_robustness_run
    lab = float(np.mean([t["lab_r2"] for t in run["trials"]]))
    baseline = float(np.mean([t["baseline_r2"] for t in run["trials"]]))
    any_sigma = float(np.mean([t["baseline_any_r2"] for t in run["trials"]]))
    worst_ratio = max(t["support_ratio"] for t in run["trials"])
    _note(
        f"criterion 6: LAB mean R2 {lab:.4f} vs interpolant baseline {baseline:.4f} "
        f"(gap {lab - baseline:+.4f}; best baseline at any bandwidth {any_sigma:.4f}), "
        f"support ratio <= {worst_ratio:.3f}, {run['elapsed']:.1f}s"
    )
    assert worst_ratio <= 0.5
    assert lab - baseline >= 0.05
    assert run["elapsed"] < 600.0


# ---------------------------------------------------------------------------
# Criteria 7 and 8: external regression benchmarks (data-gated)

def _benchmark_dataset_run(csv_name, config_dict, n_trials, support_cap):
    path = _dataset_path(csv_name)
    if not path.exists():
        return None
    started = time.perf_counter()
    dataset = normalize(load_csv(path))
    r2s, models = [], []
    for trial in range(n_trials):
        tr, te = split(dataset, SplitSpec(0, trial, 0.8))
        config = TrainConfig(seed=trial, **config_dict)
        model, _ = train(tr, config)
        assert model.n_support <= support_cap
        r2s.append(r_squared(te.y, predict(model, te.x)))
        models.append(model)
    return {
        "r2s": r2s,
        "models": models,
        "elapsed": time.perf_counter() - started,
        "n": dataset.n,
    }


@pytest.fixture(scope="module")
def yacht_run():
    return _benchmark_dataset_run("yacht.csv", _C7_CONFIG, _C7_TRIALS, _C7_SUPPORT_CAP)


@pytest.fixture(scope="module")
def airfoil_run():
    return _benchmark_dataset_run("airfoil.csv", _C8_CONFIG, _C8_TRIALS, _C8_SUPPORT_CAP)


def test_criterion_07_yacht_benchmark(yacht_run):
    if yacht_run is None:
        pytest.skip(
            "data/yacht.csv not present; fetch with "
            "'python3 scripts/fetch_uci.py --only yacht' (needs network)"
        )
    mean_r2 = float(np.mean(yacht_run["r2s"]))
    _note(
        f"criterion 7: mean R2 {mean_r2:.4f} over {_C7_TRIALS} trials "
        f"(support <= {_C7_SUPPORT_CAP}), {yacht_run['elapsed']:.1f}s"
    )
    assert mean_r2 >= 0.985
    assert yacht_run["elapsed"] < 600.0


def test_criterion_08_airfoil_benchmark(airfoil_run):
    if airfoil_run is None:
        pytest.skip(
            "data/airfoil.csv not present; fetch with "
            "'python3 scripts/fetch_uci.py --only airfoil' (needs network)"
        )
    mean_r2 = float(np.mean(airfoil_run["r2s"]))
    _note(
        f"criterion 8: mean R2 {mean_r2:.4f} over {_C8_TRIALS} trials "
        f"(support <= {_C8_SUPPORT_CAP}), {airfoil_run['elapsed']:.1f}s"
    )
    assert mean_r2 >= 0.93
    assert airfoil_run["elapsed"] < 1200.0


# ---------------------------------------------------------------------------
# Criterion 9: sparsity accounting across the trained-model suite

def test_criterion_09_sparsity_accounting(
    interpolation_run, noise_robustness_run, yacht_run, airfoil_run
):
    models = [interpolation_run["model"]]
    models += [t["model"] for t in noise_robustness_run["trials"]]
    for run in (yacht_run, airfoil_run):
        if run is not None:
            models += run["models"]
    for model in models:
        assert sparsity_r0(model) == model.n_support
    _note(f"criterion 9: r0 == support count on all {len(models)} trained models")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical rerun

_RERUN_SCRIPT = """
import json, sys
from labrr.data import normalize, synth
from labrr.ridgeless import save_model
from labrr.trainer import TrainConfig, train

params = json.loads(sys.argv[1])
dataset = normalize(synth("f1", 600, 0.0, seed=params.pop("synth_seed")))
model, _ = train(dataset, TrainConfig(**params))
save_model(model, sys.argv[2])
"""


def test_criterion_10_deterministic_model_file(interpolation_run, tmp_path):
    rerun_path = tmp_path / "rerun_model.json"
    params = dict(_C5_CONFIG, synth_seed=_C5_SEED)
    subprocess.run(
        [sys.executable, "-c", _RERUN_SCRIPT, json.dumps(params), str(rerun_path)],
        check=True,
        timeout=120,
    )
    original = interpolation_run["model_path"].read_bytes()
    rerun = rerun_path.read_bytes()
    _note(
        f"criterion 10: rerun model file identical "
        f"({len(original)} bytes == {len(rerun)} bytes: {original == rerun})"
    )
    assert original == rerun
