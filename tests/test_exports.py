"""Every name a ``labrr`` module exports in ``__all__`` must resolve, as must
every name the benchmark's tracer rebinds; the public surface of ``labrr``,
``labrr.data``, ``labrr.kernels``, ``labrr.metrics``, ``labrr.numerics``,
``labrr.ridgeless``, ``labrr.trainer`` and ``labrr.cli`` is pinned name by
name, and so are the parameters of the calls
that take one input shape, the fields of the training records and every
option of each ``labrr`` subcommand."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import labrr
from labrr import TrainConfig, cli, data, kernels, metrics, ridgeless, trainer

_MODULES = ["labrr"] + [f"labrr.{info.name}" for info in pkgutil.iter_modules(labrr.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


# Growing or shrinking one of these surfaces is an API change: it changes this
# table in the same commit.
_PUBLIC = {
    "labrr": [
        "AsymDualSolution", "BandwidthSet", "Dataset", "DimensionMismatch", "LabModel",
        "NormMeta", "NumericalFailure", "SingularSystem", "SplitSpec", "TrainConfig", "TrainTrace",
        "fit_asym_duals", "fit_lab", "lab_matrix", "load_csv", "load_model", "mse",
        "normalize", "predict", "predict_f1", "predict_f2", "project", "r_squared",
        "rbf_matrix", "save_model", "solve_regularized", "sparsity_r0", "split", "synth",
        "train",
    ],
    "labrr.data": [
        "Dataset", "EmptyDataset", "InsufficientData", "InvalidSetting", "NormMeta", "ParseError",
        "SplitSpec", "UnscalableData", "load_csv", "load_matrix_csv", "normalize", "save_csv",
        "split", "synth",
    ],
    "labrr.kernels": ["MIN_BANDWIDTH", "BandwidthSet", "lab_matrix", "rbf_matrix"],
    "labrr.metrics": ["DegenerateLabels", "ZERO_COEF_TOL", "mse", "project", "r_squared", "sparsity_r0"],
    "labrr.numerics": [
        "DimensionMismatch", "DivergedStep", "NumericalFailure", "SingularSystem", "FactorizedMatrix",
        "as_matrix", "as_pair", "as_vector", "one_blas_thread", "solve_regularized",
    ],
    "labrr.ridgeless": [
        "DEFAULT_JITTER", "AsymDualSolution", "LabModel", "SupportSystem", "fit_asym_duals", "fit_lab",
        "load_model", "predict", "predict_f1", "predict_f2", "save_model",
    ],
    "labrr.trainer": [
        "SELECTION_STRATEGIES", "RoundRecord", "TrainConfig", "TrainTrace", "batch_loss_and_grad",
        "grow_support", "select_initial_support", "sgd_round", "train",
    ],
    "labrr.cli": ["build_parser", "main"],
}


@pytest.mark.parametrize("module_name", sorted(_PUBLIC))
def test_public_surface_is_pinned(module_name):
    assert importlib.import_module(module_name).__all__ == _PUBLIC[module_name]


_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_tracer_targets_resolve():
    # ``perfbench/tracing.py`` rebinds these names for traced runs only; one
    # that no longer exists breaks ``perfbench/run.py --trace 1``.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.TARGETS if not hasattr(owner, attr)
    ]
    assert missing == []


# Adding or removing a training setting is an API change too: it changes these
# two tests in the same commit.
_TRAIN_CONFIG_FIELDS = (
    "error_budget", "grow_count", "learning_rate", "inner_steps", "initial_support",
    "init_bandwidth", "batch_size", "bandwidth_min", "bandwidth_max", "max_rounds",
    "max_support_ratio", "selection", "seed", "jitter",
)


def test_train_config_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(TrainConfig)) == _TRAIN_CONFIG_FIELDS


# ``benchmark``'s own settings, with their defaults, in the order the
# ``--out`` config record lists them.
_BENCHMARK_CONFIG_FIELDS = (("trials", 50), ("train_fraction", 0.8), ("base_seed", 0), ("clip", None))


def test_benchmark_config_fields_are_pinned():
    fields = tuple((f.name, f.default) for f in dataclasses.fields(cli.BenchmarkConfig))
    assert fields == _BENCHMARK_CONFIG_FIELDS
    assert "BenchmarkConfig" not in cli.__all__


# Each of these calls takes one input shape and returns one result type; a
# re-added parameter, such as a tolerance or a dataset name, changes this table.
_PARAMETERS = {
    ridgeless.predict: ["model", "t"],
    metrics.project: ["values", "bound"],
    metrics.sparsity_r0: ["model"],
    kernels.rbf_matrix: ["x1", "x2", "sigma"],
    data.load_csv: ["path"],
}


@pytest.mark.parametrize("function", list(_PARAMETERS), ids=lambda f: f.__name__)
def test_parameters_are_pinned(function):
    assert list(inspect.signature(function).parameters) == _PARAMETERS[function]


def test_training_record_fields_are_pinned():
    # A RoundRecord's fields, in order, are the keys of its ``--trace`` line.
    assert [f.name for f in dataclasses.fields(trainer.RoundRecord)] == [
        "round", "n_support", "max_sq_error", "mean_sq_error", "inner_losses", "factorizations",
    ]
    assert [f.name for f in dataclasses.fields(trainer.TrainTrace)] == ["rounds", "stop_reason"]


def test_every_setting_but_seed_has_one_train_flag():
    dests = [dest for _, dest, _ in cli._TRAIN_FLAGS]
    flags = [flag for flag, _, _ in cli._TRAIN_FLAGS]
    assert sorted(dests) == sorted(set(_TRAIN_CONFIG_FIELDS) - {"seed"})
    assert len(set(flags)) == len(flags)


# Adding or removing a command-line option is an API change as well.
_TRAIN_OPTIONS = [
    "--B", "--k", "--eta", "--L", "--n0", "--sigma0", "--batch", "--theta-min", "--theta-max",
    "--max-outer", "--max-support-ratio", "--selection", "--jitter",
]
_OPTIONS = {
    "synth": ["-h", "--help", "--fn", "--n", "--noise", "--seed", "--out"],
    "train": ["-h", "--help", "--data", "--out", "--trace", *_TRAIN_OPTIONS, "--seed", "--config"],
    "benchmark": [
        "-h", "--help", "--data", "--trials", "--train-fraction",
        "--base-seed", "--clip", "--out", *_TRAIN_OPTIONS, "--config",
    ],
    "predict": ["-h", "--help", "--model", "--data", "--out", "--clip"],
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: [flag for action in sub._actions for flag in action.option_strings]
        for name, sub in commands.items()
    }
    assert options == _OPTIONS
