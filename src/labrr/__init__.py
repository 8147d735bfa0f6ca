"""Kernel ridgeless regression with locally adaptive bandwidths.

The estimator interpolates training data with a radial-basis expansion in
which every support point carries its own per-dimension bandwidth vector.
Bandwidths are learned by stochastic gradient descent through the
interpolating solve, and the support set grows dynamically until every
training residual drops below an error budget.
"""

from .data import Dataset, NormMeta, SplitSpec, load_csv, normalize, split, synth
from .kernels import BandwidthSet, lab_matrix, rbf_matrix
from .metrics import mse, project, r_squared, sparsity_r0
from .numerics import DimensionMismatch, NumericalFailure, SingularSystem, solve_regularized
from .ridgeless import (
    AsymDualSolution,
    LabModel,
    fit_asym_duals,
    fit_lab,
    load_model,
    predict,
    predict_f1,
    predict_f2,
    save_model,
)
from .trainer import TrainConfig, TrainTrace, train

__version__ = "0.1.0"

__all__ = [
    "AsymDualSolution",
    "BandwidthSet",
    "Dataset",
    "DimensionMismatch",
    "LabModel",
    "NormMeta",
    "NumericalFailure",
    "SingularSystem",
    "SplitSpec",
    "TrainConfig",
    "TrainTrace",
    "fit_asym_duals",
    "fit_lab",
    "lab_matrix",
    "load_csv",
    "load_model",
    "mse",
    "normalize",
    "predict",
    "predict_f1",
    "predict_f2",
    "project",
    "r_squared",
    "rbf_matrix",
    "save_model",
    "solve_regularized",
    "sparsity_r0",
    "split",
    "synth",
    "train",
]
