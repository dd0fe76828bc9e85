"""Granger causality from input-output gradients of a single forecaster."""

from .core import GcMatrix, TrainConfig, TrainReport, infer_gc_matrix, train
from .datagen import (AdjacencyTruth, Lorenz96Config, TimeSeries,
                      WindowedDataset, make_windows, random_sparse_var1,
                      simulate_lorenz96, simulate_var, standardize)
from .forecasters import Backbone, count_parameters, forward, init_backbone
from .metrics import EdgeScorePairs, auprc, auroc, evaluate, flatten
from .splines import SplineSpec

__all__ = [
    "AdjacencyTruth", "Backbone", "EdgeScorePairs", "GcMatrix",
    "Lorenz96Config", "SplineSpec", "TimeSeries", "TrainConfig",
    "TrainReport", "WindowedDataset", "auprc", "auroc", "count_parameters",
    "evaluate", "flatten", "forward", "infer_gc_matrix", "init_backbone",
    "make_windows", "random_sparse_var1", "simulate_lorenz96",
    "simulate_var", "standardize", "train",
]

__version__ = "0.1.0"
