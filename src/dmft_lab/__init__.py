"""Numerical laboratory for adaptive Langevin dynamics in high-dimensional
linear models: direct simulation, discrete dynamical mean-field solver,
Marcenko-Pastur closed forms, and equilibrium fixed points, with pipelines
that cross-validate the four against each other."""

from .kernels import KernelTable, compare_tables, read_table_csv, write_table_csv
from .model import ModelInstance, ModelParams, sample_instance
from .priors import (
    ExpFamily,
    GaussianFixed,
    GaussianLocation,
    GaussianMeanMixture,
    PriorSpec,
    SmoothHinge,
    Theta0Spec,
    gradient_map_G,
)

__all__ = [
    "KernelTable",
    "ModelInstance",
    "ModelParams",
    "PriorSpec",
    "Theta0Spec",
    "GaussianFixed",
    "GaussianLocation",
    "GaussianMeanMixture",
    "ExpFamily",
    "SmoothHinge",
    "gradient_map_G",
    "sample_instance",
    "compare_tables",
    "read_table_csv",
    "write_table_csv",
]

__version__ = "0.1.0"
