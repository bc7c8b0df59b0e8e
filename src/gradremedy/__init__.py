"""Gradient surgery for two-task training: dynamic-angle projection of
conflicting gradients plus adaptive magnitude rescale, with baselines
(naive sum, PCGrad, fixed-angle projection), an exactly-backpropagated
two-head MLP, a synthetic two-task benchmark, and a CSV-emitting trainer.
"""

from .net import (
    Layer,
    LossBundle,
    Network,
    backward_two_task,
    forward,
    init_network,
    losses,
)
from .surgery import (
    DEFAULT_TOL_NORM,
    AngleReport,
    GradientVector,
    RatioRule,
    RemedyConfig,
    RemedyOutcome,
    RescaleResult,
    Strategy,
    TaskGradients,
    angle_between,
    dynamic_theta,
    project,
    remedy_layer,
    rescale,
)
from .synthdata import SampleBatch, TwoTaskDataset, generate
from .trainer import (
    EpochStats,
    OptimizerKind,
    StepStats,
    TrainConfig,
    TrainResult,
    evaluate,
    train,
    write_steps_csv,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the numeric backend; everything runs on float64 numpy."""
    return "numpy"


__all__ = [
    "active_backend",
    "DEFAULT_TOL_NORM",
    "AngleReport",
    "GradientVector",
    "angle_between",
    "Layer",
    "LossBundle",
    "Network",
    "backward_two_task",
    "forward",
    "init_network",
    "losses",
    "RatioRule",
    "RemedyConfig",
    "RemedyOutcome",
    "RescaleResult",
    "Strategy",
    "TaskGradients",
    "dynamic_theta",
    "project",
    "remedy_layer",
    "rescale",
    "SampleBatch",
    "TwoTaskDataset",
    "generate",
    "EpochStats",
    "OptimizerKind",
    "StepStats",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "train",
    "write_steps_csv",
    "__version__",
]
