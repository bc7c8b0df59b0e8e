"""Gradient surgery for two-task training: dynamic-angle projection of
conflicting gradients plus adaptive magnitude rescale, with baselines
(naive sum, PCGrad, fixed-angle projection), an exactly-backpropagated
two-head MLP, a synthetic two-task benchmark, and a CSV-emitting trainer.
"""

from .gradvec import (
    DEFAULT_TOL_NORM,
    AngleReport,
    GradientVector,
    angle_between,
)
from .net import (
    Activation,
    Layer,
    LossBundle,
    Network,
    backward_two_task,
    forward,
    init_network,
    load_network,
    losses,
    save_network,
)
from .surgery import (
    RatioRule,
    RemedyConfig,
    RemedyOutcome,
    RescaleResult,
    Strategy,
    TaskGradients,
    dynamic_theta,
    project,
    remedy_layer,
    rescale,
)
from .synthdata import SampleBatch, TwoTaskDataset, generate
from .trainer import (
    EpochStats,
    EvalMetrics,
    OptimizerKind,
    StepStats,
    TrainConfig,
    TrainResult,
    evaluate,
    train,
    write_epochs_csv,
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
    "Activation",
    "Layer",
    "LossBundle",
    "Network",
    "backward_two_task",
    "forward",
    "init_network",
    "load_network",
    "losses",
    "save_network",
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
    "EvalMetrics",
    "OptimizerKind",
    "StepStats",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "train",
    "write_epochs_csv",
    "write_steps_csv",
    "__version__",
]
