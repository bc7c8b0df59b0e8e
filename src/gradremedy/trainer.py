"""Two-task training loop with per-layer gradient surgery on the trunk.

Each step runs one forward pass, one backward pass per task, then feeds each
trunk layer's flattened (auxiliary, dominant) gradient pair through the
configured strategy before the optimizer update. Heads are updated with
their own task's gradient, untouched by surgery.

Interference statistics are recorded every step:

- conflicting_pre: layer pairs arriving with a negative inner product
- conflicting_post / wrongly_dominant: the same predicates evaluated on the
  pair the strategy actually emitted, i.e. what the strategy leaves behind;
  remedy_layer measures them (RemedyOutcome.conflicting_post and
  wrongly_dominant_post) and the loop here only counts

Per-epoch aggregates average the per-step percentages and add a held-out
dominant-task accuracy. CSV emission uses %.12g floats so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gradvec import GradientVector, flatten
from .net import (
    LayerGrads,
    Network,
    backward_two_task,
    forward,
    losses,
)
from .surgery import RemedyConfig, TaskGradients, bound_errors, remedy_layer
from .synthdata import SampleBatch, TwoTaskDataset


class OptimizerKind(Enum):
    SGD = "sgd"
    ADAM = "adam"


def train_config_errors(config) -> list[str]:
    """Every bound a TrainConfig, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("learning_rate", lambda lr: lr > 0.0, "learning rate must be positive"),
        ("lam", lambda lam: 0.0 <= lam <= 1.0, "lambda must lie in [0, 1]"),
        *((name, lambda n: n >= 1, f"{name} must be >= 1")
          for name in ("epochs", "batches_per_epoch", "batch_size", "eval_batches")),
        ("warmup_steps", lambda n: n >= 0, "warmup_steps must be >= 0"),
        ("adam_beta1", lambda b: 0.0 <= b < 1.0, "adam_beta1 must lie in [0, 1)"),
        ("adam_beta2", lambda b: 0.0 <= b < 1.0, "adam_beta2 must lie in [0, 1)"),
    ))


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the network and the dataset.

    lam weights the dominant-task loss: loss_total = (1-lam)*aux + lam*dom.
    bias_separate remedies a layer's weight and bias gradients as two
    independent vectors instead of one concatenated vector per layer.
    warmup_steps > 0 scales the learning rate linearly from 1/warmup_steps
    to 1 over the first warmup_steps updates.
    """

    remedy: RemedyConfig = field(default_factory=RemedyConfig)
    lam: float = 0.7
    epochs: int = 20
    batches_per_epoch: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: OptimizerKind = OptimizerKind.ADAM
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    bias_separate: bool = False
    warmup_steps: int = 0
    eval_batches: int = 4

    def __post_init__(self):
        errors = train_config_errors(self)
        if errors:
            raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class StepStats:
    """Interference counts and losses for one optimizer step.

    wrongly_dominant applies ||g_aux|| > K*||g_dom|| to the pair the strategy
    emitted (post-rescale); the pre-rescale flag stays available on each
    RemedyOutcome for callers that want it. mean_phi_rad averages the
    pre-remedy angle over non-degenerate layers (nan if none).
    """

    epoch: int
    batch: int
    layers_total: int
    conflicting_pre: int
    conflicting_post: int
    wrongly_dominant: int
    mean_phi_rad: float
    loss_aux: float
    loss_dom: float

    def __post_init__(self):
        for name in ("conflicting_pre", "conflicting_post", "wrongly_dominant"):
            if not 0 <= getattr(self, name) <= self.layers_total:
                raise ValueError(
                    f"{name}={getattr(self, name)} outside [0, {self.layers_total}]"
                )


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch averages of the step percentages plus held-out accuracy."""

    epoch: int
    pct_conflicting: float
    pct_wrongly_dominant: float
    loss_aux: float
    loss_dom: float
    eval_accuracy: float

    def __post_init__(self):
        for name in ("pct_conflicting", "pct_wrongly_dominant"):
            if not 0.0 <= getattr(self, name) <= 100.0:
                raise ValueError(f"{name} must lie in [0, 100]")


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.lr * grad


class Adam:
    """Standard Adam with bias correction; state keyed per parameter array."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.setdefault(key, np.zeros_like(param))
        v = self._v.setdefault(key, np.zeros_like(param))
        t = self._t.get(key, 0) + 1
        self._t[key] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config: TrainConfig):
    if config.optimizer is OptimizerKind.SGD:
        return SGD(config.learning_rate)
    return Adam(
        config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )


@dataclass(frozen=True)
class EvalMetrics:
    dom_accuracy: float
    aux_mse: float


def evaluate(net: Network, batches: list[SampleBatch]) -> EvalMetrics:
    """Held-out dominant-task accuracy and auxiliary MSE over the batches."""
    correct = 0
    samples = 0
    sq_err = 0.0
    elements = 0
    for batch in batches:
        cache = forward(net, batch.noisy)
        pred = cache.dom_logits.argmax(axis=1)
        correct += int((pred == batch.labels).sum())
        samples += len(batch)
        diff = cache.aux_out - batch.clean
        sq_err += float((diff * diff).sum())
        elements += diff.size
    return EvalMetrics(dom_accuracy=correct / samples, aux_mse=sq_err / elements)


def _remedy_units(
    layer_index: int,
    g_aux: LayerGrads,
    g_dom: LayerGrads,
    bias_separate: bool,
) -> list[TaskGradients]:
    """Flatten one trunk layer's gradient pair into surgery input vectors."""
    name = f"trunk[{layer_index}]"
    if bias_separate:
        return [
            TaskGradients(
                flatten(g_aux.weights, name), flatten(g_dom.weights, name),
                layer_id=f"{name}.weights",
            ),
            TaskGradients(
                flatten(g_aux.bias, name), flatten(g_dom.bias, name),
                layer_id=f"{name}.bias",
            ),
        ]
    aux_flat = np.concatenate([g_aux.weights.ravel(), g_aux.bias])
    dom_flat = np.concatenate([g_dom.weights.ravel(), g_dom.bias])
    return [
        TaskGradients(
            GradientVector(aux_flat, (aux_flat.size,)),
            GradientVector(dom_flat, (dom_flat.size,)),
            layer_id=name,
        )
    ]


@dataclass
class TrainResult:
    """Trained network plus everything the CSV/JSON emitters need.

    rescale_events counts optimizer steps' per-layer rescale firings over
    the whole run; mean_r_applied averages the applied ratio (None when the
    rescale never fired), letting a run's effective r be audited without
    widening the steps.csv column contract.
    """

    net: Network
    epoch_stats: list[EpochStats]
    step_stats: list[StepStats]
    rescale_events: int = 0
    mean_r_applied: float | None = None


def train(config: TrainConfig, data: TwoTaskDataset, net: Network) -> TrainResult:
    """Run the full schedule, mutating `net` in place.

    Deterministic given (config, dataset seed, initial parameters): batches
    are addressed by global step index, so there is no hidden RNG state.
    Aborts with a diagnostic naming epoch/batch if a loss goes non-finite.
    """
    opt = _make_optimizer(config)
    remedy_cfg = config.remedy
    step_stats: list[StepStats] = []
    epoch_stats: list[EpochStats] = []
    rescale_events = 0
    r_applied_sum = 0.0
    eval_set = [
        data.eval_batch(config.batch_size, j) for j in range(config.eval_batches)
    ]

    for epoch in range(config.epochs):
        conflict_pcts: list[float] = []
        dominant_pcts: list[float] = []
        losses_aux: list[float] = []
        losses_dom: list[float] = []
        for batch_idx in range(config.batches_per_epoch):
            global_step = epoch * config.batches_per_epoch + batch_idx
            if config.warmup_steps > 0:
                opt.lr = config.learning_rate * min(
                    1.0, (global_step + 1) / config.warmup_steps
                )
            batch = data.train_batch(config.batch_size, global_step)
            cache = forward(net, batch.noisy)
            bundle = losses(cache, batch.clean, batch.labels, config.lam)
            if not (math.isfinite(bundle.loss_aux) and math.isfinite(bundle.loss_dom)):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}: "
                    f"loss_aux={bundle.loss_aux}, loss_dom={bundle.loss_dom}"
                )
            grads = backward_two_task(
                net, cache, batch.clean, batch.labels, config.lam
            )

            conflicting_pre = 0
            conflicting_post = 0
            wrongly_dominant = 0
            units_total = 0
            phis: list[float] = []
            for i, layer in enumerate(net.trunk):
                units = _remedy_units(
                    i, grads.trunk_aux[i], grads.trunk_dom[i], config.bias_separate
                )
                totals: list[np.ndarray] = []
                for unit in units:
                    outcome = remedy_layer(unit, remedy_cfg)
                    units_total += 1
                    conflicting_pre += outcome.was_conflicting
                    conflicting_post += outcome.conflicting_post
                    wrongly_dominant += outcome.wrongly_dominant_post
                    if outcome.phi is not None:
                        phis.append(outcome.phi)
                    if outcome.r_applied is not None:
                        rescale_events += 1
                        r_applied_sum += outcome.r_applied
                    totals.append(outcome.g_total.values)
                if config.bias_separate:
                    g_weights = totals[0].reshape(layer.weights.shape)
                    g_bias = totals[1]
                else:
                    split = layer.weights.size
                    g_weights = totals[0][:split].reshape(layer.weights.shape)
                    g_bias = totals[0][split:]
                opt.step(f"trunk[{i}].weights", layer.weights, g_weights)
                opt.step(f"trunk[{i}].bias", layer.bias, g_bias)

            for head_name, chain, head_grads in (
                ("aux_head", net.aux_head, grads.aux_head),
                ("dom_head", net.dom_head, grads.dom_head),
            ):
                for i, layer in enumerate(chain):
                    opt.step(f"{head_name}[{i}].weights", layer.weights,
                             head_grads[i].weights)
                    opt.step(f"{head_name}[{i}].bias", layer.bias,
                             head_grads[i].bias)

            step_stats.append(
                StepStats(
                    epoch=epoch,
                    batch=batch_idx,
                    layers_total=units_total,
                    conflicting_pre=conflicting_pre,
                    conflicting_post=conflicting_post,
                    wrongly_dominant=wrongly_dominant,
                    mean_phi_rad=(
                        sum(phis) / len(phis) if phis else float("nan")
                    ),
                    loss_aux=bundle.loss_aux,
                    loss_dom=bundle.loss_dom,
                )
            )
            conflict_pcts.append(100.0 * conflicting_post / units_total)
            dominant_pcts.append(100.0 * wrongly_dominant / units_total)
            losses_aux.append(bundle.loss_aux)
            losses_dom.append(bundle.loss_dom)

        metrics = evaluate(net, eval_set)
        epoch_stats.append(
            EpochStats(
                epoch=epoch,
                pct_conflicting=sum(conflict_pcts) / len(conflict_pcts),
                pct_wrongly_dominant=sum(dominant_pcts) / len(dominant_pcts),
                loss_aux=sum(losses_aux) / len(losses_aux),
                loss_dom=sum(losses_dom) / len(losses_dom),
                eval_accuracy=metrics.dom_accuracy,
            )
        )
    return TrainResult(
        net=net,
        epoch_stats=epoch_stats,
        step_stats=step_stats,
        rescale_events=rescale_events,
        mean_r_applied=(r_applied_sum / rescale_events) if rescale_events else None,
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_steps_csv(steps: list[StepStats], path: str) -> None:
    """epoch,batch,layers_total,conflicting_pre,conflicting_post,
    wrongly_dominant,mean_phi_rad,loss_aux,loss_dom — one row per step."""
    with open(path, "w", encoding="ascii") as out:
        out.write(
            "epoch,batch,layers_total,conflicting_pre,conflicting_post,"
            "wrongly_dominant,mean_phi_rad,loss_aux,loss_dom\n"
        )
        for s in steps:
            out.write(
                f"{s.epoch},{s.batch},{s.layers_total},{s.conflicting_pre},"
                f"{s.conflicting_post},{s.wrongly_dominant},"
                f"{_fmt(s.mean_phi_rad)},{_fmt(s.loss_aux)},{_fmt(s.loss_dom)}\n"
            )


def write_epochs_csv(epochs: list[EpochStats], path: str) -> None:
    """epoch,pct_conflicting,pct_wrongly_dominant,loss_aux,loss_dom,
    eval_accuracy — one row per epoch."""
    with open(path, "w", encoding="ascii") as out:
        out.write(
            "epoch,pct_conflicting,pct_wrongly_dominant,loss_aux,loss_dom,"
            "eval_accuracy\n"
        )
        for e in epochs:
            out.write(
                f"{e.epoch},{_fmt(e.pct_conflicting)},"
                f"{_fmt(e.pct_wrongly_dominant)},{_fmt(e.loss_aux)},"
                f"{_fmt(e.loss_dom)},{_fmt(e.eval_accuracy)}\n"
            )
