"""Two-task training loop with per-layer gradient surgery on the trunk.

train() first moves every parameter of the net into one contiguous float64
buffer, laid out trunk, auxiliary head, dominant head, each layer's weights
(row-major) before its bias; the layers' weights and bias arrays become views
of it. Three gradient buffers go with it: `total`, laid out like the
parameters, and one per task, laid out like the trunk part. Each step runs
one forward pass and one backward pass per task; backward writes each task's
trunk gradients into that task's buffer and the head gradients into
`total`. After one non-finite scan per task buffer, the strategy runs on
each surgery unit, a (start, stop) segment of the trunk layout: a whole
trunk layer, or its weights and its bias as two units with bias_separate.
It writes aux' + dom' into the unit's segment of `total`; one more scan of
`total` and one optimizer call over the whole buffer end the step. Heads
are updated with their own task's gradient, untouched by surgery.

Interference statistics are recorded every step:

- conflicting_pre: units arriving with a negative inner product
- conflicting_post / wrongly_dominant: the same predicates evaluated on the
  pair the strategy actually emitted, i.e. what the strategy leaves behind;
  surgery.remedy_pair measures them and the loop here only counts

Each epoch's EpochStats averages the percentages and losses of that epoch's
StepStats and adds a held-out dominant-task accuracy. write_csv writes any
such record list with its field names as the header and %.12g floats, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .net import (
    Layer,
    LayerGrads,
    Network,
    TwoTaskGradients,
    backward_two_task,
    forward,
    losses,
)
from .surgery import RemedyConfig, bound_errors, raise_if_any, remedy_pair
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
    seed: int = 0
    bias_separate: bool = False
    warmup_steps: int = 0
    eval_batches: int = 4

    def __post_init__(self):
        raise_if_any(train_config_errors(self))


@dataclass(frozen=True)
class StepStats:
    """Interference counts and losses for one optimizer step.

    wrongly_dominant applies ||g_aux|| > K*||g_dom|| to the pair the strategy
    emitted (post-rescale); the pre-rescale flag stays available on each
    surgery.Remedy (was_wrongly_dominant) for callers that want it.
    mean_phi_rad averages the pre-remedy angle over non-degenerate units
    (nan if none).
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

    @classmethod
    def from_steps(cls, steps: list[StepStats], eval_accuracy: float) -> "EpochStats":
        """The means over one epoch's steps, which must be non-empty."""
        n = len(steps)
        return cls(
            epoch=steps[0].epoch,
            pct_conflicting=sum(100.0 * s.conflicting_post / s.layers_total
                                for s in steps) / n,
            pct_wrongly_dominant=sum(100.0 * s.wrongly_dominant / s.layers_total
                                     for s in steps) / n,
            loss_aux=sum(s.loss_aux for s in steps) / n,
            loss_dom=sum(s.loss_dom for s in steps) / n,
            eval_accuracy=eval_accuracy,
        )


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.lr * grad


class Adam:
    """Standard Adam with bias correction over one parameter buffer."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        if self._m is None:
            self._m, self._v = np.zeros_like(param), np.zeros_like(param)
        m, v = self._m, self._v
        self._t += 1
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self._t)
        v_hat = v / (1.0 - self.beta2 ** self._t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config: TrainConfig):
    if config.optimizer is OptimizerKind.SGD:
        return SGD(config.learning_rate)
    return Adam(config.learning_rate)


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


def _views(buffer: np.ndarray, chain: list[Layer], offset: int) -> list[LayerGrads]:
    """Each layer's (weights, bias) as views of buffer, laid out from offset."""
    views = []
    for layer in chain:
        mid = offset + layer.weights.size
        stop = mid + layer.bias.size
        views.append(LayerGrads(buffer[offset:mid].reshape(layer.weights.shape),
                                buffer[mid:stop]))
        offset = stop
    return views


class _Arena:
    """A net's parameters and gradients in flat buffers (see the module
    docstring); building one rebinds the net's layer arrays as views.

    units holds the (aux, dom, total) views of each surgery unit's segment,
    in trunk order. places names each segment of the total
    layout as (name, gradient, start, stop): the surgery units first, whose
    segments aux and dom share, then the head layers.
    """

    def __init__(self, net: Network, bias_separate: bool):
        pieces = []  # (name, gradient, size) along the total layout
        for chain_name, chain, gradient in (
            ("trunk", net.trunk, "post-surgery total"),
            ("aux_head", net.aux_head, "auxiliary-task"),
            ("dom_head", net.dom_head, "dominant-task"),
        ):
            for i, layer in enumerate(chain):
                name = f"{chain_name}[{i}]"
                if bias_separate and chain is net.trunk:
                    pieces += [(f"{name}.weights", gradient, layer.weights.size),
                               (f"{name}.bias", gradient, layer.bias.size)]
                else:
                    pieces.append((name, gradient, layer.weights.size + layer.bias.size))
        ends = list(itertools.accumulate(size for _, _, size in pieces))
        self.places = [(name, gradient, end - size, end)
                       for (name, gradient, size), end in zip(pieces, ends)]

        trunk_end = sum(l.weights.size + l.bias.size for l in net.trunk)
        aux_end = trunk_end + sum(l.weights.size + l.bias.size for l in net.aux_head)
        self.params = np.empty(ends[-1])
        self.total = np.empty(ends[-1])
        self.aux = np.empty(trunk_end)
        self.dom = np.empty(trunk_end)
        layers = [layer for _, layer in net.named_layers()]
        for layer, view in zip(layers, _views(self.params, layers, 0)):
            view.weights[...] = layer.weights
            view.bias[...] = layer.bias
            layer.weights, layer.bias = view
        self.grads = TwoTaskGradients(
            trunk_aux=_views(self.aux, net.trunk, 0),
            trunk_dom=_views(self.dom, net.trunk, 0),
            aux_head=_views(self.total, net.aux_head, trunk_end),
            dom_head=_views(self.total, net.dom_head, aux_end),
        )
        self.units = [(self.aux[a:b], self.dom[a:b], self.total[a:b])
                      for _, _, a, b in self.places if b <= trunk_end]

    def check_finite(self, buffer: np.ndarray, task: str | None,
                     epoch: int, batch: int) -> None:
        """Raise ValueError naming the gradient, unit, epoch and batch of the
        first non-finite entry of aux or dom (task names the buffer's task)
        or of total (task None: the place names it)."""
        if np.isfinite(buffer).all():
            return
        bad = int(np.flatnonzero(~np.isfinite(buffer))[0])
        name, gradient, start, stop = next(p for p in self.places if p[2] <= bad < p[3])
        raise ValueError(
            f"non-finite {task or gradient} gradient in {name} at epoch {epoch}, "
            f"batch {batch} (entry {bad - start} of {stop - start}: {buffer[bad]})"
        )


@dataclass
class TrainResult:
    """Trained network plus everything the CSV/JSON emitters need.

    rescale_events counts optimizer steps' per-unit rescale firings over
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
    """Run the full schedule, mutating `net` in place; its layer arrays end
    up as views of one parameter buffer (see the module docstring).

    Deterministic given (config, dataset seed, initial parameters): batches
    are addressed by global step index, so there is no hidden RNG state.
    Aborts with a diagnostic naming epoch and batch if a loss goes
    non-finite (RuntimeError), and also the gradient and unit if a gradient
    entry does (ValueError).
    """
    arena = _Arena(net, config.bias_separate)
    units_total = len(arena.units)
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
            backward_two_task(net, cache, batch.clean, batch.labels, config.lam,
                              out=arena.grads)
            arena.check_finite(arena.aux, "auxiliary-task", epoch, batch_idx)
            arena.check_finite(arena.dom, "dominant-task", epoch, batch_idx)

            conflicting_pre = 0
            conflicting_post = 0
            wrongly_dominant = 0
            phis: list[float] = []
            for g_aux, g_dom, g_total in arena.units:
                outcome = remedy_pair(g_aux, g_dom, remedy_cfg)
                conflicting_pre += outcome.was_conflicting
                conflicting_post += outcome.conflicting_post
                wrongly_dominant += outcome.wrongly_dominant_post
                if outcome.phi is not None:
                    phis.append(outcome.phi)
                if outcome.r_applied is not None:
                    rescale_events += 1
                    r_applied_sum += outcome.r_applied
                np.add(outcome.aux, outcome.dom, out=g_total)
            arena.check_finite(arena.total, None, epoch, batch_idx)
            opt.step(arena.params, arena.total)

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

        epoch_stats.append(EpochStats.from_steps(
            step_stats[epoch * config.batches_per_epoch:],
            evaluate(net, eval_set).dom_accuracy,
        ))
    return TrainResult(
        net=net,
        epoch_stats=epoch_stats,
        step_stats=step_stats,
        rescale_events=rescale_events,
        mean_r_applied=(r_applied_sum / rescale_events) if rescale_events else None,
    )


def write_csv(rows: list, kind: type, path: str) -> None:
    """One header line of kind's dataclass field names, then one line per
    record: floats as %.12g, everything else with str()."""
    names = [f.name for f in fields(kind)]
    with open(path, "w", encoding="ascii") as out:
        out.write(",".join(names) + "\n")
        for row in rows:
            out.write(",".join(_cell(getattr(row, name)) for name in names) + "\n")


def _cell(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def write_steps_csv(steps: list[StepStats], path: str) -> None:
    write_csv(steps, StepStats, path)


def write_epochs_csv(epochs: list[EpochStats], path: str) -> None:
    write_csv(epochs, EpochStats, path)
