"""Two-task training loop with per-layer gradient surgery on the trunk.

train() first checks that the net fits the dataset: its outer widths against
dim and num_classes, and each layer's input width against what reaches it
(net._check_widths; TrainConfig has already bounded lam and the sizes). It
then moves every parameter of the net into one contiguous float64 buffer,
laid out trunk, auxiliary head, dominant head, each layer's weights
(row-major) before its bias; the layers' weights and bias arrays become
views of it. Two gradient buffers go with it: `total`, laid out like the
parameters, and `tasks`, a (2, trunk size) array whose rows `aux` and `dom`
are the two tasks' gradients, each laid out like the trunk part; the arena's
`grads` holds each layer's views of them. The (2, batch, trunk width) delta
buffer and each batch row's flat offset into the logits are built once per
run, and a step checks no shape, lam or cache. Each step runs net's cores:
one forward pass and one pass over the losses, which yields both losses and
both head deltas; after the loss check, one backward pass walks each head
and then the trunk once for both tasks, writing the trunk gradients into
`tasks` and the head gradients into `total`. After one scan of `tasks`, the
strategy runs on each surgery unit, a (start, stop) segment of the trunk
layout: a whole trunk layer, or its weights and its bias as two units with
bias_separate. It writes aux' + dom' into the unit's segment of `total`; one
more scan of `total` (which under Adam also rejects entries above
sqrt(float64 max), whose squares overflow) and one optimizer call over the
whole buffer end the step. Each scan is one BLAS pass, the buffer's sum of
squares: when it is finite, every entry is finite and at most sqrt(float64
max), within either limit, and only when it is not does the exact per-entry
test run and locate the entry it rejects. Heads are updated with their own
task's gradient, untouched by surgery. The parameter buffer is scanned once
per epoch, before the held-out evaluation.

The pass over the units that runs surgery also tallies the step's StepStats
row and the run's rescale ratios, in unit order:

- conflicting_pre: units arriving with a negative inner product
- conflicting_post / wrongly_dominant: the same predicates evaluated on the
  pair the strategy actually emitted, i.e. what the strategy leaves behind;
  surgery.remedy_pair measures them and the row only counts

Each epoch's EpochStats averages the percentages and losses of that epoch's
StepStats and adds a held-out dominant-task accuracy, for which only the
trunk and the dominant head run. write_csv writes any such record list with
its field names as the header; one positional %-template built from the
field types formats every line from the record's field values, %.12g for
float fields and str() for the rest, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .net import (
    Network,
    TwoTaskGradients,
    _backward,
    _check_widths,
    _forward,
    _forward_chain,
    _loss_and_deltas,
    _row_starts,
    chain_size,
    forward,  # noqa: F401 - perfbench's span tests wrap it under this name
    layer_views,
)
from .surgery import RemedyConfig, bound_errors, raise_if_any, remedy_pair
from .synthdata import SampleBatch, TwoTaskDataset


# what each row of a (2, ...) task-gradient array holds
_TASK_GRADIENTS = ("auxiliary-task gradient", "dominant-task gradient")

# the largest finite magnitude: above it, only nan and +-inf
_FLOAT64_MAX = np.finfo(np.float64).max

# the largest gradient entry Adam squares without overflowing to inf, which
# would freeze that parameter silently
_ADAM_LIMIT = math.sqrt(_FLOAT64_MAX)


class OptimizerKind(Enum):
    SGD = "sgd"
    ADAM = "adam"


def train_config_errors(config) -> list[str]:
    """Every bound a TrainConfig, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("learning_rate", lambda lr: 0.0 < lr < math.inf,
         "learning rate must be positive and finite"),
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
    bias_separate: bool = False
    warmup_steps: int = 0
    eval_batches: int = 4

    def __post_init__(self):
        raise_if_any(train_config_errors(self))


@dataclass(frozen=True)
class StepStats:
    """Interference counts and losses for one optimizer step.

    Each count sums one flag of the step's surgery units' outcomes, so it
    lies in [0, layers_total]. wrongly_dominant applies ||g_aux|| >
    K*||g_dom|| to the pair the strategy emitted (post-rescale); the
    pre-rescale flag stays available on each surgery.Remedy
    (was_wrongly_dominant) for callers that want it. mean_phi_rad averages
    the pre-remedy angle over non-degenerate units, in unit order (nan if
    none).
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

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
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


def evaluate(net: Network, batches: list[SampleBatch]) -> float:
    """Held-out dominant-task accuracy over the batches; only the trunk and
    the dominant head run."""
    correct = 0
    for b in batches:
        _check_widths(net, b.noisy.shape[1])
        logits = _forward_chain(net.dom_head, _forward_chain(net.trunk, b.noisy)[-1])[-1]
        correct += int((logits.argmax(axis=1) == b.labels).sum())
    return correct / sum(len(b) for b in batches)


class _Arena:
    """A net's parameters and gradients in flat buffers (see the module
    docstring); building one rebinds the net's layer arrays as views.

    units holds the (aux, dom, total) views of each surgery unit's segment,
    in trunk order. places names each segment of the total
    layout as (name, gradient, start, stop): the surgery units first, whose
    segments aux and dom share, then the head layers; gradient names what
    the total buffer holds there. grads holds each layer's gradient views:
    the trunk layers' two rows of tasks and the head layers' segments of
    total.
    """

    def __init__(self, net: Network, bias_separate: bool):
        pieces = []  # (name, gradient, size) along the total layout
        for (chain_name, chain), gradient in zip(
                net.chains(), ("post-surgery total gradient", *_TASK_GRADIENTS)):
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

        trunk_end = chain_size(net.trunk)
        self.params = np.empty(ends[-1])
        self.total = np.empty(ends[-1])
        self.tasks = np.empty((2, trunk_end))
        self.aux, self.dom = self.tasks
        layers = [layer for _, layer in net.named_layers()]
        for layer, view in zip(layers, layer_views(self.params, layers)):
            view.weights[...] = layer.weights
            view.bias[...] = layer.bias
            layer.weights, layer.bias = view
        heads = layer_views(self.total, layers)[len(net.trunk):]
        self.grads = TwoTaskGradients(
            trunk=layer_views(self.tasks, net.trunk),
            aux_head=heads[:len(net.aux_head)],
            dom_head=heads[len(net.aux_head):],
        )
        self.units = [(self.aux[a:b], self.dom[a:b], self.total[a:b])
                      for _, _, a, b in self.places if b <= trunk_end]

    def check_finite(self, buffer: np.ndarray, what: str | None,
                     epoch: int, batch: int, limit: float = _FLOAT64_MAX) -> None:
        """Raise ValueError naming what is wrong, the place, the epoch and
        the batch of the first entry of buffer that is not at most limit in
        magnitude: a row of tasks (what names its gradient), params (what is
        "parameter") or total (what is None: the place names the gradient).
        At the default limit that is exactly the nan and +-inf entries;
        under Adam, train() passes _ADAM_LIMIT. A finite sum of squares
        bounds every entry by sqrt(float64 max), which passes both limits;
        only a sum that overflows, or is nan, takes the exact test."""
        if (math.isfinite(np.vdot(buffer, buffer))
                or np.maximum.reduce(np.abs(buffer)) <= limit):  # false for nan
            return
        bad = int(np.flatnonzero(~(np.abs(buffer) <= limit))[0])
        name, gradient, start, stop = next(p for p in self.places if p[2] <= bad < p[3])
        value = buffer[bad]
        problem = (f"non-finite {what or gradient}" if not math.isfinite(value)
                   else f"{what or gradient} too large for Adam (above {limit:.6g})")
        raise ValueError(
            f"{problem} in {name} at epoch {epoch}, "
            f"batch {batch} (entry {bad - start} of {stop - start}: {value})"
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


def _fit_errors(net: Network, data: TwoTaskDataset) -> list[str]:
    """An error for each outer width of the net that the dataset does not
    match: the trunk's input and the aux head's output against dim, the dom
    head's output against num_classes."""
    widths = (
        ("trunk[0] takes inputs of width", net.trunk[0].in_dim, "dim", data.dim),
        (f"aux_head[{len(net.aux_head) - 1}] emits", net.aux_head[-1].out_dim,
         "dim", data.dim),
        (f"dom_head[{len(net.dom_head) - 1}] emits", net.dom_head[-1].out_dim,
         "num_classes", data.num_classes),
    )
    return [f"{layer} {width}, but the dataset has {name} {want}"
            for layer, width, name, want in widths if width != want]


@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, data: TwoTaskDataset, net: Network) -> TrainResult:
    """Run the full schedule, mutating `net` in place; its layer arrays end
    up as views of one parameter buffer (see the module docstring). A net
    whose input or output widths do not fit the dataset is refused first
    (ValueError naming each such layer), and then one whose layers no
    longer chain (net._check_widths's ValueError), with its arrays untouched.

    Deterministic given (config, dataset seed, initial parameters): batches
    are addressed by global step index, so there is no hidden RNG state.
    Aborts with a diagnostic naming epoch and batch if a loss goes
    non-finite (RuntimeError), and also the gradient and unit if a gradient
    entry does, or exceeds sqrt(float64 max) under Adam, which squares it,
    or the layer if a parameter does at the end of an epoch (ValueError).
    numpy's overflow and invalid-value warnings are silenced meanwhile:
    these checks turn every non-finite value into such an error.
    """
    raise_if_any(_fit_errors(net, data))
    _check_widths(net, data.dim)
    arena = _Arena(net, config.bias_separate)
    grads, units, total = arena.grads, arena.units, arena.total
    trunk_delta = np.empty((2, config.batch_size, net.trunk[-1].out_dim))
    row_starts = _row_starts(config.batch_size, data.num_classes)
    adam = config.optimizer is OptimizerKind.ADAM
    opt = (Adam if adam else SGD)(config.learning_rate)
    limit = _ADAM_LIMIT if adam else _FLOAT64_MAX
    remedy_cfg, lam = config.remedy, config.lam
    step_stats: list[StepStats] = []
    epoch_stats: list[EpochStats] = []
    r_applied: list[float] = []  # every rescale's ratio, in step and unit order
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
            acts = _forward(net, batch.noisy)
            loss_aux, loss_dom, d_aux, d_dom = _loss_and_deltas(
                acts[1][-1], acts[2][-1], batch.clean, batch.labels, row_starts, lam)
            if not (math.isfinite(loss_aux) and math.isfinite(loss_dom)):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}: "
                    f"loss_aux={loss_aux}, loss_dom={loss_dom}"
                )
            _backward(net, grads, acts, d_aux, d_dom, trunk_delta)
            if not math.isfinite(np.vdot(arena.tasks, arena.tasks)):  # see check_finite
                for row, gradient in zip(arena.tasks, _TASK_GRADIENTS):
                    arena.check_finite(row, gradient, epoch, batch_idx)

            # one pass over the units runs surgery and tallies the step's row
            pre = post = dominant = 0
            phis = []
            for g_aux, g_dom, g_total in units:
                unit = remedy_pair(g_aux, g_dom, remedy_cfg)
                np.add(unit.aux, unit.dom, out=g_total)
                pre += unit.was_conflicting
                post += unit.conflicting_post
                dominant += unit.wrongly_dominant_post
                if unit.phi is not None:
                    phis.append(unit.phi)
                if unit.r_applied is not None:
                    r_applied.append(unit.r_applied)
            arena.check_finite(total, None, epoch, batch_idx, limit)
            opt.step(arena.params, total)

            step_stats.append(StepStats(
                epoch, batch_idx, len(units), pre, post, dominant,
                sum(phis) / len(phis) if phis else math.nan, loss_aux, loss_dom))

        arena.check_finite(arena.params, "parameter", epoch, batch_idx)
        epoch_stats.append(EpochStats.from_steps(
            step_stats[epoch * config.batches_per_epoch:], evaluate(net, eval_set)))
    return TrainResult(
        net=net,
        epoch_stats=epoch_stats,
        step_stats=step_stats,
        rescale_events=len(r_applied),
        mean_r_applied=sum(r_applied) / len(r_applied) if r_applied else None,
    )


def write_csv(rows: list, kind: type, path: str) -> None:
    """One header line of kind's dataclass field names, then one line per
    record, formatted by one positional %-template from the tuple of the
    record's field values in declaration order: fields declared float as
    %.12g, every other field with str()."""
    names = [f.name for f in fields(kind)]
    template = ",".join("%.12g" if f.type in (float, "float") else "%s"
                        for f in fields(kind))
    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda row: (get(row),)  # a 1-tuple
    lines = [",".join(names)]
    lines += [template % values(row) for row in rows]
    with open(path, "w", encoding="ascii") as out:
        out.write("\n".join(lines) + "\n")


def write_steps_csv(steps: list[StepStats], path: str) -> None:
    write_csv(steps, StepStats, path)
