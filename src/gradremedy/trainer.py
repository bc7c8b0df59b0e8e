"""Two-task training loop with per-layer gradient surgery on the trunk.

train() moves every parameter of the net into one contiguous float64
buffer, in the flat layout net.layer_bounds states, and rebinds the layers'
arrays as views of it, so that one optimizer call updates the whole net.
Both tasks' trunk gradients share one (2, trunk size) array laid out like
the trunk part. Each surgery unit is one trunk layer's segment of it: the
strategy sees a layer's weights and bias as one vector pair and writes
aux' + dom' into the same segment of `total`, the gradient the optimizer
applies. Heads get their own task's gradient, untouched by surgery.

Every finite check is one BLAS pass, the buffer's sum of squares. A finite
sum bounds every entry by sqrt(float64 max), within both the finite limit
and Adam's (an entry whose square overflows would freeze its parameter), so
only a sum that is not finite runs the exact per-entry test, which locates
the entry it rejects.

A step's StepStats counts measure the pair the strategy emitted
(surgery.remedy_pair), so conflicting_post and wrongly_dominant report what
the strategy leaves behind. The phase clock is the only part of a result
that differs between identical runs, and no run file holds it.
"""

from __future__ import annotations

import math
import time
import typing
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .net import (
    Network,
    _backward,
    _forward,
    _gradient_views,
    _loss_and_deltas,
    _row_starts,
    _width_errors,
    forward,  # noqa: F401 - perfbench's span tests wrap it under this name
    layer_bounds,
    layer_views,
)
from .surgery import RemedyConfig, Strategy, bound_errors, raise_if_any, remedy_pair
from .synthdata import (
    _NORMAL_BOUND, MAX_TRAIN_BATCHES, SampleBatch, TwoTaskDataset, _clean_norm_bound,
)


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
    CLI passes its ExperimentSpec), breaks, and a valid schedule longer
    than the train_batches that train draws from. The held-out batches,
    all drawn before the first step, take the same cap."""
    errors = bound_errors(config, (
        ("learning_rate", lambda lr: 0.0 < lr < math.inf,
         "learning rate must be positive and finite"),
        ("lam", lambda lam: 0.0 <= lam <= 1.0, "lambda must lie in [0, 1]"),
        *((name, lambda n: n >= 1, f"{name} must be >= 1")
          for name in ("epochs", "batches_per_epoch", "batch_size", "eval_batches")),
        ("eval_batches", lambda n: n <= MAX_TRAIN_BATCHES,
         "eval_batches must be <= 2**32, the cap on a run's training batches"),
    ))
    epochs, per_epoch = config.epochs, config.batches_per_epoch
    if min(epochs, per_epoch) >= 1 and epochs * per_epoch > MAX_TRAIN_BATCHES:
        errors.append(f"epochs, batches_per_epoch: a run draws at most 2**32 training "
                      f"batches, got {epochs}*{per_epoch} = {epochs * per_epoch}")
    return errors


def first_step_errors(config) -> list[str]:
    """An error if the first optimizer step on config's batches could
    overflow: a weight gradient is an input times a residual, and the
    auxiliary loss a residual squared, so both grow as N**2, where N is the
    noisy batch's norm bound, the clean one times 1 + 10**(-snr_db/20).
    N must stay below sqrt(limit)/2, limit being the largest gradient entry
    the optimizer takes (_ADAM_LIMIT or float64's maximum), times sin(theta)
    under fixed-theta, whose projection to theta can lengthen the auxiliary
    gradient by up to 1/sin(theta). First steps on trunks 1 to 1024 wide
    gave gradient entries up to 0.3*N**2 and squared residual norms up to
    1.6*N**2. The clean bound is at most N, so a spec this accepts draws
    batches whose squared norms fit float64. The CLI passes its
    ExperimentSpec, whose dataset fields are valid; a batch_size below 1 or
    an angle whose sine is not positive gets no error here, since
    train_config_errors and remedy_config_errors refuse them."""
    b = config.batch_size
    fixed = config.strategy is Strategy.FIXED_THETA
    sin_theta = math.sin(config.fixed_theta) if fixed else 1.0
    if b < 1 or not sin_theta > 0.0:
        return []
    noisy = _clean_norm_bound(config) * (1.0 + 10.0 ** (-config.snr_db / 20.0))
    adam = config.optimizer is OptimizerKind.ADAM
    bound = math.sqrt((_ADAM_LIMIT if adam else _FLOAT64_MAX) * sin_theta) / 2.0
    if noisy < bound:
        return []
    names = "template_scale, jitter_std, snr_db"
    step = f"the first {config.optimizer.value} step"
    if fixed:
        names += ", fixed_theta"
        step += (f" of fixed-theta at {math.degrees(config.fixed_theta):g} deg, whose "
                 "projection may lengthen the auxiliary gradient by 1/sin(theta),")
    return [f"{names}: {step} on a batch of {b} samples in dim {config.dim} may "
            f"{'give a gradient entry too large for Adam' if adam else 'overflow float64'} "
            f"(template_scale {config.template_scale:g}, jitter_std {config.jitter_std:g}, "
            f"snr_db {config.snr_db:g}): the noisy batch's norm bound, "
            f"(template_scale*sqrt(batch_size) + {_NORMAL_BOUND:g}*jitter_std*"
            f"sqrt(batch_size*dim))*(1 + 10**(-snr_db/20)), must stay below {bound:.6g}"]


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the network and the dataset.

    lam weights the dominant-task loss: loss_total = (1-lam)*aux + lam*dom.
    """

    remedy: RemedyConfig = field(default_factory=RemedyConfig)
    lam: float = 0.7
    epochs: int = 20
    batches_per_epoch: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: OptimizerKind = OptimizerKind.ADAM
    eval_batches: int = 4

    def __post_init__(self):
        raise_if_any(train_config_errors(self))


class StepStats(typing.NamedTuple):
    """Interference counts and losses for one optimizer step.

    Each count sums one flag of the step's surgery units' outcomes, so it
    lies in [0, layers_total]. wrongly_dominant applies ||g_aux|| >
    K*||g_dom|| to the pair the strategy emitted (post-rescale); the
    pre-rescale flag stays available on each surgery.Remedy
    (was_wrongly_dominant) for callers that want it. mean_phi_rad averages
    the pre-remedy angle over non-degenerate units, summed in unit order
    from 0.0 (nan if none).
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


class EpochStats(typing.NamedTuple):
    """One epoch's means of its steps' conflicting_post and wrongly_dominant
    as percentages of layers_total and of their losses, each summed in step
    order from 0.0, plus held-out accuracy."""

    epoch: int
    pct_conflicting: float
    pct_wrongly_dominant: float
    loss_aux: float
    loss_dom: float
    eval_accuracy: float


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
    """Held-out dominant-task accuracy over the batches, from the dominant
    head's logits of _forward; ValueError if they hold no sample."""
    samples = sum(len(b) for b in batches)
    if not samples:
        raise ValueError("evaluate needs at least one batch with at least one sample")
    correct = 0
    for b in batches:
        raise_if_any(_width_errors(net, b.noisy.shape[1]))
        logits = _forward(net, b.noisy)[2][-1]
        correct += int((logits.argmax(axis=1) == b.labels).sum())
    return correct / samples


class _Arena:
    """A net's parameters and gradients in flat buffers (see the module
    docstring); building one rebinds the net's layer arrays as views.

    places names each layer's segment of the total layout as (name,
    gradient, start, stop), where gradient names what total holds there;
    the trunk layers come first, and their segments are also those of aux
    and dom. units holds each trunk layer's (aux, dom, total) views. grads
    holds each layer's gradient views, built by net._gradient_views as
    backward_two_task builds its own: the trunk layers' two rows of tasks
    and the head layers' segments of total.
    """

    def __init__(self, net: Network):
        named = net.named_layers()
        layers = [layer for _, layer in named]
        gradients = [gradient for (_, chain), gradient in zip(
            net.chains(), ("post-surgery total gradient", *_TASK_GRADIENTS)) for _ in chain]
        bounds = layer_bounds(layer.weights.shape for layer in layers)
        self.places = [(name, gradient, start, stop) for (name, _), gradient, start, stop
                       in zip(named, gradients, bounds, bounds[1:])]

        self.params = np.empty(bounds[-1])
        self.total = np.empty(bounds[-1])
        self.tasks = np.empty((2, bounds[len(net.trunk)]))
        self.aux, self.dom = self.tasks
        for layer, view in zip(layers, layer_views(self.params, layers)):
            view.weights[...] = layer.weights
            view.bias[...] = layer.bias
            layer.weights, layer.bias = view
        self.grads = _gradient_views(net, self.tasks, self.total)
        self.units = [(self.aux[a:b], self.dom[a:b], self.total[a:b])
                      for _, _, a, b in self.places[:len(net.trunk)]]

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
    """Everything the CSV/JSON emitters need; train() trains the caller's
    net in place, so the result does not hold it.

    rescale_events counts optimizer steps' per-unit rescale firings over
    the whole run; mean_r_applied averages the applied ratio (None when the
    rescale never fired), letting a run's effective r be audited without
    widening the steps.csv column contract. phase_seconds holds train()'s
    own clock: the seconds spent in each phase of train()'s loop, summed
    over the run, and under "train" the whole call. It differs
    between identical runs, so equality ignores it and no run file holds
    it: two identical runs' results compare equal.
    """

    epoch_stats: list[EpochStats]
    step_stats: list[StepStats]
    rescale_events: int = 0
    mean_r_applied: float | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)


@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, data: TwoTaskDataset, net: Network) -> TrainResult:
    """Run the full schedule, mutating `net` in place; its layer arrays end
    up as views of one parameter buffer (see the module docstring). A net
    that breaks net._width_errors' contract for the dataset's dim and
    num_classes is refused first, with one ValueError naming each layer at
    fault in walk order, and its arrays untouched.

    Deterministic given (config, dataset seed, initial parameters): batches
    are addressed by global step index, so there is no hidden RNG state.
    Aborts with a diagnostic naming epoch and batch if a loss goes
    non-finite (RuntimeError), and also the gradient and unit if a gradient
    entry does, or exceeds sqrt(float64 max) under Adam, which squares it,
    or the layer if a parameter does at the end of an epoch (ValueError).
    numpy's overflow and invalid-value warnings are silenced meanwhile:
    these checks turn every non-finite value into such an error.
    """
    clock = time.perf_counter
    started = clock()
    spent = dict.fromkeys(
        ("data", "forward", "loss", "backward", "surgery", "optimizer", "eval"), 0.0)
    raise_if_any(_width_errors(net, data.dim, data.num_classes))
    arena = _Arena(net)
    grads, units, total = arena.grads, arena.units, arena.total
    trunk_delta = np.empty((2, config.batch_size, net.trunk[-1].out_dim))
    row_starts = _row_starts(config.batch_size, data.num_classes)
    adam = config.optimizer is OptimizerKind.ADAM
    opt = (Adam if adam else SGD)(config.learning_rate)
    limit = _ADAM_LIMIT if adam else _FLOAT64_MAX
    remedy_cfg, lam = config.remedy, config.lam
    per_epoch = config.batches_per_epoch
    step_stats: list[StepStats] = []
    epoch_stats: list[EpochStats] = []
    # the rescales' count and their ratios' sum, added in step and unit order
    rescales, r_sum = 0, 0.0
    eval_set = [
        data.eval_batch(config.batch_size, j) for j in range(config.eval_batches)
    ]
    batches = data.train_batches(config.batch_size, config.epochs * per_epoch)

    for epoch in range(config.epochs):
        # the epoch's sums of conflict %, wrong-dominance % and both losses,
        # added in step order from 0.0, so no float sum() sets their bits
        conflict_sum = dominant_sum = aux_sum = dom_sum = 0.0
        for batch_idx in range(per_epoch):
            t0 = clock()
            batch = next(batches)  # train_batch(batch_size, epoch * per_epoch + batch_idx)
            t1 = clock()
            acts = _forward(net, batch.noisy)
            t2 = clock()
            loss_aux, loss_dom, d_aux, d_dom = _loss_and_deltas(
                acts[1][-1], acts[2][-1], batch.clean, batch.labels, row_starts, lam)
            if not (math.isfinite(loss_aux) and math.isfinite(loss_dom)):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}: "
                    f"loss_aux={loss_aux}, loss_dom={loss_dom}"
                )
            t3 = clock()
            _backward(net, grads, acts, d_aux, d_dom, trunk_delta)
            if not math.isfinite(np.vdot(arena.tasks, arena.tasks)):  # see check_finite
                for row, gradient in zip(arena.tasks, _TASK_GRADIENTS):
                    arena.check_finite(row, gradient, epoch, batch_idx)
            t4 = clock()

            # one pass over the units runs surgery and tallies the step's row
            pre = post = dominant = phi_count = 0
            phi_sum = 0.0
            for g_aux, g_dom, g_total in units:
                unit = remedy_pair(g_aux, g_dom, remedy_cfg)
                np.add(unit.aux, unit.dom, out=g_total)
                pre += unit.was_conflicting
                post += unit.conflicting_post
                dominant += unit.wrongly_dominant_post
                if unit.phi is not None:
                    phi_count += 1
                    phi_sum += unit.phi
                if unit.r_applied is not None:
                    rescales += 1
                    r_sum += unit.r_applied
            t5 = clock()
            arena.check_finite(total, None, epoch, batch_idx, limit)
            opt.step(arena.params, total)
            t6 = clock()

            spent["data"] += t1 - t0
            spent["forward"] += t2 - t1
            spent["loss"] += t3 - t2
            spent["backward"] += t4 - t3
            spent["surgery"] += t5 - t4
            spent["optimizer"] += t6 - t5
            step_stats.append(StepStats(
                epoch, batch_idx, len(units), pre, post, dominant,
                phi_sum / phi_count if phi_count else math.nan, loss_aux, loss_dom))
            conflict_sum += 100.0 * post / len(units)
            dominant_sum += 100.0 * dominant / len(units)
            aux_sum += loss_aux
            dom_sum += loss_dom

        t0 = clock()
        arena.check_finite(arena.params, "parameter", epoch, batch_idx)
        accuracy = evaluate(net, eval_set)
        spent["eval"] += clock() - t0
        epoch_stats.append(EpochStats(
            epoch, conflict_sum / per_epoch, dominant_sum / per_epoch,
            aux_sum / per_epoch, dom_sum / per_epoch, accuracy))
    spent["train"] = clock() - started
    return TrainResult(
        epoch_stats=epoch_stats,
        step_stats=step_stats,
        rescale_events=rescales,
        mean_r_applied=r_sum / rescales if rescales else None,
        phase_seconds=spent,
    )


def write_csv(rows: list, kind: type, path: str) -> None:
    """One header line of kind's field names (kind is a NamedTuple), then
    one line per record, formatted by one positional %-template from the
    record itself: fields annotated float as %.12g, every other field with
    str()."""
    hints = typing.get_type_hints(kind)
    template = ",".join("%.12g" if hints[name] is float else "%s" for name in kind._fields)
    lines = [",".join(kind._fields), *(template % row for row in rows)]
    with open(path, "w", encoding="ascii") as out:
        out.write("\n".join(lines) + "\n")


def write_steps_csv(steps: list[StepStats], path: str) -> None:
    write_csv(steps, StepStats, path)
