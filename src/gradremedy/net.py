"""Feed-forward network with exact manual backprop for two-task training.

A shared trunk feeds two heads: a reconstruction head trained with mean
squared error against the clean signal (the auxiliary task) and a
classification head trained with softmax cross-entropy (the dominant task).
One pass computes both losses and both loss-weighted head deltas.
`backward_two_task` walks each head with its own task's delta, then walks
the trunk once with the two tasks' deltas stacked as (2, batch, width), so
each trunk layer ends up with two separate, loss-weighted gradients — the
raw material for gradient surgery — as the two rows of one array. Heads
only ever receive their own task's gradient.

The arithmetic lives in three cores that check nothing: `_forward`,
`_loss_and_deltas` and `_backward`. They run on a `_StepPlan`, which binds
once, for one net and batch size, each layer's (weights, bias, ReLU flag,
weight-gradient view, bias-gradient view), the (2, batch, width) buffer of
the trunk's two deltas and np.arange(batch). The public `forward`, `losses`
and `backward_two_task` check their inputs (the batch's rank and each
layer's input width; lam and the shapes of targets and labels; that the
cache came from this net) and then call the same cores.
`backward_two_task` binds a plan over fresh gradient arrays on each call;
the trainer binds one per run over its flat buffers and does its checks
once, before the first step.

Everything is plain float64 numpy; batches are (batch, dim) matrices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .surgery import bound_errors, raise_if_any
from .synthdata import dataset_errors


class Activation(Enum):
    RELU = "relu"
    IDENTITY = "identity"


@dataclass
class Layer:
    """One dense layer: y = act(x @ weights.T + bias).

    weights is (out_dim, in_dim), bias is (out_dim,). Parameters are mutable
    (the optimizer updates them in place); everything is float64.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation = Activation.RELU

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got ndim {self.weights.ndim}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"bias shape {self.bias.shape} does not match "
                f"out_dim {self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class Network:
    """Trunk shared by both tasks plus one private head per task.

    The field order is the layout order of everything that walks the net:
    named_layers, the checkpoint format and the trainer's parameter buffer.
    """

    trunk: list[Layer]
    aux_head: list[Layer]
    dom_head: list[Layer]

    def __post_init__(self):
        for name, chain in self.chains():
            if not chain:
                raise ValueError(f"{name} must contain at least one layer")
            for i in range(1, len(chain)):
                if chain[i].in_dim != chain[i - 1].out_dim:
                    raise ValueError(
                        f"{name}[{i}] expects input dim {chain[i].in_dim}, "
                        f"but {name}[{i - 1}] emits {chain[i - 1].out_dim}"
                    )
            trunk_out = self.trunk[-1].out_dim
            if chain is not self.trunk and chain[0].in_dim != trunk_out:
                raise ValueError(
                    f"{name}[0] expects input dim {chain[0].in_dim}, "
                    f"but the trunk emits {trunk_out}"
                )

    def chains(self) -> list[tuple[str, list[Layer]]]:
        """(name, layers) of the trunk and each head, in field order."""
        return [(name, getattr(self, name)) for name in _CHAIN_NAMES]

    def named_layers(self) -> list[tuple[str, Layer]]:
        """All layers with stable names like 'trunk[0]', for tests/optimizers."""
        return [(f"{name}[{i}]", layer)
                for name, chain in self.chains() for i, layer in enumerate(chain)]


# the trunk's and the heads' names, in Network's field order
_CHAIN_NAMES = tuple(f.name for f in fields(Network))


def network_errors(config) -> list[str]:
    """Every bound init_network's arguments, or anything with their field
    names (the CLI passes its ExperimentSpec), break; num_classes is
    checked by synthdata.dataset_errors."""
    return bound_errors(config, ((
        "trunk_widths", lambda widths: len(widths) > 0 and min(widths) >= 1,
        "trunk_widths must name at least one layer, each at least 1 wide",
    ),))


def init_network(
    seed: int,
    in_dim: int,
    trunk_widths: tuple[int, ...],
    num_classes: int,
) -> Network:
    """Build a seeded network: ReLU trunk, one linear layer per head.

    Weights and biases are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].
    The reconstruction head maps back to in_dim: the clean signal lives in
    the input space.
    """
    shape = SimpleNamespace(trunk_widths=trunk_widths, num_classes=num_classes)
    raise_if_any(network_errors(shape) + dataset_errors(shape))
    rng = np.random.Generator(np.random.PCG64(seed))

    def dense(fan_in: int, fan_out: int, activation: Activation) -> Layer:
        bound = 1.0 / np.sqrt(fan_in)
        return Layer(
            weights=rng.uniform(-bound, bound, size=(fan_out, fan_in)),
            bias=rng.uniform(-bound, bound, size=fan_out),
            activation=activation,
        )

    trunk = []
    prev = in_dim
    for width in trunk_widths:
        trunk.append(dense(prev, width, Activation.RELU))
        prev = width
    aux_head = [dense(prev, in_dim, Activation.IDENTITY)]
    dom_head = [dense(prev, num_classes, Activation.IDENTITY)]
    return Network(trunk=trunk, aux_head=aux_head, dom_head=dom_head)


@dataclass
class ForwardCache:
    """Every activation backward_two_task needs, tied to the net that
    produced them. acts maps each chain's name to its activations: the
    chain's input first, then each layer's output (a head's input is the
    trunk's output array itself)."""

    net: Network = field(repr=False)
    acts: dict[str, list[np.ndarray]] = field(repr=False)

    @property
    def batch(self) -> np.ndarray:
        return self.acts["trunk"][0]

    @property
    def trunk_out(self) -> np.ndarray:
        return self.acts["trunk"][-1]

    @property
    def aux_out(self) -> np.ndarray:
        return self.acts["aux_head"][-1]

    @property
    def dom_logits(self) -> np.ndarray:
        return self.acts["dom_head"][-1]


class LayerGrads(NamedTuple):
    """Gradient arrays mirroring Layer.weights / Layer.bias."""

    weights: np.ndarray
    bias: np.ndarray


class _Bound(NamedTuple):
    """One layer as a step runs it: its parameter arrays, whether a ReLU
    follows, and the arrays its gradients are written to (None when
    nothing is)."""

    weights: np.ndarray
    bias: np.ndarray
    relu: bool
    grad_weights: np.ndarray | None
    grad_bias: np.ndarray | None


def _bind(net: Network, grads: TwoTaskGradients | None = None) -> tuple[list[_Bound], ...]:
    """Each chain's layers as _Bound, in field order, with the views of
    grads' same-named list as their gradient arrays."""
    bound = []
    for name, chain in net.chains():
        views = getattr(grads, name) if grads else [(None, None)] * len(chain)
        bound.append([_Bound(layer.weights, layer.bias,
                             layer.activation is Activation.RELU, *view)
                      for layer, view in zip(chain, views)])
    return tuple(bound)


def _check_widths(net: Network, width: int) -> None:
    """Raise forward's ValueError for the first layer, in walk order, whose
    input width differs from the width that reaches it from inputs this
    wide."""
    for name, chain in net.chains():
        if chain is not net.trunk:
            width = net.trunk[-1].out_dim
        for i, layer in enumerate(chain):
            if width != layer.in_dim:
                raise ValueError(
                    f"{name}[{i}] expects input dim {layer.in_dim}, got {width}")
            width = layer.out_dim


def _forward_chain(layers: list[_Bound], x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    for weights, bias, relu, _, _ in layers:
        x = x @ weights.T
        x += bias
        if relu:
            np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def _forward(chains: tuple[list[_Bound], ...],
             x: np.ndarray) -> tuple[list[np.ndarray], ...]:
    """Each chain's activations, in field order: the trunk's feed each head.
    Expects widths that fit (forward and train() check them)."""
    trunk, aux_head, dom_head = chains
    acts = _forward_chain(trunk, x)
    return acts, _forward_chain(aux_head, acts[-1]), _forward_chain(dom_head, acts[-1])


def forward(net: Network, batch_inputs: np.ndarray) -> ForwardCache:
    """Run the batch through trunk and both heads, caching for backprop."""
    x = np.ascontiguousarray(batch_inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"batch_inputs must be 2-D (batch, dim), got ndim {x.ndim}")
    _check_widths(net, x.shape[1])
    return ForwardCache(net=net, acts=dict(zip(_CHAIN_NAMES, _forward(_bind(net), x))))


@dataclass(frozen=True)
class LossBundle:
    """Both task losses plus their weighted combination.

    loss_total = (1 - lam) * loss_aux + lam * loss_dom, where lam is the
    dominant-task weight.
    """

    loss_aux: float
    loss_dom: float
    loss_total: float


def _mean(x: np.ndarray) -> float:
    """The mean over every entry, with np.mean's bits."""
    return float(np.add.reduce(x, axis=None) / x.size)


def _loss_and_deltas(
    aux_out: np.ndarray,
    dom_logits: np.ndarray,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    lam: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Both losses and both loss-weighted head deltas from one pass: the
    auxiliary delta (1-lam)*d(MSE)/d(aux_out) and the dominant delta
    lam*d(CE)/d(dom_logits). rows is np.arange(batch); the inputs are
    expected to fit (losses checks them)."""
    d_aux = aux_out - targets_clean  # the residual, scaled in place below
    loss_aux = _mean(d_aux * d_aux)
    d_aux *= (1.0 - lam) * 2.0
    d_aux /= d_aux.size
    shifted = dom_logits - np.maximum.reduce(dom_logits, axis=1, keepdims=True)
    d_dom = np.exp(shifted)  # normalized in place below
    z = np.add.reduce(d_dom, axis=1)
    loss_dom = _mean(np.log(z) - shifted[rows, labels])
    d_dom /= z[:, None]  # the softmax
    d_dom[rows, labels] -= 1.0
    d_dom *= lam
    d_dom /= d_dom.shape[0]
    return loss_aux, loss_dom, d_aux, d_dom


def _checked_targets(
    cache: ForwardCache,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """targets_clean and labels as arrays, once lam and their shapes are
    checked against the cache."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    targets_clean = np.asarray(targets_clean, dtype=np.float64)
    labels = np.asarray(labels)
    if targets_clean.shape != cache.aux_out.shape:
        raise ValueError(
            f"targets_clean shape {targets_clean.shape} does not match "
            f"reconstruction shape {cache.aux_out.shape}"
        )
    if labels.shape[0] != cache.batch.shape[0]:
        raise ValueError(
            f"got {labels.shape[0]} labels for a batch of {cache.batch.shape[0]}"
        )
    return targets_clean, labels


def losses(
    cache: ForwardCache,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> LossBundle:
    """Both task losses and their lam-weighted total."""
    targets_clean, labels = _checked_targets(cache, targets_clean, labels, lam)
    loss_aux, loss_dom, _, _ = _loss_and_deltas(
        cache.aux_out, cache.dom_logits, targets_clean, labels,
        np.arange(labels.shape[0]), lam)
    return LossBundle(loss_aux, loss_dom, (1.0 - lam) * loss_aux + lam * loss_dom)


def layer_views(buffer: np.ndarray, chain: list[Layer]) -> list[LayerGrads]:
    """Each layer's (weights, bias) as views of buffer's last axis, laid out
    from its start, each layer's row-major weights before its bias; leading
    axes of buffer lead each view."""
    lead = buffer.shape[:-1]
    views, offset = [], 0
    for layer in chain:
        mid = offset + layer.weights.size
        stop = mid + layer.bias.size
        views.append(LayerGrads(buffer[..., offset:mid].reshape(lead + layer.weights.shape),
                                buffer[..., mid:stop]))
        offset = stop
    return views


def chain_size(chain: list[Layer]) -> int:
    """The number of parameters of a chain."""
    return sum(layer.weights.size + layer.bias.size for layer in chain)


@dataclass(frozen=True)
class TwoTaskGradients:
    """Per-layer gradients: both tasks' for the shared trunk, one list per head.

    trunk[i] holds trunk layer i's two gradients as (2, out, in) weights and
    (2, out) bias: row 0 the gradient of (1-lam)*MSE, row 1 that of lam*CE;
    trunk_aux and trunk_dom are views of those rows. Head gradients carry
    only their own task's loss, already weighted the same way.
    """

    trunk: list[LayerGrads]
    aux_head: list[LayerGrads]
    dom_head: list[LayerGrads]

    @property
    def trunk_aux(self) -> list[LayerGrads]:
        return [LayerGrads(g.weights[0], g.bias[0]) for g in self.trunk]

    @property
    def trunk_dom(self) -> list[LayerGrads]:
        return [LayerGrads(g.weights[1], g.bias[1]) for g in self.trunk]


class _StepPlan:
    """What a two-task step of one net at one batch size reads besides its
    batch, bound once: chains holds each chain's _Bound layers, whose
    gradients go to grads' arrays; trunk_delta is the (2, batch, trunk
    width) buffer of the two tasks' deltas at the trunk's output, and
    delta_rows its two rows; rows is np.arange(batch), the label indices."""

    def __init__(self, net: Network, grads: TwoTaskGradients, batch_size: int):
        self.grads = grads
        self.chains = _bind(net, grads)
        self.trunk_delta = np.empty((2, batch_size, net.trunk[-1].out_dim))
        self.delta_rows = tuple(self.trunk_delta)
        self.rows = np.arange(batch_size)


def _backward_chain(layers: list[_Bound], acts: list[np.ndarray],
                    delta: np.ndarray) -> np.ndarray:
    """Walk one chain backward from d(loss)/d(output), given its forward
    activations, writing each layer's gradients into its bound arrays. delta
    is (batch, out_dim), or (tasks, batch, out_dim) with the gradient arrays
    stacked the same way. Returns dz, the gradient at layers[0]'s
    pre-activation; dz @ layers[0].weights is d(loss)/d(input). A ReLU
    passes delta where its output is positive, which is exactly where its
    input was."""
    for i in range(len(layers) - 1, -1, -1):
        weights, _, relu, grad_weights, grad_bias = layers[i]
        dz = np.where(acts[i + 1] > 0.0, delta, 0.0) if relu else delta
        np.matmul(dz.swapaxes(-1, -2), acts[i], out=grad_weights)
        np.add.reduce(dz, axis=-2, out=grad_bias)
        if i:
            delta = dz @ weights
    return dz


def _backward(
    plan: _StepPlan,
    acts: tuple[list[np.ndarray], ...],
    d_aux: np.ndarray,
    d_dom: np.ndarray,
) -> TwoTaskGradients:
    """Write the gradients of the two head deltas into plan.grads' arrays,
    given each chain's activations in field order: each head gets its own
    task's, and one trunk walk carries both tasks' deltas stacked."""
    trunk, aux_head, dom_head = plan.chains
    trunk_acts, aux_acts, dom_acts = acts
    to_aux, to_dom = plan.delta_rows
    np.matmul(_backward_chain(aux_head, aux_acts, d_aux), aux_head[0].weights, out=to_aux)
    np.matmul(_backward_chain(dom_head, dom_acts, d_dom), dom_head[0].weights, out=to_dom)
    _backward_chain(trunk, trunk_acts, plan.trunk_delta)
    return plan.grads


def backward_two_task(
    net: Network,
    cache: ForwardCache,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> TwoTaskGradients:
    """Each task's gradient at every layer, with one trunk walk for both.

    The loss weights are folded in here: the auxiliary task propagates
    (1-lam)*d(MSE), the dominant task lam*d(CE). Surgery downstream
    therefore sees exactly the gradients that would otherwise be summed.
    One fresh (2, trunk size) array holds the trunk's gradients and fresh
    arrays the heads'.
    """
    targets_clean, labels = _checked_targets(cache, targets_clean, labels, lam)
    if cache.net is not net:
        raise ValueError("cache was produced by a different network")
    plan = _StepPlan(net, TwoTaskGradients(
        trunk=layer_views(np.empty((2, chain_size(net.trunk))), net.trunk),
        aux_head=layer_views(np.empty(chain_size(net.aux_head)), net.aux_head),
        dom_head=layer_views(np.empty(chain_size(net.dom_head)), net.dom_head),
    ), labels.shape[0])
    _, _, d_aux, d_dom = _loss_and_deltas(
        cache.aux_out, cache.dom_logits, targets_clean, labels, plan.rows, lam)
    return _backward(plan, tuple(cache.acts[name] for name in _CHAIN_NAMES), d_aux, d_dom)


# --- checkpoint format -------------------------------------------------------
#
# Plain text, one section per chain:
#
#   gradremedy-net v1
#   <chain-name> <layer-count>
#   layer <out_dim> <in_dim> <activation>
#   <out_dim*in_dim weights, row-major, space-separated, %.17g>
#   <out_dim biases, space-separated, %.17g>
#
# %.17g round-trips float64 exactly, so save -> load is bit-identical.

_MAGIC = "gradremedy-net v1"


def _write_array(out: io.TextIOBase, values: np.ndarray) -> None:
    out.write(" ".join(f"{v:.17g}" for v in values.ravel(order="C")))
    out.write("\n")


def save_network(net: Network, path: str) -> None:
    """Write the checkpoint text format described above."""
    with open(path, "w", encoding="ascii") as out:
        out.write(_MAGIC + "\n")
        for name, chain in net.chains():
            out.write(f"{name} {len(chain)}\n")
            for layer in chain:
                out.write(
                    f"layer {layer.out_dim} {layer.in_dim} {layer.activation.value}\n"
                )
                _write_array(out, layer.weights)
                _write_array(out, layer.bias)


def load_network(path: str) -> Network:
    """Inverse of save_network; bit-identical parameters. A file that does
    not follow the format raises ValueError naming the path and, past the
    first line, the section."""
    with open(path, "r", encoding="ascii") as src:
        lines = src.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC!r} checkpoint")
    pos = 1
    chains: dict[str, list[Layer]] = {}
    for expected in _CHAIN_NAMES:
        try:
            chains[expected], pos = _read_chain(lines, pos, expected)
        except IndexError:
            raise ValueError(f"{path}: section {expected!r}: the file ends early") from None
        except ValueError as err:
            raise ValueError(f"{path}: section {expected!r}: {err}") from err
    if pos < len(lines):
        raise ValueError(
            f"{path}: content follows the last section {expected!r} at line {pos + 1}"
        )
    return Network(**chains)


def _read_chain(lines: list[str], pos: int, expected: str) -> tuple[list[Layer], int]:
    """The chain whose section starts at lines[pos], and the line after it."""
    name, count = lines[pos].split()
    if name != expected:
        raise ValueError(f"expected section {expected!r}, got {name!r}")
    pos += 1
    chain = []
    for _ in range(int(count)):
        tag, out_dim, in_dim, act = lines[pos].split()
        if tag != "layer":
            raise ValueError(f"malformed layer header {lines[pos]!r}")
        weights = np.array(lines[pos + 1].split(), dtype=np.float64)
        chain.append(Layer(
            weights=weights.reshape(int(out_dim), int(in_dim)),
            bias=np.array(lines[pos + 2].split(), dtype=np.float64),
            activation=Activation(act),
        ))
        pos += 3
    return chain, pos
