"""Feed-forward network with exact manual backprop for two-task training.

A shared ReLU trunk feeds two linear heads: a reconstruction head trained
with mean squared error against the clean signal (the auxiliary task) and a
classification head trained with softmax cross-entropy (the dominant task).
One pass computes both losses and both loss-weighted head deltas.
`backward_two_task` walks each head with its own task's delta, then walks
the trunk once with the two tasks' deltas stacked as (2, batch, width), so
each trunk layer ends up with two separate, loss-weighted gradients — the
raw material for gradient surgery — as the two rows of one array. Heads
only ever receive their own task's gradient.

The arithmetic lives in three cores that check nothing: `_forward`,
`_loss_and_deltas` and `_backward`. They read each Layer and the
LayerGrads its gradients go to directly. The public `forward`, `losses` and
`backward_two_task` check their inputs (the batch's rank and each layer's
input width; lam and the shapes of targets and labels; that the cache came
from this net) and then call the same cores; the trainer makes its checks
once per run, before the first step. `_check_widths` is the one statement
of the chaining rule: Network runs it when built, forward and train() on
their inputs' width.

Everything is plain float64 numpy; batches are (batch, dim) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .surgery import bound_errors, raise_if_any
from .synthdata import dataset_errors


@dataclass
class Layer:
    """One dense layer: x @ weights.T + bias, then its chain's activation.

    weights is (out_dim, in_dim), bias is (out_dim,). Parameters are mutable
    (the optimizer updates them in place); everything is float64.
    """

    weights: np.ndarray
    bias: np.ndarray

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

    The chain sets each layer's activation: every trunk layer ends in a
    ReLU, and every head layer is linear. The field order is the layout
    order of everything that walks the net: named_layers and the trainer's
    parameter buffer.
    """

    trunk: list[Layer]
    aux_head: list[Layer]
    dom_head: list[Layer]

    def __post_init__(self):
        for name, chain in self.chains():
            if not chain:
                raise ValueError(f"{name} must contain at least one layer")
        _check_widths(self, self.trunk[0].in_dim)

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
    rng = np.random.default_rng(seed)

    def dense(fan_in: int, fan_out: int) -> Layer:
        bound = 1.0 / np.sqrt(fan_in)
        return Layer(rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                     rng.uniform(-bound, bound, size=fan_out))

    widths = (in_dim, *trunk_widths)
    trunk = [dense(fan_in, fan_out) for fan_in, fan_out in zip(widths, widths[1:])]
    return Network(trunk=trunk, aux_head=[dense(widths[-1], in_dim)],
                   dom_head=[dense(widths[-1], num_classes)])


@dataclass
class ForwardCache:
    """Every activation backward_two_task needs, tied to the net that
    produced them. acts is _forward's tuple: each chain's activations in
    field order, the chain's input first, then each layer's output (a
    head's input is the trunk's output array itself)."""

    net: Network = field(repr=False)
    acts: tuple[list[np.ndarray], ...] = field(repr=False)

    @property
    def batch(self) -> np.ndarray:
        return self.acts[0][0]

    @property
    def trunk_out(self) -> np.ndarray:
        return self.acts[0][-1]

    @property
    def aux_out(self) -> np.ndarray:
        return self.acts[1][-1]

    @property
    def dom_logits(self) -> np.ndarray:
        return self.acts[2][-1]


class LayerGrads(NamedTuple):
    """Gradient arrays mirroring Layer.weights / Layer.bias."""

    weights: np.ndarray
    bias: np.ndarray


def _check_widths(net: Network, width: int) -> None:
    """The chaining rule: raise ValueError for the first layer, in walk
    order, whose input width differs from the width that reaches it from
    inputs this wide (each head's input is the trunk's output)."""
    for name, chain in net.chains():
        if chain is not net.trunk:
            width = net.trunk[-1].out_dim
        for i, layer in enumerate(chain):
            if width != layer.in_dim:
                raise ValueError(
                    f"{name}[{i}] expects input dim {layer.in_dim}, got {width}")
            width = layer.out_dim


def _forward_chain(chain: list[Layer], x: np.ndarray, relu: bool) -> list[np.ndarray]:
    acts = [x]
    for layer in chain:
        x = x @ layer.weights.T
        x += layer.bias
        if relu:
            np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def _forward(net: Network, x: np.ndarray) -> tuple[list[np.ndarray], ...]:
    """Each chain's activations, in field order: the trunk's feed each head.
    Expects widths that fit (forward and train() check them)."""
    acts = _forward_chain(net.trunk, x, True)
    return (acts, _forward_chain(net.aux_head, acts[-1], False),
            _forward_chain(net.dom_head, acts[-1], False))


def forward(net: Network, batch_inputs: np.ndarray) -> ForwardCache:
    """Run the batch through trunk and both heads, caching for backprop."""
    x = np.ascontiguousarray(batch_inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"batch_inputs must be 2-D (batch, dim), got ndim {x.ndim}")
    _check_widths(net, x.shape[1])
    return ForwardCache(net=net, acts=_forward(net, x))


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
    row_starts: np.ndarray,
    lam: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Both losses and both loss-weighted head deltas from one pass: the
    auxiliary delta (1-lam)*d(MSE)/d(aux_out) and the dominant delta
    lam*d(CE)/d(dom_logits). row_starts is _row_starts' offset of each row
    of dom_logits; the inputs are expected to fit (losses checks them)."""
    d_aux = aux_out - targets_clean  # the residual, scaled in place below
    loss_aux = _mean(d_aux * d_aux)
    d_aux *= (1.0 - lam) * 2.0
    d_aux /= d_aux.size
    shifted = dom_logits - np.maximum.reduce(dom_logits, axis=1, keepdims=True)
    d_dom = np.exp(shifted)  # normalized in place below
    z = np.add.reduce(d_dom, axis=1)
    picked = row_starts + labels  # each row's label logit, as a flat offset
    loss_dom = _mean(np.log(z) - shifted.take(picked))
    d_dom /= z[:, None]  # the softmax
    d_dom.ravel()[picked] -= 1.0  # ravel is a view: d_dom is contiguous
    d_dom *= lam
    d_dom /= d_dom.shape[0]
    return loss_aux, loss_dom, d_aux, d_dom


def _row_starts(batch: int, num_classes: int) -> np.ndarray:
    """Each row's flat offset in a (batch, num_classes) logits array, as
    _loss_and_deltas takes them."""
    return np.arange(batch) * num_classes


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
        _row_starts(*cache.dom_logits.shape), lam)
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


def _backward_chain(chain: list[Layer], grads: list[LayerGrads],
                    acts: list[np.ndarray], delta: np.ndarray, relu: bool) -> np.ndarray:
    """Walk one chain backward from d(loss)/d(output), given its forward
    activations, writing each layer's gradients into grads' arrays. delta
    is (batch, out_dim), or (tasks, batch, out_dim) with grads' arrays
    stacked the same way; relu is true for the trunk. Returns dz, the
    gradient at chain[0]'s pre-activation; dz @ chain[0].weights is
    d(loss)/d(input). A ReLU passes delta where its output is positive,
    which is exactly where its input was.

    The gate multiplies delta by the mask in place, with no branch per
    entry: the mask changes every step, and np.where, which branches on it,
    took three to four times as long on the default fixture's deltas.
    Overwriting delta is safe because the trunk's first delta is the
    caller's scratch buffer and every later one is a fresh dz @ W. Two
    results differ from a select: a gated entry whose delta is negative
    becomes -0.0, not +0.0, and a gated inf or nan delta becomes nan, not
    0. The latter needs a backward pass that has already overflowed, and
    the trainer's task-gradient scan reports it."""
    for i in range(len(chain) - 1, -1, -1):
        layer = chain[i]
        dz = np.multiply(delta, acts[i + 1] > 0.0, out=delta) if relu else delta
        np.matmul(dz.swapaxes(-1, -2), acts[i], out=grads[i].weights)
        np.add.reduce(dz, axis=-2, out=grads[i].bias)
        if i:
            delta = dz @ layer.weights
    return dz


def _backward(
    net: Network,
    grads: TwoTaskGradients,
    acts: tuple[list[np.ndarray], ...],
    d_aux: np.ndarray,
    d_dom: np.ndarray,
    trunk_delta: np.ndarray,
) -> TwoTaskGradients:
    """Write the gradients of the two head deltas into grads' arrays, given
    each chain's activations in field order: each head gets its own task's,
    and one trunk walk carries both tasks' deltas, stacked in trunk_delta,
    a (2, batch, trunk width) buffer."""
    trunk_acts, aux_acts, dom_acts = acts
    np.matmul(_backward_chain(net.aux_head, grads.aux_head, aux_acts, d_aux, False),
              net.aux_head[0].weights, out=trunk_delta[0])
    np.matmul(_backward_chain(net.dom_head, grads.dom_head, dom_acts, d_dom, False),
              net.dom_head[0].weights, out=trunk_delta[1])
    _backward_chain(net.trunk, grads.trunk, trunk_acts, trunk_delta, True)
    return grads


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
    grads = TwoTaskGradients(
        trunk=layer_views(np.empty((2, chain_size(net.trunk))), net.trunk),
        aux_head=layer_views(np.empty(chain_size(net.aux_head)), net.aux_head),
        dom_head=layer_views(np.empty(chain_size(net.dom_head)), net.dom_head),
    )
    _, _, d_aux, d_dom = _loss_and_deltas(
        cache.aux_out, cache.dom_logits, targets_clean, labels,
        _row_starts(*cache.dom_logits.shape), lam)
    return _backward(net, grads, cache.acts, d_aux, d_dom,
                     np.empty((2,) + cache.trunk_out.shape))
