"""Feed-forward network with exact manual backprop for two-task training.

A shared trunk feeds two heads: a reconstruction head trained with mean
squared error against the clean signal (the auxiliary task) and a
classification head trained with softmax cross-entropy (the dominant task).
`backward_two_task` runs one backward pass per task through the trunk, so
each trunk layer ends up with two separate, loss-weighted gradients — the
raw material for gradient surgery. Heads only ever receive their own task's
gradient.

Everything is plain float64 numpy; batches are (batch, dim) matrices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
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
    """Trunk shared by both tasks plus one private head per task."""

    trunk: list[Layer]
    aux_head: list[Layer]
    dom_head: list[Layer]

    def __post_init__(self):
        for name, chain in (
            ("trunk", self.trunk),
            ("aux_head", self.aux_head),
            ("dom_head", self.dom_head),
        ):
            if not chain:
                raise ValueError(f"{name} must contain at least one layer")
            for i in range(1, len(chain)):
                if chain[i].in_dim != chain[i - 1].out_dim:
                    raise ValueError(
                        f"{name}[{i}] expects input dim {chain[i].in_dim}, "
                        f"but {name}[{i - 1}] emits {chain[i - 1].out_dim}"
                    )
        trunk_out = self.trunk[-1].out_dim
        for name, chain in (("aux_head", self.aux_head), ("dom_head", self.dom_head)):
            if chain[0].in_dim != trunk_out:
                raise ValueError(
                    f"{name}[0] expects input dim {chain[0].in_dim}, "
                    f"but the trunk emits {trunk_out}"
                )

    @property
    def in_dim(self) -> int:
        return self.trunk[0].in_dim

    def named_layers(self) -> list[tuple[str, Layer]]:
        """All layers with stable names like 'trunk[0]', for tests/optimizers."""
        out = []
        for name, chain in (
            ("trunk", self.trunk),
            ("aux_head", self.aux_head),
            ("dom_head", self.dom_head),
        ):
            out.extend((f"{name}[{i}]", layer) for i, layer in enumerate(chain))
        return out


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
class ChainCache:
    """Per-layer inputs and pre-activations of one forward chain."""

    inputs: list[np.ndarray]
    pre_acts: list[np.ndarray]
    output: np.ndarray


@dataclass
class ForwardCache:
    """Everything backward_two_task needs, tied to the net that produced it."""

    net: Network = field(repr=False)
    batch: np.ndarray = field(repr=False)
    trunk: ChainCache = field(repr=False)
    aux: ChainCache = field(repr=False)
    dom: ChainCache = field(repr=False)

    @property
    def trunk_out(self) -> np.ndarray:
        return self.trunk.output

    @property
    def aux_out(self) -> np.ndarray:
        return self.aux.output

    @property
    def dom_logits(self) -> np.ndarray:
        return self.dom.output


def _forward_chain(chain: list[Layer], x: np.ndarray, name: str) -> ChainCache:
    inputs, pre_acts = [], []
    for i, layer in enumerate(chain):
        if x.shape[1] != layer.in_dim:
            raise ValueError(
                f"{name}[{i}] expects input dim {layer.in_dim}, got {x.shape[1]}"
            )
        z = x @ layer.weights.T + layer.bias
        inputs.append(x)
        pre_acts.append(z)
        x = np.maximum(z, 0.0) if layer.activation is Activation.RELU else z
    return ChainCache(inputs=inputs, pre_acts=pre_acts, output=x)


def forward(net: Network, batch_inputs: np.ndarray) -> ForwardCache:
    """Run the batch through trunk and both heads, caching for backprop."""
    x = np.ascontiguousarray(batch_inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"batch_inputs must be 2-D (batch, dim), got ndim {x.ndim}")
    trunk = _forward_chain(net.trunk, x, "trunk")
    aux = _forward_chain(net.aux_head, trunk.output, "aux_head")
    dom = _forward_chain(net.dom_head, trunk.output, "dom_head")
    return ForwardCache(net=net, batch=x, trunk=trunk, aux=aux, dom=dom)


class LayerGrads(NamedTuple):
    """Gradient arrays mirroring Layer.weights / Layer.bias."""

    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class LossBundle:
    """Both task losses plus their weighted combination.

    loss_total = (1 - lam) * loss_aux + lam * loss_dom, where lam is the
    dominant-task weight.
    """

    loss_aux: float
    loss_dom: float
    loss_total: float


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element of the batch."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of softmax(logits) against integer class labels."""
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"batch mismatch: {logits.shape[0]} logits vs {labels.shape[0]} labels"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(log_z - picked))


def losses(
    cache: ForwardCache,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> LossBundle:
    loss_aux = mse_loss(cache.aux_out, targets_clean)
    loss_dom = softmax_cross_entropy(cache.dom_logits, labels)
    return LossBundle(
        loss_aux=loss_aux,
        loss_dom=loss_dom,
        loss_total=(1.0 - lam) * loss_aux + lam * loss_dom,
    )


@dataclass(frozen=True)
class TwoTaskGradients:
    """Per-layer gradients: two lists for the shared trunk, one per head.

    trunk_aux[i] is the gradient of (1-lam)*MSE at trunk layer i; trunk_dom[i]
    the gradient of lam*CE. Head gradients carry only their own task's loss,
    already weighted the same way.
    """

    trunk_aux: list[LayerGrads]
    trunk_dom: list[LayerGrads]
    aux_head: list[LayerGrads]
    dom_head: list[LayerGrads]


def _backward_chain(
    chain: list[Layer],
    cache: ChainCache,
    delta: np.ndarray,
    out: list[LayerGrads] | None,
) -> tuple[list[LayerGrads], np.ndarray]:
    """Walk one chain backward from d(loss)/d(output). Returns per-layer
    grads (written into `out`'s arrays when given) and dz, the gradient at
    chain[0]'s pre-activation; dz @ chain[0].weights is d(loss)/d(input)."""
    if out is None:
        out = [LayerGrads(np.empty_like(layer.weights), np.empty_like(layer.bias))
               for layer in chain]
    for i in range(len(chain) - 1, -1, -1):
        layer = chain[i]
        z = cache.pre_acts[i]
        dz = np.where(z > 0.0, delta, 0.0) if layer.activation is Activation.RELU else delta
        np.matmul(dz.T, cache.inputs[i], out=out[i].weights)
        np.add.reduce(dz, axis=0, out=out[i].bias)
        if i:
            delta = dz @ layer.weights
    return out, dz


def backward_two_task(
    net: Network,
    cache: ForwardCache,
    targets_clean: np.ndarray,
    labels: np.ndarray,
    lam: float,
    out: TwoTaskGradients | None = None,
) -> TwoTaskGradients:
    """Two separate backward passes, one per task, through the shared trunk.

    The loss weights are folded in here: the auxiliary pass propagates
    (1-lam)*d(MSE), the dominant pass lam*d(CE). Surgery downstream therefore
    sees exactly the gradients that would otherwise be summed.

    With `out`, every gradient is written into its arrays (the trainer's
    buffer views) and `out` is returned; otherwise fresh arrays are made.
    """
    if cache.net is not net:
        raise ValueError("cache was produced by a different network")
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

    # auxiliary task: (1-lam) * MSE
    d_aux = (1.0 - lam) * 2.0 * (cache.aux_out - targets_clean) / cache.aux_out.size
    aux_head_grads, dz_aux = _backward_chain(
        net.aux_head, cache.aux, d_aux, out and out.aux_head)
    trunk_aux, _ = _backward_chain(
        net.trunk, cache.trunk, dz_aux @ net.aux_head[0].weights,
        out and out.trunk_aux)

    # dominant task: lam * cross-entropy
    p = _softmax(cache.dom_logits)
    p[np.arange(p.shape[0]), labels] -= 1.0
    d_dom = lam * p / p.shape[0]
    dom_head_grads, dz_dom = _backward_chain(
        net.dom_head, cache.dom, d_dom, out and out.dom_head)
    trunk_dom, _ = _backward_chain(
        net.trunk, cache.trunk, dz_dom @ net.dom_head[0].weights,
        out and out.trunk_dom)

    return out or TwoTaskGradients(
        trunk_aux=trunk_aux,
        trunk_dom=trunk_dom,
        aux_head=aux_head_grads,
        dom_head=dom_head_grads,
    )


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
        for name, chain in (
            ("trunk", net.trunk),
            ("aux_head", net.aux_head),
            ("dom_head", net.dom_head),
        ):
            out.write(f"{name} {len(chain)}\n")
            for layer in chain:
                out.write(
                    f"layer {layer.out_dim} {layer.in_dim} {layer.activation.value}\n"
                )
                _write_array(out, layer.weights)
                _write_array(out, layer.bias)


def load_network(path: str) -> Network:
    """Inverse of save_network; bit-identical parameters."""
    with open(path, "r", encoding="ascii") as src:
        lines = src.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC!r} checkpoint")
    pos = 1
    chains: dict[str, list[Layer]] = {}
    for expected in ("trunk", "aux_head", "dom_head"):
        name, count = lines[pos].split()
        if name != expected:
            raise ValueError(f"{path}: expected section {expected!r}, got {name!r}")
        pos += 1
        chain = []
        for _ in range(int(count)):
            tag, out_dim, in_dim, act = lines[pos].split()
            if tag != "layer":
                raise ValueError(f"{path}: malformed layer header {lines[pos]!r}")
            out_dim, in_dim = int(out_dim), int(in_dim)
            weights = np.array(lines[pos + 1].split(), dtype=np.float64)
            bias = np.array(lines[pos + 2].split(), dtype=np.float64)
            chain.append(
                Layer(
                    weights=weights.reshape(out_dim, in_dim),
                    bias=bias,
                    activation=Activation(act),
                )
            )
            pos += 3
        chains[expected] = chain
    return Network(
        trunk=chains["trunk"],
        aux_head=chains["aux_head"],
        dom_head=chains["dom_head"],
    )
