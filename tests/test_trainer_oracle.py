"""Differential oracle: train() against a plain reference trainer.

The reference trainer is built the way the loop looked before parameters
moved into one flat buffer and the two tasks shared one trunk backward:

- its own forward, losses and backward, one task at a time: the MSE delta
  is (1-lam)*2.0*diff/size, the cross-entropy delta comes from a separate
  softmax, and each layer's weight gradient is the 2-D dz.T @ act;
- remedy_layer on each trunk layer's GradientVector pair, its weights then
  its bias, concatenated;
- one SGD or Adam state per parameter array.

Hypothesis draws the network shape, the data, the schedule, the strategy
and the optimizer. Every StepStats field, every epoch row, the rescale
telemetry and the final parameters must be equal, not merely close: both
trainers apply the same per-element operations in the same order. A run
that goes non-finite must raise in both.

The reference shares the data stream and the surgery math (the planner
and the Gram triple) with the system, so for surgery this checks the
plumbing around it; the acceptance gates check that math against an
independent rotation oracle. The network arithmetic is the reference's
own, so the stacked two-task backward is checked bit for bit.
"""

import copy
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradremedy import (
    EpochStats,
    GradientVector,
    OptimizerKind,
    RatioRule,
    RemedyConfig,
    StepStats,
    Strategy,
    TaskGradients,
    TrainConfig,
    TrainResult,
    TwoTaskDataset,
    init_network,
    remedy_layer,
    train,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _layer_pair(aux, dom):
    """The (aux, dom) GradientVector pair of one trunk layer; aux and dom
    are (weights, bias) gradients."""
    flat = [np.concatenate([g[0].ravel(), g[1]]) for g in (aux, dom)]
    return TaskGradients(*(GradientVector(v, v.shape) for v in flat))


def _forward(net, x):
    """Each chain's activations: its input, then each layer's output."""
    acts = {}
    for name, chain in net.chains():
        acts[name] = [acts["trunk"][-1] if acts else x]
        for layer in chain:
            z = acts[name][-1] @ layer.weights.T + layer.bias
            acts[name].append(np.maximum(z, 0.0) if name == "trunk" else z)
    return acts


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _losses(acts, clean, labels):
    """(MSE, cross-entropy) of one batch."""
    diff = acts["aux_head"][-1] - clean
    logits = acts["dom_head"][-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(diff * diff)), float(np.mean(log_z - picked))


def _chain_backward(chain, acts, delta, relu):
    """Per-layer (weights, bias) gradients of one chain, and d(loss)/d(input);
    relu is true for the trunk, whose layers end in a ReLU."""
    grads = [None] * len(chain)
    for i in range(len(chain) - 1, -1, -1):
        layer = chain[i]
        dz = np.where(acts[i + 1] > 0.0, delta, 0.0) if relu else delta
        grads[i] = (dz.T @ acts[i], np.add.reduce(dz, axis=0))
        delta = dz @ layer.weights
    return grads, delta


def _backward(net, acts, clean, labels, lam):
    """One backward pass per task: ([(aux, dom) per trunk layer], head grads)."""
    aux_out = acts["aux_head"][-1]
    d_aux = (1.0 - lam) * 2.0 * (aux_out - clean) / aux_out.size
    p = _softmax(acts["dom_head"][-1])
    p[np.arange(p.shape[0]), labels] -= 1.0
    d_dom = lam * p / p.shape[0]
    heads, trunks = [], []
    for head, delta in (("aux_head", d_aux), ("dom_head", d_dom)):
        head_grads, delta = _chain_backward(getattr(net, head), acts[head], delta, False)
        heads += head_grads
        trunks.append(_chain_backward(net.trunk, acts["trunk"], delta, True)[0])
    return list(zip(*trunks)), heads


def _accuracy(net, batches):
    correct = sum(int((_forward(net, b.noisy)["dom_head"][-1].argmax(axis=1)
                       == b.labels).sum()) for b in batches)
    return correct / sum(len(b) for b in batches)


def _mean_in_order(values):
    """The mean of values, added left to right from 0.0: what train()
    promises on any Python version, where sum() of floats may compensate."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _epoch_row(epoch, steps, accuracy):
    """The EpochStats of one epoch's steps."""
    return EpochStats(
        epoch=epoch,
        pct_conflicting=_mean_in_order(
            [100.0 * s.conflicting_post / s.layers_total for s in steps]),
        pct_wrongly_dominant=_mean_in_order(
            [100.0 * s.wrongly_dominant / s.layers_total for s in steps]),
        loss_aux=_mean_in_order([s.loss_aux for s in steps]),
        loss_dom=_mean_in_order([s.loss_dom for s in steps]),
        eval_accuracy=accuracy,
    )


def reference_train(config: TrainConfig, data: TwoTaskDataset, net) -> TrainResult:
    """train()'s schedule with per-array gradients and optimizer state."""
    arrays = [a for _, layer in net.named_layers() for a in (layer.weights, layer.bias)]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    eval_set = [data.eval_batch(config.batch_size, j) for j in range(config.eval_batches)]
    steps, epochs = [], []
    ratios = []  # every applied rescale ratio, in step and unit order
    lr = config.learning_rate
    for epoch in range(config.epochs):
        for b in range(config.batches_per_epoch):
            step = epoch * config.batches_per_epoch + b
            batch = data.train_batch(config.batch_size, step)
            acts = _forward(net, batch.noisy)
            loss_aux, loss_dom = _losses(acts, batch.clean, batch.labels)
            trunk, heads = _backward(net, acts, batch.clean, batch.labels, config.lam)

            outcomes, layer_grads = [], []
            for aux, dom in trunk:
                outcome = remedy_layer(_layer_pair(aux, dom), config.remedy)
                outcomes.append(outcome)
                total = outcome.g_total.values
                shape = aux[0].shape
                layer_grads += [total[:aux[0].size].reshape(shape), total[aux[0].size:]]
            for weights, bias in heads:
                layer_grads += [weights, bias]

            for array, grad, (m, v) in zip(arrays, layer_grads, moments):
                if config.optimizer is OptimizerKind.SGD:
                    array -= lr * grad
                    continue
                m *= BETA1
                m += (1.0 - BETA1) * grad
                v *= BETA2
                v += (1.0 - BETA2) * grad * grad
                m_hat = m / (1.0 - BETA1 ** (step + 1))
                v_hat = v / (1.0 - BETA2 ** (step + 1))
                array -= lr * m_hat / (np.sqrt(v_hat) + EPS)

            phis = [o.phi for o in outcomes if o.phi is not None]
            ratios += [o.r_applied for o in outcomes if o.r_applied is not None]
            steps.append(StepStats(
                epoch=epoch,
                batch=b,
                layers_total=len(outcomes),
                conflicting_pre=sum(o.was_conflicting for o in outcomes),
                conflicting_post=sum(o.conflicting_post for o in outcomes),
                wrongly_dominant=sum(o.wrongly_dominant_post for o in outcomes),
                mean_phi_rad=_mean_in_order(phis) if phis else math.nan,
                loss_aux=loss_aux,
                loss_dom=loss_dom,
            ))
        epochs.append(_epoch_row(epoch, steps[epoch * config.batches_per_epoch:],
                                 _accuracy(net, eval_set)))
    return TrainResult(epochs, steps, len(ratios),
                       _mean_in_order(ratios) if ratios else None)


def _outcome(trainer, config, data, net):
    """trainer's result, or the error it raised on a non-finite value (a
    numpy overflow warning is an error under this suite's settings)."""
    try:
        return trainer(config, data, net)
    except (RuntimeError, ValueError, RuntimeWarning) as err:
        return err


def _rows(records):
    """Records as tuples, with nan made comparable."""
    return [tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                  for v in tuple(r)) for r in records]


@st.composite
def runs(draw):
    dim = draw(st.integers(2, 6))
    classes = draw(st.integers(2, 4))
    widths = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    strategy = draw(st.sampled_from(Strategy))
    remedy = RemedyConfig(
        strategy=strategy,
        fixed_theta=math.radians(draw(st.sampled_from([10.0, 36.0, 90.0]))),
        dominance_k=draw(st.sampled_from([1.5, 5.0])),
        ratio_rule=draw(st.sampled_from(RatioRule)),
        rescale_enabled=draw(st.booleans()),
    )
    optimizer = draw(st.sampled_from(OptimizerKind))
    config = TrainConfig(
        remedy=remedy,
        lam=draw(st.sampled_from([0.0, 0.2, 0.7, 1.0])),
        epochs=draw(st.integers(1, 3)),
        batches_per_epoch=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(1, 8)),
        learning_rate=draw(st.sampled_from([1e-3, 5e-3])),
        optimizer=optimizer,
        eval_batches=draw(st.integers(1, 2)),
    )
    data = TwoTaskDataset(
        seed=draw(st.integers(0, 3)),
        num_classes=classes,
        dim=dim,
        snr_db=draw(st.sampled_from([-5.0, 0.0, 10.0])),
        jitter_std=draw(st.sampled_from([0.05, 4.0])),
        template_scale=draw(st.floats(0.5, 30.0)),
    )
    net_seed = draw(st.integers(0, 3))
    return config, data, init_network(net_seed, dim, widths, classes)


# an SGD rate no draw reaches, so that one run blows up in both trainers
DIVERGING = (
    TrainConfig(optimizer=OptimizerKind.SGD, learning_rate=1e3, epochs=1,
                batches_per_epoch=6, batch_size=4, eval_batches=1),
    TwoTaskDataset(seed=0, num_classes=2, dim=3, snr_db=0.0, template_scale=30.0),
    init_network(0, 3, (4,), 2),
)


# tests/test_golden.py's rescale case, on which gradient-remedy rescales
RESCALING = (
    TrainConfig(remedy=RemedyConfig(strategy=Strategy.GRADIENT_REMEDY),
                optimizer=OptimizerKind.SGD, learning_rate=5e-3, epochs=3,
                batches_per_epoch=5, batch_size=16, eval_batches=1),
    TwoTaskDataset(seed=1, num_classes=3, dim=8, snr_db=0.0, jitter_std=4.0,
                   template_scale=30.0),
    init_network(1, 8, (6, 5), 3),
)


def test_train_matches_the_reference_trainer():
    seen = set()  # the oracle is only as strong as its draws

    @SETTINGS
    @example(DIVERGING)
    @example(RESCALING)
    @given(runs())
    def check(run):
        config, data, net = run
        reference = copy.deepcopy(net)
        got = _outcome(train, config, data, net)
        want = _outcome(reference_train, config, data, reference)
        # a run that goes non-finite must stop in both trainers
        assert isinstance(got, Exception) == isinstance(want, Exception), (got, want)
        seen.add("finite" if isinstance(got, TrainResult) else "raised")
        if not isinstance(got, TrainResult):
            return
        assert _rows(got.step_stats) == _rows(want.step_stats)
        assert _rows(got.epoch_stats) == _rows(want.epoch_stats)
        assert (got.rescale_events, got.mean_r_applied) == (
            want.rescale_events, want.mean_r_applied)
        for (name, a), (_, b) in zip(net.named_layers(), reference.named_layers()):
            assert np.array_equal(a.weights, b.weights), name
            assert np.array_equal(a.bias, b.bias), name
        seen.add(config.remedy.strategy)
        if got.rescale_events > 0:
            seen.add("rescale")

    check()
    assert seen >= set(Strategy) | {"rescale", "finite", "raised"}
