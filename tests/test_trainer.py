"""Training loop: exact optimizer steps, surgery wiring, stats, CSV output."""

import copy
import inspect
import math
import sys
from dataclasses import dataclass, fields, make_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradremedy
import gradremedy.trainer as trainer_module
from gradremedy import (
    EpochStats,
    Layer,
    Network,
    OptimizerKind,
    RemedyConfig,
    Strategy,
    TrainConfig,
    TwoTaskDataset,
    backward_two_task,
    evaluate,
    forward,
    init_network,
    train,
    write_steps_csv,
)
from gradremedy.trainer import write_csv

DIM, CLASSES = 8, 3


def make_dataset(seed=1, **kw):
    kw.setdefault("snr_db", 0.0)
    return TwoTaskDataset(seed=seed, num_classes=CLASSES, dim=DIM, **kw)


def make_net(seed=1):
    return init_network(seed=seed, in_dim=DIM, trunk_widths=(6, 5), num_classes=CLASSES)


def tiny_config(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batches_per_epoch", 5)
    kw.setdefault("batch_size", 16)
    kw.setdefault("eval_batches", 1)
    return TrainConfig(**kw)


def test_single_sgd_step_matches_manual_update():
    config = tiny_config(
        epochs=1,
        batches_per_epoch=1,
        remedy=RemedyConfig(strategy=Strategy.NAIVE_SUM),
        optimizer=OptimizerKind.SGD,
        learning_rate=0.05,
        lam=0.7,
    )
    data = make_dataset()
    net = make_net()
    expected = copy.deepcopy(net)

    batch = data.train_batch(config.batch_size, 0)
    cache = forward(expected, batch.noisy)
    grads = backward_two_task(expected, cache, batch.clean, batch.labels, 0.7)
    for i, layer in enumerate(expected.trunk):
        layer.weights -= 0.05 * (grads.trunk_aux[i].weights + grads.trunk_dom[i].weights)
        layer.bias -= 0.05 * (grads.trunk_aux[i].bias + grads.trunk_dom[i].bias)
    expected.aux_head[0].weights -= 0.05 * grads.aux_head[0].weights
    expected.aux_head[0].bias -= 0.05 * grads.aux_head[0].bias
    expected.dom_head[0].weights -= 0.05 * grads.dom_head[0].weights
    expected.dom_head[0].bias -= 0.05 * grads.dom_head[0].bias

    train(config, data, net)
    for (_, got), (_, want) in zip(net.named_layers(), expected.named_layers()):
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.bias, want.bias)


def test_warmup_scales_the_first_update():
    config = tiny_config(
        epochs=1,
        batches_per_epoch=1,
        remedy=RemedyConfig(strategy=Strategy.NAIVE_SUM),
        optimizer=OptimizerKind.SGD,
        learning_rate=0.4,
        warmup_steps=4,
    )
    reference = tiny_config(
        epochs=1,
        batches_per_epoch=1,
        remedy=RemedyConfig(strategy=Strategy.NAIVE_SUM),
        optimizer=OptimizerKind.SGD,
        learning_rate=0.1,  # 0.4 * (1/4): warmup fraction of step 0
    )
    warmed, plain = make_net(), make_net()
    train(config, make_dataset(), warmed)
    train(reference, make_dataset(), plain)
    np.testing.assert_allclose(
        warmed.trunk[0].weights, plain.trunk[0].weights, rtol=0, atol=1e-15
    )


def test_training_is_deterministic():
    results = []
    for _ in range(2):
        net = make_net()
        results.append(train(tiny_config(), make_dataset(), net))
    assert results[0].epoch_stats == results[1].epoch_stats
    assert results[0].step_stats == results[1].step_stats


@pytest.mark.parametrize(
    "strategy",
    [Strategy.PCGRAD, Strategy.FIXED_THETA, Strategy.GRADIENT_REMEDY],
)
def test_projecting_strategies_leave_no_conflict_behind(strategy):
    config = tiny_config(remedy=RemedyConfig(strategy=strategy))
    result = train(config, make_dataset(), make_net())
    assert all(s.conflicting_post == 0 for s in result.step_stats)
    assert all(e.pct_conflicting == 0.0 for e in result.epoch_stats)


def test_naive_sum_keeps_its_conflicts():
    config = tiny_config(
        epochs=3, remedy=RemedyConfig(strategy=Strategy.NAIVE_SUM)
    )
    result = train(config, make_dataset(), make_net())
    assert all(
        s.conflicting_post == s.conflicting_pre for s in result.step_stats
    )
    assert any(s.conflicting_pre > 0 for s in result.step_stats)


def test_lambda_one_silences_the_auxiliary_task():
    # the auxiliary gradient is exactly zero, so no pair can conflict or
    # dominate and the remedy passes everything through
    config = tiny_config(lam=1.0)
    result = train(config, make_dataset(), make_net())
    assert all(s.conflicting_pre == 0 for s in result.step_stats)
    assert all(s.wrongly_dominant == 0 for s in result.step_stats)
    assert all(math.isnan(s.mean_phi_rad) for s in result.step_stats)


def test_bias_separate_doubles_the_unit_count():
    joint = train(tiny_config(), make_dataset(), make_net())
    split = train(tiny_config(bias_separate=True), make_dataset(), make_net())
    assert joint.step_stats[0].layers_total == 2
    assert split.step_stats[0].layers_total == 4


def test_rescale_telemetry_is_recorded():
    # heavy jitter + large templates drive the auxiliary norm over K
    data = make_dataset(jitter_std=4.0, template_scale=30.0)
    config = tiny_config(
        epochs=3,
        optimizer=OptimizerKind.SGD,
        learning_rate=5e-3,
    )
    remedied = train(config, data, make_net())
    assert remedied.rescale_events > 0
    assert 0.0 < remedied.mean_r_applied <= 1.0

    no_rescale = tiny_config(
        epochs=3,
        remedy=RemedyConfig(rescale_enabled=False),
        optimizer=OptimizerKind.SGD,
        learning_rate=5e-3,
    )
    projected = train(no_rescale, data, make_net())
    assert projected.rescale_events == 0
    assert projected.mean_r_applied is None


def test_adam_changes_parameters_and_evaluates():
    net = make_net()
    before = net.trunk[0].weights.copy()
    config = tiny_config(
        optimizer=OptimizerKind.ADAM,
        learning_rate=1e-2,
        epochs=5,
        batches_per_epoch=10,
    )
    result = train(config, make_dataset(), net)
    assert not np.array_equal(before, net.trunk[0].weights)
    for e in result.epoch_stats:
        assert 0.0 <= e.eval_accuracy <= 1.0
    assert result.epoch_stats[-1].eval_accuracy > 1.0 / CLASSES


def test_evaluate_counts_over_all_batches():
    net = make_net()
    data = make_dataset()
    batches = [data.eval_batch(16, j) for j in range(3)]
    accuracy = evaluate(net, batches)
    assert 0.0 <= accuracy <= 1.0
    # equal batch sizes: the pooled accuracy is the mean of the per-batch ones
    assert accuracy * 3 == pytest.approx(sum(evaluate(net, [b]) for b in batches))
    # running only the trunk and the dominant head gives the full forward's logits
    correct = sum(int((forward(net, b.noisy).dom_logits.argmax(axis=1) == b.labels).sum())
                  for b in batches)
    assert accuracy == correct / 48


def test_nonfinite_loss_aborts_with_location():
    config = tiny_config(optimizer=OptimizerKind.SGD, learning_rate=1e8)
    with pytest.raises(RuntimeError, match="non-finite loss at epoch"):
        train(config, make_dataset(), make_net())


def test_nonfinite_parameters_after_an_epoch_are_located_before_evaluation():
    # the run's one update overflows, so no later step's loss check sees it
    config = tiny_config(optimizer=OptimizerKind.SGD, learning_rate=1e308,
                         epochs=1, batches_per_epoch=1)
    with pytest.raises(ValueError, match=r"^non-finite parameter in trunk\[0\] "
                       r"at epoch 0, batch 0 \(entry 20 of 54: -inf\)$"):
        train(config, make_dataset(template_scale=30.0), make_net())


def _layer(out_dim, in_dim):
    return Layer(np.zeros((out_dim, in_dim)), np.zeros(out_dim))


@pytest.mark.parametrize(
    "swap, message",
    [
        (lambda n: Network([_layer(6, 7), *n.trunk[1:]], n.aux_head, n.dom_head),
         "trunk[0] takes inputs of width 7, but the dataset has dim 8"),
        (lambda n: Network(n.trunk, [_layer(9, 5)], n.dom_head),
         "aux_head[0] emits 9, but the dataset has dim 8"),
        (lambda n: Network(n.trunk, n.aux_head, [_layer(4, 5)]),
         "dom_head[0] emits 4, but the dataset has num_classes 3"),
        (lambda n: init_network(seed=1, in_dim=5, trunk_widths=(4,), num_classes=2),
         "trunk[0] takes inputs of width 5, but the dataset has dim 8; "
         "aux_head[0] emits 5, but the dataset has dim 8; "
         "dom_head[0] emits 2, but the dataset has num_classes 3"),
    ],
    ids=["trunk-input", "aux-output", "dom-output", "all-three"],
)
def test_a_net_that_does_not_fit_the_dataset_is_refused_before_training(swap, message):
    net = swap(make_net())
    arrays = [(layer.weights, layer.bias) for _, layer in net.named_layers()]
    with pytest.raises(ValueError) as caught:
        train(tiny_config(), make_dataset(), net)
    assert str(caught.value) == message
    assert all(layer.weights is w and layer.bias is b
               for (_, layer), (w, b) in zip(net.named_layers(), arrays))


@pytest.mark.parametrize("chain, index, layer, message", [
    ("trunk", 1, _layer(5, 4), "trunk[1] expects input dim 4, got 6"),
    ("dom_head", 0, _layer(3, 4), "dom_head[0] expects input dim 4, got 5"),
], ids=["trunk", "head"])
def test_a_net_whose_layers_stopped_chaining_is_refused_before_training(
        chain, index, layer, message):
    # one chaining rule: a layer swapped in after construction gets the
    # message building a net with it gets, from train(), evaluate() and forward
    net = make_net()
    getattr(net, chain)[index] = layer
    arrays = [(layer.weights, layer.bias) for _, layer in net.named_layers()]
    for run in (lambda: train(tiny_config(), make_dataset(), net),
                lambda: evaluate(net, [make_dataset().eval_batch(4)]),
                lambda: forward(net, make_dataset().eval_batch(4).noisy),
                lambda: Network(net.trunk, net.aux_head, net.dom_head)):
        with pytest.raises(ValueError) as caught:
            run()
        assert str(caught.value) == message
    assert all(layer.weights is w and layer.bias is b
               for (_, layer), (w, b) in zip(net.named_layers(), arrays))


def test_one_scan_predicate_serves_both_limits():
    arena = trainer_module._Arena(make_net(), bias_separate=False)
    adam = trainer_module._ADAM_LIMIT
    arena.total[...] = 0.0
    arena.total[7] = 1e300
    arena.check_finite(arena.total, None, 2, 3)  # finite entries pass under SGD
    with pytest.raises(ValueError) as caught:
        arena.check_finite(arena.total, None, 2, 3, adam)
    assert str(caught.value) == (
        "post-surgery total gradient too large for Adam (above 1.34078e+154) "
        "in trunk[0] at epoch 2, batch 3 (entry 7 of 54: 1e+300)")
    for value in (np.nan, np.inf, -np.inf):
        arena.total[7] = value
        for limit in (trainer_module._FLOAT64_MAX, adam):
            with pytest.raises(ValueError) as caught:
                arena.check_finite(arena.total, None, 2, 3, limit)
            assert str(caught.value) == (
                "non-finite post-surgery total gradient in trunk[0] at epoch 2, "
                f"batch 3 (entry 7 of 54: {value})")


def test_an_overflowing_sum_of_squares_falls_back_to_the_exact_test():
    # the fast scan is a sum of squares; entries all within sqrt(float64
    # max) can overflow it, and the exact test must then pass them
    arena = trainer_module._Arena(make_net(), bias_separate=False)
    adam = trainer_module._ADAM_LIMIT
    arena.total[...] = 1e154
    arena.total[7] = adam
    arena.total[9] = -adam
    assert not math.isfinite(np.vdot(arena.total, arena.total))
    for limit in (trainer_module._FLOAT64_MAX, adam):
        arena.check_finite(arena.total, None, 2, 3, limit)


def _poison_epoch_1_batch_1(monkeypatch, poison, value):
    """Have trainer._backward set entry 1 of poison(grads) to value on the
    seventh step: epoch 1, batch 1 at five batches per epoch."""
    real_backward = trainer_module._backward
    calls = []

    def poisoned(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        calls.append(None)
        if len(calls) == 7:
            poison(grads).flat[1] = value
        return grads

    monkeypatch.setattr(trainer_module, "_backward", poisoned)


@pytest.mark.parametrize(
    "bias_separate, poison, message",
    [
        (False, lambda g: g.trunk_dom[1].bias, r"dominant-task gradient in trunk\[1\] "),
        (True, lambda g: g.trunk_dom[1].bias, r"dominant-task gradient in trunk\[1\]\.bias "),
        (True, lambda g: g.trunk_aux[0].weights, r"auxiliary-task gradient in trunk\[0\]\.weights "),
        (False, lambda g: g.aux_head[0].weights, r"auxiliary-task gradient in aux_head\[0\] "),
    ],
    ids=["trunk-layer", "trunk-bias", "trunk-weights", "head"],
)
def test_nonfinite_gradient_names_task_unit_epoch_and_batch(
    monkeypatch, bias_separate, poison, message
):
    _poison_epoch_1_batch_1(monkeypatch, poison, np.inf)
    with pytest.raises(ValueError, match=message + "at epoch 1, batch 1"):
        train(tiny_config(bias_separate=bias_separate), make_dataset(), make_net())


@pytest.mark.parametrize(
    "poison, message",
    [
        (lambda g: g.trunk_dom[1].bias, r"post-surgery total gradient too large for Adam "
                                        r"\(above 1\.34078e\+154\) in trunk\[1\] "),
        (lambda g: g.aux_head[0].weights, r"auxiliary-task gradient too large for Adam "
                                          r"\(above 1\.34078e\+154\) in aux_head\[0\] "),
    ],
    ids=["trunk", "head"],
)
def test_gradient_too_large_for_adam_names_gradient_unit_epoch_and_batch(
    monkeypatch, poison, message
):
    # Adam squares each entry: 1e160 would overflow v to inf and freeze the
    # parameter while every value stays finite
    _poison_epoch_1_batch_1(monkeypatch, poison, 1e160)
    with pytest.raises(ValueError, match=message + r"at epoch 1, batch 1 \(entry "):
        train(tiny_config(optimizer=OptimizerKind.ADAM), make_dataset(), make_net())


def _reference_adam_steps(params, grads_per_step, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with one (m, v, t) per parameter array, as the trainer once kept it."""
    state = [(np.zeros_like(p), np.zeros_like(p), 0) for p in params]
    for grads, lr in zip(grads_per_step, lrs):
        for i, (param, grad) in enumerate(zip(params, grads)):
            m, v, t = state[i]
            t += 1
            state[i] = (m, v, t)
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_matches_per_array_adam_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(6, 8), (6,), (5, 6), (5,), (3, 5), (3,)]
    params = [rng.standard_normal(shape) for shape in shapes]
    steps = [[rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
             for _ in range(7)]
    lrs = [1e-2 * min(1.0, (k + 1) / 4) for k in range(len(steps))]  # warmup over 4

    flat = np.concatenate([p.ravel() for p in params])
    adam = trainer_module.Adam(lrs[0])
    for grads, lr in zip(steps, lrs):
        adam.lr = lr
        adam.step(flat, np.concatenate([g.ravel() for g in grads]))
    _reference_adam_steps(params, steps, lrs)
    assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))


def _assert_same_parameters(a, b):
    for (name, x), (_, y) in zip(a.named_layers(), b.named_layers()):
        assert np.array_equal(x.weights, y.weights), name
        assert np.array_equal(x.bias, y.bias), name


def test_copied_and_reloaded_nets_train_like_the_original():
    config = tiny_config(warmup_steps=3)
    original = make_net()
    train(config, make_dataset(), original)  # its arrays are now arena views
    copied = copy.deepcopy(original)
    for net in (original, copied):
        train(config, make_dataset(), net)
    _assert_same_parameters(copied, original)


def test_training_twice_continues_from_the_trained_parameters():
    config = tiny_config(bias_separate=True)
    net = make_net()
    train(config, make_dataset(), net)
    after_first = copy.deepcopy(net)
    restarted = copy.deepcopy(net)
    train(config, make_dataset(), net)
    train(config, make_dataset(), restarted)
    _assert_same_parameters(net, restarted)
    assert not np.array_equal(net.trunk[0].weights, after_first.trunk[0].weights)


def test_trained_layer_arrays_keep_their_shapes_and_are_contiguous():
    net = make_net()
    shapes = [(layer.weights.shape, layer.bias.shape) for _, layer in net.named_layers()]
    train(tiny_config(), make_dataset(), net)
    assert [(layer.weights.shape, layer.bias.shape)
            for _, layer in net.named_layers()] == shapes
    for name, layer in net.named_layers():
        assert layer.weights.flags.c_contiguous and layer.bias.flags.c_contiguous, name
        assert layer.weights.dtype == layer.bias.dtype == np.float64, name


def test_every_package_export_resolves_once():
    names = gradremedy.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(gradremedy, n)] == []
    public = {n for n, value in vars(gradremedy).items()
              if not n.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - set(names)) == []


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        tiny_config(learning_rate=0.0)
    with pytest.raises(ValueError, match="lam"):
        tiny_config(lam=-0.1)
    with pytest.raises(ValueError, match="epochs"):
        tiny_config(epochs=0)
    with pytest.raises(ValueError, match="warmup_steps"):
        tiny_config(warmup_steps=-1)


def test_steps_csv_format(tmp_path):
    result = train(tiny_config(), make_dataset(), make_net())
    path = tmp_path / "steps.csv"
    write_steps_csv(result.step_stats, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "epoch,batch,layers_total,conflicting_pre,conflicting_post,"
        "wrongly_dominant,mean_phi_rad,loss_aux,loss_dom"
    )
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[8]) > 0.0


def test_epochs_csv_format(tmp_path):
    result = train(tiny_config(), make_dataset(), make_net())
    path = tmp_path / "epochs.csv"
    write_csv(result.epoch_stats, EpochStats, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "epoch,pct_conflicting,pct_wrongly_dominant,loss_aux,loss_dom,"
        "eval_accuracy"
    )
    assert len(lines) == 1 + 2
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]


@dataclass(frozen=True)
class _Cells:
    not_a_number: float
    infinite: float
    negative_zero: float
    tiny: float
    long: float
    count: int
    flag: bool
    missing: object
    label: str


def test_write_csv_formats_floats_as_12g_and_everything_else_with_str(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        _Cells(math.nan, math.inf, -0.0, 1e-300, 123456789.123456789, 7, True, None, "x y"),
        _Cells(np.float64(0.1), -math.inf, 0.0, 2.5, 1e22, np.int64(-3), False, (), ""),
    ]
    write_csv(rows, _Cells, str(path))
    assert path.read_text(encoding="ascii") == (
        "not_a_number,infinite,negative_zero,tiny,long,count,flag,missing,label\n"
        "nan,inf,-0,1e-300,123456789.123,7,True,None,x y\n"
        "0.1,-inf,0,2.5,1e+22,-3,False,(),\n"
    )


def test_write_csv_writes_one_column_records_and_empty_record_lists(tmp_path):
    @dataclass
    class One:
        value: float

    path = tmp_path / "one.csv"
    write_csv([One(1 / 3), One(2.0)], One, str(path))
    assert path.read_text(encoding="ascii") == "value\n0.333333333333\n2\n"

    @dataclass
    class Only:
        cell: object

    # rows are formatted positionally, and a one-field record's value goes in
    # as a 1-tuple: a tuple value is one cell, not the argument list
    write_csv([Only((1, 2)), Only(()), Only("%s")], Only, str(path))
    assert path.read_text(encoding="ascii") == "cell\n(1, 2)\n()\n%s\n"
    write_csv([], _Cells, str(path))
    assert path.read_text(encoding="ascii") == ",".join(f.name for f in fields(_Cells)) + "\n"


_FLOAT_EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                sys.float_info.min / 3, 1e308, -1e308, sys.float_info.max)
_CELL_VALUES = {
    int: st.integers(min_value=-(2**70), max_value=2**70),
    float: st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats()),
    str: st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
}


@st.composite
def _records(draw):
    """A record class of one to five int, float and str fields, declared
    with classes or, as under postponed annotations, with their names, and
    a few records of it."""
    kinds = draw(st.lists(st.sampled_from(list(_CELL_VALUES)), min_size=1, max_size=5))
    as_names = draw(st.booleans())
    kind = make_dataclass("Record", [(f"f{i}", k.__name__ if as_names else k)
                                     for i, k in enumerate(kinds)])
    rows = draw(st.lists(st.tuples(*(_CELL_VALUES[k] for k in kinds)), max_size=4))
    return kind, [kind(*values) for values in rows]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_records())
def test_write_csv_bytes_match_per_cell_formatting(tmp_path_factory, record):
    # each line is what formatting cell by cell gives: %.12g for a float,
    # str() for anything else
    kind, rows = record
    names = [f.name for f in fields(kind)]

    def cell(value):
        return f"{value:.12g}" if isinstance(value, float) else str(value)

    path = tmp_path_factory.getbasetemp() / "write_csv_property.csv"
    write_csv(rows, kind, str(path))
    assert path.read_bytes() == "".join(
        ",".join(line) + "\n"
        for line in [names] + [[cell(getattr(row, n)) for n in names] for row in rows]
    ).encode("ascii")
