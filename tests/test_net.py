"""Network forward/backward correctness, including a finite-difference oracle."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from gradremedy import (
    Activation,
    Layer,
    Network,
    backward_two_task,
    forward,
    init_network,
    load_network,
    losses,
    save_network,
)


def small_net(seed=0):
    return init_network(seed=seed, in_dim=6, trunk_widths=(5, 4), num_classes=3)


def small_batch(seed=0, batch=4, dim=6, classes=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((batch, dim))
    clean = rng.standard_normal((batch, dim))
    labels = rng.integers(0, classes, size=batch)
    return x, clean, labels


def test_init_network_is_seed_deterministic():
    a, b = small_net(7), small_net(7)
    for (name_a, la), (_, lb) in zip(a.named_layers(), b.named_layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)
    c = small_net(8)
    assert not np.array_equal(a.trunk[0].weights, c.trunk[0].weights)


def test_init_network_shapes_and_activations():
    net = init_network(seed=1, in_dim=10, trunk_widths=(8, 6), num_classes=4)
    assert [l.out_dim for l in net.trunk] == [8, 6]
    assert all(l.activation is Activation.RELU for l in net.trunk)
    assert net.aux_head[0].weights.shape == (10, 6)  # back to the input space
    assert net.dom_head[0].weights.shape == (4, 6)
    assert net.aux_head[0].activation is Activation.IDENTITY
    bound = 1.0 / math.sqrt(10)
    assert np.abs(net.trunk[0].weights).max() <= bound


def test_init_network_validates_arguments():
    with pytest.raises(ValueError, match="trunk_widths"):
        init_network(seed=0, in_dim=4, trunk_widths=(), num_classes=3)
    with pytest.raises(ValueError, match="num_classes"):
        init_network(seed=0, in_dim=4, trunk_widths=(3,), num_classes=1)


def test_network_rejects_dimension_mismatch():
    good = Layer(np.zeros((3, 4)), np.zeros(3))
    bad = Layer(np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ValueError, match="expects input dim"):
        Network(trunk=[good, bad], aux_head=[good], dom_head=[good])


def test_layer_validates_shapes():
    with pytest.raises(ValueError, match="bias shape"):
        Layer(np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        Layer(np.full((2, 2), np.nan), np.zeros(2))


def test_forward_matches_hand_computation():
    trunk = [Layer(np.array([[1.0, -1.0]]), np.array([0.5]), Activation.RELU)]
    aux = [Layer(np.array([[2.0], [0.0]]), np.array([0.0, 1.0]), Activation.IDENTITY)]
    dom = [Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]), Activation.IDENTITY)]
    net = Network(trunk=trunk, aux_head=aux, dom_head=dom)
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    cache = forward(net, x)
    # row 0: z = 1.5 -> relu 1.5; row 1: z = -1.5 -> relu 0
    np.testing.assert_array_equal(cache.trunk_out, [[1.5], [0.0]])
    np.testing.assert_array_equal(cache.aux_out, [[3.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(cache.dom_logits, [[1.5, -1.5], [0.0, 0.0]])


def test_losses_against_plain_formulas():
    net = small_net()
    net.dom_head[0].weights *= 1e4
    x, clean, labels = small_batch(batch=6)
    cache = forward(net, x)
    # exp of the unshifted logits would overflow: the max shift must hold
    assert cache.dom_logits.max() > math.log(np.finfo(np.float64).max)
    bundle = losses(cache, clean, labels, 0.7)
    assert bundle.loss_aux == pytest.approx(
        float(((cache.aux_out - clean) ** 2).mean()), rel=1e-15
    )
    logits = cache.dom_logits
    # independent reduction via scipy's logsumexp
    expected = float(
        np.mean(logsumexp(logits, axis=1) - logits[np.arange(6), labels])
    )
    assert bundle.loss_dom == pytest.approx(expected, rel=1e-12)


def test_loss_bundle_weighting():
    net = small_net()
    x, clean, labels = small_batch()
    cache = forward(net, x)
    bundle = losses(cache, clean, labels, lam=0.7)
    assert bundle.loss_total == pytest.approx(
        0.3 * bundle.loss_aux + 0.7 * bundle.loss_dom, rel=1e-15
    )


def test_backward_matches_finite_differences():
    net = small_net(3)
    x, clean, labels = small_batch(3)
    lam = 0.7
    eps = 1e-5

    cache = forward(net, x)
    grads = backward_two_task(net, cache, clean, labels, lam)
    analytic = {}
    for i in range(len(net.trunk)):
        analytic[f"trunk[{i}]"] = (
            grads.trunk_aux[i].weights + grads.trunk_dom[i].weights,
            grads.trunk_aux[i].bias + grads.trunk_dom[i].bias,
        )
    analytic["aux_head[0]"] = (grads.aux_head[0].weights, grads.aux_head[0].bias)
    analytic["dom_head[0]"] = (grads.dom_head[0].weights, grads.dom_head[0].bias)

    def total():
        c = forward(net, x)
        return losses(c, clean, labels, lam).loss_total

    worst = 0.0
    for name, layer in net.named_layers():
        for arr, expected in zip((layer.weights, layer.bias), analytic[name]):
            flat, eflat = arr.ravel(), expected.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = total()
                flat[j] = orig - eps
                down = total()
                flat[j] = orig
                fd = (up - down) / (2.0 * eps)
                worst = max(
                    worst, abs(eflat[j] - fd) / max(abs(eflat[j]), abs(fd), 1e-6)
                )
    assert worst <= 1e-4, f"worst relative error {worst:.3e}"


def test_backward_lambda_weighting_is_linear():
    net = small_net(4)
    x, clean, labels = small_batch(4)
    cache = forward(net, x)
    at_zero = backward_two_task(net, cache, clean, labels, 0.0)
    at_lam = backward_two_task(net, cache, clean, labels, 0.7)
    for i in range(len(net.trunk)):
        np.testing.assert_allclose(
            at_lam.trunk_aux[i].weights, 0.3 * at_zero.trunk_aux[i].weights, rtol=1e-12
        )
    # lam = 0 silences the dominant task, lam = 1 the auxiliary one
    assert all(np.all(g.weights == 0.0) for g in at_zero.trunk_dom)
    at_one = backward_two_task(net, cache, clean, labels, 1.0)
    assert all(np.all(g.weights == 0.0) for g in at_one.trunk_aux)
    assert all(np.all(g.bias == 0.0) for g in at_one.aux_head)


def test_backward_rejects_foreign_cache_and_bad_shapes():
    net, other = small_net(1), small_net(2)
    x, clean, labels = small_batch(1)
    cache = forward(net, x)
    with pytest.raises(ValueError, match="different network"):
        backward_two_task(other, cache, clean, labels, 0.5)
    with pytest.raises(ValueError, match="lam"):
        backward_two_task(net, cache, clean, labels, 1.5)
    with pytest.raises(ValueError, match="targets_clean"):
        backward_two_task(net, cache, clean[:, :3], labels, 0.5)
    with pytest.raises(ValueError, match="labels"):
        backward_two_task(net, cache, clean, labels[:-1], 0.5)


@pytest.mark.parametrize("change, message", [
    (lambda clean, labels: (clean, labels, 1.5), r"^lam must lie in \[0, 1\], got 1\.5$"),
    (lambda clean, labels: (clean, labels, -0.1), r"^lam must lie in \[0, 1\], got -0\.1$"),
    (lambda clean, labels: (clean[:, :3], labels, 0.5),
     r"^targets_clean shape \(4, 3\) does not match reconstruction shape \(4, 6\)$"),
    (lambda clean, labels: (clean[:-1], labels, 0.5),
     r"^targets_clean shape \(3, 6\) does not match reconstruction shape \(4, 6\)$"),
    (lambda clean, labels: (clean, labels[:-1], 0.5), r"^got 3 labels for a batch of 4$"),
], ids=["lam-above-1", "lam-below-0", "targets-too-narrow", "targets-too-few",
        "labels-too-few"])
def test_losses_rejects_what_backward_rejects_with_the_same_message(change, message):
    net = small_net(1)
    x, clean, labels = small_batch(1)
    cache = forward(net, x)
    targets, labels, lam = change(clean, labels)
    with pytest.raises(ValueError, match=message):
        losses(cache, targets, labels, lam)
    with pytest.raises(ValueError, match=message):
        backward_two_task(net, cache, targets, labels, lam)


def test_forward_rejects_wrong_input_dim():
    net = small_net()
    with pytest.raises(ValueError, match="expects input dim"):
        forward(net, np.zeros((2, 9)))
    with pytest.raises(ValueError, match="2-D"):
        forward(net, np.zeros(6))


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    net = init_network(seed=9, in_dim=7, trunk_widths=(6, 5), num_classes=4)
    path = str(tmp_path / "net.txt")
    save_network(net, path)
    loaded = load_network(path)
    for (name_a, la), (_, lb) in zip(net.named_layers(), loaded.named_layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)
        assert la.activation is lb.activation
    # and the round trip survives a second generation unchanged
    path2 = str(tmp_path / "net2.txt")
    save_network(loaded, path2)
    assert Path(path).read_text() == Path(path2).read_text()


def test_load_network_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a"):
        load_network(str(path))


@pytest.mark.parametrize(
    "break_lines, message",
    [
        (lambda lines: lines[:-2], r"section 'dom_head': the file ends early"),
        (lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:],
         r"section 'trunk': cannot reshape array of size 11 into shape \(3,4\)"),
        (lambda lines: lines + ["trunk 1", "garbage"],
         r"content follows the last section 'dom_head' at line 14"),
    ],
    ids=["truncated", "weights-line-one-short", "trailing-content"],
)
def test_load_network_names_file_and_section_of_a_broken_checkpoint(
        tmp_path, break_lines, message):
    path = tmp_path / "net.txt"
    save_network(init_network(seed=0, in_dim=4, trunk_widths=(3,), num_classes=2), str(path))
    path.write_text("\n".join(break_lines(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_network(str(path))
