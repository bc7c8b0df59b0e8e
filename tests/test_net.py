"""Network forward/backward correctness, including a finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from gradremedy import (
    Layer,
    Network,
    backward_two_task,
    forward,
    init_network,
    losses,
)
from gradremedy.net import LayerGrads, _backward_chain, _loss_and_deltas, _row_starts


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


def assert_trunk_is_relu_and_heads_are_linear(net, x):
    """With every weight and bias negative and positive inputs, every
    pre-activation is negative: each trunk layer's output must be all 0,
    and each head's must keep its sign, the head's bias, since its input
    is the trunk's zeros."""
    for _, layer in net.named_layers():
        layer.weights[...] = -np.abs(layer.weights)
        layer.bias[...] = -np.abs(layer.bias) - 0.25
    cache = forward(net, x)
    trunk_acts, aux_acts, dom_acts = cache.acts
    for out in trunk_acts[1:]:
        np.testing.assert_array_equal(out, 0.0)
    for acts, head in ((aux_acts, net.aux_head), (dom_acts, net.dom_head)):
        assert (acts[-1] < 0.0).all()
        np.testing.assert_array_equal(acts[-1], np.broadcast_to(head[0].bias, acts[-1].shape))


def test_init_network_shapes_and_activations():
    net = init_network(seed=1, in_dim=10, trunk_widths=(8, 6), num_classes=4)
    assert [l.out_dim for l in net.trunk] == [8, 6]
    assert net.aux_head[0].weights.shape == (10, 6)  # back to the input space
    assert net.dom_head[0].weights.shape == (4, 6)
    bound = 1.0 / math.sqrt(10)
    assert np.abs(net.trunk[0].weights).max() <= bound
    x = np.abs(np.random.default_rng(0).standard_normal((5, 10))) + 0.1
    assert_trunk_is_relu_and_heads_are_linear(net, x)


def test_a_hand_built_net_takes_its_activations_from_its_chains():
    ones = np.ones((2, 2))
    net = Network(trunk=[Layer(ones, np.ones(2)), Layer(ones, np.ones(2))],
                  aux_head=[Layer(np.ones((3, 2)), np.ones(3))],
                  dom_head=[Layer(np.ones((4, 2)), np.ones(4))])
    assert_trunk_is_relu_and_heads_are_linear(net, np.full((3, 2), 2.0))
    # a layer holds no activation of its own
    with pytest.raises(TypeError):
        Layer(ones, np.ones(2), "relu")


def test_init_network_validates_arguments():
    with pytest.raises(ValueError, match="trunk_widths"):
        init_network(seed=0, in_dim=4, trunk_widths=(), num_classes=3)
    with pytest.raises(ValueError, match="num_classes"):
        init_network(seed=0, in_dim=4, trunk_widths=(3,), num_classes=1)


def test_network_refuses_an_empty_chain():
    layer = Layer(np.zeros((3, 3)), np.zeros(3))
    for name in ("trunk", "aux_head", "dom_head"):
        chains = dict.fromkeys(("trunk", "aux_head", "dom_head"), [layer])
        chains[name] = []
        with pytest.raises(ValueError, match=f"^{name} must contain at least one layer$"):
            Network(**chains)


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
    with pytest.raises(ValueError, match="weights must be 2-D, got ndim 1"):
        Layer(np.zeros(3), np.zeros(3))


def test_forward_matches_hand_computation():
    trunk = [Layer(np.array([[1.0, -1.0]]), np.array([0.5]))]
    aux = [Layer(np.array([[2.0], [0.0]]), np.array([0.0, 1.0]))]
    dom = [Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))]
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


def _where_chain(chain, acts, delta, relu):
    """A chain's (weights, bias) gradients and d(loss)/d(input), with the
    ReLU gate as a select: the reference for the in-place multiply."""
    grads = [None] * len(chain)
    for i in range(len(chain) - 1, -1, -1):
        dz = np.where(acts[i + 1] > 0.0, delta, 0.0) if relu else delta
        grads[i] = (np.matmul(dz.swapaxes(-1, -2), acts[i]), np.add.reduce(dz, axis=-2))
        delta = dz @ chain[i].weights
    return grads, delta


@st.composite
def gated_nets(draw):
    """A net of 1-3 trunk layers, each 1-64 wide, a batch of 1-64 rows, a
    lam, and one trunk unit whose pre-activation is exactly 0 or -1 on
    every row, so the ReLU outputs include exact zeros."""
    widths = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    dim, classes = draw(st.integers(1, 8)), draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    net = init_network(seed=seed, in_dim=dim, trunk_widths=widths, num_classes=classes)
    layer = net.trunk[draw(st.integers(0, len(widths) - 1))]
    unit = draw(st.integers(0, layer.out_dim - 1))
    layer.weights[unit] = 0.0
    layer.bias[unit] = draw(st.sampled_from([0.0, -1.0]))
    rng = np.random.default_rng(seed)
    batch = draw(st.integers(1, 64))
    x, clean = rng.standard_normal((2, batch, dim))
    labels = rng.integers(0, classes, size=batch)
    return net, x, clean, labels, draw(st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gated_nets())
def test_the_in_place_relu_gate_gives_the_gradients_of_a_select(case):
    net, x, clean, labels, lam = case
    cache = forward(net, x)
    got = backward_two_task(net, cache, clean, labels, lam)
    trunk_acts, aux_acts, dom_acts = cache.acts
    _, _, d_aux, d_dom = _loss_and_deltas(cache.aux_out, cache.dom_logits, clean, labels,
                                          _row_starts(*cache.dom_logits.shape), lam)
    aux_head, to_aux = _where_chain(net.aux_head, aux_acts, d_aux, False)
    dom_head, to_dom = _where_chain(net.dom_head, dom_acts, d_dom, False)
    trunk, _ = _where_chain(net.trunk, trunk_acts, np.stack([to_aux, to_dom]), True)
    assert any((out == 0.0).any() for out in trunk_acts[1:])
    for mine, ref in ((got.trunk, trunk), (got.aux_head, aux_head), (got.dom_head, dom_head)):
        for layer_grads, ref_grads in zip(mine, ref):
            for array, expected in zip(layer_grads, ref_grads):
                assert np.array_equal(array, expected)
                # the bits may differ only in the sign of a zero
                moved = array.view(np.int64) != expected.view(np.int64)
                assert (array[moved] == 0.0).all() and (expected[moved] == 0.0).all()


def test_the_relu_gate_turns_an_inf_delta_at_a_gated_entry_into_nan():
    # a select would drop the inf; the multiply gives inf * 0 = nan, so an
    # overflowed backward pass stays visible to the trainer's gradient scan
    layer = Layer(np.ones((2, 3)), np.zeros(2))
    x = np.ones((4, 3))
    out = np.array([[1.0, 0.0]] * 4)  # unit 1 is gated on every row
    delta = np.ones((4, 2))
    delta[2, 1] = np.inf
    grads = [LayerGrads(np.empty((2, 3)), np.empty(2))]
    with np.errstate(invalid="ignore"):
        _backward_chain([layer], grads, [x, out], delta, True)
    assert np.isnan(grads[0].weights[1]).all() and np.isnan(grads[0].bias[1])
    np.testing.assert_array_equal(grads[0].weights[0], 4.0)
    assert grads[0].bias[0] == 4.0


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
