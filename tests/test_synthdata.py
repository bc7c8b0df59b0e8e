"""Synthetic benchmark generator: determinism, SNR, and separability."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from gradremedy import TwoTaskDataset, generate
from gradremedy.synthdata import SampleBatch, _cap_share, _rng, class_templates


def realized_snr_db(batch: SampleBatch) -> float:
    """Empirical 10*log10(||clean||^2 / ||noise||^2) over the batch."""
    noise = batch.noisy - batch.clean
    signal_power = float(np.sum(batch.clean * batch.clean))
    noise_power = float(np.sum(noise * noise))
    return 10.0 * math.log10(signal_power / noise_power)


def nearest_template_labels(vectors: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Classify rows by Euclidean distance to the nearest template."""
    d2 = ((vectors[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def test_templates_are_unit_norm_with_angle_floor():
    ceiling = math.cos(math.radians(45.0))
    for num_classes, dim in ((5, 16), (300, 64)):
        t = class_templates(seed=0, num_classes=num_classes, dim=dim)
        assert t.shape == (num_classes, dim)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, rtol=1e-12)
        cosines = (t @ t.T)[np.triu_indices(num_classes, 1)]
        assert cosines.max() <= ceiling + 1e-12


def _reference_templates(seed, num_classes, dim, max_tries):
    """The templates drawn the way the sampler first drew them, each draw
    tested against every accepted template in turn; None if they do not
    fit within max_tries draws."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    ceiling = math.cos(math.radians(45.0))
    accepted = []
    for _ in range(max_tries):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(float(v @ u) <= ceiling for u in accepted):
            accepted.append(v)
            if len(accepted) == num_classes:
                return np.array(accepted)
    return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(2, 12),
    dim=st.integers(2, 64),
)
# crowded spheres, where most draws are rejected near the floor
@example(seed=0, num_classes=12, dim=3)
@example(seed=1, num_classes=7, dim=2)
def test_template_stream_is_bit_stable(seed, num_classes, dim):
    want = _reference_templates(seed, num_classes, dim, max_tries=2000)
    if want is None:
        with pytest.raises(ValueError, match="could not place"):
            class_templates(seed, num_classes, dim, max_tries=2000)
    else:
        assert np.array_equal(class_templates(seed, num_classes, dim, max_tries=2000), want)


def test_templates_deterministic_in_seed():
    np.testing.assert_array_equal(
        class_templates(3, 4, 8), class_templates(3, 4, 8)
    )
    assert not np.array_equal(class_templates(3, 4, 8), class_templates(4, 4, 8))


def test_templates_impossible_floor_raises():
    # 2-D fits at most a handful of directions 45 degrees apart
    with pytest.raises(ValueError, match="could not place"):
        class_templates(seed=0, num_classes=50, dim=2, max_tries=2000)


def test_cap_bound_refuses_without_drawing_and_never_overstates():
    # caps of 22.5 degrees around templates 45 degrees apart are disjoint
    for dim, most in ((2, 8), (3, 26)):
        with pytest.raises(ValueError, match=rf"in dim {dim} .*: at most {most} fit$"):
            class_templates(0, most + 1, dim, max_tries=0)
    # at the bound the draws decide: 8 in 2-D would need a regular octagon
    with pytest.raises(ValueError, match="after 2000 draws$"):
        class_templates(seed=0, num_classes=8, dim=2, max_tries=2000)
    x = math.sin(math.radians(22.5)) ** 2
    for dim in (*range(2, 60), 100, 400, 700, 2000):
        exact = betainc((dim - 1) / 2, 0.5, x) / 2
        assert exact * (1 - 1e-8) <= _cap_share(dim) <= exact, dim


def test_batches_are_addressable_and_order_independent():
    a = TwoTaskDataset(seed=11, num_classes=4, dim=12, snr_db=5.0)
    b = TwoTaskDataset(seed=11, num_classes=4, dim=12, snr_db=5.0)
    # request batch 3 cold on one dataset, after 0..2 on the other
    for i in range(3):
        a.train_batch(16, i)
    left, right = a.train_batch(16, 3), b.train_batch(16, 3)
    np.testing.assert_array_equal(left.noisy, right.noisy)
    np.testing.assert_array_equal(left.clean, right.clean)
    np.testing.assert_array_equal(left.labels, right.labels)


def _reference_batch(data, batch_size, stream, index):
    """(noisy, clean, labels) drawn the way the generator first drew them:
    jitter and noise as two draws, norms from np.linalg.norm."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((data.seed, stream, index))))
    labels = rng.integers(0, data.num_classes, size=batch_size)
    clean = data.templates[labels] + data.jitter_std * rng.standard_normal(
        (batch_size, data.dim))
    raw = rng.standard_normal((batch_size, data.dim))
    target_noise_norm = np.linalg.norm(clean) / 10.0 ** (data.snr_db / 20.0)
    noise = raw * (target_noise_norm / np.linalg.norm(raw))
    return clean + noise, clean, labels


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 10**6),
    batch_size=st.integers(1, 64),
    dim=st.integers(2, 40),
    snr_db=st.floats(-30.0, 30.0),
    jitter_std=st.sampled_from([0.0, 0.05, 1.0, 4.0]),
    template_scale=st.floats(0.01, 100.0),
)
def test_batch_stream_is_bit_stable(seed, index, batch_size, dim, snr_db, jitter_std,
                                    template_scale):
    data = TwoTaskDataset(seed=seed, num_classes=2, dim=dim, snr_db=snr_db,
                          jitter_std=jitter_std, template_scale=template_scale)
    for batch, stream in ((data.train_batch(batch_size, index), 1),
                          (data.eval_batch(batch_size, index), 2)):
        noisy, clean, labels = _reference_batch(data, batch_size, stream, index)
        assert np.array_equal(batch.noisy, noisy)
        assert np.array_equal(batch.clean, clean)
        assert np.array_equal(batch.labels, labels)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**96 - 1),
    stream=st.integers(0, 2),
    index=st.integers(0, 2**96 - 1),
)
# the last one-word int and the first two-word one
@example(seed=0, stream=0, index=0)
@example(seed=2**32 - 1, stream=1, index=2**32 - 1)
@example(seed=2**32, stream=2, index=2**32)
@example(seed=2**64, stream=1, index=2**32 - 1)
def test_keyed_generator_has_the_state_seedsequence_gives_the_tuple(seed, stream, index):
    for key in ((seed, stream), (seed, stream, index)):
        assert _rng(*key).bit_generator.state == np.random.default_rng(key).bit_generator.state


def test_train_and_eval_streams_are_disjoint():
    data = TwoTaskDataset(seed=2, num_classes=4, dim=12, snr_db=5.0)
    train = data.train_batch(32, 0)
    held_out = data.eval_batch(32, 0)
    assert not np.array_equal(train.noisy, held_out.noisy)


@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 10.0, 20.0])
def test_realized_snr_matches_target(snr_db):
    # noise is normalized per batch, so the realized value is exact up to
    # float rounding, not just in expectation
    data = TwoTaskDataset(seed=6, num_classes=4, dim=32, snr_db=snr_db)
    for index in range(3):
        batch = data.train_batch(64, index)
        assert realized_snr_db(batch) == pytest.approx(snr_db, abs=1e-9)


def test_zero_jitter_returns_pure_templates():
    data = TwoTaskDataset(seed=1, num_classes=3, dim=8, snr_db=0.0, jitter_std=0.0)
    batch = data.train_batch(10, 0)
    np.testing.assert_array_equal(batch.clean, data.templates[batch.labels])


def test_template_scale_scales_clean_signal():
    small = TwoTaskDataset(seed=1, num_classes=3, dim=8, snr_db=0.0, jitter_std=0.0)
    big = TwoTaskDataset(
        seed=1, num_classes=3, dim=8, snr_db=0.0, jitter_std=0.0, template_scale=10.0
    )
    np.testing.assert_allclose(big.templates, 10.0 * small.templates, rtol=1e-15)


def test_high_snr_batches_are_separable():
    data = TwoTaskDataset(seed=4, num_classes=4, dim=32, snr_db=20.0)
    batch = data.eval_batch(256, 0)
    predicted = nearest_template_labels(batch.noisy, data.templates)
    assert float((predicted == batch.labels).mean()) >= 0.99
    # the clean view separates perfectly at default jitter
    np.testing.assert_array_equal(
        nearest_template_labels(batch.clean, data.templates), batch.labels
    )


def test_labels_and_shapes():
    batch = generate(seed=0, num_classes=5, dim=16, batch=33, snr_db=0.0)
    assert batch.noisy.shape == (33, 16)
    assert batch.clean.shape == (33, 16)
    assert batch.labels.shape == (33,)
    assert batch.labels.min() >= 0 and batch.labels.max() < 5
    assert len(batch) == 33


def test_generate_is_first_train_batch():
    data = TwoTaskDataset(seed=17, num_classes=4, dim=8, snr_db=3.0)
    np.testing.assert_array_equal(
        generate(seed=17, num_classes=4, dim=8, batch=12, snr_db=3.0).noisy,
        data.train_batch(12, 0).noisy,
    )


def test_dataset_validates_arguments():
    with pytest.raises(ValueError, match="jitter_std"):
        TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=0.0, jitter_std=-0.1)
    with pytest.raises(ValueError, match="template_scale"):
        TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=0.0, template_scale=0.0)
    for snr_db in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=snr_db)
    data = TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        data.train_batch(0, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        TwoTaskDataset(seed=-1, num_classes=3, dim=8, snr_db=0.0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        data.train_batch(4, -1)


@pytest.mark.parametrize("scale, values", [
    ({"template_scale": 1e160}, "template_scale 1e+160, jitter_std 0.05"),
    ({"jitter_std": 1e160}, "template_scale 1, jitter_std 1e+160"),
], ids=["template_scale", "jitter_std"])
def test_a_batch_whose_squared_norm_overflows_is_refused(scale, values):
    # the scales are finite, but the clean batch's squared norm is not: the
    # noise scale taken from it would make the noisy inputs inf or nan
    data = TwoTaskDataset(seed=1, num_classes=4, dim=32, snr_db=0.0, **scale)
    for kind, batch in (("training", data.train_batch), ("held-out", data.eval_batch)):
        with pytest.raises(ValueError) as err:
            batch(64, 3)
        assert str(err.value) == (f"{kind} batch 3: the clean samples' squared norm "
                                  f"overflows float64 ({values})")


@pytest.mark.parametrize("snr_db", [7000.0, -7000.0, 6166.0, -6154.0, 1e308, -1e308,
                                    400.0, -2900.0, 319.1, -319.1])
def test_snr_whose_gain_is_not_a_normal_float_is_refused(snr_db):
    # past +-319.1 dB one part of noisy = clean + noise falls below the
    # other's float64 rounding (-2900 dB trained into gradients near 1e284);
    # further out 10**(snr_db/20) overflows, or underflows to a subnormal
    with pytest.raises(ValueError, match=r"snr_db must be finite and within \+-319\.1 dB, "
                                         r"past which float64 cannot hold both the signal "
                                         r"and the noise"):
        TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [319.0, -319.0])
def test_snr_at_the_edge_of_the_carried_range_is_accepted(snr_db):
    data = TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=snr_db)
    assert data.snr_db == snr_db
    assert np.isfinite(data.train_batch(4, 0).noisy).all()
