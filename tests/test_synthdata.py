"""Synthetic benchmark generator: determinism, SNR, and separability."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from gradremedy import TwoTaskDataset, generate, synthdata
from gradremedy.synthdata import (
    _TEMPLATE_DRAWS, SampleBatch, _cap_share, _pcg64_state, _seed_states, _words,
    class_templates,
)


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


def _reference_templates(seed, num_classes, dim):
    """The templates drawn the way the sampler first drew them, each draw
    tested against every accepted template in turn; None if they do not
    fit within the sampler's _TEMPLATE_DRAWS draws, and None without drawing
    if their disjoint caps of 22.5 degrees would cover more than the sphere
    (scipy's betainc gives a cap's exact share)."""
    if num_classes * betainc((dim - 1) / 2, 0.5, math.sin(math.radians(22.5)) ** 2) > 2:
        return None
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    ceiling = math.cos(math.radians(45.0))
    accepted = []
    for _ in range(_TEMPLATE_DRAWS):
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
    want = _reference_templates(seed, num_classes, dim)
    if want is None:
        with pytest.raises(ValueError, match="could not place"):
            class_templates(seed, num_classes, dim)
    else:
        assert np.array_equal(class_templates(seed, num_classes, dim), want)


def test_templates_deterministic_in_seed():
    np.testing.assert_array_equal(
        class_templates(3, 4, 8), class_templates(3, 4, 8)
    )
    assert not np.array_equal(class_templates(3, 4, 8), class_templates(4, 4, 8))


def test_templates_impossible_floor_raises():
    # 2-D fits at most a handful of directions 45 degrees apart
    with pytest.raises(ValueError, match="could not place"):
        class_templates(seed=0, num_classes=50, dim=2)


class _Draws:
    """A stand-in generator whose standard_normal returns the given draws
    in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def standard_normal(self, dim):
        return np.array(next(self.draws), dtype=np.float64)


def test_a_draw_exactly_at_the_angle_floor_is_accepted(monkeypatch):
    floor = math.radians(45.0)
    on_floor = [math.cos(floor), math.sin(floor)]  # unit norm in float64 too
    monkeypatch.setattr(np.random, "default_rng",
                        lambda key: _Draws([[1.0, 0.0], on_floor, [0.0, 1.0]]))
    templates = class_templates(0, 2, 2)
    assert templates[0] @ templates[1] == math.cos(floor)
    np.testing.assert_array_equal(templates, [[1.0, 0.0], on_floor])


def test_a_class_count_exactly_on_the_cap_bound_is_drawn_for(monkeypatch):
    # caps of share 1/8 each: 8 of them fill the sphere exactly, 9 overfill it
    monkeypatch.setattr(synthdata, "_cap_share", lambda dim: 0.125)
    assert class_templates(0, 8, 3).shape == (8, 3)
    with pytest.raises(ValueError, match=r"in dim 3 .*: at most 8 fit$"):
        class_templates(0, 9, 3)


def test_cap_bound_refuses_without_drawing_and_never_overstates():
    # caps of 22.5 degrees around templates 45 degrees apart are disjoint
    for dim, most in ((2, 8), (3, 26)):
        with pytest.raises(ValueError, match=rf"in dim {dim} .*: at most {most} fit$"):
            class_templates(0, most + 1, dim)
    # at the bound the draws decide: 8 in 2-D would need a regular octagon
    with pytest.raises(ValueError, match="after 100000 draws$"):
        class_templates(seed=0, num_classes=8, dim=2)
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


def _vectorized_states(keys):
    """The bit_generator.state of each key's generator: one _seed_states
    call per word count over the keys of that many words, then
    _pcg64_state on each row."""
    words = [_words(*key) for key in keys]
    states = [None] * len(keys)
    for width in {len(w) for w in words}:
        rows = [i for i, w in enumerate(words) if len(w) == width]
        table = np.array([words[i] for i in rows], dtype=np.uint32)
        for i, row in zip(rows, _seed_states(table).tolist()):
            states[i] = _pcg64_state(*row)
    return states


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
    keys = [(seed, stream), (seed, stream, index)]
    expected = [np.random.default_rng(key).bit_generator.state for key in keys]
    # from the vectorized port, one call per word count
    assert _vectorized_states(keys) == expected


def test_vectorized_seeding_is_exact_for_rows_of_every_length_in_one_call():
    # 2 to 7 words a key: below, at and past the pool's 4 words, in an
    # order that interleaves the lengths, so each width's rows must come
    # back in place
    ints = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1)
    keys = [(seed, stream, index)[:length] for seed in ints for stream in range(3)
            for index in ints for length in (2, 3)]
    assert {len(_words(*key)) for key in keys} == set(range(2, 8))
    assert _vectorized_states(keys) == [
        np.random.default_rng(key).bit_generator.state for key in keys]


@pytest.mark.parametrize("seed", [5, 2**32 + 3], ids=["one-word", "two-word"])
def test_train_batches_are_the_train_batch_stream(seed):
    data = TwoTaskDataset(seed=seed, num_classes=3, dim=5, snr_db=2.0, jitter_std=0.5)
    batches = list(data.train_batches(7, 12))
    assert len(batches) == 12
    for i, batch in enumerate(batches):
        expected = data.train_batch(7, i)
        for name in ("noisy", "clean", "labels"):
            got, want = getattr(batch, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert list(data.train_batches(7, 0)) == []
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        next(data.train_batches(0, 3))


def test_train_batches_hash_their_keys_one_chunk_at_a_time(monkeypatch):
    data = TwoTaskDataset(seed=5, num_classes=3, dim=5, snr_db=2.0, jitter_std=0.5)
    # a million-batch run holds one chunk's key tables before its first batch
    batches = data.train_batches(4, 10**6)
    tracemalloc.start()
    try:
        next(batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # chunks of 5 split 12 batches across two chunk boundaries, seamlessly
    monkeypatch.setattr(synthdata, "_SEED_CHUNK", 5)
    for i, batch in enumerate(list(data.train_batches(7, 12))):
        expected = data.train_batch(7, i)
        for name in ("noisy", "clean", "labels"):
            assert getattr(batch, name).tobytes() == getattr(expected, name).tobytes()


def test_train_batches_name_the_global_batch_index_past_a_chunk(monkeypatch):
    # batch 6 is the second of the second chunk of 5: its overflow message
    # names it by its index in the run, not in its chunk
    monkeypatch.setattr(synthdata, "_SEED_CHUNK", 5)
    data = TwoTaskDataset(seed=5, num_classes=3, dim=5, snr_db=2.0)
    batches = data.train_batches(4, 12)
    for _ in range(6):
        next(batches)
    data.templates *= 1e300
    with pytest.raises(ValueError, match="^training batch 6: the clean samples' "
                                         "squared norm overflows"):
        next(batches)


@pytest.mark.parametrize("count", [2**32 + 1, -1])
def test_train_batches_refuses_a_count_past_one_key_word(count):
    # each batch index is one uint32 key word, so a run has at most 2**32
    # batches; the count is refused before any table is built
    data = TwoTaskDataset(seed=5, num_classes=3, dim=5, snr_db=2.0)
    with pytest.raises(ValueError, match=rf"count must lie in \[0, 2\*\*32\], got {count}$"):
        next(data.train_batches(4, count))


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


def test_sample_batch_refuses_mismatched_shapes():
    rows = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"noisy shape \(3, 2\) != clean shape \(3, 3\)"):
        SampleBatch(rows, np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="batch must be 2-D, got ndim 1"):
        SampleBatch(np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match=r"labels shape \(2,\) does not match batch size 3"):
        SampleBatch(rows, rows, np.zeros(2))


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
                                    400.0, -2900.0, 319.1, -319.1,
                                    np.nextafter(synthdata._SNR_DB_LIMIT, math.inf),
                                    np.nextafter(-synthdata._SNR_DB_LIMIT, -math.inf)])
def test_snr_whose_gain_is_not_a_normal_float_is_refused(snr_db):
    # past +-319.1 dB one part of noisy = clean + noise falls below the
    # other's float64 rounding (-2900 dB trained into gradients near 1e284);
    # further out 10**(snr_db/20) overflows, or underflows to a subnormal
    with pytest.raises(ValueError, match=r"snr_db must be finite and within \+-319\.1 dB, "
                                         r"past which float64 cannot hold both the signal "
                                         r"and the noise"):
        TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [319.0, -319.0, synthdata._SNR_DB_LIMIT,
                                    -synthdata._SNR_DB_LIMIT])
def test_snr_at_the_edge_of_the_carried_range_is_accepted(snr_db):
    data = TwoTaskDataset(seed=0, num_classes=3, dim=8, snr_db=snr_db)
    assert data.snr_db == snr_db
    assert np.isfinite(data.train_batch(4, 0).noisy).all()
