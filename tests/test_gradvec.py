"""GradientVector checks and the angle report."""

import math

import numpy as np
import pytest

from gradremedy import GradientVector, angle_between


def test_gradient_vector_validates_shape_and_length():
    with pytest.raises(ValueError, match="does not match shape"):
        GradientVector(np.zeros(5), (2, 3))
    with pytest.raises(ValueError, match="1-D"):
        GradientVector(np.zeros((2, 3)), (2, 3))
    with pytest.raises(ValueError, match="positive"):
        GradientVector(np.zeros(0), (0,))
    with pytest.raises(ValueError, match="non-finite gradient entry at flat index 2"):
        GradientVector(np.array([0.0, 1.0, np.nan, 2.0]), (2, 2))


def test_gradient_vector_norm_and_len():
    g = GradientVector(np.array([3.0, 4.0]), (2,))
    assert len(g) == 2
    assert g.norm() == pytest.approx(5.0, rel=1e-15)


def test_with_values_keeps_shape_metadata():
    g = GradientVector(np.ones(4), (2, 2))
    h = g.with_values(np.zeros(4))
    assert h.shape == (2, 2)
    np.testing.assert_array_equal(h.values, 0.0)


def test_angle_between_known_angles():
    e1 = GradientVector(np.array([1.0, 0.0]), (2,))
    assert angle_between(e1, e1).phi == 0.0
    anti = GradientVector(np.array([-2.0, 0.0]), (2,))
    assert angle_between(e1, anti).phi == pytest.approx(math.pi, abs=1e-15)
    perp = GradientVector(np.array([0.0, 0.5]), (2,))
    assert angle_between(e1, perp).phi == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_between_is_symmetric_and_scale_invariant():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        a = GradientVector(rng.standard_normal(6), (6,))
        b = GradientVector(rng.standard_normal(6), (6,))
        ab = angle_between(a, b).phi
        assert ab == angle_between(b, a).phi
        scaled = b.with_values(7.5 * b.values)
        assert angle_between(a, scaled).phi == pytest.approx(ab, abs=1e-12)


def test_angle_between_degenerate_report():
    a = GradientVector(np.zeros(3), (3,))
    b = GradientVector(np.ones(3), (3,))
    report = angle_between(a, b)
    assert report.degenerate
    assert report.phi is None
    assert report.cos_phi is None


def test_angle_between_rejects_length_mismatch():
    a = GradientVector(np.zeros(3), (3,))
    b = GradientVector(np.zeros(4), (4,))
    with pytest.raises(ValueError, match="length mismatch"):
        angle_between(a, b)


def test_angle_between_clamps_near_parallel_rounding():
    # a tiny rotation of the same vector: cosine lands at 1 + O(eps) before
    # clamping, which must not produce a NaN angle
    v = np.array([1.0, 1e-9])
    a = GradientVector(v, (2,))
    b = GradientVector(v * (1.0 + 1e-16), (2,))
    report = angle_between(a, b)
    assert report.phi is not None and not math.isnan(report.phi)
    assert report.phi < 1e-6
