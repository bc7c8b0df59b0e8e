"""Projection and rescale geometry against hand-computed and constructed oracles.

The frozen 2-D values below were worked out by hand; the comments carry the
arithmetic so they can be re-derived without a tool.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from gradremedy import (
    GradientVector,
    RatioRule,
    RemedyConfig,
    Strategy,
    TaskGradients,
    angle_between,
    dynamic_theta,
    project,
    remedy_layer,
    rescale,
)
from gradremedy.surgery import POST_CONFLICT_TOL, pair_gram, remedy_pair

HALF_PI = math.pi / 2


def vec(*values):
    arr = np.array(values, dtype=np.float64)
    return GradientVector(arr, (arr.size,))


def random_conflicting_pair(rng, dim):
    """Unit-direction pair with negative inner product, magnitudes in [0.5, 2].

    Rejects near-anti-parallel draws, where the projection output is pure
    cancellation residue with no usable direction.
    """
    while True:
        a = rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        if float(a @ d) >= 0.0:
            a = -a
        cos = float(a @ d) / (np.linalg.norm(a) * np.linalg.norm(d))
        if -1.0 + 1e-8 < cos and float(a @ d) < -1e-12:
            a *= rng.uniform(0.5, 2.0) / np.linalg.norm(a)
            d *= rng.uniform(0.5, 2.0) / np.linalg.norm(d)
            return vec(*a), vec(*d)


# --- dynamic theta -----------------------------------------------------------


def test_dynamic_theta_frozen_value():
    # ||aux|| = sqrt(2), ||dom|| = 1 -> arctan(sqrt(2)) = 0.9553166181245093
    assert dynamic_theta(vec(-1.0, 1.0), vec(1.0, 0.0)) == pytest.approx(
        0.9553166181245093, abs=1e-15
    )


def test_dynamic_theta_equals_arctan_of_norm_ratio():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(300):
        a = vec(*rng.standard_normal(5))
        d = vec(*rng.standard_normal(5))
        assert dynamic_theta(a, d) == pytest.approx(
            math.atan(a.norm() / d.norm()), abs=1e-15
        )


def test_dynamic_theta_range_and_monotonicity():
    d = vec(1.0, 0.0)
    small = dynamic_theta(vec(0.01, 0.0), d)
    large = dynamic_theta(vec(100.0, 0.0), d)
    assert 0.0 < small < large < HALF_PI


def test_dynamic_theta_rejects_degenerate_dominant():
    with pytest.raises(ValueError, match="degenerate"):
        dynamic_theta(vec(1.0, 0.0), vec(0.0, 0.0))


# --- projection --------------------------------------------------------------


def test_project_frozen_two_d_case():
    # aux = (-1, 1), dom = (1, 0): phi = 135deg, theta = arctan(sqrt(2)).
    # coef = sqrt(2)*(sin135*cot(theta) - cos135) = sqrt(2)/2 + 1, so the
    # projected auxiliary gradient is exactly (sqrt(2)/2, 1).
    aux, dom = vec(-1.0, 1.0), vec(1.0, 0.0)
    out = project(aux, dom, dynamic_theta(aux, dom))
    np.testing.assert_allclose(
        out.values, [math.sqrt(2.0) / 2.0, 1.0], rtol=0, atol=1e-15
    )


def test_project_lands_at_requested_angle():
    rng = np.random.Generator(np.random.PCG64(22))
    for dim in (2, 3, 16):
        for _ in range(200):
            aux, dom = random_conflicting_pair(rng, dim)
            theta = rng.uniform(0.05, HALF_PI)
            out = project(aux, dom, theta)
            assert angle_between(out, dom).phi == pytest.approx(theta, abs=1e-9)


def test_project_output_norm_is_sin_ratio():
    # ||out|| = ||aux|| * sin(phi) / sin(theta): the perpendicular component
    # is untouched and the along-dom component is set by the target angle
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(300):
        aux, dom = random_conflicting_pair(rng, 8)
        phi = angle_between(aux, dom).phi
        theta = rng.uniform(0.05, HALF_PI)
        out = project(aux, dom, theta)
        expected = aux.norm() * math.sin(phi) / math.sin(theta)
        assert out.norm() == pytest.approx(expected, rel=1e-9)


def test_project_preserves_perpendicular_component():
    rng = np.random.Generator(np.random.PCG64(24))
    for _ in range(300):
        aux, dom = random_conflicting_pair(rng, 8)
        out = project(aux, dom, rng.uniform(0.05, HALF_PI))
        dhat = dom.values / dom.norm()
        perp_before = aux.values - (aux.values @ dhat) * dhat
        perp_after = out.values - (out.values @ dhat) * dhat
        np.testing.assert_allclose(perp_after, perp_before, rtol=0, atol=1e-12)


def test_project_non_conflicting_pair_passes_through_unchanged():
    aux, dom = vec(1.0, 0.5), vec(1.0, 0.0)
    out = project(aux, dom, math.radians(30.0))
    assert out is aux  # not a copy: bit-identical pass-through


def test_project_degenerate_inputs_pass_through():
    zero = vec(0.0, 0.0)
    aux = vec(-1.0, 0.0)
    assert project(zero, aux, 1.0) is zero
    assert project(aux, zero, 1.0) is aux


def test_project_anti_parallel_collapses_to_zero():
    # sin(phi) = 0 and cos(phi) = -1 make the projection exactly cancel
    aux, dom = vec(-2.0, 0.0), vec(1.0, 0.0)
    out = project(aux, dom, math.radians(45.0))
    np.testing.assert_array_equal(out.values, [0.0, 0.0])
    # the collapsed auxiliary gradient has no angle to report
    config = RemedyConfig(strategy=Strategy.FIXED_THETA, fixed_theta=math.radians(45.0))
    outcome = remedy_layer(TaskGradients(aux, dom), config)
    np.testing.assert_array_equal(outcome.g_aux_out.values, [0.0, 0.0])
    assert outcome.was_conflicting and outcome.theta_prime is None


def test_project_rejects_theta_outside_range():
    aux, dom = vec(-1.0, 1.0), vec(1.0, 0.0)
    for theta in (0.0, -0.3, HALF_PI + 1e-9):
        with pytest.raises(ValueError, match="theta"):
            project(aux, dom, theta)


def test_project_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        project(vec(1.0, 0.0), vec(1.0, 0.0, 0.0), 1.0)


def test_project_at_right_angle_matches_normal_plane_formula():
    # theta = pi/2 is the plain drop-the-parallel-component projection
    rng = np.random.Generator(np.random.PCG64(25))
    for dim in (2, 8, 64):
        for _ in range(100):
            aux, dom = random_conflicting_pair(rng, dim)
            out = project(aux, dom, HALF_PI)
            dot = float(aux.values @ dom.values)
            expected = aux.values - (dot / dom.norm() ** 2) * dom.values
            np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)


def test_project_two_d_matches_rotation_construction():
    # independent oracle: rotate the dominant direction by +/- theta toward
    # the auxiliary side, then scale to ||aux||*sin(phi)/sin(theta)
    rng = np.random.Generator(np.random.PCG64(26))
    for _ in range(500):
        aux, dom = random_conflicting_pair(rng, 2)
        theta = rng.uniform(0.05, HALF_PI)
        phi = angle_between(aux, dom).phi
        dhat = dom.values / dom.norm()
        cross = dhat[0] * aux.values[1] - dhat[1] * aux.values[0]
        s = 1.0 if cross > 0 else -1.0
        rot = np.array(
            [
                [math.cos(s * theta), -math.sin(s * theta)],
                [math.sin(s * theta), math.cos(s * theta)],
            ]
        )
        expected = (rot @ dhat) * (aux.norm() * math.sin(phi) / math.sin(theta))
        out = project(aux, dom, theta)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-9)


# --- rescale -----------------------------------------------------------------


def test_rescale_frozen_two_d_case():
    # ||aux|| = 10 > 5 * ||dom|| = 5; r = cos(theta') = 0.8 compresses aux to
    # (6.4, 4.8) and stretches dom to (1.25, 0)
    result = rescale(vec(8.0, 6.0), vec(1.0, 0.0), math.acos(0.8), RemedyConfig())
    assert result.triggered
    assert result.r == pytest.approx(0.8, abs=1e-15)
    assert not result.clamped
    np.testing.assert_allclose(result.g_aux.values, [6.4, 4.8], rtol=1e-15)
    np.testing.assert_allclose(result.g_dom.values, [1.25, 0.0], rtol=1e-15)


def test_rescale_below_threshold_is_identity():
    aux, dom = vec(3.0, 0.0), vec(1.0, 0.0)
    result = rescale(aux, dom, 0.3, RemedyConfig())
    assert not result.triggered
    assert result.r is None
    assert result.g_aux is aux and result.g_dom is dom


def test_rescale_laws_hold_for_all_ratio_rules():
    rng = np.random.Generator(np.random.PCG64(27))
    for rule in RatioRule:
        config = RemedyConfig(ratio_rule=rule, ratio_constant=0.35)
        for _ in range(200):
            d = rng.standard_normal(6)
            d /= np.linalg.norm(d)
            # acute pair (the post-projection state) with ratio above K
            a = d + 0.4 * rng.standard_normal(6)
            a *= rng.uniform(6.0, 40.0) / np.linalg.norm(a)
            aux, dom = vec(*a), vec(*d)
            tp = angle_between(aux, dom).phi
            result = rescale(aux, dom, tp, config)
            assert result.triggered
            # norm product invariant
            assert result.g_aux.norm() * result.g_dom.norm() == pytest.approx(
                aux.norm() * dom.norm(), rel=1e-12
            )
            # directions untouched (cosine, not angle: acos loses precision at 1)
            assert angle_between(result.g_aux, aux).cos_phi == pytest.approx(1.0, abs=1e-12)
            assert angle_between(result.g_dom, dom).cos_phi == pytest.approx(1.0, abs=1e-12)
            # dominance ratio drops by exactly r^2
            before = aux.norm() / dom.norm()
            after = result.g_aux.norm() / result.g_dom.norm()
            assert after == pytest.approx(result.r**2 * before, rel=1e-12)


def test_rescale_inv_sqrt_k_rule_value():
    config = RemedyConfig(ratio_rule=RatioRule.INV_SQRT_K, dominance_k=4.0)
    result = rescale(vec(9.0, 0.0), vec(1.0, 0.0), 0.1, config)
    assert result.r == 0.5  # 1/sqrt(4) exactly


def test_rescale_constant_rule_value():
    config = RemedyConfig(ratio_rule=RatioRule.CONSTANT, ratio_constant=0.25)
    result = rescale(vec(9.0, 0.0), vec(1.0, 0.0), 0.1, config)
    assert result.r == 0.25


def test_rescale_clamps_tiny_ratio_at_r_min():
    # theta' right below pi/2: cos(theta') underflows past r_min, the clamp
    # bounds the dominant stretch at 1/r_min
    config = RemedyConfig(r_min=1e-3)
    result = rescale(vec(9.0, 0.0), vec(1.0, 0.0), HALF_PI - 1e-9, config)
    assert result.triggered and result.clamped
    assert result.r == config.r_min


def test_rescale_at_a_ratio_equal_to_r_min_is_not_clamped():
    # the clamp is r < r_min: a ratio exactly at r_min is applied as it is
    config = RemedyConfig(ratio_rule=RatioRule.CONSTANT, ratio_constant=0.5, r_min=0.5)
    result = rescale(vec(10.0, 0.0), vec(1.0, 0.0), 0.0, config)
    assert result.triggered and result.r == 0.5 and not result.clamped
    out = remedy_pair(np.array([10.0, 0.0]), np.array([1.0, 0.0]), config)
    assert out.r_applied == 0.5 and not out.r_clamped


@pytest.mark.parametrize("strategy", list(Strategy))
def test_an_exactly_orthogonal_pair_passes_through_untouched(strategy):
    # conflict is a.d < 0: a dot product of exactly 0 is no conflict, so
    # no strategy projects (fixed-theta would otherwise move a to 36 deg)
    aux, dom = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = remedy_pair(aux, dom, RemedyConfig(strategy=strategy))
    assert out.aux is aux and out.dom is dom
    assert not out.was_conflicting and not out.conflicting_post
    assert out.phi == HALF_PI and out.r_applied is None


def test_a_dot_exactly_at_the_post_conflict_slack_is_no_post_conflict():
    # ||d|| = sqrt(1 + 1e-18) rounds to 1.0, so a.d = -1e-9 is exactly
    # -POST_CONFLICT_TOL * ||a|| * ||d||: a conflict before surgery (a.d < 0),
    # but inside the slack that measures the emitted pair
    aux, dom = np.array([1.0, 0.0]), np.array([-1e-9, 1.0])
    gram = pair_gram(aux, dom)
    assert gram.dot == -POST_CONFLICT_TOL * gram.norm_a * gram.norm_b
    out = remedy_pair(aux, dom, RemedyConfig(strategy=Strategy.NAIVE_SUM))
    assert out.aux is aux and out.dom is dom
    assert out.was_conflicting and not out.conflicting_post


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_norm_ratio_exactly_k_is_not_wrongly_dominant(strategy):
    # dominance is ||a|| > K*||d||: at ||a|| = 5 = K*||d|| nothing rescales
    aux, dom = np.array([5.0, 0.0]), np.array([1.0, 0.0])
    out = remedy_pair(aux, dom, RemedyConfig(strategy=strategy, dominance_k=5.0))
    assert out.aux is aux and out.dom is dom
    assert not out.was_wrongly_dominant and not out.wrongly_dominant_post
    assert out.r_applied is None


def test_rescale_rejects_degenerate_dominant():
    with pytest.raises(ValueError, match="degenerate"):
        rescale(vec(1.0, 0.0), vec(0.0, 0.0), 0.3, RemedyConfig())


# --- config and layer-level plumbing -----------------------------------------


def test_remedy_config_validation():
    with pytest.raises(ValueError, match="dominance_k"):
        RemedyConfig(dominance_k=1.0)
    with pytest.raises(ValueError, match="fixed_theta"):
        RemedyConfig(fixed_theta=0.0)
    with pytest.raises(ValueError, match="fixed_theta"):
        RemedyConfig(fixed_theta=HALF_PI + 0.1)
    with pytest.raises(ValueError, match="r_min"):
        RemedyConfig(r_min=1.0)
    with pytest.raises(ValueError, match="ratio_constant"):
        RemedyConfig(ratio_constant=0.0)
    RemedyConfig(fixed_theta=HALF_PI)  # the boundary angle is legal


def test_task_gradients_shape_mismatch():
    with pytest.raises(ValueError, match="disagree on shape"):
        TaskGradients(vec(1.0, 2.0), GradientVector(np.zeros(2), (2, 1)))


def test_remedy_layer_frozen_total():
    # projection only: total = (sqrt(2)/2 + 1, 1); the post-projection norm
    # sqrt(1.5) is far below K*||dom|| = 5, so no rescale fires
    grads = TaskGradients(vec(-1.0, 1.0), vec(1.0, 0.0))
    outcome = remedy_layer(grads, RemedyConfig())
    assert outcome.was_conflicting
    assert not outcome.was_wrongly_dominant
    assert outcome.r_applied is None
    assert outcome.phi == pytest.approx(math.radians(135.0), abs=1e-12)
    assert outcome.theta_prime == pytest.approx(0.9553166181245093, abs=1e-15)
    # the projected pair reports exactly the angle it was moved to
    assert outcome.theta_prime == dynamic_theta(grads.g_aux, grads.g_dom)
    np.testing.assert_allclose(
        outcome.g_total.values, [math.sqrt(2.0) / 2.0 + 1.0, 1.0], rtol=0, atol=1e-15
    )


def test_remedy_layer_naive_sum_passes_gradients_through():
    grads = TaskGradients(vec(-1.0, 1.0), vec(1.0, 0.0))
    outcome = remedy_layer(grads, RemedyConfig(strategy=Strategy.NAIVE_SUM))
    assert outcome.g_aux_out is grads.g_aux
    assert outcome.g_dom_out is grads.g_dom
    np.testing.assert_allclose(outcome.g_total.values, [0.0, 1.0], atol=1e-15)
    assert outcome.was_conflicting  # detection still runs for baselines
    assert outcome.theta_prime == outcome.phi


def test_remedy_layer_pcgrad_matches_right_angle_projection():
    rng = np.random.Generator(np.random.PCG64(28))
    config = RemedyConfig(strategy=Strategy.PCGRAD)
    for _ in range(200):
        aux, dom = random_conflicting_pair(rng, 8)
        outcome = remedy_layer(TaskGradients(aux, dom), config)
        expected = project(aux, dom, HALF_PI)
        # same code path, same arithmetic: bit-identical
        np.testing.assert_array_equal(outcome.g_aux_out.values, expected.values)
        assert outcome.g_dom_out is dom


def test_remedy_layer_fixed_theta_lands_at_configured_angle():
    config = RemedyConfig(strategy=Strategy.FIXED_THETA, fixed_theta=math.radians(36))
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(100):
        aux, dom = random_conflicting_pair(rng, 4)
        outcome = remedy_layer(TaskGradients(aux, dom), config)
        assert angle_between(outcome.g_aux_out, dom).phi == pytest.approx(
            math.radians(36), abs=1e-9
        )
        assert outcome.theta_prime == pytest.approx(math.radians(36), abs=1e-15)
    # a pair that does not conflict is not projected and keeps its angle
    aux, dom = vec(1.0, 1.0), vec(1.0, 0.0)
    outcome = remedy_layer(TaskGradients(aux, dom), config)
    assert outcome.g_aux_out is aux
    assert outcome.theta_prime == outcome.phi == angle_between(aux, dom).phi


def test_remedy_layer_rescale_fires_on_wrong_dominance():
    # ||aux|| = 10, conflicting; projection keeps it near 6, still > K = 5,
    # so the rescale fires with r = cos(dynamic theta)
    grads = TaskGradients(vec(-8.0, 6.0), vec(1.0, 0.0))
    outcome = remedy_layer(grads, RemedyConfig())
    assert outcome.was_conflicting and outcome.was_wrongly_dominant
    assert outcome.r_applied == pytest.approx(math.cos(math.atan(10.0)), rel=1e-12)
    assert not outcome.r_clamped
    # emitted pair is no longer wrongly dominant
    assert outcome.g_aux_out.norm() <= 5.0 * outcome.g_dom_out.norm()


def test_remedy_layer_projection_only_when_rescale_disabled():
    grads = TaskGradients(vec(-8.0, 6.0), vec(1.0, 0.0))
    outcome = remedy_layer(grads, RemedyConfig(rescale_enabled=False))
    assert outcome.was_wrongly_dominant
    assert outcome.r_applied is None
    assert outcome.g_dom_out is grads.g_dom


def test_remedy_layer_degenerate_pair_passes_through():
    zero = vec(0.0, 0.0)
    dom = vec(1.0, 0.0)
    outcome = remedy_layer(TaskGradients(zero, dom), RemedyConfig())
    assert outcome.g_aux_out is zero
    assert not outcome.was_conflicting
    assert not outcome.was_wrongly_dominant
    assert outcome.phi is None and outcome.theta_prime is None
    np.testing.assert_array_equal(outcome.g_total.values, dom.values)
    # a zero dominant gradient: no angle, and no dominance however large aux is
    aux = vec(-100.0, 1.0)
    outcome = remedy_layer(TaskGradients(aux, zero), RemedyConfig())
    assert outcome.g_aux_out is aux and outcome.g_dom_out is zero
    assert outcome.phi is None and outcome.theta_prime is None
    assert not (outcome.was_wrongly_dominant or outcome.wrongly_dominant_post)


def test_remedy_layer_non_conflicting_dominant_pair_still_rescales():
    # wrong dominance does not require conflict: an acute pair over the
    # threshold gets rescaled with r = cos(phi)
    grads = TaskGradients(vec(8.0, 6.0), vec(1.0, 0.0))
    outcome = remedy_layer(grads, RemedyConfig())
    assert not outcome.was_conflicting
    assert outcome.was_wrongly_dominant
    assert outcome.r_applied == pytest.approx(0.8, rel=1e-12)
    np.testing.assert_allclose(outcome.g_aux_out.values, [6.4, 4.8], rtol=1e-15)


def test_readme_library_use_block_runs_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    outcome = namespace["outcome"]
    assert outcome.was_conflicting is True
    assert outcome.theta_prime == pytest.approx(math.atan(math.sqrt(2.0)), rel=1e-12)
    np.testing.assert_allclose(outcome.g_total.values, [1.70710678, 1.0], rtol=0, atol=5e-9)
