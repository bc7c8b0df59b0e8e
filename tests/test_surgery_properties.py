"""Invariants of the surgery over drawn and scaled inputs.

- the post-surgery flags on RemedyOutcome are the conflict and dominance
  predicates of the pair it emits, also for near-anti-parallel pairs whose
  projection leaves only cancellation residue
- no entry point mutates its input arrays
- power-of-two scaling commutes with the surgery bit for bit over the whole
  float64 range, past the point where a.d overflows
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradremedy
from gradremedy import (
    DEFAULT_TOL_NORM,
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
from gradremedy.surgery import POST_CONFLICT_TOL

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

CONFIGS = [
    RemedyConfig(strategy=Strategy.NAIVE_SUM),
    RemedyConfig(strategy=Strategy.PCGRAD),
    RemedyConfig(strategy=Strategy.FIXED_THETA, fixed_theta=math.radians(36.0)),
    RemedyConfig(),
    RemedyConfig(ratio_rule=RatioRule.INV_SQRT_K, dominance_k=2.0),
]


def vec(values):
    arr = np.array(values, dtype=np.float64)
    return GradientVector(arr, (arr.size,))


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def pairs(draw):
    """(aux, dom) draws; a third are near-anti-parallel, where the projection
    of aux is a cancellation residue of relative size down to 1e-15."""
    n = draw(st.integers(1, 12))
    aux = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    if draw(st.booleans()):
        dom = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    else:
        noise = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
        ratio = draw(st.floats(1e-3, 1e3))
        eps = draw(st.floats(1e-15, 1e-6))
        dom = -ratio * aux + eps * ratio * noise
    return vec(aux), vec(dom)


@SETTINGS
@given(pairs(), st.sampled_from(CONFIGS))
def test_post_flags_are_the_predicates_of_the_emitted_pair(pair, config):
    outcome = remedy_layer(TaskGradients(*pair), config)
    a, d = outcome.g_aux_out.values, outcome.g_dom_out.values
    dot = float(a @ d)
    norm_a, norm_d = float(np.linalg.norm(a)), float(np.linalg.norm(d))
    if norm_a < DEFAULT_TOL_NORM or norm_d < DEFAULT_TOL_NORM:
        conflicting = dominant = False
    else:
        conflicting = dot < -POST_CONFLICT_TOL * norm_a * norm_d
        dominant = norm_a > config.dominance_k * norm_d
    assert outcome.conflicting_post == conflicting
    assert outcome.wrongly_dominant_post == dominant
    np.testing.assert_array_equal(outcome.g_total.values, a + d)


@SETTINGS
@given(pairs(), st.sampled_from(CONFIGS))
def test_no_entry_point_mutates_its_inputs(pair, config):
    aux, dom = pair
    before = aux.values.copy(), dom.values.copy()
    remedy_layer(TaskGradients(aux, dom), config)
    project(aux, dom, math.radians(36.0))
    angle_between(aux, dom)
    if dom.norm() >= DEFAULT_TOL_NORM:
        dynamic_theta(aux, dom)
        rescale(aux, dom, math.radians(36.0), config)
    np.testing.assert_array_equal(aux.values, before[0])
    np.testing.assert_array_equal(dom.values, before[1])


# conflicting and rescaled; conflicting below the threshold; acute and
# rescaled; near-anti-parallel
SCALED_PAIRS = [
    ([-8.0, 6.0], [1.0, 0.0]),
    ([-1.0, 1.0, 0.5], [1.0, 0.0, -0.25]),
    ([8.0, 6.0, 1.0], [1.0, 0.5, 0.0]),
    ([1.5, -2.0, 0.75], [-1.5, 2.0, -0.7499]),
]


def _outcome_fields(outcome):
    return (
        outcome.was_conflicting,
        outcome.was_wrongly_dominant,
        outcome.conflicting_post,
        outcome.wrongly_dominant_post,
        outcome.phi,
        outcome.theta_prime,
        outcome.r_applied,
        outcome.r_clamped,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", CONFIGS[:4], ids=lambda c: c.strategy.value)
def test_power_of_two_scaling_commutes_bit_for_bit(config):
    for aux, dom in SCALED_PAIRS:
        base = remedy_layer(TaskGradients(vec(aux), vec(dom)), config)
        for k in range(0, 1001):
            grads = TaskGradients(vec(np.ldexp(aux, k)), vec(np.ldexp(dom, k)))
            scaled = remedy_layer(grads, config)
            for field in ("g_aux_out", "g_dom_out", "g_total"):
                expected = np.ldexp(getattr(base, field).values, k)
                assert np.array_equal(getattr(scaled, field).values, expected), (k, field)
            assert _outcome_fields(scaled) == _outcome_fields(base), k


@pytest.mark.filterwarnings("error")
def test_135_degree_pair_survives_an_overflowing_dot():
    for scale in (1e160, 1e300):
        aux, dom = vec([-scale, scale]), vec([scale, 0.0])
        report = angle_between(aux, dom)
        assert report.phi == pytest.approx(math.radians(135.0), abs=1e-15)
        for config in CONFIGS[:4]:
            outcome = remedy_layer(TaskGradients(aux, dom), config)
            assert outcome.phi == report.phi
            assert outcome.was_conflicting
            assert outcome.conflicting_post == (config.strategy is Strategy.NAIVE_SUM)
    # a huge gradient does not make a modest partner look degenerate
    assert not angle_between(vec([1e200, 0.0]), vec([0.0, 1e-5])).degenerate
    assert angle_between(vec([1e200, 0.0]), vec([0.0, 1e-13])).degenerate


def test_active_backend_is_numpy():
    assert gradremedy.active_backend() == "numpy"
