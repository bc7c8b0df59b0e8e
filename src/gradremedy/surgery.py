"""Gradient-combination strategies for one layer's (auxiliary, dominant) pair.

Four strategies over a flattened per-layer gradient pair:

- naive sum: add the two task gradients as-is
- pcgrad: when the pair conflicts (negative inner product), drop the
  auxiliary gradient's component along the dominant one
- fixed-angle projection: instead of the normal plane, land the conflicting
  auxiliary gradient at a configured acute angle to the dominant gradient
- gradient remedy: fixed-angle projection with the target angle chosen
  dynamically as arctan(norm ratio), followed by an adaptive magnitude
  rescale when the auxiliary gradient dwarfs the dominant one

Each is a 2x2 map on span(a, d), a the auxiliary and d the dominant
gradient: a' = a + c*d, then r*a' and d/r. One planner decides c and r from
the Gram triple (a.d, ||a||, ||d||); pcgrad is its theta = pi/2 case.

Detection flags (conflict, wrong dominance) are computed for every strategy
so baseline runs emit the same interference statistics as remedied runs;
remedy_pair measures them on the input pair and on the pair it emits.
remedy_pair works on plain arrays (the trainer hands it views of its
gradient buffers); remedy_layer is its GradientVector wrapper. A
GradientVector is one layer's gradient as a flat float64 vector carrying
its original shape, and pair_gram gives a pair's Gram triple.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

_HALF_PI = 0.5 * math.pi

# 2-norms below this are treated as zero: the direction of such a gradient is
# numerically meaningless, so angle-based operations skip it. Gram.degenerate
# is the one reader.
DEFAULT_TOL_NORM = 1e-12

# relative slack when testing conflict on emitted gradients: a projection
# landing exactly on the normal plane produces rounding-level negative dots
POST_CONFLICT_TOL = 1e-9


class Strategy(Enum):
    NAIVE_SUM = "naive"
    PCGRAD = "pcgrad"
    FIXED_THETA = "fixed-theta"
    GRADIENT_REMEDY = "gradient-remedy"


class RatioRule(Enum):
    COS_THETA_PRIME = "cos-theta-prime"
    INV_SQRT_K = "inv-sqrt-k"
    CONSTANT = "constant"


def bound_errors(config, bounds) -> list[str]:
    """'field: rule (got value)' for each (field, holds, rule) in bounds
    whose holds(value) is false; fields config lacks are skipped."""
    return [
        f"{name}: {rule} (got {getattr(config, name)!r})"
        for name, holds, rule in bounds
        if hasattr(config, name) and not holds(getattr(config, name))
    ]


def raise_if_any(errors: list[str]) -> None:
    """One ValueError naming every error in the list, if it has any."""
    if errors:
        raise ValueError("; ".join(errors))


# -- flat gradient vectors and the Gram triple ----------------------------------


@dataclass(frozen=True)
class GradientVector:
    """One layer's gradient, flattened row-major, plus the shape to restore.

    values is always a C-contiguous float64 1-D array and is treated as
    immutable by every operation in this package.
    """

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got ndim={values.ndim}")
        shape = tuple(int(d) for d in self.shape)
        if len(shape) == 0 or any(d < 1 for d in shape):
            raise ValueError(f"shape must be positive dimensions, got {shape}")
        expected = int(np.prod(shape))
        if values.size != expected:
            raise ValueError(
                f"length {values.size} does not match shape {shape} "
                f"(product {expected})"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(
                f"non-finite gradient entry at flat index {bad} (shape {shape})"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape", shape)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def with_values(self, values: np.ndarray) -> "GradientVector":
        """Same shape metadata, new flat values."""
        return GradientVector(values, self.shape)


class Gram(NamedTuple):
    """a.b, ||a|| and ||b|| of one pair, in units of 4**exponent (the dot)
    and 2**exponent (the norms); exponent is 0 unless the plain triple
    overflows. Ratios do not see the unit; absolute norm tests go through
    degenerate()."""

    dot: float
    norm_a: float
    norm_b: float
    exponent: int = 0

    def cos(self) -> float:
        """cos(phi), clamped so near-parallel rounding stays in acos's domain."""
        return min(1.0, max(-1.0, self.dot / (self.norm_a * self.norm_b)))

    def degenerate(self, only_b: bool = False) -> bool:
        """Whether a or b (only b, with only_b) has a 2-norm below
        DEFAULT_TOL_NORM."""
        norm = self.norm_b if only_b else min(self.norm_a, self.norm_b)
        if self.exponent:
            return norm < math.ldexp(DEFAULT_TOL_NORM, -self.exponent)
        return norm < DEFAULT_TOL_NORM


def pair_gram(a: np.ndarray, b: np.ndarray) -> Gram:
    """The Gram triple of two equal-length float64 vectors.

    Only when a.b, a.a or b.b overflows is the triple rebuilt from copies
    scaled down by powers of two that bring each vector's largest entry
    into [0.5, 1).
    """
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    # np.vdot gives the same bits as `a @ b` but raises no overflow warning
    dot, sq_a, sq_b = float(np.vdot(a, b)), float(np.vdot(a, a)), float(np.vdot(b, b))
    if math.isfinite(dot) and math.isfinite(sq_a) and math.isfinite(sq_b):
        return Gram(dot, math.sqrt(sq_a), math.sqrt(sq_b))
    exp_a, exp_b = (max(0, math.frexp(np.abs(v).max())[1]) for v in (a, b))
    a, b = a * math.ldexp(1.0, -exp_a), b * math.ldexp(1.0, -exp_b)
    exponent = max(exp_a, exp_b)
    return Gram(
        math.ldexp(float(np.vdot(a, b)), exp_a + exp_b - 2 * exponent),
        math.ldexp(math.sqrt(np.vdot(a, a)), exp_a - exponent),
        math.ldexp(math.sqrt(np.vdot(b, b)), exp_b - exponent),
        exponent,
    )


@dataclass(frozen=True)
class AngleReport:
    """Angle between two gradients; degenerate when either norm is ~zero.

    phi and cos_phi are None exactly when degenerate is True.
    """

    phi: float | None
    cos_phi: float | None
    degenerate: bool


def angle_between(a: GradientVector, b: GradientVector) -> AngleReport:
    """Angle between two equal-length gradients.

    Either norm below DEFAULT_TOL_NORM makes the report degenerate.
    """
    gram = pair_gram(a.values, b.values)
    if gram.degenerate():
        return AngleReport(phi=None, cos_phi=None, degenerate=True)
    cos_phi = gram.cos()
    return AngleReport(phi=math.acos(cos_phi), cos_phi=cos_phi, degenerate=False)


def _theta_in_range(theta: float) -> bool:
    return 0.0 < theta <= _HALF_PI


def remedy_config_errors(config) -> list[str]:
    """Every bound a RemedyConfig, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("dominance_k", lambda k: k > 1.0, "K must exceed 1"),
        ("fixed_theta", _theta_in_range,
         "theta must lie in (0, 90] degrees, (0, pi/2] in radians"),
        ("ratio_constant", lambda c: 0.0 < c < 1.0,
         "ratio constant must lie in (0, 1)"),
        ("r_min", lambda r: 0.0 < r < 1.0, "r_min must lie in (0, 1)"),
    ))


@dataclass(frozen=True)
class RemedyConfig:
    """Strategy selection plus the knobs shared by all strategies.

    fixed_theta is only read by FIXED_THETA; ratio_constant only by the
    CONSTANT ratio rule. r_min bounds how hard the rescale may stretch the
    dominant gradient (1/r_min at most).
    """

    strategy: Strategy = Strategy.GRADIENT_REMEDY
    fixed_theta: float = math.radians(36.0)
    dominance_k: float = 5.0
    ratio_rule: RatioRule = RatioRule.COS_THETA_PRIME
    ratio_constant: float = 0.5
    rescale_enabled: bool = True
    r_min: float = 1e-3

    def __post_init__(self):
        raise_if_any(remedy_config_errors(self))


@dataclass(frozen=True)
class TaskGradients:
    """Auxiliary- and dominant-task gradients of one layer, equal shape.

    Both gradients arrive pre-scaled by their loss weights; the surgery is a
    pure function of the two vectors and never sees the weighting.
    """

    g_aux: GradientVector
    g_dom: GradientVector

    def __post_init__(self):
        if self.g_aux.shape != self.g_dom.shape:
            raise ValueError("task gradients disagree on shape "
                             f"({self.g_aux.shape} vs {self.g_dom.shape})")


class Remedy(NamedTuple):
    """One unit's surgery outcome, as remedy_pair returns it; RemedyOutcome
    takes every field after aux and dom from here.

    aux, dom are the emitted pair (the input arrays when unchanged).
    was_wrongly_dominant applies the dominance predicate to the auxiliary
    gradient after projection but before any rescale; phi is the pre-remedy
    angle (None when either input is degenerate); theta_prime is the angle
    between the post-projection auxiliary gradient and the dominant gradient
    (None when degenerate or when projection collapsed the auxiliary
    gradient to zero). conflicting_post (with POST_CONFLICT_TOL slack) and
    wrongly_dominant_post are measured on the emitted pair. r_applied and
    r_clamped record the rescale event.
    """

    aux: np.ndarray
    dom: np.ndarray
    was_conflicting: bool
    was_wrongly_dominant: bool
    theta_prime: float | None
    phi: float | None
    conflicting_post: bool
    wrongly_dominant_post: bool
    r_applied: float | None
    r_clamped: bool


# remedy_layer's result: the emitted pair and its sum, then Remedy's outcome fields
RemedyOutcome = NamedTuple("RemedyOutcome", [
    ("g_aux_out", GradientVector), ("g_dom_out", GradientVector),
    ("g_total", GradientVector),
    *[(name, Remedy.__annotations__[name]) for name in Remedy._fields[2:]]])


class RescaleResult(NamedTuple):
    g_aux: GradientVector
    g_dom: GradientVector
    triggered: bool
    r: float | None
    clamped: bool


# -- the planner: every decision below is a function of the Gram triple --------


class _Plan(NamedTuple):
    phi: float | None  # pre-surgery angle; None when the pair is degenerate
    conflicting: bool
    coef: float | None  # a' = a + coef*d; None when nothing is projected
    theta: float | None  # the angle a' lands at, when projected


def _target_theta(strategy: Strategy, gram: Gram, fixed_theta=None) -> float:
    if strategy is Strategy.PCGRAD:
        return _HALF_PI
    if strategy is Strategy.FIXED_THETA:
        return fixed_theta
    return math.atan(gram.norm_a / gram.norm_b)


def _plan(gram: Gram, strategy: Strategy, fixed_theta: float) -> _Plan:
    """Angle, conflict flag and projection coefficient of one pair.

    Only a conflicting, non-degenerate pair under a projecting strategy gets
    a coefficient: it keeps a's part perpendicular to d and lands a' at
    theta. theta == pi/2 uses an exact zero along-direction term so it
    reduces to the plain normal-plane projection.
    """
    if gram.degenerate():
        return _Plan(None, False, None, None)
    cos_phi = gram.cos()
    phi = math.acos(cos_phi)
    # dot < 0 is exactly cos(phi) < 0 and avoids arccos at the boundary
    conflicting = gram.dot < 0.0
    if not conflicting or strategy is Strategy.NAIVE_SUM:
        return _Plan(phi, conflicting, None, None)
    theta = _target_theta(strategy, gram, fixed_theta)
    sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
    inv_tan_theta = 0.0 if theta == _HALF_PI else math.cos(theta) / math.sin(theta)
    coef = gram.norm_a * (sin_phi * inv_tan_theta - cos_phi) / gram.norm_b
    return _Plan(phi, True, coef, theta)


def _interference(gram: Gram, config: RemedyConfig) -> tuple[bool, bool]:
    """(conflicting, wrongly dominant) as measured on a pair; both False
    when the pair is degenerate."""
    if gram.degenerate():
        return False, False
    return (
        gram.dot < -POST_CONFLICT_TOL * gram.norm_a * gram.norm_b,
        gram.norm_a > config.dominance_k * gram.norm_b,
    )


def _ratio(theta_prime_val: float, config: RemedyConfig) -> tuple[float, bool]:
    """The rescale ratio r, clamped below at r_min, and whether it was."""
    if config.ratio_rule is RatioRule.COS_THETA_PRIME:
        r = math.cos(theta_prime_val)
    elif config.ratio_rule is RatioRule.INV_SQRT_K:
        r = 1.0 / math.sqrt(config.dominance_k)
    else:
        r = config.ratio_constant
    return max(r, config.r_min), r < config.r_min


def _dominant_gram(g_aux: GradientVector, g_dom: GradientVector, what: str) -> Gram:
    """The pair's Gram triple; a degenerate g_dom leaves what undefined,
    and raises ValueError saying so."""
    gram = pair_gram(g_aux.values, g_dom.values)
    if gram.degenerate(only_b=True):
        raise ValueError(f"dominant gradient is degenerate (norm {g_dom.norm():.3e}); "
                         f"{what} is undefined")
    return gram


# -- public entry points --------------------------------------------------------


def dynamic_theta(g_aux: GradientVector, g_dom: GradientVector) -> float:
    """Projection target angle arctan(||g_aux|| / ||g_dom||).

    Shrinks toward 0 when the auxiliary gradient is relatively small, so the
    projection pushes it more toward the dominant direction; grows toward
    pi/2 when it is relatively large.
    """
    gram = _dominant_gram(g_aux, g_dom, "the norm-ratio angle")
    return _target_theta(Strategy.GRADIENT_REMEDY, gram)


def project(
    g_aux: GradientVector, g_dom: GradientVector, theta: float
) -> GradientVector:
    """Project a conflicting auxiliary gradient to angle theta from g_dom.

    Triggers only when the pair conflicts (negative inner product, i.e. the
    angle between them exceeds pi/2); otherwise g_aux is returned unchanged
    (the same object, bit-identical). Degenerate inputs pass through
    untouched. The component of g_aux perpendicular to g_dom is preserved
    exactly; only the along-g_dom component moves.
    """
    if not _theta_in_range(theta):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    plan = _plan(pair_gram(g_aux.values, g_dom.values), Strategy.FIXED_THETA, theta)
    if plan.coef is None:
        return g_aux
    return g_aux.with_values(g_aux.values + plan.coef * g_dom.values)


def rescale(
    g_aux_projected: GradientVector,
    g_dom: GradientVector,
    theta_prime_val: float | None,
    config: RemedyConfig,
) -> RescaleResult:
    """Compress the auxiliary gradient by r and stretch the dominant by 1/r.

    Fires only when ||g_aux_projected|| exceeds dominance_k times ||g_dom||.
    r comes from the configured ratio rule and is clamped below by r_min
    (recorded, not an error). Directions are unchanged and the product of
    the two norms is invariant under the rescale.
    """
    gram = _dominant_gram(g_aux_projected, g_dom, "rescale")
    _, dominant = _interference(gram, config)
    # a zero projected gradient (theta_prime None) cannot trip the threshold
    if not dominant or theta_prime_val is None:
        return RescaleResult(g_aux_projected, g_dom, False, None, False)
    r, clamped = _ratio(theta_prime_val, config)
    aux_out = g_aux_projected.with_values(r * g_aux_projected.values)
    dom_out = g_dom.with_values((1.0 / r) * g_dom.values)
    return RescaleResult(aux_out, dom_out, True, r, clamped)


def remedy_pair(aux: np.ndarray, dom: np.ndarray, config: RemedyConfig) -> Remedy:
    """Apply the configured strategy to one (auxiliary, dominant) pair of
    equal-length float64 vectors; see remedy_layer. Never writes to its
    inputs, and expects them finite (the caller scans them)."""
    gram = pair_gram(aux, dom)
    plan = _plan(gram, config.strategy, config.fixed_theta)
    theta_p = plan.phi
    if plan.coef is not None:
        aux = aux + plan.coef * dom
        gram = pair_gram(aux, dom)
        theta_p = None if gram.degenerate() else plan.theta
    post = _interference(gram, config)  # the emitted pair's, unless rescaled
    wrongly_dominant = post[1]

    r_applied: float | None = None
    r_clamped = False
    # wrongly_dominant implies a non-degenerate pair, so theta_p is set
    if (
        wrongly_dominant
        and config.strategy is Strategy.GRADIENT_REMEDY
        and config.rescale_enabled
    ):
        r_applied, r_clamped = _ratio(theta_p, config)
        aux, dom = r_applied * aux, (1.0 / r_applied) * dom
        post = _interference(pair_gram(aux, dom), config)
    return Remedy(aux, dom, plan.conflicting, wrongly_dominant, theta_p, plan.phi,
                  *post, r_applied, r_clamped)


def remedy_layer(grads: TaskGradients, config: RemedyConfig) -> RemedyOutcome:
    """Apply the configured strategy to one layer's task-gradient pair.

    Degenerate inputs (either norm ~zero) pass both gradients through with
    flags false and angles absent, for every strategy. The post-projection
    norm that triggers the rescale, and the post-surgery flags, are measured
    on the emitted vectors rather than derived from the input triple: near
    anti-parallel pairs leave a cancellation residue whose direction no
    closed form predicts. An output equal to its input is the input object.
    """
    g_aux, g_dom = grads.g_aux, grads.g_dom
    out = remedy_pair(g_aux.values, g_dom.values, config)
    aux_out = g_aux if out.aux is g_aux.values else g_aux.with_values(out.aux)
    dom_out = g_dom if out.dom is g_dom.values else g_dom.with_values(out.dom)
    return RemedyOutcome(aux_out, dom_out, aux_out.with_values(out.aux + out.dom),
                         *out[2:])
