"""Flat gradient vectors and the angle geometry everything else builds on.

A layer's gradient is a 1-D float64 vector carrying its original shape, so
the surgery strategies can treat every layer as a plain vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# 2-norms below this are treated as zero: the direction of such a gradient is
# numerically meaningless, so angle-based operations skip it. Gram.degenerate
# is the one reader.
DEFAULT_TOL_NORM = 1e-12


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

    def __len__(self) -> int:
        return self.values.size

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
        return norm < math.ldexp(DEFAULT_TOL_NORM, -self.exponent)


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
