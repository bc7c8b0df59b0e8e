"""Seeded synthetic two-task data: denoise a vector, classify its source.

Each sample starts from one of a few fixed class templates (random unit
vectors kept at least ANGLE_FLOOR_DEG, a fixed 45 degrees, apart), gets
small intra-class jitter, and is then buried in Gaussian noise scaled so
the batch hits the requested signal-to-noise ratio exactly, for |snr_db|
up to _SNR_DB_LIMIT (about 319.1 dB). The clean vector is the auxiliary
regression target; the originating class is the dominant-task label.

Reproducibility: every random draw is keyed through numpy SeedSequence
tuples — (seed, 0) for templates, (seed, 1, i) for training batch i,
(seed, 2, j) for eval batch j — so batches are addressable and bit-stable
regardless of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .surgery import bound_errors, raise_if_any

ANGLE_FLOOR_DEG = 45.0  # the least pairwise angle between class templates

_TEMPLATE_STREAM = 0
_TRAIN_STREAM = 1
_EVAL_STREAM = 2


# the largest |snr_db| at which float64 holds both parts of a noisy sample:
# a norm ratio of 2**53 puts the smaller part below the larger one's rounding
_SNR_DB_LIMIT = 20.0 * math.log10(2.0 ** 53)


def dataset_errors(config) -> list[str]:
    """Every bound a TwoTaskDataset, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("dim", lambda d: d >= 2, "dim must be >= 2"),
        ("num_classes", lambda n: n >= 2, "num_classes must be >= 2"),
        ("jitter_std", lambda s: 0.0 <= s < math.inf, "jitter_std must be finite and >= 0"),
        ("template_scale", lambda s: 0.0 < s < math.inf,
         "template_scale must be positive and finite"),
        ("snr_db", lambda snr_db: abs(snr_db) <= _SNR_DB_LIMIT,  # false for nan
         f"snr_db must be finite and within +-{_SNR_DB_LIMIT:.1f} dB, past which "
         "float64 cannot hold both the signal and the noise"),
    ))


@dataclass(frozen=True)
class SampleBatch:
    """One batch of (noisy input, clean target, class label) triples."""

    noisy: np.ndarray
    clean: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.noisy.shape != self.clean.shape:
            raise ValueError(
                f"noisy shape {self.noisy.shape} != clean shape {self.clean.shape}"
            )
        if self.noisy.ndim != 2:
            raise ValueError(f"batch must be 2-D, got ndim {self.noisy.ndim}")
        if self.labels.shape != (self.noisy.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"batch size {self.noisy.shape[0]}"
            )

    def __len__(self) -> int:
        return self.noisy.shape[0]


def class_templates(
    seed: int,
    num_classes: int,
    dim: int,
    max_tries: int = 100_000,
) -> np.ndarray:
    """Random unit vectors with every pairwise angle >= ANGLE_FLOOR_DEG.

    Rejection sampling from an isotropic Gaussian; deterministic in seed.
    Raises, without drawing, if the caps of half the floor around that
    many templates would cover more than the sphere, and otherwise if the
    floor cannot be met within max_tries draws.
    """
    raise_if_any(dataset_errors(SimpleNamespace(num_classes=num_classes, dim=dim)))
    failure = (f"could not place {num_classes} templates in dim {dim} with pairwise "
               f"angle >= {ANGLE_FLOOR_DEG} deg")
    share = _cap_share(dim)
    if num_classes * share > 1.0:
        raise ValueError(f"{failure}: at most {math.floor(1.0 / share)} fit")
    rng = np.random.default_rng((seed, _TEMPLATE_STREAM))
    cos_ceiling = math.cos(math.radians(ANGLE_FLOOR_DEG))
    accepted = np.empty((num_classes, dim))
    count = 0
    for _ in range(max_tries):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if count == 0 or (accepted[:count] @ v).max() <= cos_ceiling:
            accepted[count] = v
            count += 1
            if count == num_classes:
                return accepted
    raise ValueError(f"{failure} after {max_tries} draws")


def _cap_share(dim: int) -> float:
    """A lower bound on the share of the unit sphere in dim dimensions that
    lies within ANGLE_FLOOR_DEG / 2 of a point. Such caps around templates
    the floor apart are disjoint, so at most 1 / share templates fit.

    The share is I_x((dim-1)/2, 1/2) / 2 with x = sin^2(floor / 2), the
    regularized incomplete beta function, summed as its hypergeometric
    series: every term is positive, so no digits cancel at any dim.
    Truncating the sum only lowers it, and the final 1e-9 trim outweighs
    the rounding of the logs and gammas.
    """
    a, x = (dim - 1) / 2.0, math.sin(math.radians(ANGLE_FLOOR_DEG / 2.0)) ** 2
    term = total = 1.0
    for n in range(40):  # the terms shrink by more than x ~ 0.15 each
        term *= (a + 0.5 + n) / (a + 1.0 + n) * x
        total += term
    log_share = (a * math.log(x) + 0.5 * math.log1p(-x) - math.log(2.0 * a)
                 + math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
                 + math.log(total))
    return math.exp(log_share) * (1.0 - 1e-9)


def template_errors(config) -> list[str]:
    """An error for the first of config's seeds whose templates cannot be
    placed, which its dataset would raise (the CLI passes its
    ExperimentSpec, with valid dataset fields)."""
    for seed in (s for s in config.seeds if s >= 0):  # the CLI refuses the rest
        try:
            class_templates(seed, config.num_classes, config.dim)
        except ValueError as err:
            return [f"num_classes: {err} (seed {seed})"]
    return []


@dataclass
class TwoTaskDataset:
    """Template set plus addressable, reproducible batch streams."""

    seed: int
    num_classes: int
    dim: int
    snr_db: float
    jitter_std: float = 0.05
    template_scale: float = 1.0
    templates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raise_if_any(dataset_errors(self))
        self.templates = self.template_scale * class_templates(
            self.seed, self.num_classes, self.dim
        )

    def _batch(self, batch_size: int, stream: int, index: int) -> SampleBatch:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        rng = np.random.default_rng((self.seed, stream, index))
        labels = rng.integers(0, self.num_classes, size=batch_size)
        # one draw: the jitter's entries first, then the raw noise's
        clean, noisy = rng.standard_normal((2, batch_size, self.dim))
        clean *= self.jitter_std
        clean += self.templates[labels]
        squared_norm = np.vdot(clean, clean)
        if not math.isfinite(squared_norm):
            kind = "training" if stream == _TRAIN_STREAM else "held-out"
            raise ValueError(
                f"{kind} batch {index}: the clean samples' squared norm overflows "
                f"float64 (template_scale {self.template_scale:g}, "
                f"jitter_std {self.jitter_std:g})")
        # scale so the realized batch SNR equals snr_db exactly
        target_noise_norm = math.sqrt(squared_norm) / 10.0 ** (self.snr_db / 20.0)
        noisy *= target_noise_norm / math.sqrt(np.vdot(noisy, noisy))
        noisy += clean
        return SampleBatch(noisy=noisy, clean=clean, labels=labels)

    def train_batch(self, batch_size: int, index: int) -> SampleBatch:
        """Training batch number `index` (any order, same result)."""
        return self._batch(batch_size, _TRAIN_STREAM, index)

    def eval_batch(self, batch_size: int, index: int = 0) -> SampleBatch:
        """Held-out batch; a stream disjoint from every training batch."""
        return self._batch(batch_size, _EVAL_STREAM, index)


def generate(
    seed: int, num_classes: int, dim: int, batch: int, snr_db: float
) -> SampleBatch:
    """One-shot convenience: first training batch of a fresh dataset."""
    data = TwoTaskDataset(seed=seed, num_classes=num_classes, dim=dim, snr_db=snr_db)
    return data.train_batch(batch, 0)

