"""Seeded synthetic two-task data: denoise a vector, classify its source.

Each sample starts from one of a few fixed class templates (random unit
vectors kept at least ANGLE_FLOOR_DEG, a fixed 45 degrees, apart), gets
small intra-class jitter, and is then buried in Gaussian noise scaled so
the batch hits the requested signal-to-noise ratio exactly; snr_db must
keep that scale's gain 10**(snr_db/20) a normal float. The clean vector is
the auxiliary regression target; the originating class is the
dominant-task label.

Reproducibility: every random draw is keyed through numpy SeedSequence
tuples — (seed, 0) for templates, (seed, 1, i) for training batch i,
(seed, 2, j) for eval batch j — so batches are addressable and bit-stable
regardless of generation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .surgery import bound_errors, raise_if_any

ANGLE_FLOOR_DEG = 45.0  # the least pairwise angle between class templates

_TEMPLATE_STREAM = 0
_TRAIN_STREAM = 1
_EVAL_STREAM = 2


# the snr_db range whose batch gain 10**(snr_db/20) is a normal float64
_SNR_DB_RANGE = (20.0 * math.log10(sys.float_info.min),
                 20.0 * math.log10(sys.float_info.max))


def _gain_is_normal(snr_db: float) -> bool:
    """Whether _batch's gain 10**(snr_db/20) is a normal float64: false for
    nan, +-inf and outside _SNR_DB_RANGE, where it overflows or
    underflows."""
    try:
        return sys.float_info.min <= 10.0 ** (snr_db / 20.0) <= sys.float_info.max
    except OverflowError:
        return False


def dataset_errors(config) -> list[str]:
    """Every bound a TwoTaskDataset, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("dim", lambda d: d >= 2, "dim must be >= 2"),
        ("num_classes", lambda n: n >= 2, "num_classes must be >= 2"),
        ("jitter_std", lambda s: s >= 0.0, "jitter_std must be >= 0"),
        ("template_scale", lambda s: s > 0.0, "template_scale must be positive"),
        ("snr_db", _gain_is_normal,
         "snr_db must be finite, with 10**(snr_db/20) a normal float "
         f"(about {_SNR_DB_RANGE[0]:.0f} to {_SNR_DB_RANGE[1]:.0f} dB)"),
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
    Raises if the floor cannot be met within max_tries draws (too many
    classes for the dimension / floor combination).
    """
    raise_if_any(dataset_errors(SimpleNamespace(num_classes=num_classes, dim=dim)))
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, _TEMPLATE_STREAM)))
    )
    cos_ceiling = math.cos(math.radians(ANGLE_FLOOR_DEG))
    accepted: list[np.ndarray] = []
    for _ in range(max_tries):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(float(v @ u) <= cos_ceiling for u in accepted):
            accepted.append(v)
            if len(accepted) == num_classes:
                return np.array(accepted)
    raise ValueError(
        f"could not place {num_classes} templates in dim {dim} with pairwise "
        f"angle >= {ANGLE_FLOOR_DEG} deg after {max_tries} draws"
    )


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
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, stream, index)))
        )
        labels = rng.integers(0, self.num_classes, size=batch_size)
        # one draw: the jitter's entries first, then the raw noise's
        clean, noisy = rng.standard_normal((2, batch_size, self.dim))
        clean *= self.jitter_std
        clean += self.templates[labels]
        # scale so the realized batch SNR equals snr_db exactly
        target_noise_norm = math.sqrt(np.vdot(clean, clean)) / 10.0 ** (self.snr_db / 20.0)
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

