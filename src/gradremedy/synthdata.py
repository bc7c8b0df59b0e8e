"""Seeded synthetic two-task data: denoise a vector, classify its source.

Each sample starts from one of a few fixed class templates (random unit
vectors kept at least a configurable angle apart), gets small intra-class
jitter, and is then buried in Gaussian noise scaled so the batch hits the
requested signal-to-noise ratio exactly. The clean vector is the auxiliary
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

DEFAULT_ANGLE_FLOOR_DEG = 45.0

_TEMPLATE_STREAM = 0
_TRAIN_STREAM = 1
_EVAL_STREAM = 2


def dataset_errors(config) -> list[str]:
    """Every bound a TwoTaskDataset, or anything with its field names (the
    CLI passes its ExperimentSpec), breaks."""
    return bound_errors(config, (
        ("dim", lambda d: d >= 2, "dim must be >= 2"),
        ("num_classes", lambda n: n >= 2, "num_classes must be >= 2"),
        ("jitter_std", lambda s: s >= 0.0, "jitter_std must be >= 0"),
        ("template_scale", lambda s: s > 0.0, "template_scale must be positive"),
    ))


@dataclass(frozen=True)
class SampleBatch:
    """One batch of (noisy input, clean target, class label) triples.

    snr_db records the target ratio the noise was scaled to; the realized
    batch value (see realized_snr_db) matches it to float rounding.
    """

    noisy: np.ndarray
    clean: np.ndarray
    labels: np.ndarray
    snr_db: float

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

    def realized_snr_db(self) -> float:
        """Empirical 10*log10(||clean||^2 / ||noise||^2) over the batch."""
        noise = self.noisy - self.clean
        signal_power = float(np.sum(self.clean * self.clean))
        noise_power = float(np.sum(noise * noise))
        return 10.0 * math.log10(signal_power / noise_power)


def class_templates(
    seed: int,
    num_classes: int,
    dim: int,
    angle_floor_deg: float = DEFAULT_ANGLE_FLOOR_DEG,
    max_tries: int = 100_000,
) -> np.ndarray:
    """Random unit vectors with every pairwise angle >= angle_floor_deg.

    Rejection sampling from an isotropic Gaussian; deterministic in seed.
    Raises if the floor cannot be met within max_tries draws (too many
    classes for the dimension / floor combination).
    """
    raise_if_any(dataset_errors(SimpleNamespace(num_classes=num_classes, dim=dim)))
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, _TEMPLATE_STREAM)))
    )
    cos_ceiling = math.cos(math.radians(angle_floor_deg))
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
        f"angle >= {angle_floor_deg} deg after {max_tries} draws"
    )


@dataclass
class TwoTaskDataset:
    """Template set plus addressable, reproducible batch streams."""

    seed: int
    num_classes: int
    dim: int
    snr_db: float
    jitter_std: float = 0.05
    angle_floor_deg: float = DEFAULT_ANGLE_FLOOR_DEG
    template_scale: float = 1.0
    templates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raise_if_any(dataset_errors(self))
        self.templates = self.template_scale * class_templates(
            self.seed, self.num_classes, self.dim, self.angle_floor_deg
        )

    def _batch(self, batch_size: int, stream: int, index: int) -> SampleBatch:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, stream, index)))
        )
        labels = rng.integers(0, self.num_classes, size=batch_size)
        clean = self.templates[labels] + self.jitter_std * rng.standard_normal(
            (batch_size, self.dim)
        )
        raw = rng.standard_normal((batch_size, self.dim))
        # scale so the realized batch SNR equals snr_db exactly
        target_noise_norm = np.linalg.norm(clean) / 10.0 ** (self.snr_db / 20.0)
        noise = raw * (target_noise_norm / np.linalg.norm(raw))
        return SampleBatch(
            noisy=clean + noise,
            clean=clean,
            labels=labels,
            snr_db=self.snr_db,
        )

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


def nearest_template_labels(
    vectors: np.ndarray, templates: np.ndarray
) -> np.ndarray:
    """Classify rows by Euclidean distance to the nearest template."""
    # (n, 1, d) - (1, c, d) is fine at desk scale
    d2 = ((vectors[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)

