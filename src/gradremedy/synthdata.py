"""Seeded synthetic two-task data: denoise a vector, classify its source.

Each sample starts from one of a few fixed class templates (random unit
vectors kept at least ANGLE_FLOOR_DEG, a fixed 45 degrees, apart), gets
small intra-class jitter, and is then buried in Gaussian noise scaled so
the batch hits the requested signal-to-noise ratio exactly, for |snr_db|
up to _SNR_DB_LIMIT (about 319.1 dB). The clean vector is the auxiliary
regression target; the originating class is the dominant-task label.

Reproducibility: every random draw is keyed by a tuple of non-negative
ints — (seed, 0) for templates, (seed, 1, i) for training batch i,
(seed, 2, j) for eval batch j — so batches are addressable and bit-stable
regardless of generation order. Templates, held-out batches and
train_batch each seed their one generator with np.random.default_rng(key).
A training run draws its batches from train_batches, which hashes its keys
_SEED_CHUNK at a time, so no key table outgrows one chunk: a vectorized
port of SeedSequence's hashing runs over the uint32 entropy words numpy
builds from each key (each int's little-endian 32-bit words), PCG64's
seeding runs per batch as its formula on Python ints, and one reused
generator is set to each state in turn, so every batch is train_batch's
bit for bit without building a generator per batch. A batch index is one
key word, so a run draws at most MAX_TRAIN_BATCHES (2**32) batches, the
limit the trainer's config check reads.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .surgery import bound_errors, raise_if_any

ANGLE_FLOOR_DEG = 45.0  # the least pairwise angle between class templates
_TEMPLATE_DRAWS = 100_000  # class_templates' rejection-sampling budget

_TEMPLATE_STREAM = 0
_TRAIN_STREAM = 1
_EVAL_STREAM = 2


# the largest uint32 word: the low word of an int, and the bound past
# which an int takes more than one word
_WORD = 0xFFFFFFFF


def _words(*key: int) -> list[int]:
    """The uint32 entropy words numpy's SeedSequence builds from the tuple
    key: each int's little-endian 32-bit words, one word for 0. A negative
    int raises ValueError, as SeedSequence does."""
    words = []
    for n in key:
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & _WORD)
        while n > _WORD:
            n >>= 32
            words.append(n & _WORD)
    return words


# a training batch's index is one key word, so a run draws at most 2**32
# batches; train_batches hashes their keys _SEED_CHUNK at a time
MAX_TRAIN_BATCHES = _WORD + 1
_SEED_CHUNK = 4096


# numpy's SeedSequence: its pool of uint32 words, the running hash
# constants of mix_entropy (A) and generate_state (B), and mix's multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier and modulus
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant over that many hashes: init, init*mult,
    init*mult**2, ... mod 2**32 (calls + 1 values; hash k reads k and k+1)."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & _WORD)
    return np.array(values, dtype=np.uint32)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value, broadcast against len(constants) - 1
    successive hashes."""
    value = value ^ constants[:-1]
    value *= constants[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    result ^= result >> 16
    return result


def _seed_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(words[i]).generate_state(4, uint64) for each row i of an
    (n, w) uint32 array: numpy's mix_entropy and generate_state on every row
    at once, as an (n, 4) uint64 array of the PCG64 seed's and sequence's
    high and low 64 bits. Each hash constant depends only on how many hashes
    came before it, so it is the same for every row; within one source word
    of the pool's mixing, the hashes read a word no other of them writes."""
    width = words.shape[1]
    # 4 hashes fill the pool, 12 mix it, and 4 mix in each word past it
    a = _hash_constants(_INIT_A, _MULT_A, 4 * max(width, _POOL))
    pool = np.zeros((len(words), _POOL), dtype=np.uint32)
    pool[:, :width] = words[:, :_POOL]
    pool = _hashmix(pool, a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # mix every word into every other word
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, width):  # then every word past the pool into each
        pool = _mix(pool, _hashmix(words[:, src, None], a[k:k + _POOL + 1]))
        k += _POOL
    out = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """The bit_generator.state PCG64's set_seed builds from one _seed_states
    row: inc = 2*seq + 1, state = (inc + seed)*mult + inc, mod 2**128."""
    seed, seq = seed_hi << 64 | seed_lo, seq_hi << 64 | seq_lo
    inc = (2 * seq + 1) % _MOD
    state = ((inc + seed) * _PCG_MULT + inc) % _MOD
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


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


# numpy's standard normal never exceeds this in magnitude: its ziggurat tail
# returns r - log(1 - u)/r, with r about 3.654 and 1 - u at least 2**-53,
# so at most 13.71
_NORMAL_BOUND = 14.0


def _clean_norm_bound(config) -> float:
    """The most a clean batch of config's batch_size can measure: its
    templates' norm, template_scale*sqrt(batch_size) (unit templates), plus
    its jitter's, jitter_std*_NORMAL_BOUND*sqrt(batch_size*dim). The
    product is taken in float64, so one past its range gives inf, not an
    OverflowError."""
    b = config.batch_size
    return (config.template_scale * math.sqrt(b)
            + config.jitter_std * _NORMAL_BOUND * math.sqrt(b * float(config.dim)))


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


def class_templates(seed: int, num_classes: int, dim: int) -> np.ndarray:
    """Random unit vectors with every pairwise angle >= ANGLE_FLOOR_DEG.

    Rejection sampling from an isotropic Gaussian; deterministic in seed.
    Raises ValueError, without allocating or drawing, if that many
    templates outnumber the _TEMPLATE_DRAWS draws or their caps of half the
    floor would cover more than the sphere, and otherwise if the draws
    cannot meet the floor; MemoryError if their table cannot be allocated.
    """
    raise_if_any(dataset_errors(SimpleNamespace(num_classes=num_classes, dim=dim)))
    failure = (f"could not place {num_classes} templates in dim {dim} with pairwise "
               f"angle >= {ANGLE_FLOOR_DEG} deg")
    if num_classes > _TEMPLATE_DRAWS:  # also keeps num_classes * share finite
        raise ValueError(f"{failure}: each of the {_TEMPLATE_DRAWS} draws places "
                         "at most one")
    share = _cap_share(dim)
    if num_classes * share > 1.0:
        raise ValueError(f"{failure}: at most {math.floor(1.0 / share)} fit")
    rng = np.random.default_rng((seed, _TEMPLATE_STREAM))
    cos_ceiling = math.cos(math.radians(ANGLE_FLOOR_DEG))
    try:
        accepted = np.empty((num_classes, dim))
    except ValueError as err:  # past numpy's size limit, so past any memory
        raise MemoryError(str(err)) from None
    count = 0
    for _ in range(_TEMPLATE_DRAWS):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if count == 0 or (accepted[:count] @ v).max() <= cos_ceiling:
            accepted[count] = v
            count += 1
            if count == num_classes:
                return accepted
    raise ValueError(f"{failure} after {_TEMPLATE_DRAWS} draws")


def _cap_share(dim: int) -> float:
    """A lower bound on the share of the unit sphere in dim dimensions that
    lies within ANGLE_FLOOR_DEG / 2 of a point. Such caps around templates
    the floor apart are disjoint, so at most 1 / share templates fit.

    The share is I_x((dim-1)/2, 1/2) / 2 with x = sin^2(floor / 2), the
    regularized incomplete beta function, summed as its hypergeometric
    series: every term is positive, so no digits cancel at any dim.
    Truncating the sum only lowers it, and the final 1e-9 trim outweighs
    the rounding of the logs and gammas. The terms of log_share besides
    a*log(x) sum below 0, so once a*log(x) lies below the log of half
    float64's least subnormal the share is 0.0, returned before lgamma
    could overflow (from dim about 5e305).
    """
    a, x = (dim - 1) / 2.0, math.sin(math.radians(ANGLE_FLOOR_DEG / 2.0)) ** 2
    if a * math.log(x) < math.log(math.ulp(0.0)) - math.log(2.0):
        return 0.0
    term = total = 1.0
    for n in range(40):  # the terms shrink by more than x ~ 0.15 each
        term *= (a + 0.5 + n) / (a + 1.0 + n) * x
        total += term
    log_share = (a * math.log(x) + 0.5 * math.log1p(-x) - math.log(2.0 * a)
                 + math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
                 + math.log(total))
    return math.exp(log_share) * (1.0 - 1e-9)


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
        return self._draw(np.random.default_rng((self.seed, stream, index)),
                          batch_size, stream, index)

    def _draw(self, rng: np.random.Generator, batch_size: int, stream: int,
              index: int) -> SampleBatch:
        """The batch of key (seed, stream, index) from rng, seeded with it."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        labels = rng.integers(0, self.num_classes, size=batch_size)
        # one draw: the jitter's entries first, then the raw noise's
        clean, noisy = rng.standard_normal((2, batch_size, self.dim))
        clean *= self.jitter_std
        clean += self.templates.take(labels, axis=0)
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

    def train_batches(self, batch_size: int, count: int) -> Iterator[SampleBatch]:
        """train_batch(batch_size, i) for i in range(count), bit for bit.
        One pass of _seed_states per _SEED_CHUNK keys hashes those batches'
        seeds, and one reused generator is set to each _pcg64_state in
        turn, which costs a batch less than building its generator. Each
        index is one key word, so count must lie in [0, MAX_TRAIN_BATCHES]."""
        if not 0 <= count <= MAX_TRAIN_BATCHES:
            raise ValueError(f"count must lie in [0, 2**32], got {count}")
        prefix = _words(self.seed, _TRAIN_STREAM)
        rng = np.random.default_rng(0)
        for start in range(0, count, _SEED_CHUNK):
            stop = min(start + _SEED_CHUNK, count)
            words = np.empty((stop - start, len(prefix) + 1), dtype=np.uint32)
            words[:, :-1] = prefix
            words[:, -1] = np.arange(start, stop, dtype=np.uint32)
            for i, row in enumerate(_seed_states(words).tolist(), start):
                rng.bit_generator.state = _pcg64_state(*row)
                yield self._draw(rng, batch_size, _TRAIN_STREAM, i)

    def eval_batch(self, batch_size: int, index: int = 0) -> SampleBatch:
        """Held-out batch; a stream disjoint from every training batch."""
        return self._batch(batch_size, _EVAL_STREAM, index)


def generate(
    seed: int, num_classes: int, dim: int, batch: int, snr_db: float
) -> SampleBatch:
    """One-shot convenience: first training batch of a fresh dataset."""
    data = TwoTaskDataset(seed=seed, num_classes=num_classes, dim=dim, snr_db=snr_db)
    return data.train_batch(batch, 0)

