"""Workloads and metric definitions of the benchmark.

Names, units, bounds and each workload's reason are read from BENCHMARK.json
at the repository root. This module adds what that file has no room for:
the `gradremedy run` arguments of each workload, and for each per-layer
metric the end-to-end metric and workload it should move. It uses only the
standard library, so the fresh-interpreter probes can read a workload's
flags without importing numpy or gradremedy.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)
with open(SPEC_PATH, encoding="ascii") as _src:
    SPEC = json.load(_src)

# --strategy tokens, in the order calls are interleaved, and the metric
# suffix each one reports under
STRATEGIES = (
    ("naive", "naive"),
    ("pcgrad", "pcgrad"),
    ("fixed-theta:36deg", "fixed-theta"),
    ("gradient-remedy", "gradient-remedy"),
)
NAIVE = "naive"
RESCALING = "gradient-remedy"  # the only strategy whose surgery can rescale

# dataset/network seeds one run cycles through, drawn from the workload seed
SEED_POOL_SIZE = 4
SEED_RANGE = (1, 9999)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trunk: tuple[int, ...]
    optimizer: str
    lr: str
    epochs: int
    batches_per_epoch: int
    extra: tuple[str, ...] = ()

    @property
    def steps_per_call(self) -> int:
        return self.epochs * self.batches_per_epoch

    @property
    def reference_steps(self) -> int:
        """Reference steps timed after each call: about a fifth of its time."""
        return max(1, self.steps_per_call // 4)

    def argv(self, token: str, seed: int, out_root: str) -> list[str]:
        """`gradremedy run` arguments for one (strategy, seed) call."""
        return [
            "run", "--name", "call", "--strategy", token,
            "--seeds", str(seed), "--out", out_root,
            "--epochs", str(self.epochs),
            "--batches-per-epoch", str(self.batches_per_epoch),
            "--trunk-widths", ",".join(map(str, self.trunk)), "--dim", "32",
            "--batch-size", "64", "--classes", "4", "--snr-db", "0",
            "--optimizer", self.optimizer, "--lr", self.lr, "--eval-batches", "2",
            *self.extra,
        ]


# Schedules, measured over the four seeds of a traced run: `default` runs
# past step 40, where both trunk layers start to conflict, so projection
# fires on about half the units; on `dominance` the rescale starts at about
# step 120 and fires on about a fifth of gradient-remedy's steps (0 to 0.54
# by seed, over seeds 1-40).
_ARGUMENTS = {
    "default": dict(trunk=(48, 48), optimizer="adam", lr="1e-3",
                    epochs=4, batches_per_epoch=50),
    "dominance": dict(trunk=(12,), optimizer="sgd", lr="5e-3",
                      epochs=10, batches_per_epoch=20,
                      extra=("--template-scale", "30", "--jitter-std", "4")),
}

WORKLOADS = {
    w["name"]: Workload(w["name"], w["why"], **_ARGUMENTS[w["name"]])
    for w in SPEC["workloads"]
}


def call_seeds(workload: str, seed: int) -> list[int]:
    """The dataset/network seeds a run uses; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.sample(range(SEED_RANGE[0], SEED_RANGE[1] + 1), SEED_POOL_SIZE)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    moves: str = ""  # per-layer only: the end-to-end metric and workload it should move


# per-layer metric -> the end-to-end metric and workload it should move
_MOVES = {
    "synthdata.train_batch.self_us_per_step": "step_ratio_p50.* on dominance, then default",
    "synthdata.train_batch.calls_per_step": "step_ratio_p50.* on dominance and default",
    "net.forward.self_us_per_step": "step_ratio_p50.* on both workloads",
    "net.losses.self_us_per_step": "step_ratio_p50.* on both workloads",
    "net.backward_two_task.self_us_per_step": "step_ratio_p50.* on both workloads",
    "gradvec.GradientVector.constructions_per_step": "step_ratio_p50.* on default",
    "gradvec.GradientVector.self_us_per_step": "step_ratio_p50.* on default",
    "surgery.remedy_layer.self_us_per_step":
        "step_ratio_p50.{pcgrad,fixed-theta,gradient-remedy} on default",
    "surgery.remedy_layer.calls_per_step":
        "step_ratio_p50.{pcgrad,fixed-theta,gradient-remedy} on default",
    "surgery.rescale.calls_per_step":
        "step_ratio_p50.gradient-remedy on dominance; per gradient-remedy step",
    "surgery.projected_share":
        "projected units / units seen by the three projecting strategies",
    "surgery.overhead_vs_naive_pct":
        "step_ratio_p50.gradient-remedy / step_ratio_p50.naive - 1, untraced calls",
    "kernels.calls_per_step": "step_ratio_p50.* on default",
    "kernels.self_us_per_step": "step_ratio_p50.* on default",
    "kernels.bytes_per_step": "step_ratio_p50.* on default; computed from array sizes, not measured",
    "trainer.optimizer.self_us_per_step": "step_ratio_p50.* on default, not dominance",
    "trainer.optimizer.calls_per_step": "step_ratio_p50.* on default, not dominance",
    "trainer.remedy_units.self_us_per_step": "step_ratio_p50.* on default",
    "trainer.evaluate.self_us_per_step": "step_ratio_p50.* on both workloads",
    "trainer.loop.self_us_per_step":
        "step_ratio_p50.* on both workloads; holds the time of unwrapped functions",
    "trainer.peak_alloc_kb": "peak_rss_mb on default; tracemalloc peak of one gradremedy call",
    "cli.output.self_us_per_call":
        "step_ratio_p50.* on both workloads, more as calls get shorter",
    "cli.output.bytes_per_call": "step_ratio_p50.* on both workloads, more as calls get shorter",
    "cli.main.self_us_per_call":
        "step_ratio_p50.* on both workloads; import cost shows in setup_s",
    "trace.overhead_pct": "none; traced over untraced step time, checks the trace stays honest",
}

END_TO_END = tuple(Metric(**m) for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(**m, moves=_MOVES[m["name"]]) for m in SPEC["per_layer"])
METRICS = {m.name: m for m in (*END_TO_END, *PER_LAYER)}

# per-layer metrics that count work and must repeat exactly between runs
EXACT_COUNTS = tuple(
    m.name for m in PER_LAYER
    if m.name.endswith(("calls_per_step", "constructions_per_step"))
    or m.name == "kernels.bytes_per_step"
)
