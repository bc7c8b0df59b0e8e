"""Closed-loop measurement of `gradremedy run` calls.

One caller, no concurrency: each call is an in-process
`gradremedy.cli.main(["run", ...])` for one strategy and one seed, with
stdout captured and `--out` pointing at a scratch directory. Strategies are
interleaved call by call, so drift in the host's speed hits all of them
equally. Every call is checked after its timer stops; a failed check
counts the call as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import catalog
import spans
from catalog import NAIVE, RESCALING, STRATEGIES, Workload
from reference import ReferenceStep

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
PROBE_TIMEOUT_S = 150
SETUP_REPEATS = 11

TAIL_BEYOND = 10


def median_ratio(calls: list[Call]) -> float:
    return statistics.median(c.ratio for c in calls)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, which is the (TAIL_BEYOND + 1)-th largest sample.

    The percentile moves smoothly with the sample count; a fixed ladder of
    percentiles would jump between rungs when the count drifts across one.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples: a tail needs more than {TAIL_BEYOND}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Call:
    label: str
    seed: int
    us_per_step: float
    ref_us_per_step: float  # the reference step, timed right after the call
    problem: str | None = None
    bytes_written: int = 0
    outputs: dict[str, bytes] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.us_per_step / self.ref_us_per_step


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as src:
        return list(csv.DictReader(src))


def check_outputs(run_dir: str, workload: Workload, label: str, seed: int) -> str | None:
    """First problem found in one call's files, or None when they are sound."""
    seed_dir = os.path.join(run_dir, f"seed{seed}")
    try:
        steps = _read_rows(os.path.join(seed_dir, "steps.csv"))
        epochs = _read_rows(os.path.join(seed_dir, "epochs.csv"))
    except (OSError, csv.Error, UnicodeDecodeError) as err:
        return f"unreadable output: {err}"
    if len(steps) != workload.steps_per_call or len(epochs) != workload.epochs:
        return f"{len(steps)} step rows and {len(epochs)} epoch rows"
    for name, rows, columns in (
        ("steps.csv", steps, ("loss_aux", "loss_dom")),
        ("epochs.csv", epochs, ("loss_aux", "loss_dom", "eval_accuracy")),
    ):
        for i, row in enumerate(rows):
            for col in columns:
                try:
                    value = float(row[col])
                except (KeyError, TypeError, ValueError):
                    return f"{name} row {i}: no number in {col}"
                if not math.isfinite(value):
                    return f"{name} row {i}: {col}={value}"
    if label != NAIVE:
        for i, row in enumerate(steps):
            if row.get("conflicting_post") != "0":
                return f"steps.csv row {i}: conflicting_post={row.get('conflicting_post')}"
    return None


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


class Caller:
    """Makes checked `gradremedy run` calls for one workload."""

    def __init__(self, workload: Workload, work_dir: str, main: Callable):
        self.workload = workload
        self.out_root = os.path.join(work_dir, "calls")
        self.main = main
        self.reference = ReferenceStep(workload.trunk, adam=workload.optimizer == "adam")
        self.reference_index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, token: str, label: str, seed: int, keep: bool = False) -> Call:
        argv = self.workload.argv(token, seed, self.out_root)
        run_dir = os.path.join(self.out_root, "call")
        captured = io.StringIO()
        problem = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = self.main(argv)
            except (Exception, SystemExit) as err:  # noqa: BLE001 - counted as failed
                code = f"raised {err!r}"
            elapsed = time.perf_counter() - start
        ref_us = self._time_reference()
        if code != 0:
            tail = captured.getvalue().strip().splitlines()[-1:]
            problem = f"exit {code} {' '.join(tail)}".strip()
        else:
            problem = check_outputs(run_dir, self.workload, label, seed)
        result = Call(label, seed, 1e6 * elapsed / self.workload.steps_per_call, ref_us,
                      problem, _tree_bytes(run_dir))
        if keep and problem is None:
            for name in ("steps.csv", "epochs.csv"):
                with open(os.path.join(run_dir, f"seed{seed}", name), "rb") as src:
                    result.outputs[name] = src.read()
        shutil.rmtree(run_dir, ignore_errors=True)
        self.count(problem, f"{label} seed {seed}")
        return result

    def _time_reference(self) -> float:
        steps = self.workload.reference_steps
        start = time.perf_counter()
        for _ in range(steps):
            self.reference.step(self.reference_index)
            self.reference_index += 1
        return 1e6 * (time.perf_counter() - start) / steps

    def count(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    def repeat(self, first: Call) -> None:
        """Run `first`'s (strategy, seed) again; its CSVs must match byte for byte."""
        token = dict((label, token) for token, label in STRATEGIES)[first.label]
        again = self.call(token, first.label, first.seed, keep=True)
        if again.problem is None and again.outputs != first.outputs:
            differing = sorted(k for k in first.outputs if first.outputs[k] != again.outputs.get(k))
            self.failed += 1
            self.problems.append(
                f"{first.label} seed {first.seed}: repeat differs in {', '.join(differing)}"
            )


@dataclass
class Timed:
    """Untraced-run result: each strategy's sound calls plus call accounting."""

    calls: dict[str, list[Call]]
    attempted: int
    failed: int
    problems: list[str]


def rounds(seeds: list[int]):
    """(token, label, seed) forever: all strategies on one seed, then the next seed."""
    while True:
        for seed in seeds:
            for token, label in STRATEGIES:
                yield token, label, seed


def measure(workload: Workload, seed: int, seconds: float, work_dir: str,
            main: Callable, probes: list[Callable[[], object]] = ()) -> Timed:
    """Untraced closed loop for `seconds`, finishing the last round of strategies.

    `probes` run between rounds, spread evenly over the run, and their time
    does not count against `seconds`: the host's speed drifts within
    seconds, so probes taken in one burst would all see the same moment.
    """
    caller = Caller(workload, work_dir, main)
    seeds = catalog.call_seeds(workload.name, seed)
    for token, label in STRATEGIES:  # warm-up: lazy imports, allocator, page cache
        caller.call(token, label, seeds[0])
    sound: dict[str, list[Call]] = {label: [] for _, label in STRATEGIES}
    first = None
    pending = list(probes)
    plan = rounds(seeds)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        now = time.perf_counter()
        due = len(probes) - len(pending) < len(probes) * (now - start) / seconds
        if pending and (due or now >= deadline):
            pending.pop(0)()
            deadline += time.perf_counter() - now
            continue
        if now >= deadline:
            break
        for token, label, call_seed in itertools.islice(plan, len(STRATEGIES)):
            call = caller.call(token, label, call_seed, keep=first is None)
            if first is None:
                first = call
            if call.problem is None:
                sound[label].append(call)
    if first is not None and first.problem is None:
        caller.repeat(first)
    return Timed(sound, caller.attempted, caller.failed, caller.problems)


# --- fresh-interpreter probes ------------------------------------------------


def _probe(args: list[str], work_dir: str) -> tuple[float, str]:
    """Run probe.py; (seconds from spawn to its report, the report)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, PROBE, *args, "--out", os.path.join(work_dir, "probe")],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    shutil.rmtree(os.path.join(work_dir, "probe"), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"probe {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return start, lines[-1]


def setup_seconds(workload: Workload, seed: int, work_dir: str) -> float:
    """Spawn-to-first-optimizer-step time of one fresh interpreter."""
    first_seed = catalog.call_seeds(workload.name, seed)[0]
    start, report = _probe(["setup", workload.name, str(first_seed)], work_dir)
    # the probe reports time.perf_counter(), a system-wide monotonic clock
    return float(report) - start


def peak_rss_mb(workload: Workload, seed: int, work_dir: str) -> float:
    _, report = _probe(["rss", workload.name, str(seed)], work_dir)
    return int(report) / 1024.0


# --- traced run --------------------------------------------------------------


def _alloc_peak(main: Callable, peaks_kb: list[float]) -> Callable:
    """`main` with the tracemalloc peak of each call appended to `peaks_kb`."""

    def measured(argv):
        tracemalloc.start()
        try:
            return main(argv)
        finally:
            peaks_kb.append(tracemalloc.get_traced_memory()[1] / 1024.0)
            tracemalloc.stop()

    return measured


@dataclass
class Traced:
    layers: spans.LayerTotals
    counts: Counter
    steps: int
    remedy_steps: int  # steps of the calls whose strategy can rescale
    calls: int
    span_s: float  # summed root-span time of the traced calls
    projecting_units: int  # remedy_layer calls under a projecting strategy
    bytes_written: int
    traced: dict[str, list[Call]]
    untraced: dict[str, list[Call]]
    peak_alloc_kb: float
    attempted: int
    failed: int
    problems: list[str]
    missing: list[str]
    last_round: list[tuple[str, list[spans.Span]]]


def measure_traced(workload: Workload, seed: int, seconds: float, work_dir: str,
                   main: Callable) -> Traced:
    """Alternate identical traced rounds with untraced rounds for `seconds`.

    Every traced round makes the same calls, so per-step counts come out
    the same whatever number of rounds fits in the time.
    """
    caller = Caller(workload, work_dir, main)
    seeds = catalog.call_seeds(workload.name, seed)
    plan = list(itertools.islice(rounds(seeds), len(seeds) * len(STRATEGIES)))
    untraced: dict[str, list[Call]] = defaultdict(list)
    traced: dict[str, list[Call]] = defaultdict(list)

    def untraced_round():
        for token, label, call_seed in plan:
            call = caller.call(token, label, call_seed)
            if call.problem is None:
                untraced[label].append(call)

    untraced_round()  # warm-up, kept out of the samples below
    untraced.clear()
    peaks_kb: list[float] = []
    caller.main = _alloc_peak(main, peaks_kb)  # the window holds gradremedy alone
    for token, label in STRATEGIES:
        caller.call(token, label, seeds[0])
    caller.main = main

    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    counts: Counter = Counter()
    steps = remedy_steps = calls = projecting = bytes_written = 0
    span_s = 0.0
    missing: list[str] = []
    last_round: list[tuple[str, list[spans.Span]]] = []
    deadline = time.perf_counter() + seconds
    while True:
        installed = spans.Installed(tracer)
        missing = installed.missing
        root = spans.span_wrapper(tracer, spans.ROOT, main)
        caller.main = root
        last_round = []
        try:
            for n, (token, label, call_seed) in enumerate(plan):
                call = caller.call(token, label, call_seed)
                call_spans, call_counts = tracer.take()
                if call.problem is not None:
                    continue
                traced[label].append(call)
                # self times add up to the root span's time by construction;
                # what can go wrong is a span outside the layers reported
                strays = {s.name for s in call_spans} - set(spans.LAYERS)
                if strays:
                    caller.count(f"spans of unreported layers {sorted(strays)}",
                                 f"{label} seed {call_seed}")
                layer = spans.layer_totals(call_spans)
                totals.add(layer)
                span_s += spans.root_duration(call_spans)
                counts.update(call_counts)
                steps += workload.steps_per_call
                if label == RESCALING:
                    remedy_steps += workload.steps_per_call
                calls += 1
                bytes_written += call.bytes_written
                if label != NAIVE:
                    projecting += layer.calls["surgery.remedy_layer"]
                last_round.append((f"{n}:{label}:{call_seed}", call_spans))
        finally:
            installed.remove()
            caller.main = main
        untraced_round()
        if time.perf_counter() >= deadline:
            break
    return Traced(
        totals, counts, steps, remedy_steps, calls, span_s, projecting, bytes_written,
        dict(traced), dict(untraced), max(peaks_kb, default=0.0),
        caller.attempted, caller.failed, caller.problems, missing, last_round,
    )


def layer_metrics(t: Traced) -> dict[str, float]:
    """Per-layer metric values from a traced run, keyed by catalog name."""
    per_step = 1e6 / t.steps
    own = t.layers.self_s
    n = t.layers.calls

    def overhead_pct(base: dict[str, list[Call]], over: dict[str, list[Call]]) -> float:
        return 100.0 * (
            sum(map(median_ratio, over.values())) / sum(map(median_ratio, base.values()))
            - 1.0
        )

    naive = median_ratio(t.untraced[NAIVE])
    remedy = median_ratio(t.untraced["gradient-remedy"])
    return {
        "synthdata.train_batch.self_us_per_step": own["synthdata.train_batch"] * per_step,
        "synthdata.train_batch.calls_per_step": n["synthdata.train_batch"] / t.steps,
        "net.forward.self_us_per_step": own["net.forward"] * per_step,
        "net.losses.self_us_per_step": own["net.losses"] * per_step,
        "net.backward_two_task.self_us_per_step": own["net.backward_two_task"] * per_step,
        "gradvec.GradientVector.constructions_per_step": n["gradvec.GradientVector"] / t.steps,
        "gradvec.GradientVector.self_us_per_step": own["gradvec.GradientVector"] * per_step,
        "surgery.remedy_layer.self_us_per_step": own["surgery.remedy_layer"] * per_step,
        "surgery.remedy_layer.calls_per_step": n["surgery.remedy_layer"] / t.steps,
        "surgery.rescale.calls_per_step": (
            t.counts["surgery.rescale"] / t.remedy_steps if t.remedy_steps else 0.0
        ),
        "surgery.projected_share": (
            t.counts["surgery.project"] / t.projecting_units if t.projecting_units else 0.0
        ),
        "surgery.overhead_vs_naive_pct": 100.0 * (remedy / naive - 1.0),
        "kernels.calls_per_step": n["kernels"] / t.steps,
        "kernels.self_us_per_step": own["kernels"] * per_step,
        "kernels.bytes_per_step": t.counts["kernels.bytes"] / t.steps,
        "trainer.optimizer.self_us_per_step": own["trainer.optimizer"] * per_step,
        "trainer.optimizer.calls_per_step": n["trainer.optimizer"] / t.steps,
        "trainer.remedy_units.self_us_per_step": own["trainer.remedy_units"] * per_step,
        "trainer.evaluate.self_us_per_step": own["trainer.evaluate"] * per_step,
        "trainer.loop.self_us_per_step": own["trainer.loop"] * per_step,
        "trainer.peak_alloc_kb": t.peak_alloc_kb,
        "cli.output.self_us_per_call": 1e6 * own["cli.output"] / t.calls,
        "cli.output.bytes_per_call": t.bytes_written / t.calls,
        "cli.main.self_us_per_call": 1e6 * own[spans.ROOT] / t.calls,
        "trace.overhead_pct": overhead_pct(t.untraced, t.traced),
    }


def unreported_s(t: Traced, metrics: dict[str, float]) -> float:
    """Span time of the traced calls that the reported self-time metrics miss;
    0 up to rounding when every layer's time is reported."""
    reported_us = sum(
        value * (t.steps if name.endswith("_per_step") else t.calls)
        for name, value in metrics.items()
        if name.endswith((".self_us_per_step", ".self_us_per_call"))
    )
    return t.span_s - reported_us / 1e6
