"""Span tracing of gradremedy's layers from outside the package.

The traced run wraps the functions each `gradremedy` module exposes to its
caller. A wrapper records one span per call (id, parent id, name, start,
end) into the active `Tracer`; spans stay in memory until the run ends.
Wrappers attach by module attribute: a target that no longer exists is
skipped, reports zero calls, and its time falls into the self time of its
caller's span (usually `trainer.loop`).

A span's self time is its duration minus the part of its interval covered
by its child spans. Summed over every span of one call, the self times add
up to the duration of the call's root span.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ROOT = "cli.main"

# (layer, module, attribute path); each call of the target becomes a span
# named after the layer
SPAN_TARGETS = (
    ("synthdata.train_batch", "gradremedy.synthdata", "TwoTaskDataset.train_batch"),
    ("net.forward", "gradremedy.net", "forward"),
    ("net.losses", "gradremedy.net", "losses"),
    ("net.backward_two_task", "gradremedy.net", "backward_two_task"),
    ("gradvec.GradientVector", "gradremedy.gradvec", "GradientVector.__post_init__"),
    ("surgery.remedy_layer", "gradremedy.surgery", "remedy_layer"),
    ("kernels", "gradremedy._kernels", "dot_and_norms"),
    ("kernels", "gradremedy._kernels", "norm"),
    ("kernels", "gradremedy._kernels", "add_scaled"),
    ("kernels", "gradremedy._kernels", "vec_add"),
    ("kernels", "gradremedy._kernels", "scale"),
    ("trainer.optimizer", "gradremedy.trainer", "Adam.step"),
    ("trainer.optimizer", "gradremedy.trainer", "SGD.step"),
    ("trainer.remedy_units", "gradremedy.trainer", "_remedy_units"),
    ("trainer.evaluate", "gradremedy.trainer", "evaluate"),
    ("trainer.loop", "gradremedy.trainer", "train"),
    ("cli.output", "gradremedy.cli", "write_steps_csv"),
    ("cli.output", "gradremedy.cli", "write_epochs_csv"),
    ("cli.output", "gradremedy.cli", "write_summary_csv"),
    ("cli.output", "gradremedy.cli", "ExperimentSpec.save_json"),
)

# (counter, module, attribute path); calls are counted without a span, so
# their time stays in the caller's self time
COUNT_TARGETS = (
    ("surgery.rescale", "gradremedy.surgery", "rescale"),
    ("surgery.project", "gradremedy.surgery", "_project_values"),
)

# layers whose wrappers also add the computed bytes their arrays occupy
BYTE_LAYERS = ("kernels",)

# every layer a traced call's time is split into
LAYERS = (ROOT,) + tuple(dict.fromkeys(layer for layer, _, _ in SPAN_TARGETS))


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


@dataclass
class Tracer:
    """Spans and counts of the call in progress; owned by one traced run."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    stack: list[int] = field(default_factory=list)
    ids: itertools.count = field(default_factory=itertools.count)

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the finished call's spans and counts and start afresh."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def span_wrapper(tracer: Tracer, name: str, fn: Callable,
                 count_bytes: bool = False) -> Callable:
    clock = time.perf_counter
    stack = tracer.stack

    def traced(*args, **kwargs):
        span_id = next(tracer.ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            tracer.spans.append(Span(span_id, parent, name, start, end))
        if count_bytes:
            tracer.counts[name + ".bytes"] += _array_bytes(args) + _array_bytes(
                result if isinstance(result, tuple) else (result,)
            )
        return result

    traced.__wrapped__ = fn
    return traced


def count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def counted(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when any part is missing."""
    owner = sys.modules.get(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Installed:
    """Wrappers attached to gradremedy; `remove` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        for layer, module, path in SPAN_TARGETS:
            self._attach(module, path, lambda fn, layer=layer: span_wrapper(
                tracer, layer, fn, count_bytes=layer in BYTE_LAYERS))
        for counter, module, path in COUNT_TARGETS:
            self._attach(module, path, lambda fn, counter=counter: count_wrapper(
                tracer, counter, fn))

    def _attach(self, module: str, path: str, make: Callable) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, attr, original = found
        wrapped = make(original)
        if "." in path:
            owners = [(owner, attr)]  # a class attribute: one owner
        else:
            # a module-level function: rebind every gradremedy module's name
            # for it, since callers import it by name
            owners = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "gradremedy"
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for target, name in owners:
            self._restore.append((target, name, original))
            setattr(target, name, wrapped)

    def remove(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start)
        - covered(s.start, s.end, children.get(s.span_id, []))
        for s in spans
    }


@dataclass
class LayerTotals:
    """Self seconds and span counts per layer, over one or more calls."""

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)

    def add(self, other: "LayerTotals") -> None:
        self.self_s.update(other.self_s)
        self.calls.update(other.calls)


def layer_totals(spans: list[Span]) -> LayerTotals:
    """Per-layer self time and span count; every layer appears, with 0 if unseen."""
    totals = LayerTotals(
        Counter(dict.fromkeys(LAYERS, 0.0)), Counter(dict.fromkeys(LAYERS, 0))
    )
    own = self_times(spans)
    for s in spans:
        totals.calls[s.name] += 1
        totals.self_s[s.name] += own[s.span_id]
    return totals


def root_duration(spans: list[Span]) -> float:
    roots = [s for s in spans if s.parent_id is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    return roots[0].end - roots[0].start


def write_spans(path: str, calls: list[tuple[str, list[Span]]]) -> None:
    """One CSV row per span, labelled with its call."""
    with open(path, "w", encoding="ascii") as out:
        out.write("call,span_id,parent_id,name,start_s,end_s\n")
        for call, spans in calls:
            for s in spans:
                parent = "" if s.parent_id is None else s.parent_id
                out.write(f"{call},{s.span_id},{parent},{s.name},"
                          f"{s.start!r},{s.end!r}\n")
