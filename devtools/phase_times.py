"""Time each phase of `gradremedy.trainer.train` in one process.

    python3 devtools/phase_times.py <src-dir> [--repeats N] [--seed S]

It imports gradremedy from <src-dir> (a checkout's `src`), wraps the
functions one training step calls with `time.perf_counter` timers, and
runs each benchmark workload's `gradremedy run` call (perfbench/catalog.py,
read from this checkout) for the four strategy tokens, N times each. The
phases are:

    data       the step's batch: train_batch, or the next of train_batches
    forward    net._forward
    loss       net._loss_and_deltas
    backward   net._backward
    surgery    surgery.remedy_pair, summed over the step's units
    optimizer  SGD.step or Adam.step
    eval       evaluate, once per epoch
    rest       train() minus the above: the gradient scans, the unit sums,
               the step's stats row and the loop itself

It prints one JSON object: per workload and token, each phase's us per
step, the least over the N calls (best-of-N), plus the whole of train().
A timer adds about 0.56 us per wrapped call (timeit, against the bare call),
on both sides of an A/B: only differences between two sources run this way
mean anything.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import catalog  # noqa: E402 - standard library only

PHASES = ("data", "forward", "loss", "backward", "surgery", "optimizer", "eval")


def _timed(phase: str, spent: dict[str, float], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[phase] += time.perf_counter() - start
    return wrapper


def _timed_batches(spent: dict[str, float], fn):
    """fn (a train_batches) with each batch's draw timed as data."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            start = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                spent["data"] += time.perf_counter() - start
            yield batch
    return wrapper


def install(spent: dict[str, float]) -> None:
    """Wrap every timed function of the imported gradremedy."""
    import gradremedy.cli as cli
    import gradremedy.synthdata as synthdata
    import gradremedy.trainer as trainer

    dataset = synthdata.TwoTaskDataset
    dataset.train_batch = _timed("data", spent, dataset.train_batch)
    if hasattr(dataset, "train_batches"):
        dataset.train_batches = _timed_batches(spent, dataset.train_batches)
    for phase, name in (("forward", "_forward"), ("loss", "_loss_and_deltas"),
                        ("backward", "_backward"), ("surgery", "remedy_pair"),
                        ("eval", "evaluate")):
        setattr(trainer, name, _timed(phase, spent, getattr(trainer, name)))
    for kind in (trainer.SGD, trainer.Adam):
        kind.step = _timed("optimizer", spent, kind.step)
    cli.train = _timed("train", spent, cli.train)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import gradremedy.cli

    spent = dict.fromkeys((*PHASES, "train"), 0.0)
    install(spent)
    results = {}
    with tempfile.TemporaryDirectory(prefix="phase-times-") as out:
        for workload in catalog.WORKLOADS.values():
            seed = catalog.call_seeds(workload.name, args.seed)[0]
            for token, label in catalog.STRATEGIES:
                best = {}
                for _ in range(args.repeats):
                    for key in spent:
                        spent[key] = 0.0
                    argv = workload.argv(token, seed, out)
                    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                        code = gradremedy.cli.main(argv)
                    if code != 0:
                        print(f"error: {workload.name} {token} exited {code}",
                              file=sys.stderr)
                        return 1
                    per_step = {k: v / workload.steps_per_call * 1e6
                                for k, v in spent.items()}
                    per_step["rest"] = per_step["train"] - sum(per_step[p] for p in PHASES)
                    for key, value in per_step.items():
                        best[key] = min(best.get(key, value), value)
                results.setdefault(workload.name, {})[label] = {
                    key: round(value, 2) for key, value in best.items()}
    print(json.dumps({"us_per_step_best_of": args.repeats, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
