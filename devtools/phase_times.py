"""Time each phase of `gradremedy.trainer.train` in one process.

    python3 devtools/phase_times.py <src-dir> [--repeats N] [--seed S]

It imports gradremedy from <src-dir> (a checkout's `src`) and, for each
benchmark workload's `gradremedy run` arguments (perfbench/catalog.py, read
from this checkout) with each of the four strategy tokens, builds the run's
spec and calls train() on it N times, each on a fresh network. train()
times its own phases and returns them as TrainResult.phase_seconds; no
function is wrapped. The phases are:

    data       the next batch of train_batches
    forward    net._forward
    loss       net._loss_and_deltas and the losses' finite check
    backward   net._backward and the task-gradient scan
    surgery    the pass over the surgery units
    optimizer  the total-gradient scan and the optimizer step
    eval       the parameter scan and evaluate, once per epoch
    rest       train() minus the above: the setup, the step's stats row
               and the loop itself

It prints one JSON object: per workload and token, each phase's us per
step, the least over the N calls (best-of-N), plus the whole of train().
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import catalog  # noqa: E402 - standard library only


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from gradremedy import cli, init_network, trainer

    run_parser = cli.build_parser()
    results = {}
    for workload in catalog.WORKLOADS.values():
        seed = catalog.call_seeds(workload.name, args.seed)[0]
        for token, label in catalog.STRATEGIES:
            # flags only, so no key is unknown and no value mistyped
            spec, _ = cli._spec_from_args(
                run_parser.parse_args(workload.argv(token, seed, ".")))
            data = spec.dataset(seed)
            best = {}
            for _ in range(args.repeats):
                net = init_network(seed=seed, in_dim=spec.dim,
                                   trunk_widths=spec.trunk_widths,
                                   num_classes=spec.num_classes)
                spent = trainer.train(spec.train_config(), data, net).phase_seconds
                per_step = {k: v / workload.steps_per_call * 1e6 for k, v in spent.items()}
                per_step["rest"] = per_step["train"] - sum(
                    v for k, v in per_step.items() if k != "train")
                for key, value in per_step.items():
                    best[key] = min(best.get(key, value), value)
            results.setdefault(workload.name, {})[label] = {
                key: round(value, 2) for key, value in best.items()}
    print(json.dumps({"us_per_step_best_of": args.repeats, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
