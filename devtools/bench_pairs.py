"""Alternating benchmark pairs of a git ref against the working tree.

    python3 devtools/bench_pairs.py <git-ref> --pairs N --seconds S --out BENCH_x.json
        [--first-seed K]

It extracts `git archive <ref>` (devtools/gitref.py) into a temporary
directory and copies the working tree's files that an archive would hold
into another, so neither side finds a bytecode cache, then for pair
k = 1..N runs

    python3 perfbench/run.py --workload all --seed <K + k - 1> --seconds S --trace 0

once from each copy, the ref's (the parent side) and the tree's (the
change side), each from its own root with PYTHONDONTWRITEBYTECODE=1, so
every process compiles the sources and writes no cache. After each side's
perfbench run it runs this tree's devtools/phase_times.py on that side's
`src` with the pair's seed. Odd pairs run the parent first, even pairs
the change. Each run's end-to-end metrics come from the JSON object
perfbench prints last.

It writes --out after every pair: the command, the machine, `runs` (per
pair: its seed, which side ran first, both sides' metrics per workload and
both sides' phase splits), `summary`: per workload and metric, each side's
median and quartiles (statistics.quantiles(n=4, method="inclusive"), the
first and third cut) over the pairs, the number of pairs in which the
change was lower, the change of the median in percent and the verdicts
(see summary), and `phase_ab`: per workload, strategy and phase, each
side's least microseconds per step over the pairs and the change's minus
the parent's. It exits 1 if any perfbench call failed, and 2 if the ref
cannot be extracted, a run printed no result or phase_times.py failed
otherwise; a ref whose train() keeps no phase clock (TrainResult has no
phase_seconds) fails phase_times.py at the first pair, so it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import gitref

sys.path.insert(0, os.path.join(gitref.ROOT, "perfbench"))
import catalog  # noqa: E402 - standard library only

SIDES = ("parent", "change")
PHASE_TIMES = os.path.join(gitref.ROOT, "devtools", "phase_times.py")
# each end-to-end metric's bound on the rise of its median, from
# BENCHMARK.json; every one of them is better lower
BOUNDS = {metric["name"]: metric["bound"] for metric in catalog.SPEC["end_to_end"]}


def schedule(pairs: int, first_seed: int) -> list[tuple[int, int, tuple[str, str]]]:
    """(pair, seed, sides in running order) of each pair, numbered from 1."""
    return [(pair, first_seed + pair - 1, SIDES if pair % 2 else SIDES[::-1])
            for pair in range(1, pairs + 1)]


def summary(runs: list[dict], bounds: dict[str, float] = BOUNDS) -> dict:
    """Per workload and metric, both sides' medians and quartiles over the
    runs, how often the change was lower, the change of the median in %, and
    the verdicts on a metric that is better lower:

    parent_iqr    the parent's third quartile minus its first
    gain_shown    the change was lower in at least 9 of 10 pairs, and its
                  median lies more than parent_iqr below the parent's
    within_bound  the change's median is at most the parent's times
                  1 + the metric's bound in bounds
    unresolved    parent_iqr exceeds bound times the parent's median, and
                  some change run is not below every parent run

    A metric without a bound has null for the last two."""
    made: dict = {}
    for workload, metrics in runs[0]["parent"].items():
        for metric in metrics:
            sides = {side: [run[side][workload][metric] for run in runs] for side in SIDES}
            medians = {side: statistics.median(values) for side, values in sides.items()}
            cuts = {side: statistics.quantiles(values, n=4, method="inclusive")
                    for side, values in sides.items()}
            row = {}
            for side in SIDES:
                row[f"{side}_median"] = round(medians[side], 6)
                row[f"{side}_quartiles"] = [round(cuts[side][0], 6), round(cuts[side][2], 6)]
            iqr = cuts["parent"][2] - cuts["parent"][0]
            lower = sum(new < old for old, new in zip(sides["parent"], sides["change"]))
            row["change_lower_in_pairs"] = lower
            row["pct"] = round(100.0 * (medians["change"] / medians["parent"] - 1.0), 2)
            row["parent_iqr"] = round(iqr, 6)
            row["gain_shown"] = (10 * lower >= 9 * len(runs)
                                 and medians["parent"] - medians["change"] > iqr)
            bound = bounds.get(metric)
            row["within_bound"] = (None if bound is None
                                   else medians["change"] <= medians["parent"] * (1.0 + bound))
            row["unresolved"] = (None if bound is None
                                 else iqr > bound * medians["parent"]
                                 and max(sides["change"]) >= min(sides["parent"]))
            made.setdefault(workload, {})[metric] = row
    return made


def phase_ab(runs: list[dict]) -> dict:
    """Per workload, strategy and phase, each side's least microseconds per
    step over the runs' phase splits and the change's minus the parent's."""
    splits = {side: [run["phases"][side] for run in runs] for side in SIDES}
    made: dict = {}
    for workload, strategies in splits["parent"][0].items():
        for strategy, phases in strategies.items():
            for phase in phases:
                best = {side: min(split[workload][strategy][phase] for split in splits[side])
                        for side in SIDES}
                best["delta"] = round(best["change"] - best["parent"], 2)
                made.setdefault(workload, {}).setdefault(strategy, {})[phase] = best
    return made


def run_phase_times(root: str, seed: int) -> dict:
    """phase_times.py's us per step of each workload, strategy and phase for
    root's source at seed."""
    done = subprocess.run(
        [sys.executable, PHASE_TIMES, os.path.join(root, "src"), "--seed", str(seed)],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise ValueError(f"{root}: phase_times.py failed (exit {done.returncode}): "
                         f"{done.stderr.strip()[-500:]}")
    return json.loads(done.stdout)["workloads"]


def run_perfbench(root: str, seed: int, seconds: float) -> tuple[dict, str]:
    """perfbench's last JSON object and its environment line, from root."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"{root}: perfbench printed no result (exit {done.returncode}): "
                         f"{done.stderr.strip()[-500:]}") from None
    machine = next((line.removeprefix("environment: ") for line in lines
                    if line.startswith("environment: ")), "")
    return result, machine


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    report = {
        "command": (f"python3 perfbench/run.py --workload all --seed <seed> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "phase_command": "python3 devtools/phase_times.py <side>/src --seed <seed>",
        "ref": args.ref,
        "unit_note": ("odd pairs ran the parent first, even pairs the change, each from "
                      "a copy without bytecode caches and with PYTHONDONTWRITEBYTECODE=1; "
                      "quartiles are statistics.quantiles(n=4, method='inclusive') over "
                      "the pairs; bounds are BENCHMARK.json's end_to_end bounds"),
        "attempted_calls": dict.fromkeys(SIDES, 0),
        "failed_calls": dict.fromkeys(SIDES, 0),
        "summary": {},
        "phase_ab": None,
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {side: os.path.join(scratch, side) for side in SIDES}
        try:
            gitref.extract(args.ref, roots["parent"])
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        gitref.copy_worktree(roots["change"])
        for pair, seed, order in schedule(args.pairs, args.first_seed):
            run = {"pair": pair, "seed": seed, "first": order[0], **dict.fromkeys(SIDES),
                   "phases": dict.fromkeys(SIDES)}
            for side in order:
                try:
                    result, report["machine"] = run_perfbench(roots[side], seed, args.seconds)
                    run["phases"][side] = run_phase_times(roots[side], seed)
                except ValueError as err:
                    print(f"error: {err}", file=sys.stderr)
                    return 2
                report["attempted_calls"][side] += result["attempted"]
                report["failed_calls"][side] += result["failed"]
                run[side] = {workload: {name: metric["value"]
                                        for name, metric in metrics.items()}
                             for workload, metrics in result["metrics"].items()}
                print(f"pair {pair} seed {seed} {side}: "
                      f"{result['attempted']} calls, {result['failed']} failed",
                      file=sys.stderr)
            report["runs"].append(run)
            if len(report["runs"]) > 1:  # quartiles need two values
                report["summary"] = summary(report["runs"])
            report["phase_ab"] = phase_ab(report["runs"])
            with open(args.out, "w", encoding="ascii") as out:
                json.dump(report, out, indent=1)
                out.write("\n")
    return 1 if any(report["failed_calls"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
