"""Alternating benchmark pairs of a git ref against the working tree.

    python3 devtools/bench_pairs.py <git-ref> --pairs N --seconds S --out BENCH_x.json
        [--first-seed K]

It extracts `git archive <ref>` (devtools/gitref.py) into a temporary
directory, then for pair k = 1..N runs

    python3 perfbench/run.py --workload all --seed <K + k - 1> --seconds S --trace 0

once from that copy (the parent side) and once from the working tree (the
change side), each from its own root with PYTHONDONTWRITEBYTECODE=1, so
every process compiles its sources. Odd pairs run the parent first, even
pairs the change. Each run's end-to-end metrics come from the JSON object
perfbench prints last.

It writes --out after every pair: the command, the machine, `runs` (per
pair: its seed, which side ran first and both sides' metrics per workload)
and `summary`: per workload and metric, each side's median and quartiles
(statistics.quantiles(n=4, method="inclusive"), the first and third cut)
over the pairs, the number of pairs in which the change was lower, and the
change of the median in percent. It exits 1 if any perfbench call failed,
and 2 if the ref cannot be extracted or a run printed no result.
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

SIDES = ("parent", "change")


def schedule(pairs: int, first_seed: int) -> list[tuple[int, int, tuple[str, str]]]:
    """(pair, seed, sides in running order) of each pair, numbered from 1."""
    return [(pair, first_seed + pair - 1, SIDES if pair % 2 else SIDES[::-1])
            for pair in range(1, pairs + 1)]


def summary(runs: list[dict]) -> dict:
    """Per workload and metric, both sides' medians and quartiles over the
    runs, how often the change was lower, and the change of the median in %."""
    made: dict = {}
    for workload, metrics in runs[0]["parent"].items():
        for metric in metrics:
            sides = {side: [run[side][workload][metric] for run in runs] for side in SIDES}
            medians = {side: statistics.median(values) for side, values in sides.items()}
            row = {}
            for side, values in sides.items():
                cuts = statistics.quantiles(values, n=4, method="inclusive")
                row[f"{side}_median"] = round(medians[side], 6)
                row[f"{side}_quartiles"] = [round(cuts[0], 6), round(cuts[2], 6)]
            row["change_lower_in_pairs"] = sum(
                new < old for old, new in zip(sides["parent"], sides["change"]))
            row["pct"] = round(100.0 * (medians["change"] / medians["parent"] - 1.0), 2)
            made.setdefault(workload, {})[metric] = row
    return made


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
        "ref": args.ref,
        "unit_note": ("odd pairs ran the parent first, even pairs the change, both with "
                      "PYTHONDONTWRITEBYTECODE=1; quartiles are "
                      "statistics.quantiles(n=4, method='inclusive') over the pairs"),
        "attempted_calls": dict.fromkeys(SIDES, 0),
        "failed_calls": dict.fromkeys(SIDES, 0),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        try:
            gitref.extract(args.ref, scratch)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        roots = {"parent": scratch, "change": gitref.ROOT}
        for pair, seed, order in schedule(args.pairs, args.first_seed):
            run = {"pair": pair, "seed": seed, "first": order[0], **dict.fromkeys(SIDES)}
            for side in order:
                try:
                    result, report["machine"] = run_perfbench(roots[side], seed, args.seconds)
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
            with open(args.out, "w", encoding="ascii") as out:
                json.dump(report, out, indent=1)
                out.write("\n")
    return 1 if any(report["failed_calls"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
