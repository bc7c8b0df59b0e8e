"""Check that a git ref and the working tree write the same run outputs.

    python3 devtools/compare_outputs.py <git-ref>

It extracts `git archive <ref>` (devtools/gitref.py) into a temporary
directory and runs the same `gradremedy` calls from both sources, each call
in a fresh interpreter whose working directory is its side's own directory,
so both sides write under the same relative `--out`. The calls are each benchmark workload's
`run` arguments (perfbench/catalog.py, read from the working tree) for the
four strategy tokens at seeds 1-4, one sweep of all four tokens on the
`dominance` workload's arguments, one `dominance` run at seed 2**32 + 3,
whose batch keys spend two words on the seed, so its training batches are
seeded from wider keys, and one `dominance` gradient-remedy run with
`--no-rescale`, the projection-only variant, and one `default`
gradient-remedy run on a 3-layer trunk, 24,16,8, deeper than any
workload's. Three more calls are refused
or fail, so a change to a message or an exit code shows: a `validate` whose
batches overflow float64, a `run` of fixed-theta at 0.001 degrees whose
first step could pass the entry Adam can square, and a diverging SGD
`run`. Each call's exit code, stdout and stderr are kept next to its run
files.

It prints each file that differs or exists on one side only and exits 1
if there is any, 0 if every file is byte-identical, and 2 if the ref
cannot be extracted.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import catalog  # noqa: E402 - standard library only
import gitref  # noqa: E402 - standard library only

SEEDS = (1, 2, 3, 4)
SWEEP_WORKLOAD = "dominance"
TWO_WORD_SEED = 2**32 + 3
DEEP_WORKLOAD, DEEP_TRUNK = "default", "24,16,8"

# (name, argv) of the calls that exit with an error
REFUSED = [
    ("validate-overflowing-batch", ["validate", "--template-scale", "1e160"]),
    ("tiny-fixed-angle", [
        "run", "--strategy", "fixed-theta:0.001deg", "--template-scale", "1.4e76",
        "--trunk-widths", "3", "--dim", "4", "--batch-size", "4", "--seeds", "1",
        "--epochs", "1", "--batches-per-epoch", "1", "--out", "out/tiny-fixed-angle"]),
    ("diverging-sgd", [
        "run", "--optimizer", "sgd", "--lr", "1000", "--template-scale", "30",
        "--trunk-widths", "4", "--dim", "3", "--classes", "2", "--batch-size", "4",
        "--seeds", "1", "--epochs", "1", "--batches-per-epoch", "6",
        "--out", "out/diverging-sgd"]),
]


def calls() -> list[tuple[str, list[str]]]:
    """(name, gradremedy argv) of every call; each run writes under out/."""
    made = []
    for workload in catalog.WORKLOADS.values():
        for token, label in catalog.STRATEGIES:
            for seed in SEEDS:
                name = f"{workload.name}-{label}-seed{seed}"
                made.append((name, workload.argv(token, seed, f"out/{name}")))
    argv = catalog.WORKLOADS[SWEEP_WORKLOAD].argv(catalog.NAIVE, SEEDS[0], "out/sweep")
    argv[0] = "sweep"
    at = argv.index("--strategy")
    argv[at:at + 2] = ["--strategies", ",".join(token for token, _ in catalog.STRATEGIES)]
    argv[argv.index("--seeds") + 1] = ",".join(map(str, SEEDS))
    made.append(("sweep", argv))
    made.append((f"{SWEEP_WORKLOAD}-two-word-seed", catalog.WORKLOADS[SWEEP_WORKLOAD].argv(
        catalog.RESCALING, TWO_WORD_SEED, "out/two-word-seed")))
    made.append((f"{SWEEP_WORKLOAD}-no-rescale", [*catalog.WORKLOADS[SWEEP_WORKLOAD].argv(
        catalog.RESCALING, SEEDS[0], "out/no-rescale"), "--no-rescale"]))
    argv = catalog.WORKLOADS[DEEP_WORKLOAD].argv(catalog.RESCALING, SEEDS[0], "out/deep")
    argv[argv.index("--trunk-widths") + 1] = DEEP_TRUNK
    made.append((f"{DEEP_WORKLOAD}-deep-trunk", argv))
    return made + REFUSED


def run_side(src: str, side_dir: str) -> None:
    """Every call with gradremedy imported from src, run inside side_dir."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("GRADREMEDY_OUT", None)
    for name, argv in calls():
        done = subprocess.run([sys.executable, "-m", "gradremedy.cli", *argv],
                              cwd=side_dir, env=env, capture_output=True, check=False)
        streams = os.path.join(side_dir, "streams", name)
        os.makedirs(streams)
        for stream, data in (("stdout", done.stdout), ("stderr", done.stderr),
                             ("exit", f"{done.returncode}\n".encode())):
            with open(os.path.join(streams, stream), "wb") as out:
                out.write(data)


def tree(root: str) -> dict[str, bytes]:
    """{path relative to root: bytes} of every file under root."""
    files = {}
    for here, _, names in os.walk(root):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as src:
                files[os.path.relpath(path, root)] = src.read()
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 devtools/compare_outputs.py <git-ref>", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        ref_src = os.path.join(scratch, "ref-source")
        try:
            gitref.extract(ref, ref_src)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        sides = {}
        for side, src in (("ref", os.path.join(ref_src, "src")),
                          ("tree", os.path.join(ROOT, "src"))):
            side_dir = os.path.join(scratch, side)
            os.mkdir(side_dir)
            run_side(src, side_dir)
            sides[side] = tree(side_dir)
    old, new = sides["ref"], sides["tree"]
    differ = sorted(path for path in old.keys() & new.keys() if old[path] != new[path])
    problems = ([f"differs: {path}" for path in differ]
                + [f"only under {ref}: {path}" for path in sorted(old.keys() - new.keys())]
                + [f"only in the working tree: {path}"
                   for path in sorted(new.keys() - old.keys())])
    for line in problems:
        print(line)
    print(f"{len(calls())} calls, {len(old.keys() | new.keys())} files: "
          + (f"{len(problems)} differ" if problems else "all byte-identical"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
