"""devtools/phase_times.py runs on this source tree; devtools/bench_pairs.py
alternates its sides and summarizes canned runs, their verdicts and their
phase splits as stated; gitref's copy of a working tree holds no bytecode
cache; every devtools/compare_outputs.py call parses and has a name of its
own."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "devtools"))

import bench_pairs  # noqa: E402 - standard library only
import compare_outputs  # noqa: E402 - standard library only
import gitref  # noqa: E402 - standard library only
from gradremedy.cli import build_parser  # noqa: E402
PHASE_TIMES = os.path.join(ROOT, "devtools", "phase_times.py")
KEYS = ["data", "forward", "loss", "backward", "surgery", "optimizer", "eval",
        "train", "rest"]


def test_phase_times_reports_every_phase_for_every_workload_and_strategy():
    done = subprocess.run(
        [sys.executable, PHASE_TIMES, os.path.join(ROOT, "src"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["us_per_step_best_of"] == 1
    assert list(report["workloads"]) == ["default", "dominance"]
    for strategies in report["workloads"].values():
        assert list(strategies) == ["naive", "pcgrad", "fixed-theta", "gradient-remedy"]
        for per_step in strategies.values():
            assert list(per_step) == KEYS
            assert all(value >= 0 for value in per_step.values())


def test_bench_pairs_alternates_the_side_that_runs_first():
    assert bench_pairs.schedule(4, 501) == [
        (1, 501, ("parent", "change")), (2, 502, ("change", "parent")),
        (3, 503, ("parent", "change")), (4, 504, ("change", "parent"))]


def _canned_run(pair, parent, change):
    return {"pair": pair, "seed": pair, "first": "parent",
            "parent": {"w": {"m": parent, "same": 1.0}},
            "change": {"w": {"m": change, "same": 1.0}}}


def test_bench_pairs_summary_arithmetic():
    runs = [_canned_run(1, 1.0, 0.5), _canned_run(2, 2.0, 2.5),
            _canned_run(3, 3.0, 2.0), _canned_run(4, 4.0, 3.0)]
    # inclusive quartiles of 4 sorted values sit at positions 0.75 and 2.25:
    # parent 1, 2, 3, 4 -> 1.75, 3.25; change 0.5, 2, 2.5, 3 -> 1.625, 2.625
    assert bench_pairs.summary(runs, {"m": 0.2}) == {"w": {
        # lower in 3 of 4 pairs shows no gain; the parent's spread of 1.5 is
        # wider than 0.2 times its median, and a change run of 3 is not below
        # the parent run of 1
        "m": {"parent_median": 2.5, "parent_quartiles": [1.75, 3.25],
              "change_median": 2.25, "change_quartiles": [1.625, 2.625],
              "change_lower_in_pairs": 3, "pct": -10.0, "parent_iqr": 1.5,
              "gain_shown": False, "within_bound": True, "unresolved": True},
        # an equal value is not lower; a metric without a bound gets no verdict on it
        "same": {"parent_median": 1.0, "parent_quartiles": [1.0, 1.0],
                 "change_median": 1.0, "change_quartiles": [1.0, 1.0],
                 "change_lower_in_pairs": 0, "pct": 0.0, "parent_iqr": 0.0,
                 "gain_shown": False, "within_bound": None, "unresolved": None}}}

    # ten pairs; inclusive quartiles of 10 sorted values sit at 2.25 and 6.75
    parent = {"gain": [10.0] * 5 + [11.0] * 5,  # median 10.5, iqr 1
              "noisy": [float(v) for v in range(1, 11)],  # median 5.5, iqr 4.5
              "spread": [float(v) for v in range(1, 11)],
              "worse": [10.0] * 10}  # iqr 0
    change = {"gain": [8.0] * 9 + [12.0],  # lower in 9 pairs, median 2.5 below
              "noisy": [v - 0.5 for v in parent["noisy"]],  # lower in 10, by 0.5
              "spread": [0.5] * 10,  # every run below every parent run
              "worse": [13.0] * 10}  # 30% above
    runs = [{"pair": k, "parent": {"w": {m: v[k] for m, v in parent.items()}},
             "change": {"w": {m: v[k] for m, v in change.items()}}} for k in range(10)]
    rows = bench_pairs.summary(runs, dict.fromkeys(parent, 0.2))["w"]
    verdicts = {metric: {key: row[key] for key in
                         ("parent_iqr", "gain_shown", "within_bound", "unresolved")}
                for metric, row in rows.items()}
    assert verdicts == {
        "gain": {"parent_iqr": 1.0, "gain_shown": True, "within_bound": True,
                 "unresolved": False},
        "noisy": {"parent_iqr": 4.5, "gain_shown": False, "within_bound": True,
                  "unresolved": True},
        "spread": {"parent_iqr": 4.5, "gain_shown": True, "within_bound": True,
                   "unresolved": False},
        "worse": {"parent_iqr": 0.0, "gain_shown": False, "within_bound": False,
                  "unresolved": False}}


def test_bench_pairs_reads_each_end_to_end_bound_of_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as src:
        spec = json.load(src)
    assert bench_pairs.BOUNDS == {m["name"]: m["bound"] for m in spec["end_to_end"]}


def test_copy_worktree_leaves_out_bytecode_caches_and_ignored_files(tmp_path):
    tree, copy = tmp_path / "tree", tmp_path / "copy"
    (tree / "pkg" / "__pycache__").mkdir(parents=True)
    (tree / ".gitignore").write_text("__pycache__/\n*.log\n")
    (tree / "pkg" / "mod.py").write_text("x = 1\n")
    (tree / "pkg" / "gone.py").write_text("")
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    subprocess.run(["git", "-C", str(tree), "add", "."], check=True)
    (tree / "pkg" / "gone.py").unlink()  # deleted, but still in the index
    (tree / "pkg" / "new.py").write_text("y = 2\n")  # untracked, not ignored
    (tree / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    (tree / "run.log").write_text("ignored")
    gitref.copy_worktree(str(copy), str(tree))
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (copy / "pkg" / "new.py").read_text() == "y = 2\n"


def test_bench_pairs_phase_ab_takes_each_side_s_best_and_their_difference():
    def split(data, train):
        return {"w": {"naive": {"data": data, "train": train}}}

    runs = [{"phases": {"parent": split(10.0, 50.0), "change": split(9.0, 52.0)}},
            {"phases": {"parent": split(8.0, 55.0), "change": split(9.5, 49.0)}}]
    assert bench_pairs.phase_ab(runs) == {"w": {"naive": {
        "data": {"parent": 8.0, "change": 9.0, "delta": 1.0},
        "train": {"parent": 50.0, "change": 49.0, "delta": -1.0}}}}


def test_compare_outputs_calls_parse_and_have_unique_names():
    made = compare_outputs.calls()
    names = [name for name, _ in made]
    assert len(set(names)) == len(names)
    parser = build_parser()
    for _, argv in made:
        parser.parse_args(argv)  # an argv the CLI cannot parse exits 2
