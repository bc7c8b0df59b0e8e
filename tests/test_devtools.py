"""devtools/phase_times.py runs on this source tree and refuses a tree whose
train() keeps no phase clock; devtools/bench_pairs.py alternates its sides
and summarizes canned runs as stated."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "devtools"))

import bench_pairs  # noqa: E402 - standard library only
PHASE_TIMES = os.path.join(ROOT, "devtools", "phase_times.py")
KEYS = ["data", "forward", "loss", "backward", "surgery", "optimizer", "eval",
        "train", "rest"]


def _phase_times(src):
    return subprocess.run([sys.executable, PHASE_TIMES, src, "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)


def test_phase_times_reports_every_phase_for_every_workload_and_strategy():
    done = _phase_times(os.path.join(ROOT, "src"))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["us_per_step_best_of"] == 1
    assert list(report["workloads"]) == ["default", "dominance"]
    for strategies in report["workloads"].values():
        assert list(strategies) == ["naive", "pcgrad", "fixed-theta", "gradient-remedy"]
        for per_step in strategies.values():
            assert list(per_step) == KEYS
            assert all(value >= 0 for value in per_step.values())


def test_phase_times_refuses_a_tree_without_the_phase_clock(tmp_path):
    package = tmp_path / "gradremedy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "trainer.py").write_text(
        "import dataclasses\n\n\n@dataclasses.dataclass\n"
        "class TrainResult:\n    step_stats: list\n")
    done = _phase_times(str(tmp_path))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (f"error: {tmp_path}: TrainResult has no phase_seconds "
                           "field, so its train() does not time its phases\n")


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
    assert bench_pairs.summary(runs) == {"w": {
        "m": {"parent_median": 2.5, "parent_quartiles": [1.75, 3.25],
              "change_median": 2.25, "change_quartiles": [1.625, 2.625],
              "change_lower_in_pairs": 3, "pct": -10.0},
        # an equal value is not lower
        "same": {"parent_median": 1.0, "parent_quartiles": [1.0, 1.0],
                 "change_median": 1.0, "change_quartiles": [1.0, 1.0],
                 "change_lower_in_pairs": 0, "pct": 0.0}}}
