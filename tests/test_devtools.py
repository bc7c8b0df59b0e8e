"""devtools/phase_times.py runs on this source tree and refuses a tree whose
train() keeps no phase clock."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
