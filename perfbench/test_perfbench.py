"""Tests of the benchmark's own code: python -m pytest perfbench -q"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import catalog  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from reference import ReferenceStep  # noqa: E402
from spans import Span  # noqa: E402

import gradremedy.cli  # noqa: E402
import gradremedy.trainer  # noqa: E402


# --- self-time arithmetic ------------------------------------------------------


def _tree():
    return [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "trainer.loop", 1.0, 9.0),
        Span(2, 1, "net.forward", 2.0, 4.0),
        Span(3, 2, "kernels", 3.0, 3.5),
        Span(4, 1, "net.losses", 5.0, 6.0),
        Span(5, 0, "cli.output", 9.0, 9.75),
    ]


def test_self_time_is_duration_minus_children():
    own = spans.self_times(_tree())
    assert own == pytest.approx({0: 1.25, 1: 5.0, 2: 1.5, 3: 0.5, 4: 1.0, 5: 0.75})


def test_layer_totals_cover_every_layer_and_add_up_to_the_root():
    totals = spans.layer_totals(_tree())
    assert set(totals.self_s) == set(spans.LAYERS)
    assert totals.self_s["trainer.optimizer"] == 0.0  # a layer with no spans
    assert totals.calls["trainer.optimizer"] == 0
    assert totals.calls["net.forward"] == 1
    assert sum(totals.self_s.values()) == pytest.approx(spans.root_duration(_tree()))


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_unreported_time_shows_a_layer_missing_from_the_metrics():
    traced = harness.Traced(
        layers=spans.LayerTotals(), counts=None, steps=4, remedy_steps=1, calls=2,
        span_s=10.0, projecting_units=0, bytes_written=0, traced={}, untraced={},
        peak_alloc_kb=0.0, attempted=2, failed=0, problems=[], missing=[], last_round=[],
    )
    metrics = {"net.forward.self_us_per_step": 1.5e6, "cli.main.self_us_per_call": 2e6,
               "net.forward.calls_per_step": 1.0}
    assert harness.unreported_s(traced, metrics) == pytest.approx(0.0)
    del metrics["cli.main.self_us_per_call"]
    assert harness.unreported_s(traced, metrics) == pytest.approx(4.0)


# --- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 21, 99, 100, 999, 1000, 1001])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    value, pct = harness.tail(values[::-1])
    assert sum(v > value for v in values) == 10
    assert sum(v <= value for v in values) == pytest.approx(n * pct / 100)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


# --- correctness checks ------------------------------------------------------------


def _write_run(tmp_path, conflicting_post="0", loss="0.5"):
    seed_dir = tmp_path / "seed7"
    seed_dir.mkdir()
    header = ("epoch,batch,layers_total,conflicting_pre,conflicting_post,"
              "wrongly_dominant,mean_phi_rad,loss_aux,loss_dom\n")
    (seed_dir / "steps.csv").write_text(
        header + f"0,0,2,1,{conflicting_post},0,1.5,{loss},0.3\n" + "0,1,2,0,0,0,1.2,0.4,0.2\n"
    )
    (seed_dir / "epochs.csv").write_text(
        "epoch,pct_conflicting,pct_wrongly_dominant,loss_aux,loss_dom,eval_accuracy\n"
        "0,0,0,0.45,0.25,0.5\n"
    )
    return catalog.Workload("t", "", (4,), "sgd", "1e-2", epochs=1, batches_per_epoch=2)


def test_check_outputs_accepts_sound_files(tmp_path):
    workload = _write_run(tmp_path)
    assert harness.check_outputs(str(tmp_path), workload, "pcgrad", 7) is None


def test_check_outputs_flags_post_conflict_except_for_naive(tmp_path):
    workload = _write_run(tmp_path, conflicting_post="1")
    assert "conflicting_post" in harness.check_outputs(str(tmp_path), workload, "pcgrad", 7)
    assert harness.check_outputs(str(tmp_path), workload, "naive", 7) is None


def test_check_outputs_flags_non_finite_loss(tmp_path):
    workload = _write_run(tmp_path, loss="nan")
    assert "loss_aux" in harness.check_outputs(str(tmp_path), workload, "naive", 7)


def test_injected_failure_raises_failed_pct_and_exit_code(monkeypatch, capsys):
    real_main = gradremedy.cli.main
    made = []

    def flaky_main(argv):
        made.append(argv)
        return 1 if len(made) % 3 == 0 else real_main(argv)

    monkeypatch.setattr(gradremedy.cli, "main", flaky_main)
    monkeypatch.chdir(HERE)  # run.main changes directory; restore it afterwards
    code = run.main(["--workload", "dominance", "--seed", "3", "--seconds", "0.3"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    pct = next(line for line in out if "failed_call_pct" in line).split()[1]
    assert float(pct) > 0.0


# --- traced run ----------------------------------------------------------------------


def test_count_metrics_repeat_exactly_whatever_the_run_length(tmp_path):
    workload = catalog.WORKLOADS["dominance"]
    main = gradremedy.cli.main
    short = harness.measure_traced(workload, 5, 0.0, str(tmp_path), main)
    long = harness.measure_traced(workload, 5, 8.0, str(tmp_path), main)
    assert short.failed == long.failed == 0
    assert long.calls > short.calls  # more traced rounds fit in the longer run
    first, second = harness.layer_metrics(short), harness.layer_metrics(long)
    assert set(first) == {m.name for m in catalog.PER_LAYER}
    for name in catalog.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["surgery.rescale.calls_per_step"] > 0
    assert harness.unreported_s(long, second) == pytest.approx(0.0, abs=1e-9)
    # weights and bias of one trunk layer and of each one-layer head
    assert first["trainer.optimizer.calls_per_step"] == 6.0
    assert gradremedy.cli.main is main and gradremedy.trainer.forward.__module__ == "gradremedy.net"


def test_wrappers_tolerate_missing_targets_and_restore_originals(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (
        ("trainer.loop", "gradremedy.trainer", "_removed_helper"),
        ("trainer.loop", "gradremedy.nowhere", "anything"),
    ))
    original = gradremedy.trainer.forward
    installed = spans.Installed(spans.Tracer())
    assert "gradremedy.trainer._removed_helper" in installed.missing
    assert "gradremedy.nowhere.anything" in installed.missing
    assert gradremedy.trainer.forward is not original
    assert gradremedy.trainer.forward.__wrapped__ is original
    installed.remove()
    assert gradremedy.trainer.forward is original


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_reference_step_runs_with_each_workloads_shapes(name):
    workload = catalog.WORKLOADS[name]
    step = ReferenceStep(workload.trunk, adam=workload.optimizer == "adam")
    losses = [step.step(i) for i in range(3)]
    assert all(math.isfinite(loss) for loss in losses)
    assert ReferenceStep(workload.trunk, adam=True).step(0) == losses[0]
