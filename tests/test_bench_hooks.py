"""The entry points the repository benchmark (perfbench/) drives or wraps.

Its harness calls cli.main; its setup probe replaces Adam.step and SGD.step
to stop a fresh interpreter at the first optimizer step, and exits 3 when
neither exists; its environment record calls active_backend; its traced run
wraps TwoTaskDataset.train_batch. Losing one of them fails every benchmark
call, so each must exist and run.
"""

import shutil

import numpy as np
import pytest

import gradremedy
import gradremedy.cli
import gradremedy.net
import gradremedy.trainer
from gradremedy import TwoTaskDataset


def test_optimizer_step_hooks_exist_and_update_in_place():
    w = np.zeros(3)
    gradremedy.trainer.SGD(0.5).step(w, np.ones(3))
    assert w.tolist() == [-0.5] * 3
    w = np.zeros(3)
    gradremedy.trainer.Adam(1e-3).step(w, np.array([2.0, -2.0, 0.0]))
    assert np.allclose(w, [-1e-3, 1e-3, 0.0])


def test_backend_dataset_and_cli_hooks_exist_and_run(capsys):
    assert isinstance(gradremedy.active_backend(), str)
    batch = TwoTaskDataset(seed=1, num_classes=3, dim=4, snr_db=0.0).train_batch(5, 0)
    assert batch.noisy.shape == batch.clean.shape == (5, 4)
    assert batch.labels.shape == (5,)
    assert gradremedy.cli.main(["validate"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_trainer_still_names_forward_for_the_span_tests():
    # perfbench's wrapper tests rebind and restore it under this name
    assert gradremedy.trainer.forward is gradremedy.net.forward


def test_run_leaves_only_its_named_directory_under_out(tmp_path):
    # the benchmark reads and then deletes <out>/call after every call
    small = ["--epochs", "1", "--batches-per-epoch", "2", "--batch-size", "4",
             "--dim", "3", "--classes", "2", "--trunk-widths", "4", "--seeds", "1",
             "--out", str(tmp_path)]
    assert gradremedy.cli.main(["run", "--name", "call", *small]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["call"]
    shutil.rmtree(tmp_path / "call")
    diverging = ["--optimizer", "sgd", "--lr", "1000", "--template-scale", "30"]
    assert gradremedy.cli.main(["run", "--name", "call", *small, *diverging,
                                "--batches-per-epoch", "6"]) == 1
    assert list(tmp_path.iterdir()) == []


class _Stop(BaseException):
    """What the setup probe raises at the first update: not an Exception,
    so the CLI's error handling lets it through."""


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_patching_the_optimizer_step_stops_a_run_before_any_file(
        optimizer, tmp_path, monkeypatch):
    def stop(*_args, **_kwargs):
        raise _Stop

    for name in ("SGD", "Adam"):
        monkeypatch.setattr(getattr(gradremedy.trainer, name), "step", stop)
    argv = ["run", "--name", "call", "--optimizer", optimizer, "--epochs", "1",
            "--batches-per-epoch", "2", "--batch-size", "4", "--dim", "3",
            "--classes", "2", "--trunk-widths", "4", "--seeds", "1",
            "--out", str(tmp_path)]
    with pytest.raises(_Stop):
        gradremedy.cli.main(argv)
    assert list(tmp_path.rglob("steps.csv")) == []
