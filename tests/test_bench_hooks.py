"""The entry points the repository benchmark (perfbench/) drives or wraps.

Its harness calls cli.main; its setup probe replaces Adam.step and SGD.step
to stop a fresh interpreter at the first optimizer step, and exits 3 when
neither exists; its environment record calls active_backend; its traced run
wraps TwoTaskDataset.train_batch. Losing one of them fails every benchmark
call, so each must exist and run.
"""

import shutil

import numpy as np

import gradremedy
import gradremedy.cli
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
