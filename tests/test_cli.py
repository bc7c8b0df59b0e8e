"""CLI plumbing: config round-trips, validation, and run/sweep output trees."""

import argparse
import csv
import hashlib
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradremedy
from gradremedy import (
    OptimizerKind, RatioRule, RemedyConfig, Strategy, TrainConfig, train,
)
from gradremedy.cli import (
    ExperimentSpec,
    _fmean,
    _median,
    build_parser,
    main,
    parse_strategy_token,
    validate,
)

# small enough to train in well under a second
FAST = [
    "--epochs", "2",
    "--batches-per-epoch", "3",
    "--batch-size", "8",
    "--dim", "8",
    "--classes", "3",
    "--trunk-widths", "6",
    "--eval-batches", "1",
    "--seeds", "1",
]


def test_spec_dict_round_trip():
    spec = ExperimentSpec(
        name="x",
        strategy=Strategy.FIXED_THETA,
        fixed_theta=math.radians(20.0),
        optimizer=OptimizerKind.SGD,
        ratio_rule=RatioRule.CONSTANT,
        seeds=(4, 5),
        trunk_widths=(10, 7),
    )
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_json_round_trip(tmp_path):
    spec = ExperimentSpec(name="roundtrip", snr_db=-2.5, seeds=(9,))
    path = str(tmp_path / "config.json")
    spec.save_json(path)
    assert ExperimentSpec.load_json(path) == spec


def test_spec_states_every_config_field_with_its_default():
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    for cls in (RemedyConfig, TrainConfig):
        missing = {f.name for f in fields(cls)} - {"remedy"} - spec_fields
        assert not missing, (cls.__name__, missing)
    assert ExperimentSpec().remedy_config() == RemedyConfig()
    assert ExperimentSpec().train_config() == TrainConfig()


def test_config_reader_names_the_file_it_cannot_use(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="list.json: a config file holds one JSON object"):
        ExperimentSpec.load_json(str(path))
    path.write_text("{bad")
    with pytest.raises(ValueError, match="list.json: Expecting property name"):
        ExperimentSpec.load_json(str(path))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: snr"):
        ExperimentSpec.from_dict({"snr": 3.0})


def test_validate_accepts_defaults_and_boundary_theta():
    assert validate(ExperimentSpec()) == []
    assert validate(ExperimentSpec(fixed_theta=math.pi / 2)) == []


def test_validate_collects_all_errors():
    from dataclasses import replace

    spec = replace(
        ExperimentSpec(),
        dominance_k=1.0,
        lam=1.5,
        fixed_theta=math.radians(120.0),
        seeds=(),
        learning_rate=-1.0,
    )
    errors = validate(spec)
    assert any("K must exceed 1" in e for e in errors)
    assert any("theta must lie in (0, 90] degrees" in e for e in errors)
    assert any("lambda must lie in [0, 1]" in e for e in errors)
    assert any("seed" in e for e in errors)
    assert any("learning rate" in e for e in errors)


def test_validate_reports_each_broken_bound_once():
    broken = {
        "dominance_k": 0.5,
        "fixed_theta": -0.1,
        "r_min": 1.0,
        "ratio_constant": 0.0,
        "lam": -0.5,
        "learning_rate": 0.0,
        "epochs": 0,
        "batches_per_epoch": 0,
        "batch_size": 0,
        "eval_batches": 0,
        "warmup_steps": -1,
        "dim": 1,
        "num_classes": 1,
        "trunk_widths": (),
        "jitter_std": -0.5,
        "template_scale": 0.0,
        "snr_db": math.inf,
        "seeds": (3, -1),
    }
    errors = validate(ExperimentSpec(**broken))
    assert len(errors) == len(broken)
    for name in broken:
        assert sum(e.startswith(f"{name}: ") for e in errors) == 1, name


def test_parse_strategy_token():
    assert parse_strategy_token("naive") == (Strategy.NAIVE_SUM, None)
    assert parse_strategy_token("pcgrad") == (Strategy.PCGRAD, None)
    strategy, theta = parse_strategy_token("fixed-theta:36deg")
    assert strategy is Strategy.FIXED_THETA
    assert theta == pytest.approx(math.radians(36.0))
    with pytest.raises(ValueError, match="angle suffix"):
        parse_strategy_token("pcgrad:10deg")
    with pytest.raises(ValueError, match="deg"):
        parse_strategy_token("fixed-theta:0.6rad")
    assert parse_strategy_token("fixed-theta:22.5deg")[1] == math.radians(22.5)
    # only ASCII digits with an optional decimal fraction, which float()
    # alone does not enforce
    for angle in ("abc", " 36", "3_6", "+36", "3.6e1", "36.", ".5", "\u0663\u0666",
                  "inf", "nan"):
        token = f"fixed-theta:{angle}deg"
        with pytest.raises(ValueError) as err:
            parse_strategy_token(token)
        assert str(err.value) == ("angle suffix must be a number followed by "
                                  f"'deg', got {token!r}")
    with pytest.raises(ValueError):
        parse_strategy_token("bogus")


# flags of each case; a dict goes into a config file passed with --config,
# and TMP stands for the test's directory
MALFORMED = {
    "unknown-strategy": ["--strategy", "bogus"],
    "missing-config": ["--config", "absent.json"],
    "non-integer-seed": ["--seeds", "1,x"],
    "seeds-not-a-list": {"seeds": 5},
    "epochs-a-string": {"epochs": "3"},
    "repeated-seed": ["--seeds", "2,1,2"],
    "name-escapes-out": ["--name", "../escape"],
    "name-absolute": ["--name", "TMP/abs"],
    "empty-seed": ["--seeds", "1,,2"],
    "trailing-comma-seed": ["--seeds", "3,"],
    "empty-trunk-width": ["--trunk-widths", "8,,8"],
    "empty-strategy-token": ["--strategies", "naive,,pcgrad"],
    "negative-seed": ["--seeds", "2,-1"],
    "snr-nan": ["--snr-db", "nan"],
    "snr-inf": ["--snr-db", "inf"],
    "snr-minus-inf": ["--snr-db=-inf"],
    "snr-overflows": ["--snr-db", "7000"],
    "snr-underflows": ["--snr-db=-7000"],
    "snr-buries-the-signal": ["--snr-db=-2900"],
    "snr-loses-the-noise": ["--snr-db", "400"],
    "lr-inf": ["--lr", "inf"],
    "jitter-inf": ["--jitter-std", "inf"],
    "template-scale-inf": ["--template-scale", "inf"],
    "template-scale-inf-in-config": {"template_scale": float("inf")},
    "template-scale-overflows": ["--template-scale", "1e200"],
    "jitter-overflows-in-config": {"jitter_std": 1e160},
    "empty-angle-suffix": ["--strategy", "fixed-theta:"],
    "suffix-on-pcgrad": ["--strategy", "pcgrad:"],
    "space-in-angle": ["--strategy", "fixed-theta: 36deg"],
    "underscore-in-angle": ["--strategy", "fixed-theta:3_6deg"],
    "same-angle-twice": ["--strategies", "fixed-theta,fixed-theta:36deg"],
}


@pytest.mark.parametrize("command, case", [
    (command, case) for case in sorted(MALFORMED)
    for command in ("run", "sweep", "validate")
    # --strategies is a sweep flag
    if command == "sweep" or "--strategies" not in MALFORMED[case]
])
def test_malformed_input_exits_2_with_error_lines(command, case, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = MALFORMED[case]
    if isinstance(flags, dict):
        (tmp_path / "bad.json").write_text(json.dumps(flags))
        flags = ["--config", "bad.json"]
    argv = [command, *(f.replace("TMP", str(tmp_path)) for f in flags), "--out", "out"]
    if command == "sweep" and "--strategies" not in argv:
        argv += ["--strategies", "naive"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines), lines
    assert not (tmp_path / "out").exists()
    # nor anywhere else, such as next to the output root
    assert {p.name for p in tmp_path.iterdir()} <= {"bad.json"}


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unplaceable_templates_exit_2_before_any_directory(command, tmp_path, capsys):
    # 40 templates 45 degrees apart do not fit in 3 dimensions: the first
    # seed is refused before training, as an input error, without a draw
    out = tmp_path / "out"
    assert main([command, "--classes", "40", "--dim", "3", "--seeds", "5,6",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: num_classes: could not place 40 templates in dim 3 with pairwise "
        "angle >= 45.0 deg: at most 26 fit (seed 5)\n")
    assert not out.exists()


def test_config_type_and_bound_errors_print_one_line_each(tmp_path, capsys):
    config = tmp_path / "f.json"
    config.write_text(json.dumps(
        {"seeds": 5, "epochs": "3", "bogus": 1, "dominance_k": 0.5}
    ))
    assert main(["validate", "--config", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    starts = ("error: unknown config keys: bogus", "error: seeds: ",
              "error: epochs: ", "error: dominance_k: K must exceed 1")
    assert len(lines) == len(starts), lines
    for start in starts:
        assert sum(line.startswith(start) for line in lines) == 1, start


def test_every_readme_command_line_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gradremedy ")]
    assert len(commands) >= 4
    for argv in commands:
        build_parser().parse_args(argv)  # argparse exits 2 on an unknown flag


def _flags(parser):
    """{option string: (dest, default, type, choices)} of every flag parser takes."""
    return {option: (a.dest, a.default, a.type, a.choices)
            for a in parser._actions for option in a.option_strings}


def test_every_command_takes_the_same_flags_and_sweep_adds_only_strategies():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == ["run", "sweep", "validate"]
    run, sweep, check = (_flags(commands[c]) for c in ("run", "sweep", "validate"))
    assert check == run
    assert {k: v for k, v in sweep.items() if k != "--strategies"} == run
    assert sweep["--strategies"] == ("strategies", None, None, None)
    # every flag but --help defaults to None, so a config file can fill it
    assert {v[1] for k, v in run.items() if k not in ("-h", "--help")} == {None}


def test_validate_command_exit_codes(capsys):
    assert main(["validate", "--strategy", "gradient-remedy"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["validate", "--k", "1.0"]) == 2
    assert "K must exceed 1" in capsys.readouterr().err


def test_run_writes_expected_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    code = main(["run", "--name", "demo", "--strategy", "gradient-remedy", *FAST])
    assert code == 0
    exp = tmp_path / "demo"
    assert (exp / "config.json").is_file()
    assert (exp / "summary.csv").is_file()
    seed_dir = exp / "seed1"
    steps = (seed_dir / "steps.csv").read_text().splitlines()
    assert len(steps) == 1 + 2 * 3
    epochs = (seed_dir / "epochs.csv").read_text().splitlines()
    assert len(epochs) == 1 + 2
    metrics = json.loads((seed_dir / "metrics.json").read_text())
    assert metrics["seed"] == 1
    assert 0.0 <= metrics["final_eval_accuracy"] <= 1.0
    assert "rescale_events" in metrics
    # the written config reloads to a runnable spec
    reloaded = ExperimentSpec.load_json(str(exp / "config.json"))
    assert reloaded.strategy is Strategy.GRADIENT_REMEDY
    assert reloaded.epochs == 2
    summary = (exp / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("strategy,seeds,median_accuracy")
    assert summary[1].startswith("gradient-remedy,1,")


def _rows(path):
    with open(path, encoding="ascii", newline="") as src:
        return list(csv.DictReader(src))


def test_epoch_rows_are_means_of_their_step_rows(tmp_path):
    # naive leaves conflicts in place; lambda 0.2 and K 3 make the auxiliary
    # task wrongly dominant on part of the steps
    code = main(["run", "--name", "means", "--out", str(tmp_path),
                 "--strategy", "naive", *FAST, "--batches-per-epoch", "5",
                 "--trunk-widths", "6,5", "--lambda", "0.2", "--k", "3",
                 "--seeds", "1,2"])
    assert code == 0
    exp = tmp_path / "means"
    pcts = set()
    for seed in (1, 2):
        steps = _rows(exp / f"seed{seed}" / "steps.csv")
        epochs = _rows(exp / f"seed{seed}" / "epochs.csv")
        assert [e["epoch"] for e in epochs] == ["0", "1"]
        for e in epochs:
            mine = [s for s in steps if s["epoch"] == e["epoch"]]
            assert len(mine) == 5
            expected = {
                "pct_conflicting": [100 * int(s["conflicting_post"])
                                    / int(s["layers_total"]) for s in mine],
                "pct_wrongly_dominant": [100 * int(s["wrongly_dominant"])
                                         / int(s["layers_total"]) for s in mine],
                "loss_aux": [float(s["loss_aux"]) for s in mine],
                "loss_dom": [float(s["loss_dom"]) for s in mine],
            }
            for column, values in expected.items():
                assert float(e[column]) == pytest.approx(
                    statistics.fmean(values), rel=1e-10, abs=1e-12), column
            pcts.update(float(e[c]) for c in ("pct_conflicting", "pct_wrongly_dominant"))
    # the means are not all 0 or 100, so the test tells a mean from a copy
    assert pcts - {0.0, 100.0}
    with open(exp / "summary.csv", encoding="ascii") as src:
        header, row = src.read().splitlines()
    assert header == ("strategy,seeds,median_accuracy,min_accuracy,max_accuracy,"
                      "mean_pct_conflicting,mean_pct_wrongly_dominant")
    assert row.split(",")[:2] == ["naive", "1 2"]


def test_diverging_run_prints_only_its_error_line(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--name", "div", "--out", str(tmp_path),
                     "--optimizer", "sgd", "--lr", "1000", "--epochs", "1",
                     "--batches-per-epoch", "6", "--batch-size", "4", "--dim", "3",
                     "--classes", "2", "--trunk-widths", "4", "--template-scale", "30",
                     "--seeds", "1"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: non-finite loss at epoch 0, batch 4: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", ["--template-scale", "--jitter-std"])
def test_overflowing_batch_prints_only_its_error_line(scale, tmp_path, capsys):
    # validate refuses the scale before training, as an input error
    code = main(["run", "--name", "huge", "--out", str(tmp_path), scale, "1e160",
                 "--epochs", "1", "--batches-per-epoch", "2", "--seeds", "1"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: template_scale, jitter_std: a batch of 64 samples "
                             "in dim 32 may overflow float64 (template_scale ")
    assert err[0].endswith("template_scale*sqrt(batch_size) + "
                           "14*jitter_std*sqrt(batch_size*dim) must stay below 6.7039e+153")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    template_exp=st.floats(-3.0, 160.0),
    jitter_exp=st.one_of(st.none(), st.floats(-3.0, 160.0)),
    batch_size=st.integers(1, 8),
    dim=st.integers(2, 6),
    num_classes=st.integers(2, 4),
    eval_batches=st.integers(1, 3),
    snr_db=st.floats(-319.0, 319.0),
    seed=st.integers(0, 2**40),
)
# the scale that validate passed and the first held-out batch overflowed
@example(template_exp=200.0, jitter_exp=-1.3, batch_size=64, dim=32, num_classes=4,
         eval_batches=4, snr_db=0.0, seed=1)
# just inside the bound, at the most negative snr
@example(template_exp=153.3, jitter_exp=None, batch_size=8, dim=6, num_classes=4,
         eval_batches=1, snr_db=-319.0, seed=0)
def test_every_spec_validate_accepts_builds_its_first_batches(
        template_exp, jitter_exp, batch_size, dim, num_classes, eval_batches, snr_db, seed):
    spec = ExperimentSpec(
        template_scale=10.0 ** template_exp,
        jitter_std=0.0 if jitter_exp is None else 10.0 ** jitter_exp,
        batch_size=batch_size, dim=dim, num_classes=num_classes,
        eval_batches=eval_batches, snr_db=snr_db, seeds=(seed,))
    if validate(spec):
        return
    data = spec.dataset(seed)
    batches = [data.eval_batch(batch_size, j) for j in range(eval_batches)]
    batches.append(data.train_batch(batch_size, 0))
    for batch in batches:
        assert np.isfinite(batch.noisy).all() and np.isfinite(batch.clean).all()


def test_seed_0_validates_and_runs(tmp_path, capsys):
    argv = ["--name", "zero", "--out", str(tmp_path), *FAST[:-2], "--seeds", "0"]
    assert main(["validate", *argv]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["run", *argv]) == 0
    assert (tmp_path / "zero" / "seed0" / "steps.csv").is_file()
    assert json.loads((tmp_path / "zero" / "seed0" / "metrics.json").read_text())["seed"] == 0


def test_run_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    base = ExperimentSpec(name="filecfg", learning_rate=0.5)
    cfg = tmp_path / "base.json"
    base.save_json(str(cfg))
    code = main(["run", "--config", str(cfg), "--lr", "0.25", *FAST])
    assert code == 0
    written = ExperimentSpec.load_json(str(tmp_path / "filecfg" / "config.json"))
    assert written.learning_rate == 0.25
    assert written.name == "filecfg"


def test_run_rejects_invalid_spec_without_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    code = main(["run", "--name", "broken", "--k", "0.5", *FAST])
    assert code == 2
    assert not (tmp_path / "broken").exists()
    assert "K must exceed 1" in capsys.readouterr().err


def test_sweep_writes_one_directory_per_strategy(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    code = main(
        [
            "sweep", "--name", "cmp",
            "--strategies", "naive,pcgrad,fixed-theta:36deg,gradient-remedy",
            *FAST,
        ]
    )
    assert code == 0
    exp = tmp_path / "cmp"
    for sub in ("naive", "pcgrad", "fixed-theta-36deg", "gradient-remedy"):
        assert (exp / sub / "seed1" / "steps.csv").is_file(), sub
    summary = (exp / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 4
    assert summary[3].startswith("fixed-theta:36deg,")


def test_sweep_rejects_bad_strategy_token(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    code = main(["sweep", "--name", "bad", "--strategies", "naive,warp", *FAST])
    assert code == 2
    assert not (tmp_path / "bad").exists()
    # a token whose angle breaks a bound is refused before any training
    code = main(["sweep", "--name", "bad", "--strategies", "naive,fixed-theta:120deg",
                 *FAST])
    assert code == 2
    assert not (tmp_path / "bad").exists()
    assert "theta must lie in (0, 90] degrees" in capsys.readouterr().err
    # a repeated token would train twice into one subdirectory, and tokens
    # that resolve to one angle would train it twice into three
    code = main(["sweep", "--name", "bad", "--strategies", "naive,pcgrad,naive", *FAST])
    assert code == 2
    assert not (tmp_path / "bad").exists()
    assert capsys.readouterr().err == (
        "error: strategy token 'naive' trains the same strategy as 'naive'\n")
    code = main(["sweep", "--name", "bad", "--strategies",
                 "fixed-theta,fixed-theta:36deg,fixed-theta:36.0deg", *FAST])
    assert code == 2
    assert not (tmp_path / "bad").exists()
    assert capsys.readouterr().err == (
        "error: strategy token 'fixed-theta:36deg' trains the same strategy as "
        "'fixed-theta'\n"
        "error: strategy token 'fixed-theta:36.0deg' trains the same strategy as "
        "'fixed-theta'\n")


def test_sweep_rerun_from_its_saved_config_reproduces_the_run(tmp_path):
    # the root config.json is the sweep's base spec: its fixed_theta stays
    # the default while the token's angle holds only in its subdirectory,
    # so feeding it back with the same tokens is not an angle conflict
    tokens = ["--strategies", "naive,fixed-theta:20deg"]
    assert main(["sweep", "--name", "a", "--out", str(tmp_path), *tokens, *FAST]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    base = ExperimentSpec.load_json(str(a / "config.json"))
    assert base.fixed_theta == RemedyConfig.fixed_theta
    token = ExperimentSpec.load_json(str(a / "fixed-theta-20deg" / "config.json"))
    assert token.fixed_theta == math.radians(20.0)
    assert main(["sweep", "--name", "b", "--config", str(a / "config.json"),
                 *tokens]) == 0
    runs = [{path: digest for path, digest in _hashes(root).items()
             if not path.endswith("config.json")} for root in (a, b)]
    assert len(runs[0]) == 2 * 3 + 1
    assert runs[0] == runs[1]
    for path in ("config.json", "naive/config.json", "fixed-theta-20deg/config.json"):
        assert (ExperimentSpec.load_json(str(b / path))
                == replace(ExperimentSpec.load_json(str(a / path)), name="b"))


def test_reusing_the_parser_carries_no_flag_into_the_next_call(tmp_path, monkeypatch):
    # main parses with one parser per process: a call after one with flags
    # writes what the same call writes in a fresh interpreter
    src = os.path.dirname(os.path.dirname(gradremedy.__file__))
    for side in ("inproc", "alone"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "inproc")
    assert main(["run", "--name", "flagged", "--out", "out", "--lambda", "0.5",
                 "--no-rescale", "--strategy", "fixed-theta:60deg", *FAST]) == 0
    assert main(["run", "--name", "x", "--out", "out", *FAST]) == 0
    subprocess.run([sys.executable, "-m", "gradremedy.cli", "run", "--name", "x",
                    "--out", "out", *FAST], cwd=tmp_path / "alone", capture_output=True,
                   check=True, env={**os.environ, "PYTHONPATH": src})
    reused, alone = (tmp_path / side / "out" / "x" for side in ("inproc", "alone"))
    assert (reused / "config.json").read_text() == (alone / "config.json").read_text()
    assert _hashes(reused) == _hashes(alone)


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    code = main(
        ["run", "--name", "where", "--out", str(explicit), *FAST]
    )
    assert code == 0
    assert (explicit / "where" / "summary.csv").is_file()
    assert not (tmp_path / "ignored").exists()


def _hashes(root):
    """{relative path: sha256} of every file under root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_failed_rerun_leaves_the_earlier_run_whole(tmp_path, monkeypatch, capsys):
    argv = ["run", "--name", "x", "--out", str(tmp_path), *FAST, "--seeds", "1,2"]
    assert main(argv) == 0
    before = _hashes(tmp_path)
    assert "x/seed2/steps.csv" in before

    def train_failing_on_seed_2(config, data, net):
        if data.seed == 2:
            raise RuntimeError("seed 2 fails")
        return train(config, data, net)

    monkeypatch.setattr("gradremedy.cli.train", train_failing_on_seed_2)
    capsys.readouterr()
    assert main([*argv, "--lr", "0.01"]) == 1
    assert capsys.readouterr().err == "error: seed 2 fails\n"
    assert _hashes(tmp_path) == before
    assert [p.name for p in tmp_path.iterdir()] == ["x"]


def test_rerun_replaces_the_earlier_run_whole(tmp_path):
    argv = ["run", "--name", "x", "--out", str(tmp_path), *FAST]
    assert main([*argv, "--seeds", "1,2"]) == 0
    assert main([*argv, "--seeds", "2"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["x"]
    assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
        "config.json", "seed2", "summary.csv"]


def test_run_onto_a_regular_file_fails_and_keeps_it(tmp_path, capsys):
    (tmp_path / "x").write_text("mine")
    assert main(["run", "--name", "x", "--out", str(tmp_path), *FAST]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert [p.name for p in tmp_path.iterdir()] == ["x"]
    assert (tmp_path / "x").read_text() == "mine"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=9))
def test_mean_and_median_match_the_statistics_module_bit_for_bit(values):
    assert _fmean(iter(values)) == statistics.fmean(values)
    assert math.copysign(1.0, _fmean(values)) == math.copysign(1.0, statistics.fmean(values))
    assert _median(values) == statistics.median(values)


def test_importing_the_cli_loads_no_decimal_or_fractions():
    # statistics would import both, about 0.5 MB in every fresh process
    src = os.path.dirname(os.path.dirname(gradremedy.__file__))
    code = ("import sys, gradremedy.cli; "
            "print(sorted({'decimal', 'fractions', 'statistics'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
