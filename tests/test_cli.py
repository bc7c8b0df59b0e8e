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
    OptimizerKind, RatioRule, RemedyConfig, Strategy, TrainConfig, TwoTaskDataset,
    init_network, train,
)
from gradremedy.cli import (
    ExperimentSpec,
    _checked,
    _fmean,
    _load,
    _median,
    _read_config,
    build_parser,
    main,
    parse_strategy_token,
)
from gradremedy.synthdata import _clean_norm_bound
from gradremedy.trainer import first_step_errors

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
    assert _load(spec.to_dict()) == (spec, [])


def _reload(path) -> ExperimentSpec:
    """The spec a config file gives the CLI, which must hold no error."""
    spec, errors = _load(_read_config(str(path)))
    assert errors == []
    return spec


def test_spec_json_round_trip(tmp_path):
    spec = ExperimentSpec(name="roundtrip", snr_db=-2.5, seeds=(9,))
    path = str(tmp_path / "config.json")
    spec.save_json(path)
    assert _reload(path) == spec


def test_spec_states_every_config_field_with_its_default():
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    for cls in (RemedyConfig, TrainConfig):
        missing = {f.name for f in fields(cls)} - {"remedy"} - spec_fields
        assert not missing, (cls.__name__, missing)
    assert ExperimentSpec().remedy_config() == RemedyConfig()
    assert ExperimentSpec().train_config() == TrainConfig()
    # and each spec field reaches a run: _build passes on only the fields its
    # class has, so one that no class has would be a flag that does nothing
    passed_on = {f.name for cls in (RemedyConfig, TrainConfig, TwoTaskDataset)
                 for f in fields(cls)}
    spec_only = {"name", "seeds", "out_dir", "trunk_widths"}
    assert spec_fields - passed_on - spec_only == set()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_removed_training_knobs_are_refused_before_any_directory(command, tmp_path, capsys):
    # a config file that sets a knob the trainer no longer has is refused
    # whole, not run without it
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"bias_separate": False, "warmup_steps": 0}))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config keys: bias_separate, warmup_steps\n"
    for flags in (["--bias-separate"], ["--no-bias-separate"], ["--warmup-steps", "3"]):
        with pytest.raises(SystemExit) as caught:
            main([command, *flags, "--out", str(out)])
        assert caught.value.code == 2
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


def test_config_reader_names_the_file_it_cannot_use(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="list.json: a config file holds one JSON object"):
        _read_config(str(path))
    path.write_text("{bad")
    with pytest.raises(ValueError, match="list.json: Expecting property name"):
        _read_config(str(path))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")


def test_spec_rejects_unknown_keys():
    assert _load({"snr": 3.0}) == (ExperimentSpec(), ["unknown config keys: snr"])


def test_validate_accepts_defaults_and_boundary_theta():
    assert _checked(ExperimentSpec())[0] == []
    assert _checked(ExperimentSpec(fixed_theta=math.pi / 2))[0] == []


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
    errors = _checked(spec)[0]
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
        "dim": 1,
        "num_classes": 1,
        "trunk_widths": (),
        "jitter_std": -0.5,
        "template_scale": 0.0,
        "snr_db": math.inf,
        "seeds": (3, -1),
    }
    errors = _checked(ExperimentSpec(**broken))[0]
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


def _refuse_tables_past(monkeypatch, entries):
    """Make np.empty raise MemoryError, as numpy does when it cannot
    allocate, for any array of more than entries entries that numpy would
    try to allocate: a host that overcommits memory may grant it, and the
    draws would then touch its pages. numpy refuses an array of 2**63
    bytes or more itself, with a ValueError and without allocating."""
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        size = math.prod(shape if isinstance(shape, tuple) else (shape,))
        if entries < size and 8 * size < 2 ** 63:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    return empty


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unplaceable_templates_exit_2_before_any_directory(
        command, monkeypatch, tmp_path, capsys):
    # the first seed is refused before training, as an input error: 40
    # templates 45 degrees apart do not fit in 3 dimensions, and 10**12 are
    # more than the rejection draws, refused without a draw; 10**400 is
    # refused on intake, since float64 cannot hold it. A table of dim 10**12
    # cannot be allocated, and numpy refuses dims 10**18 and 10**19 itself
    empty = _refuse_tables_past(monkeypatch, 2 ** 32)
    numpy_refusals = []
    for dim in (10 ** 18, 10 ** 19):
        with pytest.raises(ValueError) as refused:
            empty((4, dim))
        numpy_refusals.append(
            (["--dim", str(dim)], f"dim, num_classes: {refused.value} (seed 5)"))
    out = tmp_path / "out"
    for flags, message in [
        (["--classes", "40", "--dim", "3"],
         "num_classes: could not place 40 templates in dim 3 with pairwise "
         "angle >= 45.0 deg: at most 26 fit (seed 5)"),
        (["--classes", str(10 ** 12)],
         f"num_classes: could not place {10 ** 12} templates in dim 32 with pairwise "
         "angle >= 45.0 deg: each of the 100000 draws places at most one (seed 5)"),
        (["--classes", str(10 ** 400)], "num_classes: int too large to convert to float"),
        (["--dim", str(10 ** 12)], "dim, num_classes: Unable to allocate an array with "
         "shape (4, 1000000000000) (seed 5)"),
        *numpy_refusals,
    ]:
        assert main([command, *flags, "--seeds", "5,6", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


def test_config_type_and_bound_errors_print_one_line_each(tmp_path, capsys):
    # every float field also refuses an integer float64 cannot hold, which
    # the bound checks and the run would read as a float; a batch_size below
    # 1 or a fixed-theta angle whose sine is negative gets only its bound
    # line, not a first-step check that would take its square root
    floats = [f.name for f in fields(ExperimentSpec) if f.type is float]
    cases = [
        ({"seeds": 5, "epochs": "3", "bogus": 1, "dominance_k": 0.5},
         ("error: unknown config keys: bogus", "error: seeds: ",
          "error: epochs: ", "error: dominance_k: K must exceed 1")),
        ({name: 10 ** 400 for name in floats},
         tuple(f"error: {name}: int too large to convert to float" for name in floats)),
        ({"batch_size": -1}, ("error: batch_size: batch_size must be >= 1 (got -1)",)),
        ({"strategy": "fixed-theta", "fixed_theta": -0.5},
         ("error: fixed_theta: theta must lie in (0, 90] degrees",)),
    ]
    config, out = tmp_path / "f.json", tmp_path / "out"
    for raw, starts in cases:
        config.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == len(starts), lines
            for start in starts:
                assert sum(line.startswith(start) for line in lines) == 1, start
            assert not out.exists()


@pytest.mark.parametrize("value", [2 ** 32 + 1, 10 ** 19, 10 ** 306, 10 ** 308, 10 ** 400],
                         ids=["2**32+1", "10**19", "10**306", "10**308", "10**400"])
def test_validate_takes_every_huge_integer_without_a_traceback(
        value, monkeypatch, tmp_path, capsys):
    # every int and tuple-of-int field alone in a config file: validate
    # prints ok or only error: lines, never a traceback (which would raise
    # here); no table of more than 2**20 entries is allocated
    _refuse_tables_past(monkeypatch, 2 ** 20)
    config = tmp_path / "f.json"
    for f in fields(ExperimentSpec):
        if f.type not in (int, tuple[int, ...]):
            continue
        config.write_text(json.dumps({f.name: value if f.type is int else [value]}))
        code = main(["validate", "--config", str(config)])
        captured = capsys.readouterr()
        if code == 0:
            assert (captured.out, captured.err) == ("ok\n", ""), f.name
        else:
            assert code == 2 and captured.out == "", f.name
            lines = captured.err.splitlines()
            assert lines and all(line.startswith("error: ") for line in lines), f.name


# the default net on a trunk of width w holds w*(32+1) trunk parameters and
# (32+4)*(w+1) head parameters; numpy refuses 2**63 bytes or more itself
@pytest.mark.parametrize("flags, message", [
    (["--trunk-widths", str(2 ** 32 + 1)],
     "dim, trunk_widths, num_classes: the net's parameters cannot be allocated (Unable "
     f"to allocate an array with shape {69 * 2 ** 32 + 105})"),
    (["--trunk-widths", str(10 ** 19)], None),
    (["--trunk-widths", str(10 ** 400)], None),
    (["--eval-batches", str(2 ** 32)],
     "eval_batches, batch_size, dim: the held-out set cannot be allocated (Unable to "
     "allocate an array with shape (4294967296, 2, 64, 32))"),
    (["--batch-size", str(10 ** 9)],
     "eval_batches, batch_size, dim: the held-out set cannot be allocated (Unable to "
     "allocate an array with shape (4, 2, 1000000000, 32))"),
], ids=["width-2**32+1", "width-10**19", "width-10**400", "eval-batches-2**32",
        "batch-size-10**9"])
def test_validate_refuses_a_net_or_held_out_set_that_cannot_be_allocated(
        flags, message, monkeypatch, tmp_path, capsys):
    empty = _refuse_tables_past(monkeypatch, 2 ** 20)
    if message is None:
        with pytest.raises(ValueError) as refused:
            empty(10 ** 20)
        message = ("dim, trunk_widths, num_classes: the net's parameters cannot be "
                   f"allocated ({refused.value})")
    out = tmp_path / "out"
    assert main(["validate", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


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


_STORE, _BOOL, _HELP = argparse._StoreAction, argparse.BooleanOptionalAction, argparse._HelpAction
_HELP_TEXT = "show this help message and exit"

# every flag of run, in --help order: option string -> (dest, default, type,
# choices, action, help)
FLAG_TABLE = {
    "-h": ("help", argparse.SUPPRESS, None, None, _HELP, _HELP_TEXT),
    "--help": ("help", argparse.SUPPRESS, None, None, _HELP, _HELP_TEXT),
    "--config": ("config", None, None, None, _STORE, "JSON config file (flags override it)"),
    "--name": ("name", None, None, None, _STORE, "experiment name (output subdirectory)"),
    "--strategy": ("strategy", None, None, None, _STORE,
                   "naive | pcgrad | fixed-theta[:NNdeg] | gradient-remedy"),
    "--k": ("dominance_k", None, float, None, _STORE, "dominance threshold K (> 1)"),
    "--ratio-rule": ("ratio_rule", None, None, ["cos-theta-prime", "inv-sqrt-k", "constant"],
                     _STORE, None),
    "--ratio-constant": ("ratio_constant", None, float, None, _STORE, None),
    "--rescale": ("rescale_enabled", None, None, None, _BOOL, None),
    "--no-rescale": ("rescale_enabled", None, None, None, _BOOL, None),
    "--r-min": ("r_min", None, float, None, _STORE, None),
    "--lambda": ("lam", None, float, None, _STORE, "dominant-task loss weight in [0, 1]"),
    "--epochs": ("epochs", None, int, None, _STORE, None),
    "--batches-per-epoch": ("batches_per_epoch", None, int, None, _STORE, None),
    "--batch-size": ("batch_size", None, int, None, _STORE, None),
    "--lr": ("learning_rate", None, float, None, _STORE, None),
    "--optimizer": ("optimizer", None, None, ["sgd", "adam"], _STORE, None),
    "--eval-batches": ("eval_batches", None, int, None, _STORE, None),
    "--trunk-widths": ("trunk_widths", None, None, None, _STORE, "comma-separated, e.g. 48,48"),
    "--dim": ("dim", None, int, None, _STORE, None),
    "--classes": ("num_classes", None, int, None, _STORE, None),
    "--snr-db": ("snr_db", None, float, None, _STORE, None),
    "--jitter-std": ("jitter_std", None, float, None, _STORE, None),
    "--template-scale": ("template_scale", None, float, None, _STORE, None),
    "--seeds": ("seeds", None, None, None, _STORE, "comma-separated, e.g. 1,2,3"),
    "--out": ("out_dir", None, None, None, _STORE, "output root directory"),
}


def test_the_flags_are_the_spec_fields_but_fixed_theta():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    actions = commands["run"]._actions
    table = {option: (a.dest, a.default, a.type, a.choices, type(a), a.help)
             for a in actions for option in a.option_strings}
    assert list(table) == list(FLAG_TABLE)
    assert table == FLAG_TABLE
    # one flag per field, --no-* included in its field's flag
    dests = [a.dest for a in actions if a.dest not in ("help", "config")]
    assert dests == [f.name for f in fields(ExperimentSpec) if f.name != "fixed_theta"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_schedule_past_the_batch_key_limit_exits_2_before_any_directory(
        command, tmp_path, capsys):
    # a batch index is one uint32 key word, so a run draws at most 2**32
    # batches; 10**10 is refused as a config error, not after the run starts
    out = tmp_path / "out"
    assert main([command, "--epochs", "100000", "--batches-per-epoch", "100000",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: epochs, batches_per_epoch: a run draws at most 2**32 training batches, "
        "got 100000*100000 = 10000000000\n")
    assert not out.exists()
    with pytest.raises(ValueError, match=r"at most 2\*\*32 training batches"):
        TrainConfig(epochs=100000, batches_per_epoch=100000)


def test_a_schedule_of_exactly_2_to_the_32_batches_validates(capsys):
    # 2**32 held-out batches are within the cap, but validate refuses them
    # as a held-out set that cannot be allocated (128 TiB at the defaults)
    assert main(["validate", "--epochs", "65536", "--batches-per-epoch", "65536"]) == 0
    assert capsys.readouterr().out == "ok\n"
    TrainConfig(epochs=65536, batches_per_epoch=65536, eval_batches=2 ** 32)


def test_held_out_batches_past_the_batch_key_limit_are_refused(capsys):
    # train() draws every held-out batch before its first step, so they take
    # the training schedule's cap
    assert main(["validate", "--eval-batches", str(2 ** 32 + 1)]) == 2
    assert capsys.readouterr().err == (
        "error: eval_batches: eval_batches must be <= 2**32, the cap on a run's "
        "training batches (got 4294967297)\n")
    with pytest.raises(ValueError, match=r"eval_batches must be <= 2\*\*32"):
        TrainConfig(eval_batches=2 ** 32 + 1)


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
    reloaded = _reload(exp / "config.json")
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
    # a batch whose squared norm overflows float64 cannot take a first step,
    # so the first-step check is the one that names it
    assert err[0].startswith("error: template_scale, jitter_std, snr_db: the first adam "
                             "step on a batch of 64 samples in dim 32 may give a gradient "
                             "entry too large for Adam (template_scale ")
    assert err[0].endswith("*(1 + 10**(-snr_db/20)), must stay below 5.7896e+76")
    assert list(tmp_path.iterdir()) == []


def test_a_first_step_too_large_for_adam_is_refused_before_any_directory(tmp_path, capsys):
    # the batches fit float64, but the first gradient, an input times a
    # residual, would pass the entry Adam can square
    code = main(["run", "--name", "big", "--out", str(tmp_path), "--template-scale", "1e80",
                 "--trunk-widths", "3", "--dim", "4", "--batch-size", "4", "--seeds", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: template_scale, jitter_std, snr_db: the first adam step on a batch of 4 "
        "samples in dim 4 may give a gradient entry too large for Adam (template_scale "
        "1e+80, jitter_std 0.05, snr_db 0): the noisy batch's norm bound, "
        "(template_scale*sqrt(batch_size) + 14*jitter_std*sqrt(batch_size*dim))"
        "*(1 + 10**(-snr_db/20)), must stay below 5.7896e+76\n")
    assert list(tmp_path.iterdir()) == []
    # SGD's first step at that scale completes; its later divergence stays a run error
    assert main(["validate", "--template-scale", "1e80", "--optimizer", "sgd"]) == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    template_exp=st.floats(150.0, 160.0),
    jitter_exp=st.floats(150.0, 160.0),
    batch_size=st.integers(1, 64),
    dim=st.integers(2, 64),
    snr_db=st.floats(-319.0, 319.0),
    optimizer=st.sampled_from(OptimizerKind),
)
def test_the_first_step_bound_refuses_every_batch_float64_cannot_square(
        template_exp, jitter_exp, batch_size, dim, snr_db, optimizer):
    # the noisy batch's bound is never below the clean one's, and every
    # optimizer's first-step bound is at most sqrt(float64 max)/2, so the
    # first-step check alone keeps _draw's overflow check from firing on a
    # spec it accepts
    spec = ExperimentSpec(template_scale=10.0 ** template_exp,
                          jitter_std=10.0 ** jitter_exp, batch_size=batch_size, dim=dim,
                          snr_db=snr_db, optimizer=optimizer)
    if _clean_norm_bound(spec) >= math.sqrt(np.finfo(np.float64).max) / 2.0:
        assert first_step_errors(spec)


# a strategy token: a plain strategy, or fixed-theta at an angle from 1e-6 to
# 90 degrees, evenly spread in its exponent
STRATEGY_TOKENS = st.one_of(
    st.sampled_from([s.value for s in Strategy]),
    st.floats(-6.0, math.log10(90.0)).map(lambda e: f"fixed-theta:{10.0 ** e:.9f}deg"))


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
    optimizer=st.sampled_from(OptimizerKind),
    trunk_widths=st.sampled_from([(3,), (48, 48)]),
    token=STRATEGY_TOKENS,
)
# the scale that validate passed and the first held-out batch overflowed
@example(template_exp=200.0, jitter_exp=-1.3, batch_size=64, dim=32, num_classes=4,
         eval_batches=4, snr_db=0.0, seed=1, optimizer=OptimizerKind.ADAM,
         trunk_widths=(48, 48), token="gradient-remedy")
# just inside SGD's first-step bound, where the noise is faint
@example(template_exp=153.3, jitter_exp=None, batch_size=8, dim=6, num_classes=4,
         eval_batches=1, snr_db=300.0, seed=0, optimizer=OptimizerKind.SGD,
         trunk_widths=(48, 48), token="gradient-remedy")
# just inside Adam's first-step bound, at the most negative snr
@example(template_exp=60.3, jitter_exp=None, batch_size=8, dim=6, num_classes=4,
         eval_batches=1, snr_db=-319.0, seed=0, optimizer=OptimizerKind.ADAM,
         trunk_widths=(3,), token="gradient-remedy")
# the fixed-theta spec whose first step passed the entry Adam can square while
# validate passed it, and that spec just inside the bound at its angle
@example(template_exp=math.log10(1.4e76), jitter_exp=-1.3, batch_size=4, dim=4,
         num_classes=4, eval_batches=4, snr_db=0.0, seed=1, optimizer=OptimizerKind.ADAM,
         trunk_widths=(3,), token="fixed-theta:0.001deg")
@example(template_exp=math.log10(6e73), jitter_exp=-1.3, batch_size=4, dim=4,
         num_classes=4, eval_batches=4, snr_db=0.0, seed=1, optimizer=OptimizerKind.ADAM,
         trunk_widths=(3,), token="fixed-theta:0.001deg")
# just inside the bound at the least angle drawn
@example(template_exp=math.log10(1.9e72), jitter_exp=-1.3, batch_size=4, dim=4,
         num_classes=4, eval_batches=4, snr_db=0.0, seed=1, optimizer=OptimizerKind.ADAM,
         trunk_widths=(3,), token="fixed-theta:0.000001deg")
def test_every_spec_validate_accepts_builds_its_first_batches(
        template_exp, jitter_exp, batch_size, dim, num_classes, eval_batches, snr_db, seed,
        optimizer, trunk_widths, token):
    """Every spec validate accepts builds its first batches and takes its
    first optimizer step."""
    strategy, theta = parse_strategy_token(token)
    spec = ExperimentSpec(
        template_scale=10.0 ** template_exp,
        jitter_std=0.0 if jitter_exp is None else 10.0 ** jitter_exp,
        batch_size=batch_size, dim=dim, num_classes=num_classes,
        eval_batches=eval_batches, snr_db=snr_db, seeds=(seed,), optimizer=optimizer,
        trunk_widths=trunk_widths, epochs=1, batches_per_epoch=1, strategy=strategy,
        fixed_theta=RemedyConfig.fixed_theta if theta is None else theta)
    if _checked(spec)[0]:
        return
    data = spec.dataset(seed)
    batches = [data.eval_batch(batch_size, j) for j in range(eval_batches)]
    batches.append(data.train_batch(batch_size, 0))
    for batch in batches:
        assert np.isfinite(batch.noisy).all() and np.isfinite(batch.clean).all()
    net = init_network(seed=seed, in_dim=dim, trunk_widths=trunk_widths,
                       num_classes=num_classes)
    assert len(train(spec.train_config(), data, net).step_stats) == 1


# a spec whose first step at seed 1 passed the entry Adam can square while
# validate printed ok
TINY_ANGLE = ["--strategy", "fixed-theta:0.001deg", "--template-scale", "1.4e76",
         "--trunk-widths", "3", "--dim", "4", "--batch-size", "4", "--seeds", "1",
         "--epochs", "1", "--batches-per-epoch", "1"]


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_a_fixed_angle_that_could_overflow_the_first_step_is_refused(
        command, tmp_path, capsys):
    # the projection to theta may lengthen the auxiliary gradient by up to
    # 1/sin(theta), so the bound shrinks by sqrt(sin(theta)); a sweep checks
    # each token's angle, not only the base spec's
    extra = ["--strategies", "naive,fixed-theta:0.001deg"] if command == "sweep" else []
    out = tmp_path / "out"
    assert main([command, *TINY_ANGLE, "--out", str(out), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: template_scale, jitter_std, snr_db, fixed_theta: the first adam step of "
        "fixed-theta at 0.001 deg, whose projection may lengthen the auxiliary gradient "
        "by 1/sin(theta), on a batch of 4 samples in dim 4 may give a gradient entry too "
        "large for Adam (template_scale 1.4e+76, jitter_std 0.05, snr_db 0): the noisy "
        "batch's norm bound, (template_scale*sqrt(batch_size) + 14*jitter_std*"
        "sqrt(batch_size*dim))*(1 + 10**(-snr_db/20)), must stay below 2.41873e+74\n")
    assert list(tmp_path.iterdir()) == []
    # the other strategies keep the bound of a plain step at that scale
    for strategy in ("naive", "pcgrad", "gradient-remedy"):
        assert main(["validate", *TINY_ANGLE, "--strategy", strategy]) == 0


def test_seed_0_validates_and_runs(tmp_path, capsys):
    argv = ["--name", "zero", "--out", str(tmp_path), *FAST[:-2], "--seeds", "0"]
    assert main(["validate", *argv]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["run", *argv]) == 0
    assert (tmp_path / "zero" / "seed0" / "steps.csv").is_file()
    assert json.loads((tmp_path / "zero" / "seed0" / "metrics.json").read_text())["seed"] == 0


def test_seed_0_is_placed_by_validate(tmp_path, capsys):
    # seed 0's templates are checked like any other seed's: the refusal
    # comes from validate (exit 2), not from the run's dataset (exit 1)
    assert main(["validate", "--classes", "40", "--dim", "3", "--seeds", "0",
                 "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: num_classes: could not place 40 templates in dim 3 with pairwise "
        "angle >= 45.0 deg: at most 26 fit (seed 0)\n")


@pytest.mark.parametrize("command, seeds, extra", [
    ("run", [1], []),
    ("sweep", [1, 2], ["--strategies", "naive,pcgrad"]),
], ids=["run", "sweep"])
def test_each_seed_s_templates_are_placed_once_per_call(command, seeds, extra,
                                                         tmp_path, monkeypatch):
    # validation places them, and every strategy trains on those datasets
    placed = []
    place = gradremedy.synthdata.class_templates

    def spy(seed, *args, **kwargs):
        placed.append(seed)
        return place(seed, *args, **kwargs)

    monkeypatch.setattr(gradremedy.synthdata, "class_templates", spy)
    argv = [command, "--out", str(tmp_path), *FAST[:-2],
            "--seeds", ",".join(map(str, seeds)), *extra]
    assert main(argv) == 0
    assert placed == seeds


def test_run_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path))
    base = ExperimentSpec(name="filecfg", learning_rate=0.5)
    cfg = tmp_path / "base.json"
    base.save_json(str(cfg))
    code = main(["run", "--config", str(cfg), "--lr", "0.25", *FAST])
    assert code == 0
    written = _reload(tmp_path / "filecfg" / "config.json")
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
    base = _reload(a / "config.json")
    assert base.fixed_theta == RemedyConfig.fixed_theta
    token = _reload(a / "fixed-theta-20deg" / "config.json")
    assert token.fixed_theta == math.radians(20.0)
    assert main(["sweep", "--name", "b", "--config", str(a / "config.json"),
                 *tokens]) == 0
    runs = [{path: digest for path, digest in _hashes(root).items()
             if not path.endswith("config.json")} for root in (a, b)]
    assert len(runs[0]) == 2 * 3 + 1
    assert runs[0] == runs[1]
    for path in ("config.json", "naive/config.json", "fixed-theta-20deg/config.json"):
        assert _reload(b / path) == replace(_reload(a / path), name="b")


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
