"""CLI plumbing: config round-trips, validation, and run/sweep output trees."""

import json
import math

import pytest

from gradremedy import OptimizerKind, RatioRule, Strategy
from gradremedy.cli import (
    ExperimentSpec,
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
    with pytest.raises(ValueError):
        parse_strategy_token("bogus")


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


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADREMEDY_OUT", str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    code = main(
        ["run", "--name", "where", "--out", str(explicit), *FAST]
    )
    assert code == 0
    assert (explicit / "where" / "summary.csv").is_file()
    assert not (tmp_path / "ignored").exists()
