"""Experiment runner: `gradremedy run | sweep | validate`.

A run executes the training harness once per seed and leaves on disk:

    <out>/<name>/
        config.json            resolved experiment; --config reloads it
        seed<k>/steps.csv      per-step interference stats
        seed<k>/epochs.csv     per-epoch aggregates
        seed<k>/metrics.json   final metrics for the seed
        summary.csv            one row per strategy

`sweep` repeats that for several strategies under one root. Both write into
a fresh sibling, `<out>/.<name>.XXXX`, which replaces `<out>/<name>` whole
once every file is written and is removed if anything fails. Configuration
comes from flags, an optional JSON config file (flags win), and the
GRADREMEDY_OUT env var for the default output root; the flags are
ExperimentSpec's fields, each typed from its field. A fixed-theta angle
comes from a `fixed-theta:NNdeg` token, in degrees, or a config file's
fixed_theta, in radians; a token's angle overrides the file's in the
token's subdirectory only, so a sweep reruns from its root config.json.
An angle suffix is digits with an optional decimal fraction, then `deg`,
and a sweep refuses a token that trains the strategy and angle of an
earlier one. main parses with one parser, built on its first call in each
process, so a process that calls it many times builds the parser once.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum

import numpy as np

from .net import init_network, layer_bounds, layer_shapes, network_errors
from .surgery import (
    RatioRule,
    RemedyConfig,
    Strategy,
    bound_errors,
    remedy_config_errors,
)
from .synthdata import TwoTaskDataset, dataset_errors
from .trainer import (
    EpochStats,
    OptimizerKind,
    StepStats,
    TrainConfig,
    first_step_errors,
    train,
    train_config_errors,
    write_csv,
)

OUT_ENV_VAR = "GRADREMEDY_OUT"
DEFAULT_OUT_ROOT = "runs"


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment; JSON-serializable, flat.

    A field that RemedyConfig, TrainConfig or TwoTaskDataset also has takes
    its default from that class, and remedy_config(), train_config() and
    dataset() pass it on by name. fixed_theta is stored in radians (the CLI
    converts from degrees).
    """

    name: str = "experiment"
    strategy: Strategy = RemedyConfig.strategy
    fixed_theta: float = RemedyConfig.fixed_theta
    dominance_k: float = RemedyConfig.dominance_k
    ratio_rule: RatioRule = RemedyConfig.ratio_rule
    ratio_constant: float = RemedyConfig.ratio_constant
    rescale_enabled: bool = RemedyConfig.rescale_enabled
    r_min: float = RemedyConfig.r_min
    lam: float = TrainConfig.lam
    epochs: int = TrainConfig.epochs
    batches_per_epoch: int = TrainConfig.batches_per_epoch
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    optimizer: OptimizerKind = TrainConfig.optimizer
    eval_batches: int = TrainConfig.eval_batches
    trunk_widths: tuple[int, ...] = (48, 48)
    dim: int = 32
    num_classes: int = 4
    snr_db: float = 0.0
    jitter_std: float = TwoTaskDataset.jitter_std
    template_scale: float = TwoTaskDataset.template_scale
    seeds: tuple[int, ...] = (1, 2, 3)
    out_dir: str = ""

    def to_dict(self) -> dict:
        """The JSON form _load reads back: an enum as its value, a tuple as
        a list."""
        return {key: value.value if isinstance(value, Enum)
                else list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    def save_json(self, path: str) -> None:
        _write_json(self.to_dict(), path)

    def _build(self, cls, **given):
        """cls from this spec's fields that cls also has, plus given."""
        names = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in names}
        return cls(**shared, **given)

    def remedy_config(self) -> RemedyConfig:
        return self._build(RemedyConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, remedy=self.remedy_config())

    def dataset(self, seed: int) -> TwoTaskDataset:
        return self._build(TwoTaskDataset, seed=seed)


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number",
             str: "a string"}


def _load(raw: dict) -> tuple[ExperimentSpec, list[str]]:
    """The spec of raw's well-typed values, defaults elsewhere, plus an error
    for every unknown key and every value of the wrong type."""
    kinds = {f.name: f.type for f in fields(ExperimentSpec)}
    unknown = sorted(set(raw) - set(kinds))
    errors = [f"unknown config keys: {', '.join(unknown)}"] if unknown else []
    data = {}
    for key, value in raw.items():
        if key in kinds:
            try:
                data[key] = _typed(kinds[key], value)
            except (ValueError, OverflowError) as err:
                errors.append(f"{key}: {err}")
    return ExperimentSpec(**data), errors


def _read_config(path: str) -> dict:
    """The one JSON object a config file holds; ValueError naming the file
    when it cannot be decoded or holds anything else."""
    try:
        with open(path, "r", encoding="ascii") as src:
            raw = json.load(src)
    except ValueError as err:  # JSON and encoding errors are ValueErrors
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a config file holds one JSON object")
    return raw


def _write_json(value, path: str) -> None:
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii") as out:
        out.write(text)


def _typed(kind, value):
    """value as a spec field of type kind holds it: enum members from their
    values, tuples from lists of integers; ValueError when it does not fit,
    OverflowError for an integer in an int or float field that float64
    cannot hold."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(value)
    if kind == tuple[int, ...]:
        if isinstance(value, (list, tuple)) and all(type(v) is int for v in value):
            return tuple(value)
        raise ValueError(f"must be a list of integers, got {value!r}")
    if type(value) in ((int, float) if kind is float else (kind,)):
        if kind in (int, float):
            float(value)  # the bound checks and the run compute with it in float64
        return value
    raise ValueError(f"must be {_EXPECTED[kind]}, got {value!r}")


def _checked(
    spec: ExperimentSpec, children: typing.Sequence[ExperimentSpec] = ()
) -> tuple[list[str], dict[int, TwoTaskDataset]]:
    """Every config error at once (none means runnable), and the dataset of
    each seed whose templates it placed: a run trains on these, so it places
    each seed's templates once. Each spec in children, which differs from
    spec only in its remedy fields, gets those and its first step checked.
    A spec with no other error must also fit two of a run's first
    allocations, tried here: the net's flat parameter buffer and the
    held-out set."""
    errors = bound_errors(spec, ((
        "name", lambda n: n not in ("", ".", "..") and os.path.basename(n) == n,
        "must be one plain directory name: not empty, '.', '..' or a path",
    ),))
    if not spec.seeds:
        errors.append("at least one seed is required")
    if any(seed < 0 for seed in spec.seeds):
        errors.append(f"seeds: each seed must be >= 0 (got {list(spec.seeds)})")
    if len(set(spec.seeds)) < len(spec.seeds):
        errors.append(f"seeds: each seed may appear once (got {list(spec.seeds)})")
    for trained in (spec, *children):
        errors += remedy_config_errors(trained)
    errors += train_config_errors(spec)
    datasets = {}
    field_errors = dataset_errors(spec)
    errors += field_errors
    if not field_errors:
        for seed in (s for s in spec.seeds if s >= 0):  # the rest are refused above
            try:
                datasets[seed] = spec.dataset(seed)
            except ValueError as err:  # its templates cannot be placed
                errors.append(f"num_classes: {err} (seed {seed})")
                break
            except MemoryError as err:  # nor their table allocated
                errors.append(f"dim, num_classes: {err} (seed {seed})")
                break
        for trained in (spec, *children):
            errors += first_step_errors(trained)
    errors += network_errors(spec)
    if not errors:
        size = layer_bounds(layer_shapes(spec.dim, spec.trunk_widths, spec.num_classes))[-1]
        for names, what, shape in (
                ("dim, trunk_widths, num_classes", "the net's parameters", size),
                ("eval_batches, batch_size, dim", "the held-out set",
                 (spec.eval_batches, 2, spec.batch_size, spec.dim))):
            try:
                np.empty(shape)
            except (ValueError, MemoryError) as err:  # past numpy's size limit, or memory
                errors.append(f"{names}: {what} cannot be allocated ({err})")
    return errors, datasets


class SummaryRow(typing.NamedTuple):
    """One summary.csv row; seeds is the space-joined seed list."""

    strategy: str
    seeds: str
    median_accuracy: float
    min_accuracy: float
    max_accuracy: float
    mean_pct_conflicting: float
    mean_pct_wrongly_dominant: float


def _fmean(values) -> float:
    """statistics.fmean's value: the fsum over the count. The CLI does
    without statistics, whose decimal and fractions imports add about
    0.5 MB to every process."""
    values = list(values)
    return math.fsum(values) / len(values)


def _median(values: list[float]) -> float:
    """statistics.median's value: the middle entry, or the mean of the two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _run_one_seed(spec: ExperimentSpec, data: TwoTaskDataset, seed_dir: str) -> dict:
    """Train on one seed's dataset, write its files, and return its
    metrics.json dict."""
    seed = data.seed
    os.mkdir(seed_dir)
    net = init_network(
        seed=seed,
        in_dim=spec.dim,
        trunk_widths=spec.trunk_widths,
        num_classes=spec.num_classes,
    )
    result = train(spec.train_config(), data, net)
    write_csv(result.step_stats, StepStats, os.path.join(seed_dir, "steps.csv"))
    write_csv(result.epoch_stats, EpochStats, os.path.join(seed_dir, "epochs.csv"))
    final = result.epoch_stats[-1]
    metrics = {
        "seed": seed,
        "final_eval_accuracy": final.eval_accuracy,
        "final_loss_aux": final.loss_aux,
        "final_loss_dom": final.loss_dom,
        "mean_pct_conflicting": _fmean(
            e.pct_conflicting for e in result.epoch_stats
        ),
        "mean_pct_wrongly_dominant": _fmean(
            e.pct_wrongly_dominant for e in result.epoch_stats
        ),
        "rescale_events": result.rescale_events,
        "mean_r_applied": result.mean_r_applied,
    }
    _write_json(metrics, os.path.join(seed_dir, "metrics.json"))
    return metrics


def run_strategy(spec: ExperimentSpec, strategy_dir: str, label: str,
                 datasets: dict[int, TwoTaskDataset]) -> SummaryRow:
    """Train every seed of one strategy on its dataset in datasets; emit
    per-seed files under strategy_dir."""
    os.makedirs(strategy_dir, exist_ok=True)
    spec.save_json(os.path.join(strategy_dir, "config.json"))
    per_seed = []
    for seed in spec.seeds:
        m = _run_one_seed(spec, datasets[seed], os.path.join(strategy_dir, f"seed{seed}"))
        per_seed.append(m)
        print(
            f"  seed {seed}: accuracy={m['final_eval_accuracy']:.4f} "
            f"conflict%={m['mean_pct_conflicting']:.2f} "
            f"dominant%={m['mean_pct_wrongly_dominant']:.2f}"
        )
    finals = [m["final_eval_accuracy"] for m in per_seed]
    return SummaryRow(
        strategy=label,
        seeds=" ".join(str(s) for s in spec.seeds),
        median_accuracy=_median(finals),
        min_accuracy=min(finals),
        max_accuracy=max(finals),
        mean_pct_conflicting=_fmean(
            m["mean_pct_conflicting"] for m in per_seed
        ),
        mean_pct_wrongly_dominant=_fmean(
            m["mean_pct_wrongly_dominant"] for m in per_seed
        ),
    )


# [0-9], not \d, which also matches non-ASCII digits that float() reads
_ANGLE_SUFFIX = re.compile(r"([0-9]+(?:\.[0-9]+)?)deg")


def parse_strategy_token(token: str) -> tuple[Strategy, float | None]:
    """'fixed-theta:36deg' -> (FIXED_THETA, 0.628...); plain tokens -> (S, None).
    A colon always starts an angle suffix, which only fixed-theta takes."""
    base, colon, angle = token.partition(":")
    strategy = Strategy(base)
    if not colon:
        return strategy, None
    if strategy is not Strategy.FIXED_THETA:
        raise ValueError(f"only fixed-theta takes an angle suffix, got {token!r}")
    number = _ANGLE_SUFFIX.fullmatch(angle)
    if number is None:
        raise ValueError(
            f"angle suffix must be a number followed by 'deg', got {token!r}")
    return strategy, math.radians(float(number[1]))


# --- argument parsing --------------------------------------------------------


# the flags not spelled --<field> with dashes, by field
_FLAG_NAMES = {"dominance_k": "--k", "lam": "--lambda", "rescale_enabled": "--rescale",
               "learning_rate": "--lr", "num_classes": "--classes", "out_dir": "--out"}

_FLAG_HELP = {
    "name": "experiment name (output subdirectory)",
    "strategy": "naive | pcgrad | fixed-theta[:NNdeg] | gradient-remedy",
    "dominance_k": "dominance threshold K (> 1)",
    "lam": "dominant-task loss weight in [0, 1]",
    "trunk_widths": "comma-separated, e.g. 48,48",
    "seeds": "comma-separated, e.g. 1,2,3",
    "out_dir": "output root directory",
}

# the fields whose flag text _spec_from_args parses
_PARSED = ("strategy", "seeds", "trunk_widths")


def _common_flags() -> argparse.ArgumentParser:
    """The flags every command takes, on a parser for parents=[...]:
    --config, then one per ExperimentSpec field but fixed_theta, which only
    a strategy token or a config file sets. Defaults are all None so a config
    file can tell "flag given" from "flag absent"; ExperimentSpec has the real
    ones."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="JSON config file (flags override it)")
    for f in fields(ExperimentSpec):
        if f.name == "fixed_theta":
            continue
        if f.type is bool:
            kind = {"action": argparse.BooleanOptionalAction}
        elif f.name in _PARSED or f.type is str:
            kind = {}
        elif issubclass(f.type, Enum):
            kind = {"choices": [member.value for member in f.type]}
        else:  # int and float
            kind = {"type": f.type}
        p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                       dest=f.name, help=_FLAG_HELP.get(f.name), **kind)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradremedy",
        description="Two-task gradient-surgery experiments on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]
    sub.add_parser("run", help="train one strategy across seeds", parents=common)
    sweep = sub.add_parser("sweep", help="train several strategies and compare",
                           parents=common)
    sweep.add_argument(
        "--strategies",
        required=True,
        help="comma-separated strategy tokens, "
        "e.g. naive,pcgrad,fixed-theta:36deg,gradient-remedy",
    )
    sub.add_parser("validate", help="check a configuration without running it",
                   parents=common)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built on first use in each process: building
    one costs about a millisecond, and parse_args keeps nothing between
    calls (each returns a fresh Namespace filled from the defaults)."""
    return build_parser()


def _split(flag: str, text: str) -> list[str]:
    """text's comma-separated entries; ValueError if one is empty."""
    entries = text.split(",")
    if "" in entries:
        raise ValueError(f"{flag} has an empty entry, got {text!r}")
    return entries


def _int_list(flag: str, text: str) -> list[int]:
    entries = _split(flag, text)
    try:
        return [int(s) for s in entries]
    except ValueError:
        raise ValueError(
            f"{flag} must be comma-separated integers, got {text!r}"
        ) from None


def _spec_from_args(args: argparse.Namespace) -> tuple[ExperimentSpec, list[str]]:
    """The spec the flags and config file give, plus an error for every
    unknown key and wrong-typed value (their fields keep the defaults);
    ValueError or OSError when the flags or the file cannot be read."""
    raw = _read_config(args.config) if args.config else {}

    overrides: dict = {}
    for key in (f.name for f in fields(ExperimentSpec)):
        value = getattr(args, key, None)
        if value is not None and key not in _PARSED:
            overrides[key] = value
    if args.strategy is not None:
        strategy, theta = parse_strategy_token(args.strategy)
        overrides["strategy"] = strategy.value
        if theta is not None:
            overrides["fixed_theta"] = theta
    if args.seeds is not None:
        overrides["seeds"] = _int_list("--seeds", args.seeds)
    if args.trunk_widths is not None:
        overrides["trunk_widths"] = _int_list("--trunk-widths", args.trunk_widths)
    raw.update(overrides)

    spec, errors = _load(raw)
    if not spec.out_dir:
        spec = replace(
            spec, out_dir=os.environ.get(OUT_ENV_VAR, DEFAULT_OUT_ROOT)
        )
    return spec, errors


def _strategy_runs(
    args: argparse.Namespace, spec: ExperimentSpec
) -> tuple[list[tuple[str, ExperimentSpec, str]], list[str]]:
    """(label, spec, subdirectory) of each strategy the command trains, plus
    an error per token that names none or trains the (strategy, angle) of
    an earlier token (or one error if a token is empty).
    `run` trains the spec itself straight into the experiment directory;
    `sweep` each --strategies token into a subdirectory of its own."""
    if args.command != "sweep":
        return [(spec.strategy.value, spec, "")], []
    runs, errors = [], []
    try:
        tokens = _split("--strategies", args.strategies)
    except ValueError as err:
        return [], [str(err)]
    for token in tokens:
        try:
            strategy, theta = parse_strategy_token(token)
        except ValueError as err:
            errors.append(str(err))
            continue
        child = replace(spec, strategy=strategy,
                        fixed_theta=spec.fixed_theta if theta is None else theta)
        # only equal tokens share a subdirectory, so this also keeps each
        # subdirectory to one run
        earlier = next((label for label, taken, _ in runs
                        if (taken.strategy, taken.fixed_theta)
                        == (strategy, child.fixed_theta)), None)
        if earlier is not None:
            errors.append(f"strategy token {token!r} trains the same strategy "
                          f"as {earlier!r}")
            continue
        runs.append((token, child, token.replace(":", "-")))
    return runs, errors


def main(argv: list[str] | None = None) -> int:
    """Every command first loads the spec and checks it and each spec it
    would train: any error is printed as an `error:` line and exits 2
    before a directory is made. `validate` stops there; `run` and `sweep`
    train every strategy on the datasets the check built, so each seed's
    templates are placed once per call."""
    args = _parser().parse_args(argv)
    try:
        spec, errors = _spec_from_args(args)
    except (OSError, ValueError) as err:
        errors, runs = [str(err)], []
    else:
        runs, token_errors = _strategy_runs(args, spec)
        # a child spec differs from spec only in its remedy fields, so it
        # trains on spec's datasets
        spec_errors, datasets = _checked(spec, [child for _, child, _ in runs])
        errors = list(dict.fromkeys(errors + spec_errors + token_errors))
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("ok")
        return 0

    exp_dir = os.path.join(spec.out_dir, spec.name)
    rows = []
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{spec.name}.",
                                         dir=spec.out_dir) as stage:
            new_dir = os.path.join(stage, "new")
            # run_strategy writes each strategy's config.json; a sweep also
            # keeps its base spec at the root
            if args.command == "sweep":
                os.mkdir(new_dir)
                spec.save_json(os.path.join(new_dir, "config.json"))
            for label, child, subdir in runs:
                print(f"{args.command} {spec.name}: strategy={label}")
                rows.append(run_strategy(child, os.path.join(new_dir, subdir), label,
                                         datasets))
            write_csv(rows, SummaryRow, os.path.join(new_dir, "summary.csv"))
            if os.path.isdir(exp_dir):  # the earlier run is removed with the stage
                os.rename(exp_dir, os.path.join(stage, "old"))
            os.rename(new_dir, exp_dir)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {exp_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
