"""Experiment runner: `gradremedy run | sweep | validate`.

A run executes the training harness once per seed and leaves on disk:

    <out>/<name>/
        config.json            resolved experiment (reloadable, round-trips)
        seed<k>/steps.csv      per-step interference stats
        seed<k>/epochs.csv     per-epoch aggregates
        seed<k>/metrics.json   final metrics for the seed
        summary.csv            one row per strategy

`sweep` repeats that for several strategies under one root. Configuration
comes from flags, an optional JSON config file (flags win), and the
GRADREMEDY_OUT env var for the default output root. Angles are degrees on
the command line and radians everywhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, fields, replace

from .net import init_network, network_errors
from .surgery import RatioRule, RemedyConfig, Strategy, remedy_config_errors
from .synthdata import TwoTaskDataset, dataset_errors
from .trainer import (
    OptimizerKind,
    TrainConfig,
    train,
    train_config_errors,
    write_epochs_csv,
    write_steps_csv,
)

OUT_ENV_VAR = "GRADREMEDY_OUT"
DEFAULT_OUT_ROOT = "runs"


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment; JSON-serializable, flat.

    fixed_theta is stored in radians (the CLI converts from degrees).
    """

    name: str = "experiment"
    strategy: Strategy = Strategy.GRADIENT_REMEDY
    fixed_theta: float = math.radians(36.0)
    dominance_k: float = 5.0
    ratio_rule: RatioRule = RatioRule.COS_THETA_PRIME
    ratio_constant: float = 0.5
    rescale_enabled: bool = True
    r_min: float = 1e-3
    lam: float = 0.7
    epochs: int = 20
    batches_per_epoch: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: OptimizerKind = OptimizerKind.ADAM
    warmup_steps: int = 0
    bias_separate: bool = False
    eval_batches: int = 4
    trunk_widths: tuple[int, ...] = (48, 48)
    dim: int = 32
    num_classes: int = 4
    snr_db: float = 0.0
    jitter_std: float = 0.05
    template_scale: float = 1.0
    seeds: tuple[int, ...] = (1, 2, 3)
    out_dir: str = ""

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["strategy"] = self.strategy.value
        raw["ratio_rule"] = self.ratio_rule.value
        raw["optimizer"] = self.optimizer.value
        raw["seeds"] = list(self.seeds)
        raw["trunk_widths"] = list(self.trunk_widths)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        data = dict(raw)
        if "strategy" in data:
            data["strategy"] = Strategy(data["strategy"])
        if "ratio_rule" in data:
            data["ratio_rule"] = RatioRule(data["ratio_rule"])
        if "optimizer" in data:
            data["optimizer"] = OptimizerKind(data["optimizer"])
        if "seeds" in data:
            data["seeds"] = tuple(int(s) for s in data["seeds"])
        if "trunk_widths" in data:
            data["trunk_widths"] = tuple(int(w) for w in data["trunk_widths"])
        return cls(**data)

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as out:
            json.dump(self.to_dict(), out, indent=2, sort_keys=True)
            out.write("\n")

    @classmethod
    def load_json(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="ascii") as src:
            return cls.from_dict(json.load(src))

    def remedy_config(self) -> RemedyConfig:
        return RemedyConfig(
            strategy=self.strategy,
            fixed_theta=self.fixed_theta,
            dominance_k=self.dominance_k,
            ratio_rule=self.ratio_rule,
            ratio_constant=self.ratio_constant,
            rescale_enabled=self.rescale_enabled,
            r_min=self.r_min,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            remedy=self.remedy_config(),
            lam=self.lam,
            epochs=self.epochs,
            batches_per_epoch=self.batches_per_epoch,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            warmup_steps=self.warmup_steps,
            bias_separate=self.bias_separate,
            eval_batches=self.eval_batches,
            seed=seed,
        )

    def dataset(self, seed: int) -> TwoTaskDataset:
        return TwoTaskDataset(
            seed=seed,
            num_classes=self.num_classes,
            dim=self.dim,
            snr_db=self.snr_db,
            jitter_std=self.jitter_std,
            template_scale=self.template_scale,
        )


def validate(spec: ExperimentSpec) -> list[str]:
    """All config errors at once; empty list means runnable."""
    errors = []
    if not spec.name:
        errors.append("name must be non-empty")
    if not spec.seeds:
        errors.append("at least one seed is required")
    errors += remedy_config_errors(spec)
    errors += train_config_errors(spec)
    errors += dataset_errors(spec)
    errors += network_errors(spec)
    return errors


@dataclass
class SummaryRow:
    label: str
    seeds: tuple[int, ...]
    median_accuracy: float
    min_accuracy: float
    max_accuracy: float
    mean_pct_conflicting: float
    mean_pct_wrongly_dominant: float


def _run_one_seed(spec: ExperimentSpec, seed: int, seed_dir: str) -> dict:
    os.makedirs(seed_dir, exist_ok=True)
    try:
        return _run_one_seed_inner(spec, seed, seed_dir)
    except Exception:
        # half-written seed directories are worse than absent ones
        shutil.rmtree(seed_dir, ignore_errors=True)
        raise


def _run_one_seed_inner(spec: ExperimentSpec, seed: int, seed_dir: str) -> dict:
    """Train one seed, write its files, and return its metrics.json dict."""
    net = init_network(
        seed=seed,
        in_dim=spec.dim,
        trunk_widths=spec.trunk_widths,
        num_classes=spec.num_classes,
    )
    result = train(spec.train_config(seed), spec.dataset(seed), net)
    write_steps_csv(result.step_stats, os.path.join(seed_dir, "steps.csv"))
    write_epochs_csv(result.epoch_stats, os.path.join(seed_dir, "epochs.csv"))
    final = result.epoch_stats[-1]
    metrics = {
        "seed": seed,
        "final_eval_accuracy": final.eval_accuracy,
        "final_loss_aux": final.loss_aux,
        "final_loss_dom": final.loss_dom,
        "mean_pct_conflicting": statistics.fmean(
            e.pct_conflicting for e in result.epoch_stats
        ),
        "mean_pct_wrongly_dominant": statistics.fmean(
            e.pct_wrongly_dominant for e in result.epoch_stats
        ),
        "rescale_events": result.rescale_events,
        "mean_r_applied": result.mean_r_applied,
    }
    with open(os.path.join(seed_dir, "metrics.json"), "w", encoding="ascii") as out:
        json.dump(metrics, out, indent=2, sort_keys=True)
        out.write("\n")
    return metrics


def run_strategy(spec: ExperimentSpec, strategy_dir: str, label: str) -> SummaryRow:
    """Train every seed of one strategy; emit per-seed files under strategy_dir."""
    os.makedirs(strategy_dir, exist_ok=True)
    spec.save_json(os.path.join(strategy_dir, "config.json"))
    per_seed = []
    for seed in spec.seeds:
        m = _run_one_seed(spec, seed, os.path.join(strategy_dir, f"seed{seed}"))
        per_seed.append(m)
        print(
            f"  seed {seed}: accuracy={m['final_eval_accuracy']:.4f} "
            f"conflict%={m['mean_pct_conflicting']:.2f} "
            f"dominant%={m['mean_pct_wrongly_dominant']:.2f}"
        )
    finals = [m["final_eval_accuracy"] for m in per_seed]
    return SummaryRow(
        label=label,
        seeds=spec.seeds,
        median_accuracy=statistics.median(finals),
        min_accuracy=min(finals),
        max_accuracy=max(finals),
        mean_pct_conflicting=statistics.fmean(
            m["mean_pct_conflicting"] for m in per_seed
        ),
        mean_pct_wrongly_dominant=statistics.fmean(
            m["mean_pct_wrongly_dominant"] for m in per_seed
        ),
    )


def write_summary_csv(rows: list[SummaryRow], path: str) -> None:
    with open(path, "w", encoding="ascii") as out:
        out.write(
            "strategy,seeds,median_accuracy,min_accuracy,max_accuracy,"
            "mean_pct_conflicting,mean_pct_wrongly_dominant\n"
        )
        for r in rows:
            seeds = " ".join(str(s) for s in r.seeds)
            out.write(
                f"{r.label},{seeds},{r.median_accuracy:.12g},"
                f"{r.min_accuracy:.12g},{r.max_accuracy:.12g},"
                f"{r.mean_pct_conflicting:.12g},{r.mean_pct_wrongly_dominant:.12g}\n"
            )


def parse_strategy_token(token: str) -> tuple[Strategy, float | None]:
    """'fixed-theta:36deg' -> (FIXED_THETA, 0.628...); plain tokens -> (S, None)."""
    base, _, angle = token.partition(":")
    strategy = Strategy(base)
    if not angle:
        return strategy, None
    if strategy is not Strategy.FIXED_THETA:
        raise ValueError(f"only fixed-theta takes an angle suffix, got {token!r}")
    if not angle.endswith("deg"):
        raise ValueError(f"angle suffix must end in 'deg', got {token!r}")
    return strategy, math.radians(float(angle[: -len("deg")]))


def _spec_with_strategy(spec: ExperimentSpec, token: str) -> ExperimentSpec:
    strategy, theta = parse_strategy_token(token)
    if theta is None:
        return replace(spec, strategy=strategy)
    return replace(spec, strategy=strategy, fixed_theta=theta)


# --- argument parsing --------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # Defaults are all None so a config file can tell "flag given" from
    # "flag absent"; real defaults live on ExperimentSpec.
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--name", help="experiment name (output subdirectory)")
    p.add_argument(
        "--strategy",
        help="naive | pcgrad | fixed-theta[:NNdeg] | gradient-remedy",
    )
    p.add_argument("--fixed-theta", type=float, dest="fixed_theta_deg",
                   metavar="DEG", help="projection angle for fixed-theta, degrees")
    p.add_argument("--k", type=float, dest="dominance_k",
                   help="dominance threshold K (> 1)")
    p.add_argument("--lambda", type=float, dest="lam",
                   help="dominant-task loss weight in [0, 1]")
    p.add_argument("--ratio-rule",
                   choices=[r.value for r in RatioRule], dest="ratio_rule")
    p.add_argument("--ratio-constant", type=float, dest="ratio_constant")
    p.add_argument("--rescale", action=argparse.BooleanOptionalAction,
                   dest="rescale_enabled", default=None)
    p.add_argument("--r-min", type=float, dest="r_min")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batches-per-epoch", type=int, dest="batches_per_epoch")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=[o.value for o in OptimizerKind])
    p.add_argument("--warmup-steps", type=int, dest="warmup_steps")
    p.add_argument("--bias-separate", action=argparse.BooleanOptionalAction,
                   dest="bias_separate", default=None)
    p.add_argument("--eval-batches", type=int, dest="eval_batches")
    p.add_argument("--trunk-widths", dest="trunk_widths",
                   help="comma-separated, e.g. 48,48")
    p.add_argument("--dim", type=int)
    p.add_argument("--classes", type=int, dest="num_classes")
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--jitter-std", type=float, dest="jitter_std")
    p.add_argument("--template-scale", type=float, dest="template_scale")
    p.add_argument("--seeds", help="comma-separated, e.g. 1,2,3")
    p.add_argument("--out", dest="out_dir", help="output root directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradremedy",
        description="Two-task gradient-surgery experiments on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, blurb in (
        ("run", "train one strategy across seeds"),
        ("sweep", "train several strategies and compare"),
        ("validate", "check a configuration without running it"),
    ):
        p = sub.add_parser(command, help=blurb)
        _add_common_flags(p)
        if command == "sweep":
            p.add_argument(
                "--strategies",
                required=True,
                help="comma-separated strategy tokens, "
                "e.g. naive,pcgrad,fixed-theta:36deg,gradient-remedy",
            )
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    raw: dict = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as src:
            raw.update(json.load(src))

    overrides: dict = {}
    # strategy, seeds and trunk_widths need parsing; fixed_theta comes in degrees
    for key in (f.name for f in fields(ExperimentSpec)):
        value = getattr(args, key, None)
        if value is not None and key not in ("strategy", "seeds", "trunk_widths"):
            overrides[key] = value
    if args.strategy is not None:
        strategy, theta = parse_strategy_token(args.strategy)
        overrides["strategy"] = strategy.value
        if theta is not None:
            overrides["fixed_theta"] = theta
    if args.fixed_theta_deg is not None:
        overrides["fixed_theta"] = math.radians(args.fixed_theta_deg)
    if args.seeds is not None:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",") if s]
    if getattr(args, "trunk_widths", None) is not None:
        overrides["trunk_widths"] = [
            int(w) for w in args.trunk_widths.split(",") if w
        ]
    raw.update(overrides)

    spec = ExperimentSpec.from_dict(raw)
    if not spec.out_dir:
        spec = replace(
            spec, out_dir=os.environ.get(OUT_ENV_VAR, DEFAULT_OUT_ROOT)
        )
    return spec


def _fail(exp_dir: str, existed_before: bool, err: Exception) -> int:
    # never leave half-written run directories behind
    if not existed_before and os.path.isdir(exp_dir):
        shutil.rmtree(exp_dir, ignore_errors=True)
    print(f"error: {err}", file=sys.stderr)
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    errors = validate(spec)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    exp_dir = os.path.join(spec.out_dir, spec.name)
    existed = os.path.isdir(exp_dir)
    print(f"run {spec.name}: strategy={spec.strategy.value}")
    try:
        row = run_strategy(spec, exp_dir, spec.strategy.value)
        write_summary_csv([row], os.path.join(exp_dir, "summary.csv"))
    except Exception as err:  # noqa: BLE001 - CLI boundary
        return _fail(exp_dir, existed, err)
    print(f"wrote {exp_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    errors = validate(spec)
    tokens = [t for t in args.strategies.split(",") if t]
    if not tokens:
        errors.append("at least one strategy token is required")
    else:
        for token in tokens:
            try:
                parse_strategy_token(token)
            except ValueError as err:
                errors.append(str(err))
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    exp_dir = os.path.join(spec.out_dir, spec.name)
    existed = os.path.isdir(exp_dir)
    rows = []
    try:
        os.makedirs(exp_dir, exist_ok=True)
        spec.save_json(os.path.join(exp_dir, "config.json"))
        for token in tokens:
            child = _spec_with_strategy(spec, token)
            print(f"sweep {spec.name}: strategy={token}")
            rows.append(
                run_strategy(
                    child,
                    os.path.join(exp_dir, token.replace(":", "-")),
                    token,
                )
            )
        write_summary_csv(rows, os.path.join(exp_dir, "summary.csv"))
    except Exception as err:  # noqa: BLE001 - CLI boundary
        return _fail(exp_dir, existed, err)
    print(f"wrote {exp_dir}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    errors = validate(spec)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
