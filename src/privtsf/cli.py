"""Command line entry points.

Subcommands: gen-data, pretrain, attack, augment, dp-train, report. Run
commands read a JSON config file plus flag overrides; --seed is mandatory so
every run is reproducible from its command line. Config keys are RunConfig
field names, and unknown keys are errors (the README gives the schema).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import types
import typing

from .augment import MixupConfig, ZooConfig
from .data import (
    ConfigurationError,
    PipelineError,
    read_metrics_csv,
    write_report_csv,
    write_roc_csv,
    write_triplets,
)
from .forecaster import DpConfig, TrainConfig
from .runner import (
    METHODS,
    RunConfig,
    attack_row,
    build_tradeoff,
    build_workbench,
    run_augmentation_experiment,
    run_dp_baseline,
    write_tradeoff_csv,
)
from .synth import GeneratorConfig, generate

log = logging.getLogger("privtsf")


def _load_json(path: str) -> dict:
    """A config file's JSON object; a file that is not UTF-8 JSON, or holds NaN or Infinity, is a ConfigurationError."""

    def non_finite(token: str):
        raise ConfigurationError(f"config file {path} holds {token}, which is not a JSON number")

    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_constant=non_finite)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


# JSON keys that are not RunConfig field names
_ALIASES = {"data": "data_path", "split": "split_fractions", "mixup_beta": "mixup"}
# run flags and the RunConfig fields they override
_FLAGS = {
    "data": "data_path", "out_dir": "output_dir", "run_id": "run_id",
    "checkpoint": "checkpoint", "pca_ratio": "pca_ratio", "rounds": "rounds",
}
# nested objects, and the methods that build theirs from defaults when the config has none
_NESTED = {
    "train": (TrainConfig, METHODS),
    "zoo": (ZooConfig, ("zoo", "zoo_pca")),
    "mixup": (MixupConfig, ("mixup",)),
    "dp": (DpConfig, ("dp_sgd",)),
    "generator": (GeneratorConfig, ()),
}


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's annotated type; ints pass as floats, bools as neither."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(_fits(v, a) for v, a in zip(value, args))
    return isinstance(value, hint)


def _build(cls, values: dict, where: str, **overrides):
    """A `cls` from a JSON object by field name, with the non-None `overrides` over it.

    JSON lists become tuples; a key that names no field, or a value that does
    not have its field's type, is an error.
    """
    if not isinstance(values, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {values!r}")
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    values = {**values, **{k: v for k, v in overrides.items() if v is not None}}
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if not _fits(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else str(hints[key])
            raise ConfigurationError(f"{where} key {key} must be {expected}, got {value!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def _runconfig_from(cfg: dict, args: argparse.Namespace, method: str) -> RunConfig:
    """A RunConfig from a JSON config, with the command line's flags over it.

    `method` and `--seed` always come from the command line; `--seed` also
    seeds training and, unless the config gives one, the inline generator.
    """
    flags = vars(args)  # each subcommand defines its own subset
    d = {"output_dir": "out", **{_ALIASES.get(k, k): v for k, v in cfg.items()}}
    if "mixup" in d:  # given as the bare Beta concentration
        d["mixup"] = {"beta": d["mixup"]}
    nested_overrides = {
        "train": {"seed": args.seed},
        "zoo": {"alpha": flags.get("alpha")},
        "mixup": {"beta": flags.get("beta")},
        "generator": {"seed": None if "seed" in d.get("generator", {}) else args.seed},
    }
    for key, (cls, methods) in _NESTED.items():
        if key in d or method in methods:
            d[key] = _build(cls, d.get(key, {}), key, **nested_overrides.get(key, {}))
    overrides = {field: flags.get(flag) for flag, field in _FLAGS.items()}
    return _build(RunConfig, d, "config", method=method, seed=args.seed, **overrides)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="master seed; all RNG streams derive from it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privtsf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic triplet CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--episodes", type=int, default=GeneratorConfig.n_episodes)
    p.add_argument("--n-vars", type=int, default=GeneratorConfig.n_vars)
    p.add_argument("--dense-vars", type=int, default=GeneratorConfig.dense_var_count)
    p.add_argument("--dense-rate", type=float, default=GeneratorConfig.dense_rate)
    p.add_argument("--sparse-rate", type=float, default=GeneratorConfig.sparse_rate)
    _add_seed(p)

    p = sub.add_parser("pretrain", help="pretrain embedding, train the baseline, save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="triplet CSV (overrides config)")
    p.add_argument("--out-dir")
    p.add_argument("--run-id")
    _add_seed(p)

    p = sub.add_parser("attack", help="threshold attack on a checkpointed model")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--nonmembers", choices=("test", "heldout"), default="test")
    p.add_argument("--out-dir")
    p.add_argument("--run-id")
    _add_seed(p)

    p = sub.add_parser("augment", help="acceptance-gated augmented retraining")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=("zoo", "zoo-pca", "zoo_pca", "mixup"), required=True)
    p.add_argument("--alpha", type=float, help="objective mix for zoo / zoo-pca")
    p.add_argument("--beta", type=float, help="Beta concentration for mixup")
    p.add_argument("--pca-ratio", type=float, help="explained-variance threshold for zoo-pca")
    p.add_argument("--rounds", type=int)
    p.add_argument("--checkpoint", help="baseline checkpoint (overrides config)")
    p.add_argument("--out-dir")
    p.add_argument("--run-id")
    _add_seed(p)

    p = sub.add_parser("dp-train", help="train from scratch with DP-SGD over the sigma grid")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="baseline checkpoint (overrides config)")
    p.add_argument("--out-dir")
    p.add_argument("--run-id")
    _add_seed(p)

    p = sub.add_parser("report", help="merge metrics files into a tradeoff CSV")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:  # e.g. a data, checkpoint or metrics path
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "gen-data":
        config = GeneratorConfig(
            n_episodes=args.episodes,
            n_vars=args.n_vars,
            dense_var_count=args.dense_vars,
            dense_rate=args.dense_rate,
            sparse_rate=args.sparse_rate,
            seed=args.seed,
        )
        episodes = generate(config)
        write_triplets(episodes, args.out)
        log.info("wrote %d episodes (%d triplets) to %s", len(episodes), sum(e.t.size for e in episodes), args.out)
        return 0

    if args.command == "pretrain":
        cfg = _runconfig_from(_load_json(args.config), args, method="baseline")
        result = run_augmentation_experiment(cfg)
        row = result.rows[0]
        log.info(
            "baseline: mse_test=%.4f priv=%.4f auroc=%.4f (outputs in %s)",
            row.mse_test,
            row.priv_ratio,
            row.auroc,
            cfg.output_dir,
        )
        return 0

    if args.command == "attack":
        cfg = _runconfig_from(_load_json(args.config), args, method="baseline")
        wb = build_workbench(cfg)
        run_id = cfg.run_id or f"attack_{args.nonmembers}_s{args.seed}"
        # the row names its non-member split where DP rows name their sigma
        row, report = attack_row(run_id, "baseline", args.nonmembers, wb.baseline_params, wb, args.nonmembers)
        out_dir = cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        write_roc_csv(report.roc.tolist(), os.path.join(out_dir, f"roc_{run_id}.csv"))
        write_report_csv([row], os.path.join(out_dir, "metrics.csv"))
        log.info("attack: tpr=%.4f fpr=%.4f priv=%.4f auroc=%.4f", report.tpr, report.fpr, report.priv, report.auroc)
        return 0

    if args.command == "augment":
        method = args.method.replace("-", "_")
        cfg = _runconfig_from(_load_json(args.config), args, method=method)
        result = run_augmentation_experiment(cfg)
        last = result.rows[result.final_epoch]
        log.info(
            "augment %s: final epoch %d, mse_test=%.4f priv=%.4f",
            method,
            result.final_epoch,
            last.mse_test,
            last.priv_ratio,
        )
        return 0

    if args.command == "dp-train":
        cfg = _runconfig_from(_load_json(args.config), args, method="dp_sgd")
        result = run_dp_baseline(cfg)
        for row in result.rows:
            log.info("dp sigma=%s: mse_test=%.4f priv=%.4f", row.alpha_or_beta, row.mse_test, row.priv_ratio)
        return 0

    if args.command == "report":
        rows = []
        for path in args.metrics:
            rows.extend(read_metrics_csv(path))
        entries = build_tradeoff(rows)
        write_tradeoff_csv(entries, args.out)
        log.info("wrote %d tradeoff rows to %s", len(entries), args.out)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
