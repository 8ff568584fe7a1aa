"""Command line entry points.

Subcommands: gen-data, pretrain, attack, augment, dp-train, report. Run
commands read a JSON config file plus flag overrides; --seed is mandatory so
every run is reproducible from its command line. The config schema mirrors
RunConfig field names (see the README for a worked example).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .augment import MixupConfig, ZooConfig
from .data import (
    PipelineError,
    load_triplets,
    read_metrics_csv,
    write_report_csv,
    write_roc_csv,
    write_triplets,
)
from .forecaster import DpConfig, TrainConfig, load_checkpoint
from .runner import (
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
    if not os.path.exists(path):
        print(f"error: config file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _generator_from(d: dict, seed: int) -> GeneratorConfig:
    stay = d.get("stay_hours", (48, 120))
    return GeneratorConfig(
        n_episodes=d.get("n_episodes", 1000),
        n_vars=d.get("n_vars", 16),
        latent_dim=d.get("latent_dim", 4),
        stay_hours=(int(stay[0]), int(stay[1])),
        dense_var_count=d.get("dense_var_count", 1),
        dense_rate=d.get("dense_rate", 0.9),
        sparse_rate=d.get("sparse_rate", 0.08),
        ar_coefficient=d.get("ar_coefficient", 0.95),
        obs_noise_std=d.get("obs_noise_std", 0.1),
        seed=d.get("seed", seed),
    )


def _runconfig_from(cfg: dict, args: argparse.Namespace, method: str) -> RunConfig:
    t = cfg.get("train", {})
    train = TrainConfig(
        learning_rate=t.get("learning_rate", 0.05),
        batch_size=t.get("batch_size", 32),
        max_epochs=t.get("max_epochs", 100),
        hidden_dim=t.get("hidden_dim", 32),
        n=t.get("n", 32),
        horizon=t.get("horizon", 24),
        seed=args.seed,
    )
    zoo = None
    if "zoo" in cfg or method in ("zoo", "zoo_pca"):
        z = cfg.get("zoo", {})
        zoo = ZooConfig(
            alpha=getattr(args, "alpha", None) if getattr(args, "alpha", None) is not None else z.get("alpha", 0.75),
            lam=z.get("lam", 3000.0),
            mu=z.get("mu", 300.0),
            k=z.get("k", 3),
            steps=z.get("steps", 10),
        )
    mixup = None
    if "mixup_beta" in cfg or method == "mixup":
        beta = getattr(args, "beta", None)
        mixup = MixupConfig(beta=beta if beta is not None else cfg.get("mixup_beta", 1.0))
    dp = None
    if "dp" in cfg or method == "dp_sgd":
        d = cfg.get("dp", {})
        dp = DpConfig(
            noise_multiplier=d.get("noise_multiplier", 1.1),
            clip_norm=d.get("clip_norm", 2.0),
            lr_scale=d.get("lr_scale", 100.0),
        )
    generator = _generator_from(cfg["generator"], args.seed) if "generator" in cfg else None
    pca_ratio = getattr(args, "pca_ratio", None)
    rounds = getattr(args, "rounds", None)
    if rounds is None:
        rounds = cfg.get("rounds", 10)
    split = cfg.get("split", (0.6, 0.2, 0.2))
    return RunConfig(
        method=method,
        seed=args.seed,
        data_path=getattr(args, "data", None) or cfg.get("data", ""),
        generator=generator,
        n_vars=cfg.get("n_vars", 16),
        output_dir=getattr(args, "out_dir", None) or cfg.get("output_dir", "out"),
        run_id=getattr(args, "run_id", None) or cfg.get("run_id", ""),
        split_fractions=(float(split[0]), float(split[1]), float(split[2])),
        train=train,
        zoo=zoo,
        mixup=mixup,
        dp=dp,
        pca_ratio=pca_ratio if pca_ratio is not None else cfg.get("pca_ratio", 0.70),
        rounds=rounds,
        samples_per_round=cfg.get("samples_per_round", 32_000),
        baseline_epochs=cfg.get("baseline_epochs", 400),
        retrain_epochs=cfg.get("retrain_epochs", 1),
        dp_epochs=cfg.get("dp_epochs", 100),
        dp_sigma_grid=tuple(cfg.get("dp_sigma_grid", (1.1, 1.5, 2.0))),
        max_train_windows=cfg.get("max_train_windows", 0),
        max_eval_windows=cfg.get("max_eval_windows", 0),
        stride=cfg.get("stride", 4),
        input_len=cfg.get("input_len", 24),
        max_start=cfg.get("max_start", 96),
        checkpoint=getattr(args, "checkpoint", None) or cfg.get("checkpoint", ""),
        eps_priv=cfg.get("eps_priv", 0.005),
        eps_mse=cfg.get("eps_mse", 0.005),
        beta_accept=cfg.get("beta_accept", 3.0),
    )


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="master seed; all RNG streams derive from it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privtsf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic triplet CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--n-vars", type=int, default=16)
    p.add_argument("--dense-vars", type=int, default=1)
    p.add_argument("--dense-rate", type=float, default=0.9)
    p.add_argument("--sparse-rate", type=float, default=0.08)
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
    p.add_argument("--eps-priv", type=float, default=0.005)
    p.add_argument("--eps-mse", type=float, default=0.005)
    p.add_argument("--beta", type=float, default=3.0)

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
        log.info("wrote %d episodes (%d triplets) to %s", len(episodes), sum(len(e.triplets) for e in episodes), args.out)
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
        _, params, _, _ = load_checkpoint(args.checkpoint)
        wb = build_workbench(cfg)
        run_id = cfg.run_id or f"attack_s{args.seed}"
        row, report = attack_row(run_id, "baseline", "", params, wb, args.nonmembers)
        out_dir = cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        write_roc_csv(report.roc.tolist(), os.path.join(out_dir, f"roc_{run_id}.csv"))
        metrics_path = os.path.join(out_dir, "metrics.csv")
        write_report_csv([row], metrics_path, append=os.path.exists(metrics_path))
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
        entries = build_tradeoff(rows, eps_priv=args.eps_priv, eps_mse=args.eps_mse, beta=args.beta)
        write_tradeoff_csv(entries, args.out)
        log.info("wrote %d tradeoff rows to %s", len(entries), args.out)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
