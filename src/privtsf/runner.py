"""Experiment orchestration: baseline training, acceptance-gated augmented
retraining, the differentially private comparison run, and report emission.

A run starts from a pretrained baseline (frozen embedding plus a forecaster
trained to convergence on the original training windows). Each augmentation
round generates a synthetic wave, inserts it into the bounded pool, retrains
on a 50/50 mixture of originals and pool samples, and evaluates the candidate
against a three-condition gate: privacy may not degrade beyond a small
factor, heldout error may not degrade beyond a small factor, and the combined
objective priv + beta * mse must not increase. Rejected candidates are
discarded entirely; every candidate leaves exactly one metrics row.

Every metrics row comes from one evaluation, `attack_row`, which turns a
model's losses into an attack report through `metrics.attack_report`. Its
arguments select one of two conventions, kept explicit:
- gate rows pass the synthetic pool and "heldout": the heldout split is the
  non-members and the augmented set (originals plus pool) the reference for
  the loss threshold;
- attack/DP rows pass no pool and "test": the test split is the non-members
  and the training set the reference.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .augment import MixupConfig, PcaBasis, SyntheticPool, ZooConfig, mixup_wave, pca_fit, zoo_generate
from .data import (
    ConfigurationError,
    DomainError,
    Episode,
    MetricsRow,
    NO_POINTS,
    PointRows,
    PointSet,
    Standardizer,
    ValidationError,
    WindowSet,
    build_windows,
    load_triplets,
    split_by_episode,
    write_report_csv,
    write_roc_csv,
)
from .forecaster import (
    DpConfig,
    EmbeddingMap,
    ForecasterParams,
    TrainConfig,
    bake_points,
    dp_train,
    init_params,
    load_checkpoint,
    pretrain_embedding,
    save_checkpoint,
    train,
)
from .metrics import AttackReport, attack_report, dataset_losses, mse_set
from .synth import GeneratorConfig, generate

METHODS = ("baseline", "zoo", "zoo_pca", "mixup", "dp_sgd")

MANIFEST_HEADER = (
    "run_id",
    "method",
    "alpha_or_beta",
    "epoch",
    "accepted",
    "pool_size",
    "samples_generated",
    "steps_executed",
    "reason",
)

_SPLIT_STREAM = 1
_CAP_STREAM = 2
_BASELINE_STREAM = 3
_WAVE_STREAM = 4
_MIX_STREAM = 5
_RETRAIN_STREAM = 6
_DP_INIT_STREAM = 9
_DP_TRAIN_STREAM = 10


def derive_seed(master: int, tag: int) -> int:
    """Deterministic child seed for stream `tag` of a master seed."""
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])


# the gate's fixed tolerances: relative slack on priv and heldout MSE, and the weight of MSE in the combined objective
EPS_PRIV = 0.005
EPS_MSE = 0.005
BETA_ACCEPT = 3.0


def gate_failures(best: MetricsRow, row: MetricsRow) -> str:
    """The acceptance inequalities `row` fails against the best accepted row, joined by "+"; "" accepts it.

    The comparisons are inclusive. A non-finite `best` cannot seed the gate and raises ConfigurationError.
    """
    if not (math.isfinite(best.priv_ratio) and math.isfinite(best.mse_heldout)):
        got = f"priv {best.priv_ratio!r} and mse {best.mse_heldout!r}"
        raise ConfigurationError(f"the acceptance gate must start from finite baseline metrics, got {got}")
    if not (math.isfinite(row.priv_ratio) and math.isfinite(row.mse_heldout)):
        return "non-finite candidate metrics"
    checks = (
        ("priv", row.priv_ratio <= (1.0 + EPS_PRIV) * best.priv_ratio),
        ("mse", row.mse_heldout <= (1.0 + EPS_MSE) * best.mse_heldout),
        ("combined", row.priv_ratio + BETA_ACCEPT * row.mse_heldout <= best.priv_ratio + BETA_ACCEPT * best.mse_heldout),
    )
    return "+".join(name for name, ok in checks if not ok)


# ---------------------------------------------------------------------------
# Run configuration and workbench
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one run needs; exactly one method per run.

    The master seed drives derived streams for splitting, window capping,
    training shuffles, synthetic waves, and DP noise, so a config reproduces
    its metrics CSV bit for bit.
    """

    method: str
    seed: int
    data_path: str = ""
    generator: GeneratorConfig | None = None
    n_vars: int = 16
    output_dir: str = ""
    run_id: str = ""
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    train: TrainConfig = field(default_factory=TrainConfig)
    zoo: ZooConfig | None = None
    mixup: MixupConfig | None = None
    dp: DpConfig | None = None
    pca_ratio: float = 0.70
    rounds: int = 10
    samples_per_round: int = 32000
    baseline_epochs: int = 400
    retrain_epochs: int = 1
    dp_epochs: int = 100
    dp_sigma_grid: tuple[float, ...] = (1.1, 1.5, 2.0)
    max_train_windows: int = 0
    max_eval_windows: int = 0
    stride: int = 4
    input_len: int = 24
    max_start: int = 96
    checkpoint: str = ""
    # not fields, so no config sets them; kept as attributes because the benchmark's gate check reads them
    eps_priv: ClassVar[float] = EPS_PRIV
    eps_mse: ClassVar[float] = EPS_MSE
    beta_accept: ClassVar[float] = BETA_ACCEPT

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method in ("zoo", "zoo_pca") and self.zoo is None:
            raise ConfigurationError(f"method {self.method} requires a zoo config")
        if self.method == "mixup" and self.mixup is None:
            raise ConfigurationError("method mixup requires a mixup config")
        if self.method == "dp_sgd" and (self.dp is None or not self.dp_sigma_grid):
            raise ConfigurationError("method dp_sgd requires a dp config and a nonempty dp_sigma_grid")
        counts = (
            "rounds", "samples_per_round", "baseline_epochs", "retrain_epochs", "dp_epochs",
            "max_train_windows", "max_eval_windows",
        )
        for name in counts:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        # written so that NaN fails them, before any data is read
        if not 0 < self.pca_ratio <= 1:
            raise ConfigurationError(f"pca_ratio must lie in (0, 1], got {self.pca_ratio}")
        for sigma in self.dp_sigma_grid:
            if not 0 <= sigma < np.inf:
                raise ConfigurationError(f"dp_sigma_grid entries must be >= 0 and finite, got {sigma}")
        if not self.data_path and self.generator is not None and self.generator.n_vars != self.n_vars:
            raise ConfigurationError(f"generator n_vars must equal n_vars {self.n_vars}, got {self.generator.n_vars}")

    def resolved_run_id(self) -> str:
        kind = {"zoo": "_a", "zoo_pca": "_a", "mixup": "_b"}.get(self.method, "")
        return self.run_id or f"{self.method}{kind}{self.param_tag()}_s{self.seed}"

    def param_tag(self) -> str:
        if self.method in ("zoo", "zoo_pca"):
            return repr(float(self.zoo.alpha))
        if self.method == "mixup":
            return repr(float(self.mixup.beta))
        return ""


@dataclass
class Workbench:
    """Prepared artifacts shared by every run on one corpus: frozen embedding,
    converged baseline forecaster, and baked point sets per split."""

    emb: EmbeddingMap
    baseline_params: ForecasterParams
    train_pts: PointSet
    heldout_pts: PointSet
    test_pts: PointSet
    std: Standardizer
    seed: int


def _workbench_for(cfg: RunConfig, wb: Workbench | None) -> Workbench:
    """`wb`, or a new workbench for `cfg` when there is none.

    A workbench built under another seed holds another split, so reusing it
    is a ConfigurationError.
    """
    if wb is None:
        return build_workbench(cfg)
    if wb.seed != cfg.seed:
        raise ConfigurationError(f"workbench built under seed {wb.seed}, the run config has seed {cfg.seed}")
    return wb


def load_episodes(cfg: RunConfig) -> list[Episode]:
    if cfg.data_path:
        return load_triplets(cfg.data_path, cfg.n_vars)
    if cfg.generator is not None:
        return generate(cfg.generator)
    raise ConfigurationError("config needs data_path or an inline generator")


def build_workbench(cfg: RunConfig) -> Workbench:
    """Split, standardize, window, pretrain, and train the baseline to convergence.

    The splits are handled one at a time: the train split is windowed, the
    embedding pretrained on its windows and the windows baked, then heldout
    and test are each windowed and baked, and the baseline is trained last.
    Each split's windows are dropped once baked. A split without usable
    windows raises DomainError when it is windowed, so an empty heldout or
    test split is found after pretraining but before the baseline is trained.

    When cfg.checkpoint points at a saved baseline, its embedding, forecaster
    and standardizer are reused and only the datasets are rebuilt. The
    checkpoint's seed and shape (hidden size included) must match the run
    config's, or the run fails with ConfigurationError before any data is read.
    """
    if cfg.checkpoint:
        emb, baseline, std, meta = load_checkpoint(cfg.checkpoint)
        run = dict(
            seed=cfg.seed, horizon=cfg.train.horizon, input_hours=cfg.input_len, n_vars=cfg.n_vars, n=cfg.train.n,
            hidden_dim=cfg.train.hidden_dim,
        )
        for key, value in run.items():
            if meta[key] != value:
                raise ConfigurationError(f"checkpoint {cfg.checkpoint} has {key} {meta[key]}, the run config {value}")
    episodes = load_episodes(cfg)
    train_eps, held_eps, test_eps = (
        [ep for ep in episodes if ep.episode_id in ids]
        for ids in split_by_episode(episodes, cfg.split_fractions, derive_seed(cfg.seed, _SPLIT_STREAM))
    )
    if not cfg.checkpoint:
        std = Standardizer.fit(train_eps, cfg.n_vars)

    # one stream caps the splits in the order train, heldout, test
    cap_rng = np.random.default_rng([cfg.seed, _CAP_STREAM])

    def windows(split: list[Episode], limit: int) -> WindowSet:
        wcfg = dict(stride=cfg.stride, input_len=cfg.input_len, horizon=cfg.train.horizon, max_start=cfg.max_start)
        found = build_windows(split, std, limit=limit, rng=cap_rng, **wcfg)
        if not len(found):
            raise DomainError("one of the splits produced no usable windows")
        return found

    train_w = windows(train_eps, cfg.max_train_windows)
    if not cfg.checkpoint:
        emb, baseline = pretrain_embedding(train_w, cfg.train)
    train_pts = bake_points(train_w, emb)
    del train_w
    heldout_pts = bake_points(windows(held_eps, cfg.max_eval_windows), emb)
    test_pts = bake_points(windows(test_eps, cfg.max_eval_windows), emb)
    if not cfg.checkpoint:
        baseline, _ = train(
            train_pts, baseline, cfg.train, epochs=cfg.baseline_epochs, seed=derive_seed(cfg.seed, _BASELINE_STREAM)
        )
    return Workbench(
        emb=emb,
        baseline_params=baseline,
        train_pts=train_pts,
        heldout_pts=heldout_pts,
        test_pts=test_pts,
        std=std,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundAudit:
    """One manifest row. `reason` holds the gate's failed inequalities; a row is accepted exactly when it is ""."""

    epoch: int
    pool_size: int = 0
    samples_generated: int = 0
    steps_executed: int = 0
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return not self.reason


@dataclass
class RunResult:
    rows: list[MetricsRow]
    audits: list[RoundAudit]
    final_params: ForecasterParams
    final_epoch: int
    workbench: Workbench


def _round_row(
    run_id: str,
    method: str,
    tag: str,
    epoch: int,
    report: AttackReport,
    mse_heldout: float,
    mse_test: float,
) -> MetricsRow:
    """The one place a metrics row is built: an attack report plus the two error columns.

    bench/tracing.py marks the end of each gated round by this function's name.
    """
    return MetricsRow(
        run_id=run_id, method=method, alpha_or_beta=tag, epoch=epoch, mse_test=mse_test, mse_heldout=mse_heldout,
        tpr_at_tau=report.tpr, fpr_at_tau=report.fpr, priv_ratio=report.priv, auroc=report.auroc, tau=report.tau,
    )


def attack_row(
    run_id: str,
    method: str,
    tag: str,
    params: ForecasterParams,
    wb: Workbench,
    nonmembers: str,
    pool: PointSet = NO_POINTS,
    epoch: int = 0,
) -> tuple[MetricsRow, AttackReport]:
    """The one evaluation of a model: a metrics row and its attack report.

    Forecasts the training points plus the synthetic `pool` (as one
    evaluation, through one PointRows), the heldout split and the test split
    once each. Members are the training points, tau is the mean loss over the
    training points plus the pool, and the non-members are the `nonmembers`
    split ("test" or "heldout"). Gate rows pass the pool and "heldout"; attack
    and DP rows pass no pool and the test split.
    """
    n_train = len(wb.train_pts)
    ref_losses = dataset_losses(wb.train_pts, params, pool)
    held, test = (dataset_losses(pts, params) for pts in (wb.heldout_pts, wb.test_pts))
    report = attack_report(ref_losses[:n_train], test if nonmembers == "test" else held, float(ref_losses.mean()))
    row = _round_row(run_id, method, tag, epoch, report, float(held.mean()), float(test.mean()))
    return row, report


def _generate_wave(
    cfg: RunConfig,
    wb: Workbench,
    params: ForecasterParams,
    tau_ref: float,
    epoch: int,
    n_samples: int,
    basis: PcaBasis | None,
) -> PointSet:
    wave_rng = np.random.default_rng([cfg.seed, _WAVE_STREAM, epoch])
    seed = derive_seed(cfg.seed, _WAVE_STREAM * 100_000 + epoch)
    n_train = len(wb.train_pts)
    if cfg.method in ("zoo", "zoo_pca"):
        idx = wave_rng.choice(n_train, size=n_samples, replace=False)
        return zoo_generate(wb.train_pts[idx], tau_ref, params, cfg.zoo, seed=seed, epoch=epoch, basis=basis)
    if cfg.method == "mixup":
        i1 = wave_rng.choice(n_train, size=n_samples, replace=False)
        i2 = wave_rng.choice(n_train, size=n_samples, replace=False)
        beta = cfg.mixup.beta
        lam = np.array([np.random.default_rng([seed, j]).beta(beta, beta) for j in range(n_samples)])
        return mixup_wave(wb.train_pts[i1], wb.train_pts[i2], lam, epoch)
    raise ConfigurationError(f"method {cfg.method} generates no synthetic data")


def pool_sample_indices(pool_size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Indices for the synthetic half of a retraining mixture.

    Draws `count` pool indices, with replacement only while the pool is
    smaller than the requested count (upsampling to reach the 50/50 mix).
    """
    if pool_size < 1:
        raise DomainError("cannot sample from an empty pool")
    return rng.choice(pool_size, size=count, replace=pool_size < count)


def run_augmentation_experiment(cfg: RunConfig, wb: Workbench | None = None) -> RunResult:
    """Acceptance-gated retraining loop; also handles method='baseline' (no rounds).

    Per round: generate a synthetic wave, insert it into the FIFO pool,
    retrain one pass on a 50/50 original/pool mixture (upsampling the pool
    with replacement while it is smaller than the original set), gate the
    candidate, and log one metrics row either way. The final model is the
    last accepted candidate. On error, rows produced so far are still
    flushed to the output directory. A given workbench must be built under
    cfg.seed.
    """
    if cfg.method not in ("baseline", "zoo", "zoo_pca", "mixup"):
        raise ConfigurationError(f"run_augmentation_experiment does not handle {cfg.method}")
    wb = _workbench_for(cfg, wb)
    n_train = len(wb.train_pts)
    rounds = 0 if cfg.method == "baseline" else cfg.rounds
    n_samples = max(1, min(cfg.samples_per_round, n_train // 2))
    pool = SyntheticPool(cap=n_train // 2)
    basis: PcaBasis | None = None
    if cfg.method == "zoo_pca":
        basis = pca_fit(wb.train_pts.E, cfg.pca_ratio)

    run_id, tag = cfg.resolved_run_id(), cfg.param_tag()
    params = wb.baseline_params
    row, report = attack_row(run_id, cfg.method, tag, params, wb, "heldout", pool=pool.items)
    rows = [row]  # `report` stays the last accepted model's
    audits = [RoundAudit(epoch=0)]
    final_epoch = 0  # each candidate is gated against rows[final_epoch], the best accepted row

    try:
        if rounds:
            # a non-finite baseline cannot seed the gate: a ConfigurationError, raised with the baseline row flushed
            gate_failures(row, row)
        for r in range(1, rounds + 1):
            # an accepted round already measured the current model over train + the current pool
            tau_ref = report.tau if audits[-1].accepted else mse_set(wb.train_pts, params, pool.items)
            wave = _generate_wave(cfg, wb, params, tau_ref, r, n_samples, basis)
            pool.insert(wave)

            mix_rng = np.random.default_rng([cfg.seed, _MIX_STREAM, r])
            pidx = pool_sample_indices(len(pool), n_train, mix_rng)
            # the train rows then the sampled pool rows, gathered batch by batch: the mixture is never copied whole
            mixture = PointRows((wb.train_pts, pool.items), np.concatenate([np.arange(n_train), n_train + pidx]))

            candidate, _ = train(
                mixture,
                params,
                cfg.train,
                epochs=cfg.retrain_epochs,
                seed=derive_seed(cfg.seed, _RETRAIN_STREAM * 100_000 + r),
            )
            row, candidate_report = attack_row(
                run_id, cfg.method, tag, candidate, wb, "heldout", pool=pool.items, epoch=r
            )
            reason = gate_failures(rows[final_epoch], row)
            steps = cfg.zoo.steps if cfg.method in ("zoo", "zoo_pca") else 0
            rows.append(row)
            audits.append(
                RoundAudit(r, pool_size=len(pool), samples_generated=len(wave), steps_executed=steps, reason=reason)
            )
            if not reason:
                params, final_epoch, report = candidate, r, candidate_report
    finally:
        _flush_outputs(cfg, rows, audits)

    _write_final_artifacts(cfg, wb, params, report)
    return RunResult(rows=rows, audits=audits, final_params=params, final_epoch=final_epoch, workbench=wb)


def run_dp_baseline(cfg: RunConfig, wb: Workbench | None = None) -> RunResult:
    """Train from scratch with clipped, noised gradient steps for each noise level.

    Each sigma in the grid gets a fresh forecaster (the frozen embedding is
    reused), the configured number of DP epochs, and one metrics row in the
    attack convention (members = train, non-members = test, tau = mean train
    loss). Each sigma's DP settings are cfg.dp with noise_multiplier replaced
    by that sigma. A given workbench must be built under cfg.seed.
    """
    if cfg.method != "dp_sgd":
        raise ConfigurationError("run_dp_baseline requires method dp_sgd")
    wb = _workbench_for(cfg, wb)
    rows: list[MetricsRow] = []
    audits: list[RoundAudit] = []
    try:
        for j, sigma in enumerate(cfg.dp_sigma_grid):
            dp = replace(cfg.dp, noise_multiplier=sigma)
            init_seed = derive_seed(cfg.seed, _DP_INIT_STREAM * 100_000 + j)
            t = cfg.train
            _, fresh = init_params(t.n, t.hidden_dim, cfg.n_vars, t.horizon, init_seed, input_hours=cfg.input_len)
            train_seed = derive_seed(cfg.seed, _DP_TRAIN_STREAM * 100_000 + j)
            params = dp_train(wb.train_pts, fresh, cfg.train, dp, epochs=cfg.dp_epochs, seed=train_seed)
            row, report = attack_row(cfg.resolved_run_id(), cfg.method, repr(float(sigma)), params, wb, "test")
            rows.append(row)
            audits.append(RoundAudit(epoch=0))
    finally:
        _flush_outputs(cfg, rows, audits)
    _write_final_artifacts(cfg, wb, params, report)
    return RunResult(rows=rows, audits=audits, final_params=params, final_epoch=0, workbench=wb)


# ---------------------------------------------------------------------------
# Outputs, gate replay, and the tradeoff report
# ---------------------------------------------------------------------------


def _flush_outputs(cfg: RunConfig, rows: list[MetricsRow], audits: list[RoundAudit]) -> None:
    if not cfg.output_dir:
        return
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_report_csv(rows, os.path.join(cfg.output_dir, "metrics.csv"))
    manifest_path = os.path.join(cfg.output_dir, f"manifest_{cfg.resolved_run_id()}.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for row, a in zip(rows, audits, strict=True):
            fields = (a.epoch, int(a.accepted), a.pool_size, a.samples_generated, a.steps_executed, a.reason)
            writer.writerow([row.run_id, row.method, row.alpha_or_beta, *fields])


def _write_final_artifacts(cfg: RunConfig, wb: Workbench, params: ForecasterParams, report: AttackReport) -> None:
    """Checkpoint the final model and write the ROC of its own metrics row's report."""
    if not cfg.output_dir:
        return
    run_id = cfg.resolved_run_id()
    write_roc_csv(report.roc.tolist(), os.path.join(cfg.output_dir, f"roc_{run_id}.csv"))
    save_checkpoint(os.path.join(cfg.output_dir, f"checkpoint_{run_id}.npz"), wb.emb, params, wb.std, cfg.seed)


def replay_gate(rows: Sequence[MetricsRow]) -> list[int]:
    """Indices of one run's accepted rows, in epoch order, by the gate the run itself applied.

    Row 0 (the baseline) is accepted, and each later row is gated by `gate_failures` against the last
    accepted row. A lone row 0 is accepted whatever its metrics; a non-finite row 0 followed by more
    rows raises ConfigurationError.
    """
    accepted = [0] if rows else []
    for i in range(1, len(rows)):
        if not gate_failures(rows[accepted[-1]], rows[i]):
            accepted.append(i)
    return accepted


def build_tradeoff(rows: Sequence[MetricsRow]) -> list[MetricsRow]:
    """The metrics rows of the tradeoff report: each DP row, and each other run's final accepted row.

    A run other than DP is a gated run, a baseline run one with no rounds, and
    `replay_gate` locates its final accepted row. Two rows of one run at the
    same epoch (or, for DP, the same sigma) mean two runs logged under one run
    id, a ValidationError.
    """
    by_run: dict[str, list[MetricsRow]] = {}
    for row in rows:
        by_run.setdefault(row.run_id, []).append(row)
    out = []
    for run_id, run_rows in by_run.items():
        dp = run_rows[0].method == "dp_sgd"
        keys = [r.alpha_or_beta if dp else r.epoch for r in run_rows]
        twice = [k for i, k in enumerate(keys) if k in keys[:i]]
        if twice:
            what = "sigma" if dp else "epoch"
            raise ValidationError(f"run {run_id} has two rows at {what} {twice[0]}; give each run its own run id")
        ordered = sorted(run_rows, key=lambda r: r.epoch)
        out.extend(run_rows if dp else [ordered[replay_gate(ordered)[-1]]])
    return out


TRADEOFF_HEADER = ("run_id", "method", "alpha_or_beta", "mse_test", "priv_ratio", "auroc")


def write_tradeoff_csv(rows: Sequence[MetricsRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRADEOFF_HEADER)
        for row in rows:
            labels = [getattr(row, name) for name in TRADEOFF_HEADER[:3]]
            writer.writerow(labels + [repr(float(getattr(row, name))) for name in TRADEOFF_HEADER[3:]])
