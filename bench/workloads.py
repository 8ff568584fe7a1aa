"""The benchmark's three workloads: what each sets up, times and checks.

Every workload builds its own corpus from the seed (synth.generate, written
as a triplet CSV and read back through the program), so the program only
ever sees generated inputs. The model shape is the acceptance fixture's:
H=64, n=32, F=16, T=24, 350 training windows, 1200 evaluation windows per
split. Epoch and round counts are cut so one run fits its time budget.

A workload is three steps:
- setup(seed, csv_path) builds what the timed phase starts from;
- unit(state) is one whole unit of timed work and returns (items, result);
- checks(state, result) lists named correctness checks, each a callable that
  raises reference.CheckFailed on a mismatch;
- stage_calls(items) counts the stage calls in one unit (a pretraining, a
  sigma or a gated round), the operations a run reports as attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from privtsf import augment, data, forecaster, metrics, runner, synth

import reference as ref
from reference import require

TRAIN = dict(learning_rate=0.02, batch_size=32, hidden_dim=64, n=32, horizon=24)
SCALE = dict(max_train_windows=350, max_eval_windows=1200)
DP = forecaster.DpConfig(noise_multiplier=1.1, clip_norm=2.0, lr_scale=100.0)
DP_LEARNING_RATE = 2.2e-3
SIGMAS = (1.1, 1.5, 2.0)
ZOO = augment.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=3, steps=10)
PCA_RATIO = 0.70
MIXUP = augment.MixupConfig(beta=1.0)
CHECK_BATCH = 32


@dataclass(frozen=True)
class Shape:
    episodes: int
    pretrain_epochs: int
    baseline_epochs: int


def train_config(seed: int, epochs: int, learning_rate: float = TRAIN["learning_rate"]) -> forecaster.TrainConfig:
    return forecaster.TrainConfig(**{**TRAIN, "learning_rate": learning_rate}, max_epochs=epochs, seed=seed)


def run_config(method: str, seed: int, csv_path: str, shape: Shape, **extra) -> runner.RunConfig:
    return runner.RunConfig(
        method=method,
        seed=seed,
        data_path=csv_path,
        n_vars=16,
        train=extra.pop("train", train_config(seed, shape.pretrain_epochs)),
        baseline_epochs=shape.baseline_epochs,
        **SCALE,
        **extra,
    )


def write_corpus(seed: int, episodes: int, csv_path: str) -> None:
    data.write_triplets(synth.generate(synth.GeneratorConfig(n_episodes=episodes, seed=seed)), csv_path)


def param_dict(params: forecaster.ForecasterParams) -> dict[str, np.ndarray]:
    return {name: np.array(getattr(params, name)) for name in forecaster.PARAM_FIELDS}


def stacked(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array([p.e for p in points]),
        np.array([p.y for p in points]),
        np.array([p.m for p in points]),
    )


def ref_losses(points, params: forecaster.ForecasterParams) -> np.ndarray:
    E, Y, M = stacked(points)
    return ref.reference_losses(E, Y, M, param_dict(params), params.horizon)


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def check_row(row, params, wb, nonmember_split: str, tau_from_train: bool, what: str) -> None:
    """One metrics row against reference losses of members (train) and non-members.

    The row's mse columns must be the reference mean losses on the test and
    heldout splits; with `tau_from_train` its tau must be the reference mean
    training loss.
    """
    members = ref_losses(wb.train_pts, params)
    heldout = ref_losses(wb.heldout_pts, params)
    test = ref_losses(wb.test_pts, params)
    ref.compare_losses(metrics.dataset_losses(wb.train_pts, params), members, f"{what}: member losses")
    ref.compare_losses(metrics.dataset_losses(wb.heldout_pts, params), heldout, f"{what}: heldout losses")
    nonmembers = test if nonmember_split == "test" else heldout
    for column, expected in (("mse_test", test.mean()), ("mse_heldout", heldout.mean())):
        got = getattr(row, column)
        require(abs(got - expected) <= 1e-9 * expected, f"{what}: {column} {got!r}, reference {expected!r}")
    ref.check_attack_row(row, members, nonmembers, what, tau=float(members.mean()) if tau_from_train else None)


def check_gradients(wb, params) -> None:
    """Per-sample gradients average to the batch-mean gradient; per-sample losses match the reference."""
    batch = wb.train_pts[:CHECK_BATCH]
    per, losses = forecaster.per_sample_gradients(batch, params)
    mean, loss = forecaster.mean_gradients(batch, params)
    reference = ref_losses(batch, params)
    ref.compare_losses(losses, reference, "per-sample losses")
    require(abs(loss - reference.mean()) <= 1e-9 * reference.mean(), f"batch loss {loss!r}, reference {reference.mean()!r}")
    for name in forecaster.PARAM_FIELDS:
        a, b = per[name].mean(axis=0), mean[name]
        err = float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
        require(err <= 1e-9, f"{name}: batch mean of per-sample gradients differs from mean_gradients by {err:.2e}")


def check_clipping(wb, params) -> None:
    """clip_per_sample at the batch's median norm: nothing above it, small gradients untouched."""
    per, _ = forecaster.per_sample_gradients(wb.train_pts[:CHECK_BATCH], params)
    clip_norm = float(np.median(ref.global_norms(per)))
    clipped, norms = forecaster.clip_per_sample(per, clip_norm)
    ref.check_clipping(per, clipped, clip_norm, "clip_per_sample")
    require(bool(np.allclose(norms, ref.global_norms(clipped), rtol=1e-12)), "clip_per_sample: reported norms are not the clipped norms")


def check_noiseless_dp_step(wb, params, seed: int) -> None:
    """A DP step with no noise and an unreachable clip norm is the plain step at the boosted rate."""
    batch = wb.train_pts[:CHECK_BATCH]
    cfg = train_config(seed, 1, DP_LEARNING_RATE)
    dp = forecaster.DpConfig(noise_multiplier=0.0, clip_norm=1e12, lr_scale=DP.lr_scale)
    stepped = forecaster.dp_train_step(batch, params, cfg, dp, np.random.default_rng(seed))
    grads, _ = forecaster.mean_gradients(batch, params)
    for name in forecaster.PARAM_FIELDS:
        expected = getattr(params, name) - cfg.learning_rate * dp.lr_scale * grads[name]
        got = getattr(stepped, name)
        err = float(np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-300))
        require(err <= 1e-12, f"noiseless DP step: {name} differs from the plain step by {err:.2e}")


def check_zoo_pca_wave(wb, params, seed: int) -> None:
    """A zoo-pca wave moves every seed embedding only within the span of the fitted PCA components."""
    basis = augment.pca_fit([p.e for p in wb.train_pts], PCA_RATIO)
    V = np.asarray(basis.components)
    require(bool(np.allclose(V @ V.T, np.eye(V.shape[0]), atol=1e-10)), "pca_fit: components are not orthonormal")
    seeds = wb.train_pts[:16]
    tau = float(ref_losses(wb.train_pts, params).mean())
    wave = augment.zoo_generate(seeds, tau, params, ZOO, seed=seed, epoch=1, basis=basis)
    moves = np.array([w.e for w in wave]) - np.array([s.e for s in seeds])
    residual = ref.span_residual(moves, V)
    require(residual <= 1e-9, f"zoo-pca wave: {residual:.2e} of a move lies outside the PCA span")
    for s, w in zip(seeds, wave):
        require(np.array_equal(s.y, w.y) and np.array_equal(s.m, w.m), "zoo-pca wave: a target or mask changed")


def check_mixup(wb, seed: int) -> None:
    """Mixup outputs are convex combinations of their two inputs and carry the dominant input's labels."""
    rng = np.random.default_rng(seed)
    for j in range(8):
        x1, x2 = wb.train_pts[2 * j], wb.train_pts[2 * j + 1]
        out = augment.mixup_generate(x1, x2, MIXUP, rng, epoch=1, uid=f"check{j}")
        d = (x1.e - x2.e).ravel()
        lam = float(d @ (out.e - x2.e).ravel() / (d @ d))
        require(0.0 <= lam <= 1.0, f"mixup: weight {lam} outside [0, 1]")
        require(bool(np.allclose(out.e, lam * x1.e + (1 - lam) * x2.e, rtol=0, atol=1e-10)), "mixup: not a convex combination")
        dominant = x1 if lam > 0.5 else x2
        require(np.array_equal(out.y, dominant.y) and np.array_equal(out.m, dominant.m), "mixup: labels not the dominant input's")


def shared_checks(wb, params, seed: int) -> dict[str, Callable[[], None]]:
    return {
        "gradients": lambda: check_gradients(wb, params),
        "clipping": lambda: check_clipping(wb, params),
        "noiseless-dp-step": lambda: check_noiseless_dp_step(wb, params, seed),
        "zoo-pca-span": lambda: check_zoo_pca_wave(wb, params, seed),
        "mixup": lambda: check_mixup(wb, seed),
    }


# ---------------------------------------------------------------------------
# baseline-train
# ---------------------------------------------------------------------------


class BaselineTrain:
    """`privtsf pretrain` from a triplet CSV: read, window, pretrain, train the baseline, evaluate it."""

    shape = Shape(episodes=2000, pretrain_epochs=8, baseline_epochs=32)

    def setup(self, seed: int, csv_path: str):
        write_corpus(seed, self.shape.episodes, csv_path)
        return run_config("baseline", seed, csv_path, self.shape)

    def unit(self, cfg):
        result = runner.run_augmentation_experiment(cfg)
        epochs = cfg.train.max_epochs + cfg.baseline_epochs
        return epochs * len(result.workbench.train_pts), result

    @staticmethod
    def stage_calls(items: int) -> int:
        return 1

    def checks(self, cfg, result):
        wb, params = result.workbench, result.final_params
        return {
            "baseline-row": lambda: check_row(result.rows[0], params, wb, "heldout", True, "baseline row"),
            "training-loss": lambda: self.check_training(cfg, wb, params),
            "finite-differences": lambda: self.check_finite_differences(wb, params, cfg.seed),
            **shared_checks(wb, params, cfg.seed),
        }

    @staticmethod
    def check_training(cfg, wb, params) -> None:
        """Training lowers the loss.

        build_workbench keeps no loss history, so the check replays the
        program's `train` from a fresh initialisation for a few epochs and
        requires the last epoch's loss below the first. The run's own trained
        baseline must score below that fresh forecaster on its training
        windows. The all-zero forecast is no floor at this scale: after 40
        epochs the baseline beats it by 0.1% to 10% depending on the seed.
        """
        _, fresh = forecaster.init_params(cfg.train.n, cfg.train.hidden_dim, 16, cfg.train.horizon, cfg.seed)
        _, history = forecaster.train(wb.train_pts, fresh, cfg.train, epochs=4, seed=cfg.seed)
        require(history[-1] < history[0], f"training loss did not fall: epochs {history}")
        untrained = float(ref_losses(wb.train_pts, fresh).mean())
        trained = float(ref_losses(wb.train_pts, params).mean())
        require(trained < untrained, f"trained baseline loss {trained!r} not below the untrained forecaster's {untrained!r}")

    @staticmethod
    def check_finite_differences(wb, params, seed: int) -> None:
        """mean_gradients agrees with central differences of the reference loss along random directions.

        A unit random direction sees about 1/sqrt(D) of a gradient error, so
        the tolerance is set against the whole gradient's norm.
        """
        batch = wb.train_pts[:CHECK_BATCH]
        E, Y, M = stacked(batch)
        grads, _ = forecaster.mean_gradients(batch, params)
        p = param_dict(params)
        norm = float(np.sqrt(sum((grads[k] ** 2).sum() for k in p)))
        require(norm > 0, "mean_gradients returned a zero gradient")

        def loss(q):
            return float(ref.reference_losses(E, Y, M, q, params.horizon).mean())

        rng = np.random.default_rng(seed)
        for _ in range(4):
            direction = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            scale = np.sqrt(sum((d**2).sum() for d in direction.values()))
            direction = {k: d / scale for k, d in direction.items()}
            analytic = sum(float((grads[k] * direction[k]).sum()) for k in p)
            numeric = ref.directional_fd(loss, p, direction, 1e-5)
            require(
                abs(analytic - numeric) <= 1e-6 * norm,
                f"directional derivative {analytic!r} vs finite difference {numeric!r} (gradient norm {norm:.3e})",
            )


# ---------------------------------------------------------------------------
# dp-grid
# ---------------------------------------------------------------------------


class DpGrid:
    """The DP-SGD comparison over the three-sigma grid from a prepared workbench."""

    shape = Shape(episodes=800, pretrain_epochs=4, baseline_epochs=1)
    dp_epochs = 4

    def setup(self, seed: int, csv_path: str):
        write_corpus(seed, self.shape.episodes, csv_path)
        wb = runner.build_workbench(run_config("baseline", seed, csv_path, self.shape))
        cfg = run_config(
            "dp_sgd",
            seed,
            csv_path,
            self.shape,
            train=train_config(seed, 1, DP_LEARNING_RATE),
            dp=DP,
            dp_epochs=self.dp_epochs,
            dp_sigma_grid=SIGMAS,
        )
        return cfg, wb

    def unit(self, state):
        cfg, wb = state
        result = runner.run_dp_baseline(cfg, wb)
        return len(cfg.dp_sigma_grid) * cfg.dp_epochs * len(wb.train_pts), result

    @staticmethod
    def stage_calls(items: int) -> int:
        return len(SIGMAS)

    def checks(self, state, result):
        cfg, wb = state
        params = result.final_params
        return {
            "row-per-sigma": lambda: self.check_rows(cfg, result),
            "last-sigma-row": lambda: check_row(result.rows[-1], params, wb, "test", True, "last sigma row"),
            **shared_checks(wb, params, cfg.seed),
        }

    @staticmethod
    def check_rows(cfg, result) -> None:
        tags = [r.alpha_or_beta for r in result.rows]
        require(tags == [repr(float(s)) for s in cfg.dp_sigma_grid], f"dp rows for sigmas {tags}, expected {cfg.dp_sigma_grid}")
        require(all(r.method == "dp_sgd" and r.epoch == 0 for r in result.rows), "dp rows: wrong method or epoch")


# ---------------------------------------------------------------------------
# defense-rounds
# ---------------------------------------------------------------------------


class DefenseRounds:
    """Acceptance-gated rounds of zoo, zoo-pca and mixup, all from one prepared baseline."""

    shape = Shape(episodes=800, pretrain_epochs=4, baseline_epochs=8)
    rounds = 2

    def setup(self, seed: int, csv_path: str):
        write_corpus(seed, self.shape.episodes, csv_path)
        wb = runner.build_workbench(run_config("baseline", seed, csv_path, self.shape))
        common = dict(rounds=self.rounds, retrain_epochs=1)
        cfgs = [
            run_config("zoo", seed, csv_path, self.shape, zoo=ZOO, **common),
            run_config("zoo_pca", seed, csv_path, self.shape, zoo=ZOO, pca_ratio=PCA_RATIO, **common),
            run_config("mixup", seed, csv_path, self.shape, mixup=MIXUP, **common),
        ]
        return cfgs, wb

    def unit(self, state):
        cfgs, wb = state
        results = [runner.run_augmentation_experiment(cfg, wb) for cfg in cfgs]
        return sum(len(r.rows) - 1 for r in results), results

    @staticmethod
    def stage_calls(items: int) -> int:
        return items

    def checks(self, state, results):
        cfgs, wb = state
        checks = {}
        for cfg, result in zip(cfgs, results):
            checks[f"{cfg.method}-gate"] = lambda cfg=cfg, r=result: ref.check_gated_run(
                r.rows,
                [a.accepted for a in r.audits],
                r.final_epoch,
                cfg.rounds,
                cfg.method,
                eps_priv=cfg.eps_priv,
                eps_mse=cfg.eps_mse,
                beta=cfg.beta_accept,
            )
            checks[f"{cfg.method}-pool"] = lambda cfg=cfg, r=result: self.check_pool(cfg, r, len(wb.train_pts))
            checks[f"{cfg.method}-final-row"] = lambda cfg=cfg, r=result: check_row(
                r.rows[r.final_epoch], r.final_params, wb, "heldout", r.final_epoch == 0, f"{cfg.method} final row"
            )
        checks["baseline-row"] = lambda: check_row(results[0].rows[0], wb.baseline_params, wb, "heldout", True, "baseline row")
        checks.update(shared_checks(wb, results[1].final_params, cfgs[0].seed))
        return checks

    @staticmethod
    def check_pool(cfg, result, n_train: int) -> None:
        """The pool never exceeds half the training set, and every round adds a wave."""
        cap = n_train // 2
        sizes = [a.pool_size for a in result.audits[1:]]
        require(all(0 < s <= cap for s in sizes), f"{cfg.method}: pool sizes {sizes} exceed the cap {cap}")
        require(all(a.samples_generated > 0 for a in result.audits[1:]), f"{cfg.method}: a round generated nothing")


WORKLOADS = {
    "baseline-train": BaselineTrain,
    "dp-grid": DpGrid,
    "defense-rounds": DefenseRounds,
}
