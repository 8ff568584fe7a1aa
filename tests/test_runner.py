import csv
import dataclasses
import gc
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import allocation_peak, identity_standardizer, make_points, stacked_points

from privtsf import runner
from privtsf.augment import MixupConfig, ZooConfig
from privtsf.cli import main
from privtsf.data import (
    METRICS_HEADER,
    ConfigurationError,
    DomainError,
    MetricsRow,
    PointSet,
    ValidationError,
    read_metrics_csv,
    write_report_csv,
)
from privtsf.forecaster import DpConfig, TrainConfig, init_params, load_checkpoint, save_checkpoint
from privtsf.metrics import attack_report, dataset_losses, mse_set
from privtsf.synth import GeneratorConfig


def row(epoch, priv, mse_h, run_id="r", method="zoo", ab="0.75", mse_t=0.5, tau=0.4):
    return MetricsRow(
        run_id=run_id,
        method=method,
        alpha_or_beta=ab,
        epoch=epoch,
        mse_test=mse_t,
        mse_heldout=mse_h,
        tpr_at_tau=0.5,
        fpr_at_tau=0.4,
        priv_ratio=priv,
        auroc=0.6,
        tau=tau,
    )


BEST = row(0, 2.0, 0.5)


class TestGate:
    def test_accepts_small_joint_improvement(self):
        candidate = row(1, 1.9, 0.502)
        # 1.9 <= 2.01, 0.502 <= 0.5025, 1.9 + 3*0.502 = 3.406 <= 3.5
        assert runner.gate_failures(BEST, candidate) == ""
        assert runner.replay_gate([BEST, candidate]) == [0, 1]  # the accepted row becomes the best

    def test_rejects_on_privacy_condition(self):
        candidate = row(1, 2.05, 0.49)
        reason = runner.gate_failures(BEST, candidate)
        assert reason
        assert "priv" in reason
        assert runner.replay_gate([BEST, candidate]) == [0]  # the best stays row 0

    def test_rejects_on_mse_condition(self):
        reason = runner.gate_failures(BEST, row(1, 1.0, 0.6))
        assert reason
        assert "mse" in reason

    def test_rejects_on_combined_condition(self):
        # each individual bound holds but the combined objective worsens
        assert runner.gate_failures(BEST, row(1, 2.005, 0.5019)) == "combined"

    def test_boundary_equality_accepts(self):
        candidate = row(1, 2.0, 0.5)
        assert runner.gate_failures(BEST, candidate) == ""
        assert runner.replay_gate([BEST, candidate]) == [0, 1]  # the best moves to the equal (2.0, 0.5) row

    @settings(max_examples=200, deadline=None)
    @given(
        priv=st.floats(0.0, 1e12),
        mse=st.floats(0.0, 1e12),
    )
    def test_row_equal_to_best_accepted(self, priv, mse):
        # the gate is idempotent at equality: re-gating the best row accepts it
        r = row(0, priv, mse)
        assert runner.gate_failures(r, r) == ""

    def test_non_finite_rejected(self):
        reason = runner.gate_failures(BEST, row(1, math.inf, 0.4))
        assert reason
        assert "non-finite" in reason

    def test_best_row_requires_finite_metrics(self):
        with pytest.raises(ConfigurationError):
            runner.gate_failures(row(0, math.inf, 0.5), row(1, 1.0, 0.5))


def gate_row(wb, pool):
    """The baseline model's row and report in the gate convention, with `pool` as the synthetic pool."""
    return runner.attack_row("r", "zoo", "", wb.baseline_params, wb, "heldout", pool=pool)


class TestEvaluateCandidate:
    def test_unchanged_candidate_accepted_on_boundary(self, small_wb):
        # re-evaluating the model of the best row hits all three inequalities with equality and is accepted
        _, wb = small_wb
        row0, m0 = gate_row(wb, wb.train_pts[:0])  # an empty pool
        row, report = gate_row(wb, wb.train_pts[:0])
        assert runner.gate_failures(row0, row) == ""
        assert report.priv == m0.priv
        assert report.tau == m0.tau
        assert (row.priv_ratio, row.mse_heldout) == (m0.priv, row0.mse_heldout)

    def test_reference_set_drives_tau(self, small_wb):
        # a pool with higher losses raises tau and both rates
        _, wb = small_wb
        _, m_train_ref = gate_row(wb, wb.train_pts[:0])
        _, m_held_ref = gate_row(wb, wb.heldout_pts)
        assert m_held_ref.tau > m_train_ref.tau
        assert m_held_ref.tpr >= m_train_ref.tpr
        assert m_held_ref.fpr >= m_train_ref.fpr


class TestAttackRowMemory:
    def test_row_allocates_less_than_joining_train_and_pool(self):
        # at the bench shape, with 350 train, 175 pool, 1,200 heldout and 1,200 test points, a row
        # that joined train and pool and forecast each split in one call peaked at 26.0 MiB;
        # chunked evaluation without the join peaks at 14.9 MiB, and the bound leaves 5 MiB above it
        rng = np.random.default_rng(3)
        emb, params = init_params(32, 64, 16, 24, seed=3, input_hours=24)
        train, pool, held, test = (make_points(rng, count, 24, 32, 24, 16) for count in (350, 175, 1200, 1200))
        wb = runner.Workbench(emb, params, train, held, test, identity_standardizer(16), seed=3)
        peak = allocation_peak(lambda: runner.attack_row("r", "zoo", "", params, wb, "heldout", pool=pool, epoch=1))
        assert peak < 20 * 2**20, peak


class TestReplayGate:
    def test_replays_acceptance_sequence(self):
        rows = [
            row(0, 2.0, 0.5),
            row(1, 1.9, 0.502),   # accept
            row(2, 2.05, 0.49),   # reject (priv)
            row(3, 1.5, 0.503),   # accept vs (1.9, 0.502)
            row(4, 1.51, 0.6),    # reject (mse)
        ]
        assert runner.replay_gate(rows) == [0, 1, 3]

    def test_combined_objective_non_increasing_over_accepted(self):
        rng = np.random.default_rng(0)
        rows = [row(0, 2.0, 0.5)]
        for i in range(1, 40):
            rows.append(row(i, float(2.0 * rng.random() + 0.5), float(0.5 * rng.random() + 0.3)))
        accepted = runner.replay_gate(rows)
        combined = [rows[i].priv_ratio + 3.0 * rows[i].mse_heldout for i in accepted]
        assert all(b <= a + 1e-12 for a, b in zip(combined, combined[1:]))


class TestPoolSampling:
    def test_upsamples_small_pool_to_half(self):
        rng = np.random.default_rng(1)
        idx = runner.pool_sample_indices(10, 50, rng)
        assert len(idx) == 50
        assert idx.min() >= 0 and idx.max() < 10

    def test_no_replacement_when_pool_large(self):
        rng = np.random.default_rng(2)
        idx = runner.pool_sample_indices(80, 50, rng)
        assert len(idx) == 50
        assert len(set(idx.tolist())) == 50

    def test_empty_pool_rejected(self):
        with pytest.raises(Exception):
            runner.pool_sample_indices(0, 5, np.random.default_rng(0))


def threshold_attack(params, members_pts, nonmembers_pts):
    """The attack report with tau set to the members' average loss."""
    members = dataset_losses(members_pts, params)
    return attack_report(members, dataset_losses(nonmembers_pts, params), float(members.mean()))


class TestRunAttack:
    def test_identical_member_and_nonmember_sets(self, small_wb):
        _, wb = small_wb
        rep = threshold_attack(wb.baseline_params, wb.train_pts, wb.train_pts)
        assert rep.tpr == rep.fpr
        assert rep.priv == 1.0
        assert rep.auroc == pytest.approx(0.5, abs=1e-9)

    def test_untrained_model_is_close_to_random(self, small_wb):
        from privtsf.forecaster import init_params

        _, wb = small_wb
        _, fresh = init_params(32, 32, 16, 24, seed=99)
        rep = threshold_attack(fresh, wb.train_pts, wb.heldout_pts)
        assert abs(rep.auroc - 0.5) <= 0.05

    def test_overfit_model_leaks_membership(self, small_wb):
        _, wb = small_wb
        rep = threshold_attack(wb.baseline_params, wb.train_pts, wb.heldout_pts)
        assert rep.priv > 1.0
        assert rep.auroc > 0.5


def tiny_cfg(method, seed, outdir, **kw):
    defaults = dict(
        generator=GeneratorConfig(n_episodes=120, seed=seed),
        train=TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=25, hidden_dim=16, n=16, horizon=24, seed=seed),
        baseline_epochs=60,
        max_train_windows=80,
        max_eval_windows=150,
        rounds=2,
        retrain_epochs=1,
        output_dir=outdir,
    )
    defaults.update(kw)
    return runner.RunConfig(method=method, seed=seed, **defaults)


def roc_file_area(path):
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return float(np.trapezoid(pts[:, 2], pts[:, 1]))


@pytest.fixture
def infinite_priv(monkeypatch):
    """Every metrics row, the baseline's included, reads priv inf."""
    measured = runner.attack_row

    def attack_row(*args, **kwargs):
        row, report = measured(*args, **kwargs)
        return dataclasses.replace(row, priv_ratio=math.inf), dataclasses.replace(report, priv=math.inf)

    monkeypatch.setattr(runner, "attack_row", attack_row)


class TestAugmentationRun:
    def test_baseline_method_emits_single_row(self, tmp_path):
        cfg = tiny_cfg("baseline", 31, str(tmp_path / "o"))
        res = runner.run_augmentation_experiment(cfg)
        assert len(res.rows) == 1
        assert res.rows[0].epoch == 0
        assert res.final_epoch == 0
        assert res.final_params is res.workbench.baseline_params

    def test_zero_rounds_equals_baseline_evaluation(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        cfg_a = tiny_cfg("zoo", 31, str(tmp_path / "a"), zoo=zoo, rounds=0)
        cfg_b = tiny_cfg("baseline", 31, str(tmp_path / "b"), run_id=cfg_a.resolved_run_id())
        ra = runner.run_augmentation_experiment(cfg_a)
        rb = runner.run_augmentation_experiment(cfg_b, ra.workbench)
        a, b = ra.rows[0], rb.rows[0]
        assert (a.mse_test, a.mse_heldout, a.priv_ratio, a.tau) == (b.mse_test, b.mse_heldout, b.priv_ratio, b.tau)

    def test_audit_completeness_one_row_per_candidate(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        cfg = tiny_cfg("zoo", 31, str(tmp_path / "o"), zoo=zoo, rounds=3)
        res = runner.run_augmentation_experiment(cfg)
        assert len(res.rows) == 4  # baseline + one per round
        assert [r.epoch for r in res.rows] == [0, 1, 2, 3]
        assert len(res.audits) == 4

    def test_all_rejected_keeps_baseline(self, tmp_path, monkeypatch):
        # an impossible privacy tolerance rejects every candidate
        monkeypatch.setattr(runner, "EPS_PRIV", -0.9999)
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        cfg = tiny_cfg("zoo", 31, str(tmp_path / "o"), zoo=zoo, rounds=2)
        res = runner.run_augmentation_experiment(cfg)
        assert res.final_epoch == 0
        assert not any(a.accepted for a in res.audits[1:])
        assert res.final_params is res.workbench.baseline_params

    def test_pool_respects_half_train_cap(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=1)
        cfg = tiny_cfg("zoo", 31, str(tmp_path / "o"), zoo=zoo, rounds=3)
        res = runner.run_augmentation_experiment(cfg)
        n_train = len(res.workbench.train_pts)
        assert all(a.pool_size <= n_train // 2 for a in res.audits)

    def test_metrics_written_with_expected_layout(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        out = tmp_path / "o"
        cfg = tiny_cfg("zoo", 31, str(out), zoo=zoo, rounds=2)
        res = runner.run_augmentation_experiment(cfg)
        run_id = cfg.resolved_run_id()
        assert (out / "metrics.csv").exists()
        assert (out / f"roc_{run_id}.csv").exists()
        assert (out / f"checkpoint_{run_id}.npz").exists()
        assert (out / f"manifest_{run_id}.csv").exists()
        back = read_metrics_csv(str(out / "metrics.csv"))
        assert back == res.rows

    @pytest.mark.parametrize("method", ["zoo", "mixup"])
    def test_rows_round_trip_through_gate_replay(self, tmp_path, method):
        extra = dict(zoo=ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2), mixup=MixupConfig(beta=1.0))
        cfg = tiny_cfg(method, 37, str(tmp_path / "o"), rounds=3, **extra)
        res = runner.run_augmentation_experiment(cfg)
        replayed = runner.replay_gate(read_metrics_csv(str(tmp_path / "o" / "metrics.csv")))
        accepted = [a.epoch for a in res.audits if a.accepted]
        assert replayed == accepted

    def test_non_finite_baseline_priv_raises_with_the_baseline_row_flushed(self, tmp_path, infinite_priv):
        out = tmp_path / "o"
        cfg = tiny_cfg("zoo", 31, str(out), zoo=ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2))
        with pytest.raises(ConfigurationError, match="got priv inf"):
            runner.run_augmentation_experiment(cfg)
        assert [(r.epoch, r.priv_ratio) for r in read_metrics_csv(str(out / "metrics.csv"))] == [(0, math.inf)]
        with open(out / f"manifest_{cfg.resolved_run_id()}.csv", newline="", encoding="utf-8") as fh:
            manifest = list(csv.DictReader(fh))
        assert [(m["run_id"], m["epoch"], m["accepted"]) for m in manifest] == [(cfg.resolved_run_id(), "0", "1")]

    @pytest.mark.parametrize("method", ["zoo", "mixup"])
    def test_run_without_rounds_reports_its_non_finite_baseline_row(self, tmp_path, infinite_priv, method):
        extra = dict(zoo=ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2), mixup=MixupConfig(beta=1.0))
        out = tmp_path / "o"
        res = runner.run_augmentation_experiment(tiny_cfg(method, 31, str(out), rounds=0, **extra))
        assert res.rows[0].priv_ratio == math.inf
        tradeoff = tmp_path / "tradeoff.csv"
        assert main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(tradeoff)]) == 0
        assert tradeoff.read_text().splitlines()[1].split(",")[:5] == [
            res.rows[0].run_id, method, res.rows[0].alpha_or_beta, repr(res.rows[0].mse_test), "inf"
        ]

    def test_non_finite_baseline_row_followed_by_rounds_cannot_be_reported(self, tmp_path, infinite_priv):
        out = tmp_path / "o"
        res = runner.run_augmentation_experiment(tiny_cfg("mixup", 31, str(out), rounds=0, mixup=MixupConfig()))
        rows = [*read_metrics_csv(str(out / "metrics.csv")), dataclasses.replace(res.rows[0], epoch=1, priv_ratio=1.0)]
        with pytest.raises(ConfigurationError, match="got priv inf"):
            runner.build_tradeoff(rows)

    def test_manifest_names_each_rejected_rounds_failed_inequalities(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        out = tmp_path / "o"
        cfg = tiny_cfg("zoo", 31, str(out), zoo=zoo, rounds=3)
        res = runner.run_augmentation_experiment(cfg)
        with open(out / f"manifest_{cfg.resolved_run_id()}.csv", newline="", encoding="utf-8") as fh:
            manifest = list(csv.DictReader(fh))
        assert tuple(manifest[0]) == runner.MANIFEST_HEADER and runner.MANIFEST_HEADER[-1] == "reason"
        rows = read_metrics_csv(str(out / "metrics.csv"))
        best, beta = rows[0], cfg.beta_accept
        expected = [""]
        for r in rows[1:]:
            failed = [
                name for name, ok in (
                    ("priv", r.priv_ratio <= (1 + cfg.eps_priv) * best.priv_ratio),
                    ("mse", r.mse_heldout <= (1 + cfg.eps_mse) * best.mse_heldout),
                    ("combined", r.priv_ratio + beta * r.mse_heldout <= best.priv_ratio + beta * best.mse_heldout),
                ) if not ok
            ]
            expected.append("+".join(failed))
            best = best if failed else r
        assert [m["reason"] for m in manifest] == [a.reason for a in res.audits] == expected
        assert [m["accepted"] for m in manifest] == ["0" if e else "1" for e in expected]
        assert any(expected)  # seed 31 rejects rounds 2 and 3
        # the metrics CSV keeps its documented header and the rows' own bytes
        written = (out / "metrics.csv").read_bytes()
        write_report_csv(res.rows, str(tmp_path / "again.csv"))
        assert written == (tmp_path / "again.csv").read_bytes()
        assert written.splitlines()[0].decode() == ",".join(METRICS_HEADER)

    @pytest.mark.parametrize("method", ["zoo", "zoo_pca", "mixup", "dp_sgd"])
    def test_reproducible_metrics_bytes(self, tmp_path, method):
        extra = {
            "zoo": dict(zoo=ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)),
            "zoo_pca": dict(zoo=ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)),
            "mixup": dict(mixup=MixupConfig(beta=1.0)),
            "dp_sgd": dict(dp=DpConfig(), dp_sigma_grid=(1.1, 2.0), dp_epochs=2),
        }[method]
        for side in ("a", "b"):
            cfg = tiny_cfg(method, 41, str(tmp_path / side), **extra)
            run = runner.run_dp_baseline if method == "dp_sgd" else runner.run_augmentation_experiment
            run(cfg)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_dp_manifest_rows_name_their_sigma(self, tmp_path):
        out = tmp_path / "o"
        cfg = tiny_cfg("dp_sgd", 31, str(out), dp=DpConfig(), dp_sigma_grid=(1.1, 2.0), dp_epochs=1)
        res = runner.run_dp_baseline(cfg)
        with open(out / f"manifest_{cfg.resolved_run_id()}.csv", newline="", encoding="utf-8") as fh:
            manifest = [(m["run_id"], m["method"], m["alpha_or_beta"]) for m in csv.DictReader(fh)]
        assert manifest == [(r.run_id, r.method, r.alpha_or_beta) for r in res.rows]
        assert manifest == [("dp_sgd_s31", "dp_sgd", "1.1"), ("dp_sgd_s31", "dp_sgd", "2.0")]

    def test_roc_file_is_final_accepted_rows(self, tmp_path):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        cfg = tiny_cfg("zoo", 31, str(tmp_path / "o"), zoo=zoo, rounds=3)
        res = runner.run_augmentation_experiment(cfg)
        assert roc_file_area(tmp_path / "o" / f"roc_{cfg.resolved_run_id()}.csv") == res.rows[res.final_epoch].auroc

    def test_input_len_sets_pooling_hours(self):
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=1)
        res = runner.run_augmentation_experiment(tiny_cfg("zoo_pca", 31, "", zoo=zoo, rounds=1, input_len=12))
        assert res.final_params.input_hours == 12

    def test_tau_uses_augmented_reference(self, tmp_path):
        # synthetic data generated for diversity raises the reference threshold
        zoo = ZooConfig(alpha=1.0, lam=30.0, mu=3.0, k=2, steps=6)
        cfg = tiny_cfg("zoo", 43, str(tmp_path / "o"), zoo=zoo, rounds=1)
        res = runner.run_augmentation_experiment(cfg)
        assert res.rows[1].tau > res.rows[0].tau


class TestEvaluationPasses:
    def test_each_split_forecast_once_per_model(self, monkeypatch):
        # per round: train+pool, heldout and test under the candidate, plus
        # train+pool under the current model (tau_ref) after a rejected round only
        from privtsf import metrics

        windows = [0]  # forecast windows since the last metrics row
        real_forecast, real_row = metrics.forecast_batch, runner._round_row

        def counting_forecast(E, params):
            windows[-1] += len(E)
            return real_forecast(E, params)

        def marking_row(*args, **kwargs):
            row = real_row(*args, **kwargs)
            windows.append(0)
            return row

        monkeypatch.setattr(metrics, "forecast_batch", counting_forecast)
        monkeypatch.setattr(runner, "_round_row", marking_row)
        zoo = ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        res = runner.run_augmentation_experiment(tiny_cfg("zoo", 31, "", zoo=zoo, rounds=3))
        n_train, n_eval = len(res.workbench.train_pts), len(res.workbench.heldout_pts) + len(res.workbench.test_pts)
        assert len(windows) == 5  # before the baseline row, three rounds, after the last row
        assert windows[0] == n_train + n_eval
        assert [a.accepted for a in res.audits] == [True, True, False, False]  # rounds after both outcomes
        for r in (1, 2, 3):
            # an accepted round already measured tau_ref: the candidate over train + the same pool
            tau_ref = 0 if res.audits[r - 1].accepted else n_train + res.audits[r - 1].pool_size
            assert windows[r] == tau_ref + n_train + res.audits[r].pool_size + n_eval
        assert windows[4] == 0


def mixup_wave_one_pair_at_a_time(cfg, wb, epoch, n_samples):
    """A mixup wave built pair by pair and stacked: the reference for the runner's one-call wave."""
    wave_rng = np.random.default_rng([cfg.seed, runner._WAVE_STREAM, epoch])
    i1 = wave_rng.choice(len(wb.train_pts), size=n_samples, replace=False)
    i2 = wave_rng.choice(len(wb.train_pts), size=n_samples, replace=False)
    pair_seed = runner.derive_seed(cfg.seed, runner._WAVE_STREAM * 100_000 + epoch)
    E, Y, M, ids = [], [], [], []
    for j in range(n_samples):
        x1, x2 = wb.train_pts[i1[j]], wb.train_pts[i2[j]]
        lam = float(np.random.default_rng([pair_seed, j]).beta(cfg.mixup.beta, cfg.mixup.beta))
        dominant = x1 if lam > 0.5 else x2
        E.append(lam * x1.e + (1.0 - lam) * x2.e)
        Y.append(dominant.y)
        M.append(dominant.m)
        ids.append(dominant.episode_id)
    return PointSet(E=np.stack(E), Y=np.stack(Y), M=np.stack(M), episode_id=ids, created_epoch=epoch)


class TestMixupRun:
    def test_runs_and_logs_beta(self, tmp_path):
        cfg = tiny_cfg("mixup", 31, str(tmp_path / "o"), mixup=MixupConfig(beta=1.0), rounds=2)
        res = runner.run_augmentation_experiment(cfg)
        assert all(r.alpha_or_beta == "1.0" for r in res.rows)
        assert all(r.method == "mixup" for r in res.rows)

    def test_mixture_read_batch_by_batch_trains_as_the_joined_mixture(self, small_wb, tmp_path, monkeypatch):
        # the retraining mixture gathers each batch from train and pool; joining them first must give the same run
        base_cfg, wb = small_wb
        cfg = dataclasses.replace(base_cfg, method="mixup", mixup=MixupConfig(beta=1.0), rounds=3, retrain_epochs=1)
        runs = [runner.run_augmentation_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")), wb)]
        monkeypatch.setattr(runner, "PointRows", lambda parts, index: stacked_points(*parts)[index])
        runs.append(runner.run_augmentation_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")), wb))
        assert runs[0].rows == runs[1].rows and [a.accepted for a in runs[0].audits] == [a.accepted for a in runs[1].audits]
        for name, arr in runs[0].final_params.arrays().items():
            assert arr.tobytes() == runs[1].final_params.arrays()[name].tobytes(), name
        assert runs[0].final_epoch > 0  # an accepted round, so the final model is a retrained one

    @pytest.mark.parametrize("beta, epoch, n_samples", [(1.0, 1, 1), (1.0, 3, 75), (0.2, 2, 40), (5.0, 6, 16)])
    def test_wave_equals_pair_by_pair_reference(self, small_wb, beta, epoch, n_samples):
        base_cfg, wb = small_wb
        cfg = dataclasses.replace(base_cfg, method="mixup", mixup=MixupConfig(beta=beta))
        wave = runner._generate_wave(cfg, wb, wb.baseline_params, 0.0, epoch, n_samples, None)
        expected = mixup_wave_one_pair_at_a_time(cfg, wb, epoch, n_samples)
        for name in ("E", "Y", "M", "episode_id", "created_epoch"):
            assert np.array_equal(getattr(wave, name), getattr(expected, name)), name


class TestDpRun:
    def test_one_row_per_sigma(self, tmp_path):
        cfg = tiny_cfg(
            "dp_sgd",
            31,
            str(tmp_path / "o"),
            dp=DpConfig(noise_multiplier=1.1, clip_norm=2.0, lr_scale=100.0),
            dp_sigma_grid=(1.1, 2.0),
            dp_epochs=3,
            train=TrainConfig(learning_rate=2e-4, batch_size=32, max_epochs=25, hidden_dim=16, n=16, horizon=24, seed=31),
        )
        res = runner.run_dp_baseline(cfg)
        assert [r.alpha_or_beta for r in res.rows] == ["1.1", "2.0"]
        assert all(r.method == "dp_sgd" for r in res.rows)
        # the ROC file is the last sigma's, in the row's own convention (test non-members)
        assert roc_file_area(tmp_path / "o" / f"roc_{cfg.resolved_run_id()}.csv") == res.rows[-1].auroc

    def test_zero_noise_huge_clip_matches_plain_sgd(self, small_wb):
        # degenerate DP settings reduce to plain minibatch gradient descent
        from privtsf.forecaster import dp_train, train

        _, wb = small_wb
        cfg = TrainConfig(learning_rate=0.005, batch_size=32, max_epochs=1, hidden_dim=32, n=32, horizon=24, seed=5)
        dp = DpConfig(noise_multiplier=0.0, clip_norm=1e9, lr_scale=1.0)
        pts = wb.train_pts[:64]
        a = dp_train(pts, wb.baseline_params, cfg, dp, epochs=2, seed=55)
        b, _ = train(pts, wb.baseline_params, cfg, epochs=2, seed=55)
        for name in ("w_out", "w_state", "w_hidden", "pos"):
            assert np.allclose(getattr(a, name), getattr(b, name), atol=1e-10)


class TestWorkbench:
    def test_checkpoint_rebuild_matches(self, tmp_path):
        cfg = tiny_cfg("baseline", 47, str(tmp_path / "o"))
        res = runner.run_augmentation_experiment(cfg)
        ckpt = tmp_path / "o" / f"checkpoint_{cfg.resolved_run_id()}.npz"
        cfg2 = dataclasses.replace(cfg, checkpoint=str(ckpt), output_dir="")
        wb2 = runner.build_workbench(cfg2)
        assert mse_set(wb2.heldout_pts, wb2.baseline_params) == pytest.approx(
            res.rows[0].mse_heldout, abs=1e-12
        )
        emb1, params1, _, _ = load_checkpoint(str(ckpt))
        assert np.array_equal(emb1.weight, wb2.emb.weight)

    @pytest.mark.parametrize(
        "field, stored, run_value",
        [
            ("seed", 47, 48), ("horizon", 24, 12), ("input_hours", 24, 12), ("n_vars", 16, 8), ("n", 16, 8),
            ("hidden_dim", 16, 8),
        ],
    )
    def test_checkpoint_of_another_run_is_config_error(self, tmp_path, field, stored, run_value):
        cfg = tiny_cfg("baseline", 47, "", checkpoint=str(tmp_path / "c.npz"))
        emb, params = init_params(16, 16, 16, 24, seed=0, input_hours=24)
        save_checkpoint(cfg.checkpoint, emb, params, identity_standardizer(16), seed=47)
        overrides = {
            "seed": {"seed": run_value},
            "horizon": {"train": dataclasses.replace(cfg.train, horizon=run_value)},
            "input_hours": {"input_len": run_value},
            "n_vars": {"n_vars": run_value, "generator": dataclasses.replace(cfg.generator, n_vars=run_value)},
            "n": {"train": dataclasses.replace(cfg.train, n=run_value)},
            "hidden_dim": {"train": dataclasses.replace(cfg.train, hidden_dim=run_value)},
        }[field]
        with pytest.raises(ConfigurationError, match=f"has {field} {stored}, the run config {run_value}$"):
            runner.build_workbench(dataclasses.replace(cfg, **overrides))

    @pytest.mark.parametrize("method", ["mixup", "dp_sgd"])
    def test_workbench_of_another_seed_is_config_error_before_any_output(self, small_wb, tmp_path, method):
        base_cfg, wb = small_wb
        cfg = dataclasses.replace(
            base_cfg, method=method, seed=24, output_dir=str(tmp_path / "o"), mixup=MixupConfig(), dp=DpConfig()
        )
        run = runner.run_dp_baseline if method == "dp_sgd" else runner.run_augmentation_experiment
        with pytest.raises(ConfigurationError, match="^workbench built under seed 23, the run config has seed 24$"):
            run(cfg, wb)
        assert not (tmp_path / "o").exists()

    def test_each_splits_windows_are_dropped_before_the_next_split_is_binned(self, small_wb, monkeypatch):
        base_cfg, wb = small_wb
        # the fixture's corpus, split and caps, with one pretraining and one baseline epoch
        cfg = dataclasses.replace(base_cfg, train=dataclasses.replace(base_cfg.train, max_epochs=1), baseline_epochs=1)
        bake, build = runner.bake_points, runner.build_windows
        baked, alive_when_binning = [], []

        def tracking_bake(windows, emb):
            baked.append(weakref.ref(windows))
            return bake(windows, emb)

        def tracking_build(*args, **kwargs):
            gc.collect()
            alive_when_binning.append([ref() is not None for ref in baked])
            return build(*args, **kwargs)

        monkeypatch.setattr(runner, "bake_points", tracking_bake)
        monkeypatch.setattr(runner, "build_windows", tracking_build)
        built = runner.build_workbench(cfg)
        assert alive_when_binning == [[], [False], [False, False]]
        assert [len(built.train_pts), len(built.heldout_pts), len(built.test_pts)] == [
            len(wb.train_pts), len(wb.heldout_pts), len(wb.test_pts)
        ]

    @pytest.mark.parametrize("fractions", [(0.8, 0.0, 0.2), (0.8, 0.2, 0.0)])
    def test_empty_eval_split_fails_after_pretraining_before_the_baseline(self, monkeypatch, fractions):
        cfg = tiny_cfg("baseline", 47, "", split_fractions=fractions, train=TrainConfig(max_epochs=1, horizon=24))
        pretrained = []
        pretrain = runner.pretrain_embedding
        monkeypatch.setattr(runner, "pretrain_embedding", lambda *a: pretrained.append(1) or pretrain(*a))
        monkeypatch.setattr(runner, "train", lambda *a, **k: pytest.fail("baseline trained"))
        with pytest.raises(DomainError, match="^one of the splits produced no usable windows$"):
            runner.build_workbench(cfg)
        assert pretrained == [1]

    def test_method_config_requirements(self):
        with pytest.raises(ConfigurationError):
            runner.RunConfig(method="zoo", seed=1)
        with pytest.raises(ConfigurationError):
            runner.RunConfig(method="nope", seed=1)
        with pytest.raises(ConfigurationError):
            runner.RunConfig(method="mixup", seed=1)
        with pytest.raises(ConfigurationError):
            runner.RunConfig(method="dp_sgd", seed=1, dp=DpConfig(), dp_sigma_grid=())


class TestConfigValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (TrainConfig, "learning_rate"),
            (DpConfig, "noise_multiplier"),
            (DpConfig, "clip_norm"),
            (DpConfig, "lr_scale"),
            (ZooConfig, "lam"),
            (ZooConfig, "mu"),
            (MixupConfig, "beta"),
            (GeneratorConfig, "obs_noise_std"),
        ],
    )
    def test_non_finite_value_is_rejected_naming_its_field(self, cls, name, bad):
        with pytest.raises(ConfigurationError, match=f"^{name} must be .* and finite, got {bad}$"):
            cls(**{name: bad})

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_pca_ratio_outside_the_unit_interval_is_rejected(self, ratio):
        with pytest.raises(ConfigurationError, match=rf"^pca_ratio must lie in \(0, 1\], got {ratio}$"):
            runner.RunConfig(method="zoo_pca", seed=1, zoo=ZooConfig(), pca_ratio=ratio)
        assert runner.RunConfig(method="zoo_pca", seed=1, zoo=ZooConfig(), pca_ratio=1.0).pca_ratio == 1.0

    @pytest.mark.parametrize("n_vars", [8, 20])
    def test_inline_generator_of_another_variable_count_is_rejected(self, n_vars):
        gen = GeneratorConfig(n_episodes=60, n_vars=n_vars, seed=3)
        with pytest.raises(ConfigurationError, match=f"^generator n_vars must equal n_vars 16, got {n_vars}$"):
            runner.RunConfig(method="baseline", seed=3, generator=gen)
        # a triplet file is read with the run's count, so an unused generator's count is not checked
        assert runner.RunConfig(method="baseline", seed=3, generator=gen, data_path="t.csv").n_vars == 16

    @pytest.mark.parametrize("sigma", [-1.0, -math.inf, math.nan, math.inf])
    def test_negative_or_non_finite_dp_sigma_is_rejected(self, sigma):
        with pytest.raises(ConfigurationError, match=f"^dp_sigma_grid entries must be >= 0 and finite, got {sigma}$"):
            runner.RunConfig(method="dp_sgd", seed=1, dp=DpConfig(), dp_sigma_grid=(1.1, sigma))
        assert runner.RunConfig(method="dp_sgd", seed=1, dp=DpConfig(), dp_sigma_grid=(0.0,)).dp_sigma_grid == (0.0,)


class TestTradeoff:
    def test_five_alpha_runs_give_five_rows(self):
        rows = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            rid = f"zoo_a{alpha}"
            rows.append(row(0, 2.0, 0.5, run_id=rid, ab=str(alpha)))
            rows.append(row(1, 1.8, 0.49, run_id=rid, ab=str(alpha)))
        entries = runner.build_tradeoff(rows)
        assert len(entries) == 5
        assert {e.alpha_or_beta for e in entries} == {"0.0", "0.25", "0.5", "0.75", "1.0"}

    def test_final_accepted_row_selected(self):
        rows = [
            row(0, 2.0, 0.5, mse_t=0.9),
            row(1, 1.9, 0.5, mse_t=0.8),   # accepted
            row(2, 3.0, 0.5, mse_t=0.1),   # rejected
        ]
        entries = runner.build_tradeoff(rows)
        assert len(entries) == 1
        assert entries[0].mse_test == 0.8  # of the accepted row

    def test_dp_runs_emit_one_row_per_sigma(self):
        rows = [
            row(0, 1.0, 0.7, run_id="dp", method="dp_sgd", ab="1.1"),
            row(0, 1.0, 0.8, run_id="dp", method="dp_sgd", ab="1.5"),
        ]
        assert len(runner.build_tradeoff(rows)) == 2

    def test_baseline_contributes_its_row(self):
        rows = [row(0, 2.0, 0.5, run_id="base", method="baseline", ab="")]
        entries = runner.build_tradeoff(rows)
        assert len(entries) == 1

    def test_two_gated_runs_under_one_run_id_rejected(self):
        # two sweeps of one alpha, differing only in pca_ratio, share a run id
        rows = [row(0, 2.0, 0.5, run_id="zoo_a0.75_s1"), row(1, 1.9, 0.5, run_id="zoo_a0.75_s1")] * 2
        with pytest.raises(ValidationError, match="run zoo_a0.75_s1 has two rows at epoch 0"):
            runner.build_tradeoff(rows)

    def test_two_dp_rows_at_one_sigma_rejected(self):
        rows = [row(0, 1.0, 0.7, run_id="dp", method="dp_sgd", ab=ab) for ab in ("1.1", "1.5", "1.1")]
        with pytest.raises(ValidationError, match="run dp has two rows at sigma 1.1"):
            runner.build_tradeoff(rows)
