"""Tests of the benchmark's own reference code, on hand-made cases with known answers.

    python3 bench/selftest.py

They show that no check can pass vacuously: each reference function gives
the known answer on a case built by hand, and a deliberately corrupted
program output is caught. The file is not named test_*.py, so the
repository's own test run does not collect it.
"""

from __future__ import annotations

import sys
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from privtsf import forecaster, metrics, runner  # noqa: E402
from privtsf.data import MetricsRow  # noqa: E402


def row(priv: float, mse: float, epoch: int = 0, **extra) -> MetricsRow:
    fields = dict(
        run_id="r", method="zoo", alpha_or_beta="", epoch=epoch, mse_test=mse, mse_heldout=mse,
        tpr_at_tau=0.0, fpr_at_tau=0.0, priv_ratio=priv, auroc=0.5, tau=1.0,
    )
    fields.update(extra)
    return MetricsRow(**fields)


class AurocTests(unittest.TestCase):
    def test_separated_sets_give_one(self):
        self.assertEqual(ref.mann_whitney_auroc(np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6])), 1.0)

    def test_reversed_sets_give_zero(self):
        self.assertEqual(ref.mann_whitney_auroc(np.array([0.5, 0.6]), np.array([0.1, 0.2, 0.3])), 0.0)

    def test_identical_sets_give_half(self):
        losses = np.array([0.3, 0.1, 0.7, 0.7])
        self.assertEqual(ref.mann_whitney_auroc(losses, losses.copy()), 0.5)

    def test_counts_pairs_by_hand(self):
        # (1, 2) won; (1, 0.5), (3, 2) and (3, 0.5) lost: 1 of 4 pairs
        self.assertEqual(ref.mann_whitney_auroc(np.array([1.0, 3.0]), np.array([2.0, 0.5])), 0.25)
        # (1, 2) and (1, 3) won, (3, 2) lost, (3, 3) tied: (2 + 0.5) of 4 pairs
        self.assertEqual(ref.mann_whitney_auroc(np.array([1.0, 3.0]), np.array([2.0, 3.0])), 0.625)

    def test_agrees_with_program_roc_area(self):
        rng = np.random.default_rng(3)
        members = rng.random(40)
        nonmembers = np.concatenate([rng.random(30), members[:5]])  # some exact ties
        report = metrics.attack_report(
            metrics.LossTable(tuple(map(str, range(40))), members, "m"),
            metrics.LossTable(tuple(map(str, range(35))), nonmembers, "n"),
            tau=0.5,
        )
        self.assertAlmostEqual(report.auroc, ref.mann_whitney_auroc(members, nonmembers), places=12)


class AttackRowTests(unittest.TestCase):
    members = np.array([0.1, 0.2, 0.3, 0.9])
    nonmembers = np.array([0.25, 0.8, 0.9, 1.0])

    def good_row(self) -> MetricsRow:
        # at tau 0.5: three of four members and one of four non-members fall below it
        auroc = ref.mann_whitney_auroc(self.members, self.nonmembers)
        return row(3.0, 1.0, tpr_at_tau=0.75, fpr_at_tau=0.25, auroc=auroc, tau=0.5)

    def test_correct_row_passes(self):
        ref.check_attack_row(self.good_row(), self.members, self.nonmembers, "row", tau=0.5)

    def test_corrupted_rows_are_caught(self):
        corruptions = dict(
            tpr_at_tau=0.5, fpr_at_tau=0.5, priv_ratio=2.9, auroc=0.9, tau=0.55,
        )
        for field, value in corruptions.items():
            with self.subTest(field=field), self.assertRaises(ref.CheckFailed):
                ref.check_attack_row(replace(self.good_row(), **{field: value}), self.members, self.nonmembers, "row", tau=0.5)

    def test_zero_fpr_conventions(self):
        self.assertEqual(ref.privacy_ratio(0.0, 0.0), 1.0)
        self.assertEqual(ref.privacy_ratio(0.5, 0.0), float("inf"))

    def test_loss_at_tau_counts_either_way(self):
        lo, hi = ref.rate_bounds(np.array([1.0, 2.0]), 1.0, 1e-9)
        self.assertEqual((lo, hi), (0.0, 0.5))


class GateReplayTests(unittest.TestCase):
    rows = [
        row(1.5, 1.0, 0),
        row(1.4, 0.99, 1),  # better on both: accepted
        row(1.6, 0.90, 2),  # priv above 1.005 * 1.4: rejected
        row(1.4, 0.995, 3),  # mse above 1.005 * 0.99: rejected
        row(1.39, 0.985, 4),  # accepted
        row(1.39, 0.985, 5),  # equal to the bests: accepted
        row(1.395, 0.986, 6),  # within both tolerances but the combined objective rises: rejected
        row(float("inf"), 0.5, 7),  # non-finite: rejected
    ]
    expected = [True, True, False, False, True, True, False, False]

    def test_known_accepted_set(self):
        self.assertEqual(ref.replay_gate(self.rows), self.expected)

    def test_agrees_with_program_gate(self):
        accepted = runner.replay_gate(self.rows)
        self.assertEqual([i in accepted for i in range(len(self.rows))], self.expected)

    def test_consistent_run_passes(self):
        ref.check_gated_run(self.rows, self.expected, 5, 7, "run")

    def test_flipped_flag_is_caught(self):
        flipped = list(self.expected)
        flipped[2] = True
        with self.assertRaises(ref.CheckFailed):
            ref.check_gated_run(self.rows, flipped, 5, 7, "run")

    def test_wrong_final_epoch_is_caught(self):
        with self.assertRaises(ref.CheckFailed):
            ref.check_gated_run(self.rows, self.expected, 4, 7, "run")

    def test_missing_row_is_caught(self):
        with self.assertRaises(ref.CheckFailed):
            ref.check_gated_run(self.rows[:-1], self.expected[:-1], 5, 7, "run")


class ForwardTests(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(5)
        _, self.params = forecaster.init_params(n=5, hidden_dim=4, n_vars=3, horizon=6, seed=9, input_hours=7)
        self.E = rng.standard_normal((11, 7, 5))
        self.Y = rng.standard_normal((11, 6, 3))
        self.M = (rng.random((11, 6, 3)) < 0.5).astype(float)
        self.M[:, 0, 0] = 1.0
        self.p = {name: np.array(getattr(self.params, name)) for name in forecaster.PARAM_FIELDS}

    def test_reference_forward_matches_forecast_batch(self):
        got = forecaster.forecast_batch(self.E, self.params)
        want = ref.reference_forecast(self.E, self.p, 6)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_reference_losses_match_program(self):
        got = forecaster.masked_batch_losses(forecaster.forecast_batch(self.E, self.params), self.Y, self.M)
        ref.compare_losses(got, ref.reference_losses(self.E, self.Y, self.M, self.p, 6), "losses")

    def test_hand_computed_single_step(self):
        # one hour, one variable, horizon 1: everything is a scalar
        p = dict(pos=np.array([2.0]), w_hidden=np.array([[0.5]]), b_hidden=np.array([0.1]),
                 w_state=np.array([[0.3]]), w_feedback=np.array([[0.7]]), b_state=np.array([-0.2]),
                 w_out=np.array([[1.5]]), b_out=np.array([0.25]))
        s0 = np.tanh(0.5 * 2.0 * 0.4 + 0.1)
        s1 = np.tanh(0.3 * s0 - 0.2)
        y1 = 1.5 * s1 + 0.25
        got = ref.reference_forecast(np.array([[[0.4]]]), p, 1)
        self.assertAlmostEqual(float(got[0, 0, 0]), y1, places=15)
        self.assertAlmostEqual(float(ref.masked_mse(got, np.array([[[1.0]]]), np.ones((1, 1, 1)))[0]), (y1 - 1) ** 2, places=15)

    def test_corrupted_loss_is_caught(self):
        losses = ref.reference_losses(self.E, self.Y, self.M, self.p, 6)
        bad = losses.copy()
        bad[3] *= 1 + 1e-7
        with self.assertRaises(ref.CheckFailed):
            ref.compare_losses(bad, losses, "losses")


class GradientHelperTests(unittest.TestCase):
    def test_directional_fd_of_a_quadratic(self):
        p = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
        d = {"a": np.array([0.6, 0.0]), "b": np.array([[0.8]])}

        def loss(q):
            return float((q["a"] ** 2).sum() + 0.5 * (q["b"] ** 2).sum())

        # gradient (2a, b) = (2, 4, 3); along d: 1.2 + 2.4
        self.assertAlmostEqual(ref.directional_fd(loss, p, d, 1e-4), 3.6, places=8)

    def test_clipping_check(self):
        raw = {"w": np.array([[3.0, 4.0], [0.3, 0.4]])}  # norms 5 and 0.5
        ref.check_clipping(raw, {"w": np.array([[0.6, 0.8], [0.3, 0.4]])}, 1.0, "clip")
        with self.assertRaises(ref.CheckFailed):  # a norm left above the clip
            ref.check_clipping(raw, {"w": np.array([[3.0, 4.0], [0.3, 0.4]])}, 1.0, "clip")
        with self.assertRaises(ref.CheckFailed):  # a small gradient changed
            ref.check_clipping(raw, {"w": np.array([[0.6, 0.8], [0.15, 0.2]])}, 1.0, "clip")

    def test_span_residual(self):
        components = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        self.assertAlmostEqual(ref.span_residual(np.array([[2.0, -1.0, 0.0]]), components), 0.0)
        self.assertAlmostEqual(ref.span_residual(np.array([[0.0, 3.0, 4.0]]), components), 0.8)


if __name__ == "__main__":
    unittest.main()
