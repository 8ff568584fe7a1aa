import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_points, priv, roc_curve, stacked_points, tpr_fpr

from privtsf import metrics as pm
from privtsf.data import NO_POINTS, DomainError, PointRows, PointSet
from privtsf import forecaster as fc
from privtsf.forecaster import ForecasterParams, masked_batch_losses


def zero_params(n=2, H=2, F=2, T=2, input_hours=3):
    return ForecasterParams(
        pos=np.zeros(input_hours),
        w_hidden=np.zeros((H, n)),
        b_hidden=np.zeros(H),
        w_state=np.zeros((H, H)),
        w_feedback=np.zeros((H, F)),
        b_state=np.zeros(H),
        w_out=np.zeros((F, H)),
        b_out=np.zeros(F),
        horizon=T,
    )


def points_with_losses(*losses: float, T=2, F=2) -> PointSet:
    """Under all-zero params the forecast is 0, so point i's masked MSE is Y[i,0,0]^2 with a single mask bit."""
    y = np.zeros((len(losses), T, F))
    m = np.zeros((len(losses), T, F))
    m[:, 0, 0] = 1.0
    y[:, 0, 0] = np.sqrt(losses)
    return PointSet(E=np.zeros((len(losses), 3, 2)), Y=y, M=m)


def table(losses):
    return np.asarray(losses, dtype=float)


def masked_mse(pred, truth, mask):
    """Masked MSE of one sample: the batched loss at B=1."""
    return masked_batch_losses(pred[None], truth[None], mask[None])[0]


def member_flag(p, tau, params):
    """Membership call for one point: its TPR through attack_report, 1.0 iff its loss is strictly below tau."""
    t = pm.dataset_losses(p, params)
    return tpr_fpr(t, t, tau)[0]


class TestMaskedMse:
    def test_perfect_prediction_is_zero(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert masked_mse(pred, pred, np.ones((2, 2))) == 0.0

    def test_worked_example(self):
        pred = np.array([[1.0, 0.0], [2.0, 2.0]])
        truth = np.array([[0.0, 0.0], [2.0, 4.0]])
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert masked_mse(pred, truth, mask) == pytest.approx(2.5, abs=1e-9)

    def test_mask_flip_on_zero_error_cells_changes_only_count(self):
        # recomputation oracle: numerator from masked cells, denominator |m|
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((3, 3))
        pred = truth.copy()
        pred[0, 0] += 2.0  # single erroneous cell
        mask = np.ones((3, 3))
        base = masked_mse(pred, truth, mask)
        assert base == pytest.approx(4.0 / 9.0, abs=1e-12)
        mask2 = mask.copy()
        mask2[2, 2] = 0.0  # flips a zero-error cell
        assert masked_mse(pred, truth, mask2) == pytest.approx(4.0 / 8.0, abs=1e-12)

    def test_empty_mask_is_domain_error(self):
        with pytest.raises(DomainError):
            masked_mse(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_only_masked_cells_contribute(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((4, 4))
        truth = rng.standard_normal((4, 4))
        mask = (rng.random((4, 4)) < 0.5).astype(float)
        mask[0, 0] = 1.0
        got = masked_mse(pred, truth, mask)
        manual = sum(
            (pred[i, j] - truth[i, j]) ** 2 for i in range(4) for j in range(4) if mask[i, j] == 1
        ) / mask.sum()
        assert got == pytest.approx(manual, abs=1e-12)


class TestMseSet:
    def test_singleton(self):
        params = zero_params()
        p = points_with_losses(1.7)
        assert pm.mse_set(p, params) == pytest.approx(pm.dataset_losses(p, params)[0], abs=1e-12)

    def test_mean_of_two(self):
        params = zero_params()
        pts = points_with_losses(1.0, 3.0)
        assert pm.mse_set(pts, params) == pytest.approx(2.0, abs=1e-9)

    def test_permutation_invariance(self):
        params = zero_params()
        pts = points_with_losses(0.5, 1.5, 2.5, 4.0)
        assert pm.mse_set(pts, params) == pytest.approx(pm.mse_set(pts[::-1], params), abs=1e-12)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            pm.mse_set(points_with_losses(), zero_params())


@pytest.fixture(scope="module")
def fixture_eval_case():
    """Seeded params at the acceptance fixture's shape (H 64, n 32, F 16, T 24) and 2,925 points."""
    _, params = fc.init_params(32, 64, 16, 24, seed=5, input_hours=24)
    return params, make_points(np.random.default_rng(5), 2925, 24, 32, 24, 16)


def whole_batch_losses(points, params):
    """One forecast_batch call over every row, then masked_batch_losses: the reference for chunked evaluation."""
    return masked_batch_losses(fc.forecast_batch(points.E, params), points.Y, points.M)


class TestChunkedLosses:
    @pytest.mark.parametrize("n", [1, 95, 96, 1023, 1024, 1025, 1535, 2925])
    def test_chunks_equal_one_whole_batch_bit_for_bit(self, fixture_eval_case, monkeypatch, n):
        params, pts = fixture_eval_case
        calls = []
        real = pm.forecast_batch
        monkeypatch.setattr(pm, "forecast_batch", lambda E, p: calls.append(len(E)) or real(E, p))
        got = pm.dataset_losses(pts[:n], params)
        assert got.tobytes() == whole_batch_losses(pts[:n], params).tobytes()
        # EVAL_CHUNK-row chunks, the last one taking the remainder: one call below 2 * EVAL_CHUNK rows
        chunks = max(1, n // pm.EVAL_CHUNK)
        assert calls == [pm.EVAL_CHUNK] * (chunks - 1) + [n - pm.EVAL_CHUNK * (chunks - 1)]
        assert min(calls) >= min(n, pm.EVAL_CHUNK) and max(calls) < 2 * pm.EVAL_CHUNK

    @pytest.mark.parametrize("n_train, n_pool", [(350, 175), (700, 600), (511, 2), (1024, 1), (0, 600)])
    def test_parts_scored_as_one_evaluation(self, fixture_eval_case, n_train, n_pool):
        # a chunk that straddles the train rows and the pool rows copies only its own rows
        params, pts = fixture_eval_case
        train, pool = pts[:n_train], pts[2925 - n_pool :]
        want = whole_batch_losses(stacked_points(train, pool), params)
        got = pm.chunked_losses(pm.forecast_batch, params, PointRows((train, pool), np.arange(n_train + n_pool)))
        assert got.tobytes() == want.tobytes()
        if n_train:
            assert pm.dataset_losses(train, params, pool).tobytes() == want.tobytes()
            assert pm.mse_set(train, params, pool) == float(want.mean())


    def test_a_set_alone_is_read_in_place(self, fixture_eval_case, monkeypatch):
        # a lone set, or one joined only with empty sets, is forecast from views of its own rows
        params, pts = fixture_eval_case
        seen = []
        real = pm.forecast_batch
        monkeypatch.setattr(pm, "forecast_batch", lambda E, p: seen.append(E) or real(E, p))
        alone = pm.dataset_losses(pts[:1100], params)
        assert pm.dataset_losses(pts[:1100], params, NO_POINTS, pts[:0]).tobytes() == alone.tobytes()
        assert len(seen) == 4 and all(np.shares_memory(E, pts.E) for E in seen)


class TestAvgTrainLossTau:
    """The attack threshold: the mean loss over the reference set, which is mse_set."""

    def test_mean_of_reference_losses(self):
        params = zero_params()
        pts = points_with_losses(0.2, 0.4)
        assert pm.mse_set(pts, params) == pytest.approx(0.3, abs=1e-9)

    def test_recomputed_under_new_params(self):
        # tau follows the model: different params give a different threshold
        pts = points_with_losses(0.2, 0.4)
        params = zero_params()
        other = ForecasterParams(
            pos=np.zeros(3),
            w_hidden=np.zeros((2, 2)),
            b_hidden=np.zeros(2),
            w_state=np.zeros((2, 2)),
            w_feedback=np.zeros((2, 2)),
            b_state=np.zeros(2),
            w_out=np.zeros((2, 2)),
            b_out=np.array([0.1, 0.0]),
            horizon=2,
        )
        assert pm.mse_set(pts, params) != pm.mse_set(pts, other)


class TestPl:
    """The positive-membership call is strict: a loss equal to tau is not a member."""

    def test_loss_equal_to_tau_is_not_member(self):
        params = zero_params()
        p = points_with_losses(0.25)
        assert member_flag(p, 0.25, params) == 0  # strict inequality

    def test_low_loss_flags_member(self):
        params = zero_params()
        assert member_flag(points_with_losses(0.0), 0.1, params) == 1

    def test_high_loss_is_non_member(self):
        params = zero_params()
        assert member_flag(points_with_losses(5.0), 0.1, params) == 0


class TestTprFpr:
    def test_enumerated_example(self):
        members = table([0.1, 0.2, 0.9])
        nonmembers = table([0.5, 0.6])
        tpr, fpr = tpr_fpr(members, nonmembers, 0.4)
        assert tpr == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert fpr == 0.0

    def test_tau_below_everything(self):
        assert tpr_fpr(table([1.0, 2.0]), table([1.5]), 0.5) == (0.0, 0.0)

    def test_tau_above_everything(self):
        assert tpr_fpr(table([1.0, 2.0]), table([1.5]), 99.0) == (1.0, 1.0)

    def test_strictness_at_a_tied_loss(self):
        # a sample with loss exactly tau counts as a non-member call on both sides
        members = table([0.4, 0.1])
        nonmembers = table([0.4, 0.9])
        tpr, fpr = tpr_fpr(members, nonmembers, 0.4)
        assert tpr == 0.5
        assert fpr == 0.0

    def test_empty_table_is_domain_error(self):
        with pytest.raises(DomainError):
            tpr_fpr(table([]), table([1.0]), 0.5)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(2)
        members = table(rng.random(50))
        nonmembers = table(rng.random(60))
        taus = np.linspace(-0.5, 1.5, 30)
        rates = [tpr_fpr(members, nonmembers, t) for t in taus]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(rates, rates[1:]))


class TestPriv:
    def test_ratio(self):
        members = table([0.1, 0.3, 0.9, 1.1])  # tpr = 0.5 at tau 0.5
        nonmembers = table([0.2, 0.9, 1.0, 1.2])  # fpr = 0.25
        assert priv(members, nonmembers, 0.5) == pytest.approx(2.0, abs=1e-9)

    def test_identical_multisets_give_one(self):
        losses = [0.1, 0.4, 0.7, 0.9]
        for tau in losses:
            assert priv(table(losses), table(losses), tau) == pytest.approx(1.0, abs=1e-12)

    def test_zero_fpr_with_positive_tpr_is_inf(self):
        members = table([0.0, 0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
        nonmembers = table([0.5, 0.6])
        assert priv(members, nonmembers, 0.1) == math.inf

    def test_zero_fpr_zero_tpr_is_one(self):
        assert priv(table([0.5]), table([0.6]), 0.1) == 1.0


class TestRoc:
    def test_perfect_separation(self):
        members = table(np.linspace(0.0, 0.4, 20))
        nonmembers = table(np.linspace(0.5, 1.0, 20))
        pts, auroc = roc_curve(members, nonmembers)
        assert auroc == pytest.approx(1.0, abs=1e-12)

    def test_one_vs_one_enumeration(self):
        pts, auroc = roc_curve(table([0.1]), table([0.2]))
        coords = {(row[1], row[2]) for row in pts}
        assert (0.0, 1.0) in coords
        assert auroc == pytest.approx(1.0, abs=1e-12)

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(3)
        members = table(rng.random(10_000))
        nonmembers = table(rng.random(10_000))
        _, auroc = roc_curve(members, nonmembers)
        assert abs(auroc - 0.5) <= 0.02

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        pts, _ = roc_curve(table(rng.random(37)), table(rng.random(23)))
        assert (pts[0][1], pts[0][2]) == (0.0, 0.0)
        assert (pts[-1][1], pts[-1][2]) == (1.0, 1.0)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert np.all(np.diff(pts[:, 2]) >= 0)

    def test_auroc_bounds_and_label_swap(self):
        rng = np.random.default_rng(5)
        a = table(rng.random(40) * 0.8)
        b = table(rng.random(40))
        _, auroc = roc_curve(a, b)
        _, swapped = roc_curve(b, a)
        assert 0.0 <= auroc <= 1.0
        assert swapped == pytest.approx(1.0 - auroc, abs=1e-12)

    def test_priv_matches_roc_point_at_observed_tau(self):
        rng = np.random.default_rng(6)
        members = table(rng.random(30))
        nonmembers = table(rng.random(30))
        pts, _ = roc_curve(members, nonmembers)
        for row in pts[1:-1]:
            tau, fpr, tpr = row
            got_tpr, got_fpr = tpr_fpr(members, nonmembers, tau)
            assert got_tpr == pytest.approx(tpr, abs=1e-12)
            assert got_fpr == pytest.approx(fpr, abs=1e-12)
            if fpr > 0:
                assert priv(members, nonmembers, tau) == pytest.approx(tpr / fpr, abs=1e-12)

    def test_low_fpr_region_present_when_resolvable(self):
        rng = np.random.default_rng(7)
        members = table(rng.random(2000))
        nonmembers = table(rng.random(2000))
        pts, _ = roc_curve(members, nonmembers)
        fprs = pts[:, 1]
        assert np.any((fprs > 0) & (fprs < 0.001))


def loss_table(losses, label="member"):
    arr = np.asarray(losses, dtype=float)
    return pm.LossTable(ids=tuple(str(i) for i in range(len(arr))), losses=arr, label=label)


class TestLossTable:
    def test_rejects_negative_losses(self):
        with pytest.raises(DomainError):
            loss_table([-0.1, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            loss_table([0.1, math.nan])

    def test_ids_align(self):
        with pytest.raises(DomainError):
            pm.LossTable(ids=("a",), losses=np.array([0.1, 0.2]), label="member")

    def test_attack_report_reads_its_losses(self):
        members, nonmembers = [0.1, 0.3, 0.3, 0.9], [0.2, 0.3, 1.1]
        got = pm.attack_report(loss_table(members), loss_table(nonmembers, "nonmember"), 0.35)
        want = pm.attack_report(table(members), table(nonmembers), 0.35)
        assert (got.tau, got.tpr, got.fpr, got.priv, got.auroc) == (want.tau, want.tpr, want.fpr, want.priv, want.auroc)
        np.testing.assert_array_equal(got.roc, want.roc)


class TestAttackReport:
    def test_rejects_negative_losses(self):
        with pytest.raises(DomainError):
            pm.attack_report(table([-0.1, 0.5]), table([0.3]), 0.4)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            pm.attack_report(table([0.3]), table([0.1, math.nan]), 0.4)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(8)
        members = table(rng.random(100) * 0.7)
        nonmembers = table(rng.random(100))
        tau = 0.5
        rep = pm.attack_report(members, nonmembers, tau)
        tpr, fpr = float((members < tau).mean()), float((nonmembers < tau).mean())
        assert (rep.tpr, rep.fpr) == (tpr, fpr)
        assert rep.priv == tpr / fpr
        assert rep.auroc == float(np.trapezoid(rep.roc[:, 2], rep.roc[:, 1]))


# a few shared values make ties within and across the two arrays, and with tau, common
loss_values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 4.0))
loss_arrays = st.lists(loss_values, min_size=1, max_size=25).map(table)


class TestAttackReportProperties:
    """attack_report against brute force over every member/non-member pair (ROADMAP: ROC rates are monotone)."""

    @settings(max_examples=150, deadline=None)
    @given(members=loss_arrays, nonmembers=loss_arrays, tau=st.one_of(loss_values, st.floats(-1.0, 5.0)))
    def test_matches_brute_force(self, members, nonmembers, tau):
        rep = pm.attack_report(members, nonmembers, tau)
        tpr = sum(1 for x in members if x < tau) / len(members)
        fpr = sum(1 for x in nonmembers if x < tau) / len(nonmembers)
        assert (rep.tau, rep.tpr, rep.fpr) == (tau, tpr, fpr)
        assert rep.priv == ((1.0 if tpr == 0.0 else math.inf) if fpr == 0.0 else tpr / fpr)

        assert tuple(rep.roc[0, 1:]) == (0.0, 0.0)
        assert tuple(rep.roc[-1, 1:]) == (1.0, 1.0)
        assert np.all(np.diff(rep.roc, axis=0) >= 0)  # thresholds, fpr and tpr

        pairs = [1.0 if m < n else 0.5 if m == n else 0.0 for m in members for n in nonmembers]
        assert rep.auroc == pytest.approx(sum(pairs) / len(pairs), abs=1e-12)
        assert pm.attack_report(nonmembers, members, tau).auroc == pytest.approx(1.0 - rep.auroc, abs=1e-12)
