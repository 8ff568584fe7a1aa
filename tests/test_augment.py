import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FixedRng,
    allocation_peak,
    make_points,
    unit_perturbations,
    zoo_descend_one,
    zoo_generate_drawn_first,
)

from privtsf import augment as ag
from privtsf import forecaster as fc
from privtsf import metrics as pm
from privtsf.data import ConfigurationError, DataPoint, DomainError, PointRows, PointSet, ValidationError


def syn_points(tags, epoch=1):
    """Synthetic points with embeddings filled with their tag and episode ids equal to it."""
    tags = list(tags)
    return PointSet(
        E=np.ones((len(tags), 2, 2)) * np.asarray(tags, dtype=float)[:, None, None],
        Y=np.ones((len(tags), 1, 1)),
        M=np.ones((len(tags), 1, 1)),
        episode_id=np.asarray(tags, dtype=np.int64),
        created_epoch=epoch,
    )


class TestZooUpdate:
    def test_closed_form_single_perturbation(self):
        # k=1, 1x1 embedding, u=+1, mu=1, lam=1, g(+1)=+1, g(-1)=-1  ->  e' = -1
        cfg = ag.ZooConfig(alpha=0.5, lam=1.0, mu=1.0, k=1, steps=1)
        rng = FixedRng(normals=[[3.7]])  # any positive draw normalizes to u = +1
        e = np.zeros((1, 1))
        out = zoo_descend_one(e, lambda x: float(x[0, 0]), cfg, rng)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_objective_leaves_embedding_unchanged(self):
        cfg = ag.ZooConfig(alpha=0.5, lam=5.0, mu=0.1, k=3, steps=1)
        e = np.random.default_rng(0).standard_normal((4, 3))
        out = zoo_descend_one(e, lambda x: 2.5, cfg, np.random.default_rng(1))
        assert np.allclose(out, e)

    def test_descends_objective_on_quadratic(self):
        # g(e) = -|e - c|^2 : descent on g pushes e away from c
        rng = np.random.default_rng(2)
        c = rng.standard_normal((3, 3))
        e = c + 0.5 * rng.standard_normal((3, 3))
        cfg = ag.ZooConfig(alpha=0.5, lam=0.05, mu=1e-3, k=3, steps=1)
        d0 = np.linalg.norm(e - c)
        for _ in range(10):
            e = zoo_descend_one(e, lambda x: -float(((x - c) ** 2).sum()), cfg, rng)
        assert np.linalg.norm(e - c) > d0

    def test_estimated_direction_aligns_with_negative_gradient(self):
        # mean update over many trials vs -grad g for a quadratic
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 10))
        A = A @ A.T / 10 + np.eye(10)
        b = rng.standard_normal(10)
        x0 = rng.standard_normal(10).reshape(2, 5)

        def g(x):
            v = x.ravel()
            return float(0.5 * v @ A @ v + b @ v)

        grad = (A @ x0.ravel() + b).reshape(2, 5)
        cfg = ag.ZooConfig(alpha=0.5, lam=1.0, mu=1e-2, k=3, steps=1)
        updates = np.zeros_like(x0)
        for _ in range(200):
            updates += zoo_descend_one(x0, g, cfg, rng) - x0
        cos = float((updates * -grad).sum() / (np.linalg.norm(updates) * np.linalg.norm(grad)))
        assert cos > 0.5

    def test_non_finite_pairs_skipped(self, caplog):
        cfg = ag.ZooConfig(alpha=0.5, lam=1.0, mu=1.0, k=2, steps=1)
        e = np.zeros((1, 1))
        U = unit_perturbations(e.shape, cfg.k, np.random.default_rng(0))[None]
        with caplog.at_level(logging.WARNING):
            out, skipped = ag.zoo_descend(e[None], lambda E: np.full(len(E), math.nan), [U], cfg)
        assert np.array_equal(out[0], e)
        assert skipped == cfg.k
        assert any("non-finite" in r.message for r in caplog.records)

    def test_batch_rows_match_single_row_runs(self):
        # the batched kernel moves each row exactly as a B=1 run with that row's perturbations
        rng = np.random.default_rng(14)
        cfg = ag.ZooConfig(alpha=0.5, lam=0.3, mu=1e-2, k=3, steps=4)
        E = rng.standard_normal((5, 2, 3))
        U = np.stack([unit_perturbations((2, 3), 12, rng).reshape((4, 3, 2, 3)) for _ in range(5)])
        w = rng.standard_normal(6)

        def g(X):
            return np.array([np.tanh(x.ravel() @ w) for x in X])

        out, _ = ag.zoo_descend(E, g, [U[:, s] for s in range(4)], cfg)
        for j in range(5):
            one, _ = ag.zoo_descend(E[j : j + 1], g, [U[j : j + 1, s] for s in range(4)], cfg)
            assert np.array_equal(out[j], one[0])
        assert not np.allclose(out, E)

    def test_perturbation_shape_checked(self):
        cfg = ag.ZooConfig(alpha=0.5, lam=1.0, mu=1.0, k=2, steps=3)
        U = [np.zeros((1, 2, 1, 1))]  # one step where cfg asks for three
        with pytest.raises(ConfigurationError):
            ag.zoo_descend(np.zeros((1, 1, 1)), lambda E: np.zeros(len(E)), U, cfg)
        U = [np.zeros((1, 1, 1, 1))] * 3  # one probe a step where cfg asks for two
        with pytest.raises(ConfigurationError):
            ag.zoo_descend(np.zeros((1, 1, 1)), lambda E: np.zeros(len(E)), U, cfg)


class TestObjective:
    def _point_with_loss(self, loss):
        from privtsf.forecaster import ForecasterParams

        params = ForecasterParams(
            pos=np.zeros(3),
            w_hidden=np.zeros((2, 2)),
            b_hidden=np.zeros(2),
            w_state=np.zeros((2, 2)),
            w_feedback=np.zeros((2, 2)),
            b_state=np.zeros(2),
            w_out=np.zeros((2, 2)),
            b_out=np.zeros(2),
            horizon=2,
        )
        y = np.zeros((2, 2))
        m = np.zeros((2, 2))
        m[0, 0] = 1.0
        y[0, 0] = math.sqrt(loss)
        return DataPoint(e=np.zeros((3, 2)), y=y, m=m), params

    @staticmethod
    def _g(x, tau, params, alpha):
        """The model-backed objective at B=1."""
        return ag.zoo_objective(x.y[None], x.m[None], tau, params, alpha)(x.e[None])[0]

    def test_alpha_one_is_negative_loss(self):
        x, params = self._point_with_loss(2.5)
        assert self._g(x, tau=10.0, params=params, alpha=1.0) == pytest.approx(-2.5, abs=1e-12)

    def test_alpha_zero_is_negative_indicator(self):
        x, params = self._point_with_loss(2.5)
        assert self._g(x, tau=10.0, params=params, alpha=0.0) == -1.0
        assert self._g(x, tau=1.0, params=params, alpha=0.0) == 0.0

    def test_worked_mixture(self):
        # alpha = 0.5, loss = 2.5, indicator = 1  ->  -(0.5*2.5 + 0.5*1) = -1.75
        x, params = self._point_with_loss(2.5)
        assert self._g(x, tau=10.0, params=params, alpha=0.5) == pytest.approx(-1.75, abs=1e-12)


class TestPerturbations:
    def test_unit_frobenius_norm(self):
        cfg = ag.ZooConfig(k=10, steps=3)
        for us in ag.zoo_probes((6, 5), 4, cfg, seed=4):
            assert us.shape == (4, 10, 6, 5)
            norms = np.linalg.norm(us.reshape(40, -1), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_unit_norm_within_basis(self):
        rng = np.random.default_rng(5)
        basis = ag.pca_fit(rng.standard_normal((30, 4, 3)), 0.9)
        cfg = ag.ZooConfig(k=10, steps=3)
        for us in ag.zoo_probes((4, 3), 4, cfg, seed=5, basis=basis):
            flat = us.reshape(40, -1)
            assert np.max(np.abs(np.linalg.norm(flat, axis=1) - 1.0)) < 1e-9
            assert np.max(np.abs(flat - flat @ basis.components.T @ basis.components)) < 1e-9


class TestPcaFit:
    def test_rank_one_line(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]).reshape(3, 1, 2)
        basis = ag.pca_fit(pts, 0.7)
        assert basis.n_components == 1
        assert np.allclose(np.abs(basis.components[0]), [1.0, 0.0])
        assert basis.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_cloud_needs_both_components(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((5000, 1, 2))
        basis = ag.pca_fit(pts, 0.7)
        assert basis.n_components == 2
        assert np.all(np.abs(basis.explained_variance_ratio - 0.5) < 0.05)

    def test_threshold_one_keeps_rank(self):
        rng = np.random.default_rng(7)
        low_rank = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 8))
        basis = ag.pca_fit(low_rank.reshape(50, 1, 8), 1.0)
        assert basis.n_components == 3

    def test_minimal_prefix(self):
        rng = np.random.default_rng(8)
        # anisotropic cloud: one dominant direction ~80% of variance
        pts = np.column_stack([3.0 * rng.standard_normal(4000), rng.standard_normal(4000), rng.standard_normal(4000)])
        basis = ag.pca_fit(pts.reshape(-1, 1, 3), 0.7)
        assert basis.n_components == 1
        cum = float(basis.explained_variance_ratio.sum())
        assert cum >= 0.7

    def test_orthonormality(self):
        rng = np.random.default_rng(9)
        basis = ag.pca_fit(rng.standard_normal((100, 6, 4)), 0.95)
        gram = basis.components @ basis.components.T
        assert np.max(np.abs(gram - np.eye(basis.n_components))) < 1e-8

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            ag.pca_fit(np.zeros((1, 2, 2)), 0.7)


class TestZooPcaStep:
    def _basis(self, dims, d):
        # orthonormal basis with exactly d kept directions
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((dims, dims)))
        return ag.PcaBasis(
            mean=np.zeros(dims),
            components=q[:, :d].T,
            explained_variance_ratio=np.full(d, 1.0 / d),
            variance_threshold=0.7,
        )

    def test_single_component_displacement_collinear(self):
        basis = self._basis(6, 1)
        rng = np.random.default_rng(11)
        e = rng.standard_normal((2, 3))
        cfg = ag.ZooConfig(alpha=0.5, lam=0.1, mu=1e-2, k=3, steps=1)
        out = zoo_descend_one(e, lambda x: float((x**2).sum()), cfg, rng, basis)
        disp = (out - e).ravel()
        p1 = basis.components[0]
        residual = disp - (disp @ p1) * p1
        assert np.linalg.norm(residual) < 1e-12

    def test_displacement_stays_in_span(self):
        basis = self._basis(6, 2)
        rng = np.random.default_rng(12)
        e = rng.standard_normal((2, 3))
        cfg = ag.ZooConfig(alpha=0.5, lam=0.1, mu=1e-2, k=3, steps=1)
        out = e
        for _ in range(5):
            out = zoo_descend_one(out, lambda x: float((x**3).sum()), cfg, rng, basis)
        disp = (out - e).ravel()
        proj = basis.components.T @ (basis.components @ disp)
        assert np.linalg.norm(disp - proj) < 1e-8

    def test_objective_varying_only_off_subspace_gives_no_motion(self):
        basis = self._basis(6, 2)
        off = self._basis(6, 6).components[5]  # direction outside span(first 2)
        rng = np.random.default_rng(13)
        e = rng.standard_normal((2, 3))
        cfg = ag.ZooConfig(alpha=0.5, lam=0.1, mu=1e-2, k=3, steps=1)
        out = zoo_descend_one(e, lambda x: float(x.ravel() @ off), cfg, rng, basis)
        assert np.allclose(out, e, atol=1e-10)

    def test_model_backed_step_stays_in_span(self, small_wb, small_tau):
        _, wb = small_wb
        basis = ag.pca_fit(wb.train_pts.E, 0.70)
        x = wb.train_pts[0]
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=3, steps=1)
        U = unit_perturbations(x.e.shape, cfg.k, np.random.default_rng(7), basis)[None]
        objective = ag.zoo_objective(x.y[None], x.m[None], small_tau, wb.baseline_params, cfg.alpha)
        out, _ = ag.zoo_descend(x.e[None], objective, [U], cfg)
        disp = (out[0] - x.e).ravel()
        proj = basis.components.T @ (basis.components @ disp)
        assert np.linalg.norm(disp - proj) < 1e-8
        assert np.linalg.norm(disp) > 0


class TestZooGenerate:
    def test_zero_steps_copies_seeds_with_origin_flipped(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=3, steps=0)
        seeds = wb.train_pts[:5]
        out = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=1, epoch=3)
        for s, o in zip(seeds, out):
            assert np.array_equal(s.e, o.e)
            assert np.array_equal(s.y, o.y)
            assert o.episode_id == s.episode_id
            assert o.created_epoch == 3

    def test_outputs_keep_seed_targets(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=3, steps=5)
        seeds = wb.train_pts[:8]
        out = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=2, epoch=1)
        for s, o in zip(seeds, out):
            assert np.array_equal(s.y, o.y)
            assert np.array_equal(s.m, o.m)
            assert not np.array_equal(s.e, o.e)

    def test_wave_keeps_seed_episode_ids(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=2)
        seeds = wb.train_pts[::-9][:8]
        assert len(set(seeds.episode_id.tolist())) > 1
        out = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=6, epoch=2)
        assert np.array_equal(out.episode_id, seeds.episode_id)
        assert out.created_epoch.tolist() == [2] * len(seeds)

    def test_alpha_one_raises_mean_loss(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=1.0, lam=30.0, mu=3.0, k=3, steps=10)
        seeds = wb.train_pts[:40]
        out = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=3, epoch=1)
        seed_losses = pm.dataset_losses(seeds, wb.baseline_params)
        out_losses = pm.dataset_losses(out, wb.baseline_params)
        assert out_losses.mean() >= seed_losses.mean()

    def test_alpha_zero_raises_member_fraction(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=0.0, lam=30.0, mu=3.0, k=3, steps=10)
        seeds = wb.train_pts[:40]
        out = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=4, epoch=1)
        seed_frac = (pm.dataset_losses(seeds, wb.baseline_params) < small_tau).mean()
        out_frac = (pm.dataset_losses(out, wb.baseline_params) < small_tau).mean()
        assert out_frac >= seed_frac

    def test_deterministic_per_seed(self, small_wb, small_tau):
        _, wb = small_wb
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=2, steps=3)
        seeds = wb.train_pts[:4]
        a = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=5, epoch=1)
        b = ag.zoo_generate(seeds, small_tau, wb.baseline_params, cfg, seed=5, epoch=1)
        for x, y in zip(a, b):
            assert np.array_equal(x.e, y.e)


@pytest.fixture(scope="module")
def fixture_wave_case():
    """Seeded params at the acceptance fixture's shape, 175 seed points, a PCA basis and a tau between their losses."""
    rng = np.random.default_rng(17)
    _, params = fc.init_params(32, 64, 16, 24, seed=17, input_hours=24)
    seeds = make_points(rng, 175, 24, 32, 24, 16)
    basis = ag.pca_fit(make_points(rng, 350, 24, 32, 24, 16).E, 0.70)
    return params, seeds, basis, float(np.median(pm.dataset_losses(seeds, params)))


class TestZooStreaming:
    """Waves drawn one step at a time, against the wave that drew every probe first."""

    @pytest.mark.parametrize("steps", [0, 1, 10])
    @pytest.mark.parametrize("B", [1, 2, 95, 96, 175])
    @pytest.mark.parametrize("pca", [False, True])
    def test_wave_equals_drawn_first_byte_for_byte(self, fixture_wave_case, pca, B, steps):
        params, seeds, basis, tau = fixture_wave_case
        cfg = ag.ZooConfig(alpha=0.75, lam=30.0, mu=3.0, k=3, steps=steps)
        basis = basis if pca else None
        got = ag.zoo_generate(seeds[:B], tau, params, cfg, seed=29, epoch=2, basis=basis)
        want = zoo_generate_drawn_first(seeds[:B], tau, params, cfg, seed=29, epoch=2, basis=basis)
        for name in ("E", "Y", "M", "episode_id", "created_epoch"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.E.shape == seeds[:B].E.shape
        assert steps == 0 or not np.array_equal(got.E, seeds[:B].E)

    def test_wave_allocates_under_half_of_one_probe_stack(self, fixture_wave_case):
        # drawing every probe first held a (175, 10, 3, 24, 32) array (30.8 MiB) twice: a 61.6 MiB peak.
        # One step at a time peaks at 9.3 MiB (9.8 with a basis); the bound is half of one such array.
        params, seeds, basis, tau = fixture_wave_case
        cfg = ag.ZooConfig(0.75, 30.0, 3.0, 3, 10)
        stack = len(seeds) * cfg.steps * cfg.k * seeds.E[0].size * 8
        for b in (None, basis):
            peak = allocation_peak(lambda: ag.zoo_generate(seeds, tau, params, cfg, seed=3, epoch=1, basis=b))
            assert peak < stack / 2, peak


class TestMixup:
    def _pair(self):
        rng = np.random.default_rng(14)
        x1 = DataPoint(e=rng.standard_normal((3, 2)), y=np.ones((2, 2)), m=np.ones((2, 2)), episode_id=1)
        m2 = np.zeros((2, 2))
        m2[0, 0] = 1.0
        x2 = DataPoint(e=rng.standard_normal((3, 2)), y=2.0 * np.ones((2, 2)) * m2, m=m2, episode_id=2)
        return x1, x2

    def test_dominant_first_point(self):
        x1, x2 = self._pair()
        out = ag.mixup_generate(x1, x2, ag.MixupConfig(beta=1.0), FixedRng(beta_value=0.9), epoch=2)
        assert np.allclose(out.e, 0.9 * x1.e + 0.1 * x2.e)
        assert np.array_equal(out.y, x1.y)
        assert np.array_equal(out.m, x1.m)
        assert out.episode_id == x1.episode_id
        assert out.created_epoch == 2

    def test_lambda_one_is_first_point_exactly(self):
        x1, x2 = self._pair()
        out = ag.mixup_generate(x1, x2, ag.MixupConfig(beta=1.0), FixedRng(beta_value=1.0))
        assert np.array_equal(out.e, x1.e)
        assert np.array_equal(out.y, x1.y)

    def test_boundary_half_takes_second_point(self):
        x1, x2 = self._pair()
        out = ag.mixup_generate(x1, x2, ag.MixupConfig(beta=1.0), FixedRng(beta_value=0.5))
        assert np.array_equal(out.y, x2.y)
        assert np.array_equal(out.m, x2.m)
        assert out.episode_id == x2.episode_id

    def test_convexity_entrywise(self):
        x1, x2 = self._pair()
        rng = np.random.default_rng(15)
        for _ in range(50):
            out = ag.mixup_generate(x1, x2, ag.MixupConfig(beta=0.2), rng)
            lo = np.minimum(x1.e, x2.e)
            hi = np.maximum(x1.e, x2.e)
            assert np.all(out.e >= lo - 1e-12)
            assert np.all(out.e <= hi + 1e-12)

    def test_dimension_mismatch(self):
        x1, _ = self._pair()
        bad = DataPoint(e=np.zeros((4, 2)), y=np.ones((2, 2)), m=np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            ag.mixup_generate(x1, bad, ag.MixupConfig(beta=1.0), np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        epoch=st.integers(0, 5),
    )
    def test_wave_equals_one_generate_call_per_row(self, lam, seed, epoch):
        rng = np.random.default_rng(seed)

        def points(first_id):
            m = (rng.random((len(lam), 2, 3)) < 0.5).astype(float)
            E, Y = rng.standard_normal((len(lam), 4, 2)), rng.standard_normal((len(lam), 2, 3)) * m
            return PointSet(E=E, Y=Y, M=m, episode_id=first_id + np.arange(len(lam)))

        a, b = points(0), points(100)
        wave = ag.mixup_wave(a, b, np.array(lam), epoch)
        cfg = ag.MixupConfig(beta=1.0)
        for j, row in enumerate(wave):
            one = ag.mixup_generate(a[j], b[j], cfg, FixedRng(beta_value=lam[j]), epoch=epoch)
            for name in ("e", "y", "m", "episode_id", "created_epoch"):
                assert np.array_equal(getattr(row, name), getattr(one, name)), name
            assert row.episode_id == (a if lam[j] > 0.5 else b).episode_id[j]

    def test_wave_rejects_mismatched_sets_and_weights(self):
        a = syn_points([1, 2])
        with pytest.raises(ConfigurationError):
            ag.mixup_wave(a, syn_points([1, 2, 3]), np.array([0.5, 0.5]), 1)
        with pytest.raises(ConfigurationError):
            ag.mixup_wave(a, a, np.array([0.5]), 1)


class TestSyntheticPool:
    def test_fifo_eviction(self):
        pool = ag.SyntheticPool(cap=3)
        pool.insert(syn_points(range(5)))
        assert pool.items.episode_id.tolist() == [2, 3, 4]

    def test_empty_insert_is_noop(self):
        pool = ag.SyntheticPool(cap=3)
        pool.insert(syn_points([0]))
        before = pool.items
        pool.insert(syn_points([]))
        assert pool.items.episode_id.tolist() == before.episode_id.tolist()
        assert np.array_equal(pool.items.E, before.E)

    def test_half_train_cap(self):
        cap = 100 // 2
        pool = ag.SyntheticPool(cap=cap)
        pool.insert(syn_points(range(60)))
        assert len(pool) == 50
        assert pool.items[0].episode_id == 10

    def test_rejects_original_points(self):
        pool = ag.SyntheticPool(cap=3)
        with pytest.raises(ValidationError):
            pool.insert(PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=np.ones((1, 1, 1))))

    def test_rejects_a_set_with_any_row_at_epoch_zero(self):
        pool = ag.SyntheticPool(cap=3)
        mixed = PointRows((syn_points([1], epoch=2), syn_points([2], epoch=0)), np.arange(2))[:]
        with pytest.raises(ValidationError, match="created_epoch"):
            pool.insert(mixed)
        assert len(pool) == 0

    def test_eviction_is_oldest_epoch_first(self):
        pool = ag.SyntheticPool(cap=4)
        for epoch in range(1, 5):
            pool.insert(syn_points([epoch * 10 + j for j in range(2)], epoch=epoch))
        assert [p.created_epoch for p in pool.items] == [3, 3, 4, 4]

    def test_holds_only_its_newest_cap_rows(self):
        # evicted rows must not stay alive behind a view of the joined rows
        cap = 5
        pool = ag.SyntheticPool(cap=cap)
        for epoch in range(1, 4):
            pool.insert(syn_points(range(epoch * cap, (epoch + 1) * cap), epoch=epoch))
        assert pool.items.episode_id.tolist() == list(range(3 * cap, 4 * cap))
        for name in ("E", "Y"):
            arr = getattr(pool.items, name)
            assert arr.base is None or arr.base.nbytes <= arr.nbytes, name
