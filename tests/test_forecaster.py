import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import batch_loss, fd_param_gradients, make_points, relative_error, take_windows

from privtsf import forecaster as fc
from privtsf.data import (
    ConfigurationError,
    EvaluationError,
    PointSet,
    Standardizer,
    TrainingError,
    WindowSet,
)
from privtsf.metrics import mse_set
from privtsf.synth import GeneratorConfig, generate
from privtsf.data import build_windows


def zero_params(n=4, H=4, F=3, T=2, input_hours=5):
    return fc.ForecasterParams(
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


def window(values, mask):
    """A one-row WindowSet with the given inputs and a fully observed zero target."""
    F = values.shape[1]
    return WindowSet(values=values[None], mask_in=mask[None], target=np.zeros((1, 1, F)), mask_out=np.ones((1, 1, F)))


def embed_one(values, mask, emb):
    """The map applied to the input rows of one (values, mask) pair."""
    return fc.window_inputs(values, mask, emb.n_vars) @ emb.weight + emb.bias


class TestEmbed:
    def test_points_share_the_window_targets_and_name_their_window(self):
        rng = np.random.default_rng(3)
        emb = fc.EmbeddingMap(weight=rng.standard_normal((6, 2)), bias=rng.standard_normal(2))
        m = (rng.random((2, 4, 3)) < 0.5).astype(float)
        ws = WindowSet(
            values=rng.standard_normal((2, 4, 3)) * m,
            mask_in=m,
            target=np.zeros((2, 1, 3)),
            mask_out=np.ones((2, 1, 3)),
            episode_id=[7, 8],
            window_start=[0, 4],
        )
        pts = fc.bake_points(ws, emb)
        assert np.shares_memory(pts.Y, ws.target) and np.shares_memory(pts.M, ws.mask_out)
        assert pts.episode_id.tolist() == [7, 8]
        assert pts.created_epoch.tolist() == [0, 0]

    def test_zero_input_gives_bias_rows(self):
        emb = fc.EmbeddingMap(weight=np.arange(12.0).reshape(6, 2), bias=np.array([3.0, -1.0]))
        w = window(np.zeros((4, 3)), np.zeros((4, 3)))
        out = fc.bake_points(w, emb)[0].e
        assert np.allclose(out, np.tile(emb.bias, (4, 1)))

    def test_one_hot_row_selects_weight_row(self):
        weight = np.arange(12.0).reshape(6, 2)
        emb = fc.EmbeddingMap(weight=weight, bias=np.zeros(2))
        values = np.zeros((2, 3))
        values[0, 1] = 1.0  # one-hot on the value coordinate of variable 1
        out = embed_one(values, np.zeros((2, 3)), emb)
        assert np.allclose(out[0], weight[1])
        # one-hot on a mask coordinate selects the shifted row
        mask = np.zeros((2, 3))
        mask[0, 2] = 1.0
        out = embed_one(np.zeros((2, 3)), mask, emb)
        assert np.allclose(out[0], weight[3 + 2])

    def test_doubling_values_doubles_output_minus_bias(self):
        # with the mask contribution held at zero the map is linear in the values
        rng = np.random.default_rng(0)
        emb = fc.EmbeddingMap(weight=rng.standard_normal((6, 4)), bias=rng.standard_normal(4))
        v = np.abs(rng.standard_normal((5, 3)))
        zero_mask = np.zeros((5, 3))
        base = embed_one(v, zero_mask, emb) - emb.bias
        doubled = embed_one(2 * v, zero_mask, emb) - emb.bias
        assert np.allclose(doubled, 2 * base, atol=1e-12)

    def test_joint_linearity_in_values_and_mask(self):
        rng = np.random.default_rng(1)
        emb = fc.EmbeddingMap(weight=rng.standard_normal((6, 4)), bias=rng.standard_normal(4))
        v = rng.standard_normal((5, 3))
        m = (rng.random((5, 3)) < 0.5).astype(float)
        mixed = embed_one(v, m, emb)
        parts = embed_one(v, np.zeros_like(m), emb) + embed_one(v * 0, m, emb) - emb.bias
        assert np.allclose(mixed, parts, atol=1e-12)

    def test_window_embed_matches_row_map(self):
        rng = np.random.default_rng(2)
        emb = fc.EmbeddingMap(weight=rng.standard_normal((6, 4)), bias=rng.standard_normal(4))
        m = (rng.random((4, 3)) < 0.5).astype(float)
        v = rng.standard_normal((4, 3)) * m
        w = window(v, m)
        assert np.array_equal(fc.bake_points(w, emb)[0].e, embed_one(v, m, emb))

    def test_dimension_mismatch(self):
        emb = fc.EmbeddingMap(weight=np.zeros((6, 2)), bias=np.zeros(2))
        w = window(np.zeros((4, 5)), np.zeros((4, 5)))
        with pytest.raises(ConfigurationError, match="5 variables, embedding expects 3"):
            fc.bake_points(w, emb)


def forecast_one(e, params):
    """Forecast of one embedding matrix: the batched forecast at B=1."""
    return fc.forecast_batch(np.asarray(e)[None], params)[0]


class TestForecast:
    def test_all_zero_params_give_zero_forecast(self):
        params = zero_params()
        out = forecast_one(np.random.default_rng(0).standard_normal((5, 4)), params)
        assert np.all(out == 0)
        assert out.shape == (2, 3)

    def test_deterministic(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=1, input_hours=5)
        e = np.random.default_rng(2).standard_normal((5, 4))
        assert np.array_equal(forecast_one(e, params), forecast_one(e, params))

    def test_directional_derivative_is_bounded(self):
        # |f(e + d*u) - f(e)| scales linearly for small d
        _, params = fc.init_params(4, 4, 3, 2, seed=1, input_hours=5)
        rng = np.random.default_rng(3)
        e = rng.standard_normal((5, 4))
        u = rng.standard_normal((5, 4))
        u /= np.linalg.norm(u)
        base = forecast_one(e, params)
        slopes = []
        for d in (1e-3, 1e-4):
            slopes.append(np.linalg.norm(forecast_one(e + d * u, params) - base) / d)
        assert slopes[0] > 0
        assert 0.5 < slopes[0] / slopes[1] < 2.0

    def test_non_finite_params_rejected(self):
        params = zero_params()
        bad = dataclasses.replace(params, w_out=np.full((3, 4), np.nan))
        with pytest.raises(EvaluationError):
            forecast_one(np.zeros((5, 4)), bad)

    def test_wrong_shape_batch_names_both_shapes(self):
        params = zero_params()  # expects (B, 5, 4)
        with pytest.raises(ConfigurationError, match=r"\(2, 4, 4\).*\(B, 5, 4\)"):
            fc.forecast_batch(np.zeros((2, 4, 4)), params)
        with pytest.raises(ConfigurationError, match=r"\(5, 4\).*\(B, 5, 4\)"):
            fc.forecast_batch(np.zeros((5, 4)), params)  # one matrix, not a batch

    def test_student_forcing_feedback_path(self):
        # a teacher-forced unroll (feeding ground truth) must differ from the
        # model's own student-forced output when predictions != ground truth
        _, params = fc.init_params(4, 4, 3, 4, seed=5, input_hours=5)
        rng = np.random.default_rng(6)
        e = rng.standard_normal((5, 4))
        y_true = rng.standard_normal((4, 3))
        student = forecast_one(e, params)

        pooled = params.pos @ e
        s = np.tanh(params.w_hidden @ pooled + params.b_hidden)
        y_prev = np.zeros(3)
        teacher_rows = []
        for t in range(4):
            s = np.tanh(params.w_state @ s + params.w_feedback @ y_prev + params.b_state)
            out = params.w_out @ s + params.b_out
            teacher_rows.append(out)
            y_prev = y_true[t]  # teacher forcing
        teacher = np.stack(teacher_rows)

        assert np.allclose(student[0], teacher[0])  # first step has no feedback yet
        assert not np.allclose(student[1:], teacher[1:])


def batch_major_forward(E, params):
    """The decoder unroll on batch-major (B, T+1, .) arrays with a fresh temporary per
    operation: the layout `_forward` used before its buffers became time-major."""
    B, T, H, F = E.shape[0], params.horizon, params.hidden_dim, params.n_vars
    pooled = np.einsum("h,bhn->bn", params.pos, E)
    S = np.empty((B, T + 1, H))
    S[:, 0] = np.tanh(pooled @ params.w_hidden.T + params.b_hidden)
    Yh = np.zeros((B, T + 1, F))
    for t in range(1, T + 1):
        a = S[:, t - 1] @ params.w_state.T + Yh[:, t - 1] @ params.w_feedback.T + params.b_state
        S[:, t] = np.tanh(a)
        Yh[:, t] = S[:, t] @ params.w_out.T + params.b_out
    return pooled, S, Yh


FIXTURE_DIMS = (32, 64, 16, 24, 24)  # the acceptance fixture's (n, H, F, T, input_hours)
small_dims = st.tuples(*(st.integers(1, hi) for hi in (4, 6, 4, 5, 5)))


def unroll_case(seed, B, dims):
    """Seeded params, embeddings and a masked target batch of B windows with dims (n, H, F, T, I)."""
    n, H, F, T, I = dims
    rng = np.random.default_rng(seed)
    _, params = fc.init_params(n, H, F, T, seed=int(rng.integers(2**31)), input_hours=I)
    E = rng.standard_normal((B, I, n))
    Y = rng.standard_normal((B, T, F))
    M = (rng.random((B, T, F)) < 0.7).astype(float)
    M[:, 0, 0] = 1.0
    return params, E, Y, M, rng


class TestUnrollBits:
    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), dims=st.one_of(small_dims, st.just(FIXTURE_DIMS)))
    def test_time_major_unroll_equals_batch_major_loop(self, B, seed, dims):
        params, E, _, _, _ = unroll_case(seed, B, dims)
        for got, want in zip(fc._forward(E, params), batch_major_forward(E, params)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), dims=st.one_of(small_dims, st.just(FIXTURE_DIMS)))
    def test_backward_on_views_equals_backward_on_contiguous_copies(self, B, seed, dims):
        # the batch-mean folds copy their operands, so they agree at every width. The
        # per-sample batched matmuls read the views, and at H = 1 or F = 1 they round
        # differently from the batch-major layout, so they are checked at H, F >= 2
        params, E, Y, M, rng = unroll_case(seed, B, dims)
        X = rng.standard_normal((B, params.input_hours, 2 * params.n_vars))
        views = fc._forward(E, params)
        copies = [np.ascontiguousarray(a) for a in views]
        for per_sample, X_in in ((False, None), (True, None), (False, X)):
            if per_sample and min(params.hidden_dim, params.n_vars) < 2:
                continue
            got = fc._backward(E, Y, M, params, *views, per_sample=per_sample, X=X_in)
            want = fc._backward(E, Y, M, params, *copies, per_sample=per_sample, X=X_in)
            assert got.keys() == want.keys()
            for name in got:
                assert np.array_equal(got[name], want[name]), (per_sample, X_in is not None, name)

    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(2, 20), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*(st.integers(lo, hi) for lo, hi in ((1, 4), (1, 8), (2, 4), (1, 5), (1, 5)))),
    )
    def test_row_forecast_does_not_depend_on_its_batch(self, B, extra, seed, dims):
        # B >= 2 and F >= 2 keep every product matrix-matrix: at B = 1 or F = 1 the
        # matrix-vector product rounds a row differently by batch size, and so does
        # OpenBLAS's gemm at H = 32 and above, on the batch-major unroll as well
        params, E, _, _, rng = unroll_case(seed, B, dims)
        other = rng.standard_normal((extra,) + E.shape[1:])
        alone = fc.forecast_batch(E, params)
        assert np.array_equal(fc.forecast_batch(np.concatenate([E, other]), params)[:B], alone)
        assert np.array_equal(fc.forecast_batch(np.concatenate([other, E]), params)[extra:], alone)


def strided_mean_backward(E, Y, M, params, pooled, S, Yh, X=None):
    """Reference batch-mean backward: every fold is np.einsum run directly on
    _forward's strided views, with no contiguous copies."""
    B, T, H = Y.shape[0], Y.shape[1], params.hidden_dim
    dY_loss = 2.0 * M * (Yh[:, 1:] - Y) / M.sum(axis=(1, 2))[:, None, None]
    DY, DA, da = np.empty(Y.shape), np.empty((B, T, H)), None
    for t in range(T, 0, -1):
        dy, ds = dY_loss[:, t - 1].copy(), np.zeros((B, H))
        if da is not None:
            dy += da @ params.w_feedback
            ds += da @ params.w_state
        ds += dy @ params.w_out
        da = ds * (1.0 - S[:, t] ** 2)
        DY[:, t - 1], DA[:, t - 1] = dy, da
    da0 = (DA[:, 0] @ params.w_state) * (1.0 - S[:, 0] ** 2)
    dpooled = da0 @ params.w_hidden
    g = {
        "w_out": np.einsum("btf,bth->fh", DY, S[:, 1:]) / B,
        "b_out": DY.sum(axis=(0, 1)) / B,
        "w_state": np.einsum("bth,btk->hk", DA, S[:, :T]) / B,
        "w_feedback": np.einsum("bth,btf->hf", DA, Yh[:, :T]) / B,
        "b_state": DA.sum(axis=(0, 1)) / B,
        "w_hidden": np.einsum("bh,bn->hn", da0, pooled) / B,
        "b_hidden": da0.sum(axis=0) / B,
        "pos": np.einsum("bn,bin->i", dpooled, E) / B,
    }
    if X is not None:
        dE = params.pos[None, :, None] * dpooled[:, None, :]
        g["emb_weight"] = np.einsum("bip,bin->pn", X, dE) / B
        g["emb_bias"] = dE.sum(axis=(0, 1)) / B
    return g


def run_in_child(code: str) -> None:
    """Run `code` in a fresh interpreter that imports privtsf from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(fc.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestFolds:
    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
        dims=st.one_of(small_dims.filter(lambda d: min(d[1], d[2]) >= 2), st.just(FIXTURE_DIMS)),
    )
    def test_folds_equal_einsum_bit_for_bit(self, B, seed, dims):
        # the batch-mean folds on contiguous copies equal einsum on the strided views
        params, E, Y, M, rng = unroll_case(seed, B, dims)
        X = rng.standard_normal((B, params.input_hours, 2 * params.n_vars))
        views = fc._forward(E, params)
        for X_in in (None, X):
            got = fc._backward(E, Y, M, params, *views, per_sample=False, X=X_in)
            want = strided_mean_backward(E, Y, M, params, *views, X=X_in)
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].tobytes() == want[name].tobytes(), (X_in is not None, name)

    def test_import_starts_no_thread(self):
        run_in_child(
            "import threading\n"
            "before = threading.active_count()\n"
            "import privtsf, privtsf.cli, privtsf.runner, privtsf.forecaster as fc\n"
            "from privtsf.data import Standardizer, build_windows\n"
            "from privtsf.synth import GeneratorConfig, generate\n"
            "episodes = generate(GeneratorConfig(n_episodes=8, seed=5))\n"
            "windows = build_windows(episodes, Standardizer.fit(episodes, 16))\n"
            "cfg = fc.TrainConfig(max_epochs=1, hidden_dim=8, n=8)\n"
            "emb, params = fc.pretrain_embedding(windows, cfg)\n"
            "fc.train(fc.bake_points(windows, emb), params, cfg, epochs=1, seed=cfg.seed)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
        )


class TestGradients:
    def test_analytic_matches_central_differences(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=7, input_hours=5)
        pts = make_points(np.random.default_rng(8), 6, 5, 4, 2, 3)
        grads, _ = fc.mean_gradients(pts, params)
        fd = fd_param_gradients(pts, params, step=1e-4)
        for name in fc.PARAM_FIELDS:
            assert relative_error(grads[name], fd[name]) < 1e-4, name

    def test_per_sample_mean_equals_batch_gradient(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=9, input_hours=5)
        pts = make_points(np.random.default_rng(10), 7, 5, 4, 2, 3)
        batch, _ = fc.mean_gradients(pts, params)
        per, _ = fc.per_sample_gradients(pts, params)
        for name in fc.PARAM_FIELDS:
            assert np.allclose(per[name].mean(axis=0), batch[name], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), clip_frac=st.floats(0.01, 2.0))
    def test_per_sample_rows_are_single_point_gradients(self, batch, seed, clip_frac):
        rng = np.random.default_rng(seed)
        _, params = fc.init_params(4, 4, 3, 2, seed=int(rng.integers(2**31)), input_hours=5)
        pts = make_points(rng, batch, 5, 4, 2, 3)
        per, losses = fc.per_sample_gradients(pts, params)
        mean, _ = fc.mean_gradients(pts, params)
        for j in range(batch):
            single, loss = fc.mean_gradients(pts[j : j + 1], params)
            assert losses[j] == pytest.approx(loss, rel=1e-12)
            for name in fc.PARAM_FIELDS:
                assert relative_error(per[name][j], single[name]) < 1e-12, (name, j)
        for name in fc.PARAM_FIELDS:
            assert relative_error(per[name].mean(axis=0), mean[name]) < 1e-12, name
        norms = np.sqrt(sum((g.reshape(batch, -1) ** 2).sum(axis=1) for g in per.values()))
        C = clip_frac * float(np.median(norms))
        clipped, _ = fc.clip_per_sample(per, C)
        clipped_norms = np.sqrt(sum((g.reshape(batch, -1) ** 2).sum(axis=1) for g in clipped.values()))
        assert np.all(clipped_norms <= C * (1 + 1e-12))

    def test_embedding_gradient_matches_central_differences(self):
        emb, params = fc.init_params(4, 4, 3, 2, seed=11, input_hours=5)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 5, 6))
        Y = rng.standard_normal((5, 2, 3))
        M = (rng.random((5, 2, 3)) < 0.7).astype(float)
        M[:, 0, 0] = 1.0
        E = X @ emb.weight + emb.bias
        pooled, S, Yh = fc._forward(E, params)
        grads = fc._backward(E, Y, M, params, pooled, S, Yh, per_sample=False, X=X)

        def loss(weight, bias):
            En = X @ weight + bias
            _, _, Yh2 = fc._forward(En, params)
            return float(fc.masked_batch_losses(Yh2[:, 1:], Y, M).mean())

        h = 1e-4
        for name, arr in (("emb_weight", emb.weight), ("emb_bias", emb.bias)):
            g_fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus, minus = arr.copy(), arr.copy()
                plus[idx] += h
                minus[idx] -= h
                if name == "emb_weight":
                    g_fd[idx] = (loss(plus, emb.bias) - loss(minus, emb.bias)) / (2 * h)
                else:
                    g_fd[idx] = (loss(emb.weight, plus) - loss(emb.weight, minus)) / (2 * h)
            assert relative_error(grads[name], g_fd) < 1e-4, name


class TestTrainStep:
    def test_history_is_each_epochs_mean_loss(self):
        # with a vanishing step the model stays put, so every epoch's size-weighted
        # mean of batch losses (batches of 4, 4 and 3) is the set's mean loss
        _, params = fc.init_params(4, 4, 3, 2, seed=1, input_hours=5)
        pts = make_points(np.random.default_rng(3), 11, 5, 4, 2, 3)
        cfg = fc.TrainConfig(learning_rate=1e-300, batch_size=4, max_epochs=3, hidden_dim=4, n=4, horizon=2)
        _, history = fc.train(pts, params, cfg, epochs=3, seed=7)
        assert history == pytest.approx([mse_set(pts, params)] * 3, rel=1e-12)

    def test_zero_learning_rate_leaves_params_unchanged(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=1, input_hours=5)
        pts = make_points(np.random.default_rng(2), 4, 5, 4, 2, 3)
        cfg = fc.TrainConfig(learning_rate=1e-300, batch_size=4, max_epochs=1, hidden_dim=4, n=4, horizon=2)
        new, _ = fc.train_step(pts, params, cfg)
        for name in fc.PARAM_FIELDS:
            assert np.allclose(getattr(new, name), getattr(params, name), atol=1e-290)

    def test_loss_non_increasing_on_repeated_batch(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=3, input_hours=5)
        pts = make_points(np.random.default_rng(4), 10, 5, 4, 2, 3)
        cfg = fc.TrainConfig(learning_rate=0.01, batch_size=10, max_epochs=1, hidden_dim=4, n=4, horizon=2)
        losses = []
        for _ in range(50):
            params, loss = fc.train_step(pts, params, cfg)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_nan_input_aborts_with_diagnostic(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=5, input_hours=5)
        pts = make_points(np.random.default_rng(6), 2, 5, 4, 2, 3)
        bad = PointSet(E=np.full((1, 5, 4), np.nan), Y=pts.Y[:1], M=pts.M[:1])
        cfg = fc.TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=1, hidden_dim=4, n=4, horizon=2)
        with pytest.raises(TrainingError):
            fc.train_step(PointSet.concat(bad, pts), params, cfg)


class TestDpStep:
    def test_clip_scaling_examples(self):
        g4 = {"w": np.array([[4.0, 0.0]])}  # single sample, norm 4
        clipped, norms = fc.clip_per_sample(g4, clip_norm=2.0)
        assert np.allclose(clipped["w"], [[2.0, 0.0]])  # scaled by 0.5
        assert norms[0] == pytest.approx(2.0)
        g1 = {"w": np.array([[1.0, 0.0]])}
        clipped, norms = fc.clip_per_sample(g1, clip_norm=2.0)
        assert np.allclose(clipped["w"], [[1.0, 0.0]])  # below the norm: unchanged
        assert norms[0] == pytest.approx(1.0)

    def test_norm_is_global_over_groups(self):
        g = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
        clipped, norms = fc.clip_per_sample(g, clip_norm=2.5)
        assert norms[0] == pytest.approx(2.5)
        assert np.allclose(clipped["a"], [[1.5]])
        assert np.allclose(clipped["b"], [[2.0]])

    def test_every_per_sample_contribution_bounded(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=7, input_hours=5)
        pts = make_points(np.random.default_rng(8), 12, 5, 4, 2, 3)
        grads, _ = fc.per_sample_gradients(pts, params)
        C = 0.05  # small enough that clipping actually binds
        clipped, norms = fc.clip_per_sample(grads, C)
        assert np.all(norms <= C + 1e-12)
        B = norms.shape[0]
        sq = np.zeros(B)
        for g in clipped.values():
            sq += (g.reshape(B, -1) ** 2).sum(axis=1)
        assert np.all(np.sqrt(sq) <= C + 1e-12)

    def test_zero_noise_update_equals_mean_of_clipped(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=9, input_hours=5)
        pts = make_points(np.random.default_rng(10), 6, 5, 4, 2, 3)
        cfg = fc.TrainConfig(learning_rate=0.01, batch_size=6, max_epochs=1, hidden_dim=4, n=4, horizon=2)
        dp = fc.DpConfig(noise_multiplier=0.0, clip_norm=0.5, lr_scale=10.0)
        new = fc.dp_train_step(pts, params, cfg, dp, np.random.default_rng(0))
        grads, _ = fc.per_sample_gradients(pts, params)
        clipped, _ = fc.clip_per_sample(grads, 0.5)
        for name in fc.PARAM_FIELDS:
            expected = getattr(params, name) - 0.1 * clipped[name].mean(axis=0)
            assert np.allclose(getattr(new, name), expected, atol=1e-15)

    def test_noise_applied_when_sigma_positive(self):
        _, params = fc.init_params(4, 4, 3, 2, seed=11, input_hours=5)
        pts = make_points(np.random.default_rng(12), 6, 5, 4, 2, 3)
        cfg = fc.TrainConfig(learning_rate=0.01, batch_size=6, max_epochs=1, hidden_dim=4, n=4, horizon=2)
        a = fc.dp_train_step(pts, params, cfg, fc.DpConfig(1.0, 0.5), np.random.default_rng(0))
        b = fc.dp_train_step(pts, params, cfg, fc.DpConfig(1.0, 0.5), np.random.default_rng(1))
        assert not np.allclose(a.w_out, b.w_out)


class TestPretraining:
    def _windows(self, count=60):
        episodes = generate(GeneratorConfig(n_episodes=30, seed=21))
        std = Standardizer.fit(episodes, 16)
        return take_windows(build_windows(episodes, std), slice(count))

    def test_same_seed_gives_identical_embedding(self):
        windows = self._windows()
        cfg = fc.TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=3, hidden_dim=8, n=8, horizon=24, seed=3)
        e1, p1 = fc.pretrain_embedding(windows, cfg)
        e2, p2 = fc.pretrain_embedding(windows, cfg)
        assert np.array_equal(e1.weight, e2.weight)
        assert np.array_equal(e1.bias, e2.bias)
        assert np.array_equal(p1.w_out, p2.w_out)

    def test_embedding_frozen_after_pretraining(self):
        windows = self._windows()
        cfg = fc.TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=2, hidden_dim=8, n=8, horizon=24, seed=4)
        emb, params = fc.pretrain_embedding(windows, cfg)
        with pytest.raises(ValueError):
            emb.weight[0, 0] = 1.0
        snapshot = emb.weight.copy()
        pts = fc.bake_points(windows, emb)
        fc.train(pts, params, cfg, epochs=2, seed=5)
        assert np.array_equal(emb.weight, snapshot)
        # embed output for a fixed window is bit-identical after further training
        a = fc.bake_points(take_windows(windows, slice(1)), emb)[0].e
        b = fc.bake_points(take_windows(windows, slice(1)), emb)[0].e
        assert np.array_equal(a, b)

    def test_pretraining_reduces_loss(self):
        windows = self._windows(80)
        cfg = fc.TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=25, hidden_dim=16, n=16, horizon=24, seed=6)
        emb0, params0 = fc.init_params(cfg.n, cfg.hidden_dim, 16, cfg.horizon, cfg.seed)
        pts0 = fc.bake_points(windows, emb0)
        before = mse_set(pts0, params0)
        emb, params = fc.pretrain_embedding(windows, cfg)
        pts = fc.bake_points(windows, emb)
        after = mse_set(pts, params)
        assert after < before


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        emb, params = fc.init_params(6, 5, 4, 3, seed=1)
        std = Standardizer(mean=np.arange(4.0), std=np.ones(4) * 2)
        path = str(tmp_path / "ckpt.npz")
        fc.save_checkpoint(path, emb, params, std, seed=99)
        emb2, params2, std2, meta = fc.load_checkpoint(path)
        assert np.array_equal(emb.weight, emb2.weight)
        for name in fc.PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), getattr(params2, name))
        assert np.array_equal(std.mean, std2.mean)
        assert meta["seed"] == 99
        assert meta["n"] == 6
        assert params2.horizon == 3
