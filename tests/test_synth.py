import numpy as np
import pytest

from helpers import generate_reference, identity_standardizer, predict_zero_mse, take_windows, window_rows

from privtsf.data import ConfigurationError, Standardizer, bin_windows, build_windows, split_by_episode, write_triplets
from privtsf.forecaster import TrainConfig, bake_points, pretrain_embedding
from privtsf.metrics import mse_set
from privtsf.synth import GeneratorConfig, generate


class TestDeterminism:
    def test_identical_config_gives_identical_triplets(self):
        cfg = GeneratorConfig(n_episodes=8, seed=42)
        a, b = generate(cfg), generate(cfg)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            for col in ("t", "var_id", "value"):
                assert getattr(ea, col).tolist() == getattr(eb, col).tolist()
            assert ea.length_hours == eb.length_hours

    def test_byte_identical_csv(self, tmp_path):
        cfg = GeneratorConfig(n_episodes=8, seed=42)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_triplets(generate(cfg), str(p1))
        write_triplets(generate(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            GeneratorConfig(n_episodes=40, seed=11),
            GeneratorConfig(n_episodes=12, n_vars=5, latent_dim=5, stay_hours=(1, 9), dense_var_count=2, seed=3),
            GeneratorConfig(n_episodes=6, stay_hours=(30, 30), sparse_rate=0.5, seed=99),
            GeneratorConfig(n_episodes=0, seed=1),
        ],
    )
    def test_columns_equal_the_per_episode_reference(self, cfg):
        episodes = generate(cfg)
        reference = generate_reference(cfg)
        assert len(episodes) == len(reference)
        for e, (t, var, val, length) in zip(episodes, reference):
            assert (e.t.tobytes(), e.var_id.tobytes(), e.value.tobytes()) == (
                t.tobytes(),
                var.astype(np.int64).tobytes(),
                val.tobytes(),
            )
            assert e.length_hours == length

    def test_seed_changes_output(self):
        a = generate(GeneratorConfig(n_episodes=3, seed=1))
        b = generate(GeneratorConfig(n_episodes=3, seed=2))
        assert (a[0].t.tolist(), a[0].var_id.tolist(), a[0].value.tolist()) != (
            b[0].t.tolist(),
            b[0].var_id.tolist(),
            b[0].value.tolist(),
        )


class TestSparsity:
    def test_zero_rates_give_zero_triplets(self):
        cfg = GeneratorConfig(n_episodes=5, dense_var_count=0, sparse_rate=0.0, seed=0)
        assert all(len(e.t) == 0 for e in generate(cfg))

    def test_overall_missingness_in_band(self):
        # full-stay binning over 1000 default episodes
        episodes = generate(GeneratorConfig(n_episodes=1000, seed=7))
        std = identity_standardizer(16)
        observed = 0
        cells = 0
        for e in episodes:
            hours = int(e.length_hours)
            w = window_rows(bin_windows([(e, 0)], hours, 0, std))[0]
            observed += int(w.mask_in.sum())
            cells += hours * 16
        missing = 1.0 - observed / cells
        assert 0.85 <= missing <= 0.93, missing

    def test_dense_and_sparse_groups(self):
        episodes = generate(GeneratorConfig(n_episodes=300, seed=8))
        std = identity_standardizer(16)
        observed = np.zeros(16)
        hours = 0
        for e in episodes:
            h = int(e.length_hours)
            w = window_rows(bin_windows([(e, 0)], h, 0, std))[0]
            observed += w.mask_in.sum(axis=0)
            hours += h
        rate = observed / hours
        assert 1.0 - rate[0] < 0.15  # dense group misses under 15%
        assert np.all(1.0 - rate[1:] > 0.90)  # sparse group misses over 90%


class TestTemporalStructure:
    def test_dense_variable_lag1_autocorrelation(self):
        cfg = GeneratorConfig(n_episodes=400, ar_coefficient=0.95, seed=5)
        pairs = []
        for e in generate(cfg):
            hourly = {}
            for t, var, value in zip(e.t.tolist(), e.var_id.tolist(), e.value.tolist()):
                if var == 0:
                    hourly.setdefault(int(t), value)
            for h, v in hourly.items():
                if h + 1 in hourly:
                    pairs.append((v, hourly[h + 1]))
        x = np.array(pairs)
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.95) <= 0.05, corr


class TestConfigValidation:
    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(n_episodes=1, dense_rate=1.5)

    def test_bad_ar(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(n_episodes=1, ar_coefficient=1.0)

    def test_latent_dim_bound(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(n_episodes=1, latent_dim=99)


class TestLearnability:
    def test_trained_forecaster_beats_predict_zero(self):
        episodes = generate(GeneratorConfig(n_episodes=500, seed=13))
        tr, ho, _ = split_by_episode(episodes, seed=13)
        train_eps = [e for e in episodes if e.episode_id in tr]
        std = Standardizer.fit(train_eps, 16)
        tw = build_windows(train_eps, std)
        hw = build_windows([e for e in episodes if e.episode_id in ho], std)
        rng = np.random.default_rng(13)
        tw = take_windows(tw, np.sort(rng.choice(len(tw), 400, replace=False)))
        hw = take_windows(hw, np.sort(rng.choice(len(hw), 600, replace=False)))
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=80, hidden_dim=32, n=32, horizon=24, seed=13)
        emb, params = pretrain_embedding(tw, cfg)
        held = bake_points(hw, emb)
        assert mse_set(held, params) < predict_zero_mse(held)
