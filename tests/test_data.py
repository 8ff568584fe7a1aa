import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bin_windows_reference,
    build_windows_reference,
    destandardize,
    identity_standardizer,
    same_windows,
    stacked_points,
    window_rows,
)
from helpers import episode as ep

from privtsf import data as data_module
from privtsf.augment import SyntheticPool
from privtsf.data import (
    ConfigurationError,
    Episode,
    MetricsRow,
    NO_POINTS,
    ParseError,
    PointRows,
    PointSet,
    Standardizer,
    ValidationError,
    WindowSet,
    bin_windows,
    build_windows,
    load_triplets,
    read_metrics_csv,
    split_by_episode,
    write_report_csv,
    write_roc_csv,
    write_triplets,
)
from privtsf.synth import GeneratorConfig, generate

HEADER = "episode_id,t_hours,var_id,value\n"
# (t, var_id, value) observations: times drawn from a small set often, so ties are common,
# and values at full precision (most need 17 significant digits to round-trip)
observations = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0]), st.floats(0.0, 200.0)),
    st.integers(0, 3),
    st.one_of(st.just(0.1 + 0.2), st.floats(allow_nan=False, allow_infinity=False)),
)


@st.composite
def binning_cases(draw):
    """Windows cut from a few episodes in an interleaved order, with a drawn standardizer.

    Times fall on whole hours (so on hour and block boundaries) and quarter
    hours often, so one hour and variable often holds several observations;
    horizon 0 and a single variable are in range.
    """
    n_vars = draw(st.integers(1, 3))
    input_len, horizon = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    span = input_len + horizon
    episodes = []
    for eid in range(draw(st.integers(1, 4))):
        length = draw(st.integers(span, span + 10))
        times = st.one_of(
            st.integers(0, length).map(float),
            st.integers(0, 4 * length).map(lambda q: q / 4),
            st.floats(0.0, float(length)),
        )
        obs = draw(st.lists(st.tuples(times, st.integers(0, n_vars - 1), st.floats(-1e6, 1e6)), max_size=40))
        episodes.append(ep(3 * eid + 1, obs, float(length)))
    picks = draw(st.lists(st.integers(0, len(episodes) - 1), max_size=12))
    starts = [(episodes[i], draw(st.integers(0, int(episodes[i].length_hours) - span))) for i in picks]
    mean = draw(st.lists(st.floats(-10.0, 10.0), min_size=n_vars, max_size=n_vars))
    scale = draw(st.lists(st.floats(0.1, 10.0), min_size=n_vars, max_size=n_vars))
    return starts, input_len, horizon, Standardizer(mean=np.array(mean), std=np.array(scale))


class TestBinningOracle:
    """bin_windows and build_windows against binning one window at a time (tests/helpers.py), bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=binning_cases(), chunk=st.sampled_from([1, 2, 3, 1024]))
    def test_equals_binning_each_window_alone(self, case, chunk):
        starts, input_len, horizon, std = case
        with mock.patch.object(data_module, "_BIN_CHUNK", chunk):
            got = bin_windows(starts, input_len, horizon, std)
        assert same_windows(got, bin_windows_reference(starts, input_len, horizon, std))

    def test_horizon_zero_with_one_variable(self):
        rng = np.random.default_rng(5)
        eps = [ep(i, list(zip(rng.uniform(0, 30, 60), [0] * 60, rng.standard_normal(60))), 30.0) for i in range(3)]
        starts = [(eps[i % 3], s) for i, s in enumerate([0, 6, 3, 22, 1, 0, 29])]
        std = Standardizer(mean=np.array([0.3]), std=np.array([2.0]))
        got = bin_windows(starts, 1, 0, std)
        assert got.target.shape == (7, 0, 1)
        assert same_windows(got, bin_windows_reference(starts, 1, 0, std))

    @pytest.mark.parametrize("limit", [0, 1, 40, 10_000])
    def test_build_keeps_the_references_windows(self, limit):
        episodes = generate(GeneratorConfig(n_episodes=150, seed=8))
        std = Standardizer.fit(episodes, 16)
        got = build_windows(episodes, std, limit=limit, rng=np.random.default_rng(9))
        if limit in (1, 40):
            assert len(got) == limit
        else:  # more windows than one binning pass holds
            assert len(got) > data_module._BIN_CHUNK
        assert same_windows(got, build_windows_reference(episodes, std, limit=limit, rng=np.random.default_rng(9)))

    @pytest.mark.parametrize(("limit", "rng", "message"), [
        (2, None, "limit 2 needs an rng"),
        (-1, None, "limit must be >= 0, got -1"),
        (-1, np.random.default_rng(0), "limit must be >= 0, got -1"),
    ])
    def test_bad_limit_is_config_error(self, limit, rng, message):
        episodes = generate(GeneratorConfig(n_episodes=5, seed=4))
        with pytest.raises(ConfigurationError, match=message):
            build_windows(episodes, Standardizer.fit(episodes, 16), limit=limit, rng=rng)


class TestBinning:
    def test_first_observation_per_hour_wins(self):
        e = ep(1, [(0.2, 0, 80.0), (0.7, 0, 90.0)], 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 24, identity_standardizer(4)))[0]
        assert w.values[0, 0] == 80.0
        assert w.mask_in[0, 0] == 1.0

    def test_unsorted_ingest_still_keeps_earliest(self):
        e = ep(1, [(0.7, 0, 90.0), (0.2, 0, 80.0)], 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 24, identity_standardizer(4)))[0]
        assert w.values[0, 0] == 80.0

    def test_unobserved_variable_yields_zero_column(self):
        e = ep(1, [(0.5, 0, 80.0)], 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 24, identity_standardizer(4)))[0]
        assert np.all(w.values[:, 3] == 0)
        assert np.all(w.mask_in[:, 3] == 0)

    def test_zscore_storage(self):
        std = Standardizer(mean=np.array([70.0]), std=np.array([10.0]))
        e = ep(1, [(0.5, 0, 80.0)], 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 24, std))[0]
        assert w.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_target_block_follows_same_rule(self):
        e = ep(1, [(25.3, 1, 5.0), (25.9, 1, 7.0)], 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 24, identity_standardizer(4)))[0]
        assert w.target[1, 1] == 5.0
        assert w.mask_out[1, 1] == 1.0

    def test_window_start_shifts_bucket_origin(self):
        e = ep(1, [(4.5, 0, 3.0)], 60.0)
        w = window_rows(bin_windows([(e, 4)], 24, 24, identity_standardizer(2)))[0]
        assert w.values[0, 0] == 3.0
        assert w.window_start == 4

    def test_window_beyond_stay_is_config_error(self):
        e = ep(1, [(0.5, 0, 1.0)], 40.0)
        with pytest.raises(ConfigurationError):
            bin_windows([(e, 0)], 24, 24, identity_standardizer(2))

    def test_variable_out_of_range_is_config_error(self):
        e = ep(1, [(0.5, 3, 1.0)], 48.0)
        with pytest.raises(ConfigurationError):
            bin_windows([(e, 0)], 24, 24, identity_standardizer(2))

    def test_idempotence_on_hour_aligned_episode(self):
        rng = np.random.default_rng(3)
        trips = [(float(h), f, float(rng.standard_normal())) for h in range(30) for f in range(3)]
        e = ep(1, trips, 48.0)
        w = window_rows(bin_windows([(e, 0)], 24, 6, identity_standardizer(3)))[0]
        grid = np.array([[v for (_, _, v) in trips[h * 3 : h * 3 + 3]] for h in range(24)])
        assert np.allclose(w.values, grid)
        assert np.all(w.mask_in == 1)

    def test_densification_loss_accounting(self):
        # discarded triplets == total triplets - set mask bits for full-stay binning
        rng = np.random.default_rng(4)
        trips = []
        for _ in range(200):
            trips.append((float(rng.uniform(0, 20)), int(rng.integers(0, 3)), float(rng.standard_normal())))
        e = ep(1, trips, 20.0)
        w = window_rows(bin_windows([(e, 0)], 20, 0, identity_standardizer(3)))[0]
        discarded = len(trips) - int(w.mask_in.sum())
        keys = {(math.floor(t), f) for t, f, _ in trips}
        assert discarded == len(trips) - len(keys)

    @settings(max_examples=80, deadline=None)
    @given(
        obs=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 3.0, 3.5, 7.25, 11.0]), st.floats(0.0, 16.0)),
                st.integers(0, 2),
                st.floats(-1e6, 1e6),
            ),
            max_size=40,
        ),
        start=st.integers(0, 4),
    )
    def test_first_observation_per_hour_and_variable_wins(self, obs, start):
        w = window_rows(bin_windows([(ep(1, obs, 16.0), start)], 8, 4, identity_standardizer(3)))[0]
        values, mask = np.zeros((12, 3)), np.zeros((12, 3))
        for t, var, val in sorted(obs, key=lambda o: o[0]):
            h = math.floor(t - start)
            if 0 <= h < 12 and not mask[h, var]:
                values[h, var], mask[h, var] = val, 1.0
        assert np.array_equal(np.vstack([w.values, w.target]), values)
        assert np.array_equal(np.vstack([w.mask_in, w.mask_out]), mask)

    def test_mask_value_consistency_full_scan(self):
        episodes = generate(GeneratorConfig(n_episodes=25, seed=9))
        std = Standardizer.fit(episodes, 16)
        for w in window_rows(build_windows(episodes, std)):
            assert np.all(w.values[w.mask_in == 0] == 0)
            assert np.all(w.target[w.mask_out == 0] == 0)


def admissible_starts(length_hours, stride=4, input_len=24, horizon=24, max_start=96) -> list[int]:
    """One stay's window starts as build_windows admits them, before the empty-target filter."""
    grid, fits = data_module._admissible(length_hours, input_len + horizon, stride, max_start)
    return grid[fits].tolist()


class TestSlidingWindows:
    def test_96_hour_stay(self):
        starts = admissible_starts(96.0, stride=4, input_len=24, horizon=24, max_start=96)
        assert starts == [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48]
        assert len(starts) == 13

    def test_short_stay_gives_empty_sequence(self):
        assert admissible_starts(47.0) == []
        assert len(build_windows([ep(1, [(0.0, 0, 1.0)], 47.0)], identity_standardizer(2))) == 0

    def test_long_stay_caps_at_max_start(self):
        starts = admissible_starts(1000.0)
        assert starts == list(range(0, 97, 4))
        assert len(starts) == 25

    def test_invalid_stride(self):
        e = ep(1, [(0.0, 0, 1.0)], 96.0)
        with pytest.raises(ConfigurationError):
            admissible_starts(96.0, stride=0)
        with pytest.raises(ConfigurationError):
            build_windows([e], identity_standardizer(2), stride=0)

    def test_empty_target_windows_dropped_by_builder(self):
        # single observation at hour 0: every window's target block is empty
        e = ep(1, [(0.2, 0, 1.0)], 96.0)
        assert len(build_windows([e], identity_standardizer(2))) == 0

    @pytest.mark.parametrize("limit", [0, 1, 40, 10_000])
    def test_capped_build_equals_capping_every_window(self, limit):
        # generated stays plus stays whose every target block is empty
        episodes = generate(GeneratorConfig(n_episodes=60, seed=4))
        episodes += [ep(1000 + i, [(0.2 + i, 0, 1.0)], 96.0) for i in range(3)]
        std = Standardizer.fit(episodes, 16)
        expected = window_rows(build_windows(episodes, std))
        rng = np.random.default_rng(9)
        if limit and len(expected) > limit:
            idx = np.sort(rng.choice(len(expected), size=limit, replace=False))
            expected = [expected[i] for i in idx]
        got = window_rows(build_windows(episodes, std, limit=limit, rng=np.random.default_rng(9)))
        assert [(w.episode_id, w.window_start) for w in got] == [(w.episode_id, w.window_start) for w in expected]
        for a, b in zip(got, expected):
            for name in ("values", "mask_in", "target", "mask_out"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_capped_build_checks_variables_of_every_admissible_episode(self):
        good = [ep(i, [(float(h), 0, 1.0) for h in range(96)], 96.0) for i in range(3)]
        bad = ep(9, [(1.0, 3, 1.0)], 96.0)  # admissible starts, but every target block is empty
        short = ep(10, [(1.0, 3, 1.0)], 40.0)  # no admissible start, never checked
        std = identity_standardizer(2)
        with pytest.raises(ConfigurationError, match="episode 9 uses variable index 3"):
            build_windows(good + [bad], std, limit=1, rng=np.random.default_rng(0))
        assert len(build_windows(good + [short], std, limit=1, rng=np.random.default_rng(0))) == 1


class TestWindowSet:
    def _windows(self, n_episodes=20, seed=5):
        episodes = generate(GeneratorConfig(n_episodes=n_episodes, seed=seed))
        std = Standardizer.fit(episodes, 16)
        return episodes, std, build_windows(episodes, std)

    def test_rows_equal_binning_each_window_alone(self):
        episodes, std, windows = self._windows()
        by_id = {e.episode_id: e for e in episodes}
        assert len(windows) > 0
        for w in window_rows(windows):
            alone = window_rows(bin_windows([(by_id[w.episode_id], w.window_start)], 24, 24, std))[0]
            for name in ("values", "mask_in", "target", "mask_out"):
                assert np.array_equal(getattr(w, name), getattr(alone, name))

    def test_arrays_and_columns_are_read_only(self):
        _, _, windows = self._windows(10, 6)
        for a in (windows.values, windows.mask_in, windows.target, windows.mask_out, windows.episode_id):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_column_length_checked(self):
        with pytest.raises(ConfigurationError, match="episode_id column"):
            WindowSet(
                values=np.zeros((2, 2, 1)),
                mask_in=np.zeros((2, 2, 1)),
                target=np.zeros((2, 1, 1)),
                mask_out=np.ones((2, 1, 1)),
                episode_id=[1, 2, 3],
            )


class TestSplit:
    def _episodes(self, count):
        return [ep(i, [(0.0, 0, 1.0)], 96.0) for i in range(count)]

    def test_sizes_and_disjointness(self):
        tr, ho, te = split_by_episode(self._episodes(10), (0.6, 0.2, 0.2), seed=1)
        assert (len(tr), len(ho), len(te)) == (6, 2, 2)
        assert not (tr & ho or tr & te or ho & te)
        assert tr | ho | te == set(range(10))

    def test_deterministic_for_fixed_seed(self):
        eps = self._episodes(30)
        assert split_by_episode(eps, seed=7) == split_by_episode(eps, seed=7)

    def test_patient_level_invariant(self):
        episodes = generate(GeneratorConfig(n_episodes=40, seed=2))
        tr, ho, te = split_by_episode(episodes, seed=3)
        std = Standardizer.fit([e for e in episodes if e.episode_id in tr], 16)
        seen = {}
        for name, ids in (("train", tr), ("heldout", ho), ("test", te)):
            for eid in build_windows([e for e in episodes if e.episode_id in ids], std).episode_id.tolist():
                assert seen.setdefault(eid, name) == name

    def test_every_window_of_episode_in_one_split(self):
        e = ep(5, [(float(h), 0, 1.0) for h in range(96)], 96.0)
        tr, ho, te = split_by_episode([e] + self._episodes(4), (0.6, 0.2, 0.2), seed=0)
        containing = [s for s in (tr, ho, te) if 5 in s]
        assert len(containing) == 1
        windows = build_windows([e], identity_standardizer(1))
        assert len(windows) == 13

    def test_empty_input(self):
        assert split_by_episode([], seed=0) == (set(), set(), set())

    def test_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            split_by_episode(self._episodes(4), (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("fractions", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (np.inf, 0.0, 0.0), (0.5, 0.5, -np.inf)])
    def test_non_finite_fractions(self, fractions):
        # NaN compares false with everything, so it must not slip past the range and sum checks
        with pytest.raises(ConfigurationError, match="finite non-negative values summing to 1"):
            split_by_episode(self._episodes(4), fractions, seed=0)


class TestStandardizer:
    def test_round_trip(self):
        episodes = generate(GeneratorConfig(n_episodes=10, seed=1))
        std = Standardizer.fit(episodes, 16)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(100) * 5 + 2
        ids = rng.integers(0, 16, 100)
        back = destandardize(std, std.standardize(v, ids), ids)
        assert np.max(np.abs(back - v)) < 1e-9

    def test_constant_variable_gets_unit_std(self):
        e = ep(1, [(float(h), 0, 42.0) for h in range(10)], 20.0)
        std = Standardizer.fit([e], 2)
        assert std.std[0] == 1.0
        assert std.mean[0] == 42.0
        assert std.std[1] == 1.0  # unseen variable

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ConfigurationError):
            Standardizer(mean=np.zeros(2), std=np.array([1.0, 0.0]))


class TestEpisodeValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            ep(1, [(-1.0, 0, 1.0)], 10.0)

    def test_time_beyond_length_rejected(self):
        with pytest.raises(ValidationError):
            ep(1, [(11.0, 0, 1.0)], 10.0)

    def test_triplets_sorted_after_construction(self):
        e = ep(1, [(5.0, 0, 1.0), (1.0, 0, 2.0)], 10.0)
        assert e.t.tolist() == [1.0, 5.0]

    @pytest.mark.parametrize("t, value", [(0.5, math.nan), (0.5, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_non_finite_time_or_value_rejected_naming_episode(self, t, value):
        with pytest.raises(ValidationError, match="^episode 7: non-finite"):
            Episode(7, [t], [0], [value], 1.0)


class TestWindowAndPointTypes:
    def test_sets_freeze_the_callers_contiguous_float64_arrays_in_place(self):
        # documented on both types: a contiguous float64 data array or contiguous bool mask is kept
        # uncopied and made read-only, while any other array is copied (a 0/1 float mask to bool,
        # after its check) and the caller's stays writable
        values, mask_in = np.zeros((2, 3, 1)), np.zeros((2, 3, 1), dtype=bool)
        target, mask_out = np.zeros((2, 1, 1)), np.ones((2, 1, 1), dtype=bool)
        ws = WindowSet(values=values, mask_in=mask_in, target=target, mask_out=mask_out)
        for name, arr in (("values", values), ("mask_in", mask_in), ("target", target), ("mask_out", mask_out)):
            assert getattr(ws, name) is arr and not arr.flags.writeable, name
        E, Y, M = np.zeros((2, 3, 2)), np.zeros((2, 1, 1)), np.ones((2, 1, 1), dtype=bool)
        pts = PointSet(E=E, Y=Y, M=M)
        for name, arr in (("E", E), ("Y", Y), ("M", M)):
            assert getattr(pts, name) is arr and not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            E[0, 0, 0] = 1.0
        strided, ints = np.zeros((2, 3, 4))[:, :, ::2], np.zeros((2, 1, 1), dtype=np.int64)
        float_mask = np.array([[[1.0]], [[0.0]]])
        pts = PointSet(E=strided, Y=ints, M=float_mask)
        assert strided.flags.writeable and ints.flags.writeable and float_mask.flags.writeable
        assert not any(np.shares_memory(a, b) for a, b in ((pts.E, strided), (pts.Y, ints), (pts.M, float_mask)))
        assert pts.M.dtype == bool and not pts.M.flags.writeable and pts.M.ravel().tolist() == [True, False]
        float_in, float_out = np.zeros((2, 3, 1)), np.ones((2, 1, 1))
        ws = WindowSet(values=values, mask_in=float_in, target=target, mask_out=float_out)
        assert ws.mask_in.dtype == ws.mask_out.dtype == bool
        assert float_in.flags.writeable and float_out.flags.writeable
        assert ws.mask_in.tolist() == float_in.tolist() and ws.mask_out.tolist() == float_out.tolist()

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_masks_outside_zero_and_one_are_rejected_before_the_cast(self, bad):
        # cast first, each of these would become True
        def mask(shape):
            m = np.ones(shape)
            m[0, 0, 0] = bad
            return m

        for name, shape in (("mask_in", (1, 2, 1)), ("mask_out", (1, 1, 1))):
            arrays = dict(values=np.zeros((1, 2, 1)), mask_in=np.ones((1, 2, 1)),
                          target=np.zeros((1, 1, 1)), mask_out=np.ones((1, 1, 1)))
            arrays[name] = mask(shape)
            with pytest.raises(ValidationError, match="mask entries must be 0 or 1"):
                WindowSet(**arrays)
        with pytest.raises(ValidationError, match="mask entries must be 0 or 1"):
            PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=mask((1, 1, 1)))

    def test_binned_masks_are_bool(self):
        episodes = generate(GeneratorConfig(n_episodes=10, seed=6))
        windows = build_windows(episodes, Standardizer.fit(episodes, 16))
        assert windows.mask_in.dtype == windows.mask_out.dtype == bool
        assert windows.mask_in.nbytes == windows.values.nbytes // 8

    def test_mask_must_be_binary(self):
        with pytest.raises(ValidationError):
            WindowSet(
                values=np.zeros((1, 2, 1)),
                mask_in=np.full((1, 2, 1), 0.5),
                target=np.zeros((1, 1, 1)),
                mask_out=np.ones((1, 1, 1)),
            )

    def test_unobserved_cells_must_hold_zero(self):
        with pytest.raises(ValidationError):
            WindowSet(
                values=np.ones((1, 2, 1)),
                mask_in=np.zeros((1, 2, 1)),
                target=np.zeros((1, 1, 1)),
                mask_out=np.ones((1, 1, 1)),
            )

    @pytest.mark.parametrize("bad", [1.0, -np.inf, np.nan])
    @pytest.mark.parametrize(
        ("block", "mask", "name"), [("values", "mask_in", "input"), ("target", "mask_out", "target")]
    )
    def test_unobserved_cell_holding_anything_but_zero_is_rejected(self, bad, block, mask, name):
        def arrays(unobserved):
            out = dict(
                values=np.zeros((2, 3, 2)), mask_in=np.ones((2, 3, 2)),
                target=np.zeros((2, 1, 2)), mask_out=np.ones((2, 1, 2)),
            )
            out[mask][1, 0, 1] = 0.0
            out[block][1, 0, 1] = unobserved
            out[block][0, 0, 0] = np.nan  # an observed cell may hold anything
            return out

        with pytest.raises(ValidationError, match=f"^unobserved {name} cells must hold 0$"):
            WindowSet(**arrays(bad))
        WindowSet(**arrays(0.0))

    def test_datapoint_arrays_read_only(self):
        p = PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=np.ones((1, 1, 1)))[0]
        with pytest.raises(ValueError):
            p.e[0, 0] = 1.0

    def test_point_mask_must_be_binary(self):
        with pytest.raises(ValidationError):
            PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=np.full((1, 1, 1), 0.5))

    @pytest.mark.parametrize("column, value", [("episode_id", 1.7), ("created_epoch", [np.nan]), ("episode_id", 2.0**70)])
    def test_point_provenance_must_be_whole_numbers(self, column, value):
        with pytest.raises(ConfigurationError, match=f"{column} column holds values that are not integers"):
            PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=np.ones((1, 1, 1)), **{column: [value]})
        whole = PointSet(E=np.zeros((1, 2, 2)), Y=np.ones((1, 1, 1)), M=np.ones((1, 1, 1)), **{column: [3.0]})
        assert getattr(whole, column).tolist() == [3]

    @pytest.mark.parametrize("column, value", [("episode_id", 2.9), ("window_start", 0.5)])
    def test_window_columns_must_be_whole_numbers(self, column, value):
        with pytest.raises(ConfigurationError, match=f"{column} column holds values that are not integers"):
            WindowSet(
                values=np.zeros((1, 2, 1)),
                mask_in=np.zeros((1, 2, 1)),
                target=np.zeros((1, 1, 1)),
                mask_out=np.ones((1, 1, 1)),
                **{column: [value]},
            )


def random_points(rng: np.random.Generator, count: int, epoch: int = 0) -> PointSet:
    """Random points whose episode ids are their positions plus 1000 times the epoch."""
    return PointSet(
        E=rng.standard_normal((count, 3, 2)),
        Y=rng.standard_normal((count, 2, 2)),
        M=(rng.random((count, 2, 2)) < 0.5).astype(float),
        episode_id=1000 * epoch + np.arange(count),
        created_epoch=epoch,
    )


class TestPointSetProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        picks=st.lists(st.integers(0, 23), max_size=30),
    )
    def test_indexing_and_concatenation_equal_stacked_rows(self, seed, sizes, picks):
        rng = np.random.default_rng(seed)
        a, b = random_points(rng, sizes[0], 1), random_points(rng, sizes[1], 2)
        both = PointRows((a, b), np.arange(sum(sizes)))[:]
        rows = list(a) + list(b)
        assert len(both) == len(rows)
        idx = np.array([i for i in picks if i < len(rows)], dtype=np.int64)
        for name, field in (("E", "e"), ("Y", "y"), ("M", "m")):
            stacked = np.array([getattr(r, field) for r in rows]).reshape(getattr(both, name).shape)
            assert getattr(both, name).tobytes() == stacked.tobytes()
            assert getattr(both[idx], name).tobytes() == stacked[idx].tobytes()
        assert [r.episode_id for r in both[idx]] == [rows[i].episode_id for i in idx]
        assert [r.created_epoch for r in both[idx]] == [rows[i].created_epoch for i in idx]
        assert [r.episode_id for r in both[1:]] == [r.episode_id for r in rows[1:]]
        assert not any(arr.flags.writeable for arr in (both.E, both[idx].Y, both[1:].M, both[idx].episode_id))

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 23), max_size=30),
        start=st.integers(0, 24),
        step=st.integers(1, 3),
    )
    def test_provenance_columns_stay_aligned_with_embeddings(self, sizes, picks, start, step):
        def tagged(epoch, count):
            """Points whose embedding holds their episode id in its first cell and their epoch in its second."""
            ids = 100 * epoch + np.arange(count)
            E = np.zeros((count, 1, 2))
            E[:, 0, 0], E[:, 0, 1] = ids, epoch
            Y, M = np.zeros((count, 1, 1)), np.ones((count, 1, 1))
            return PointSet(E=E, Y=Y, M=M, episode_id=ids, created_epoch=epoch)

        parts = [tagged(epoch, count) for epoch, count in enumerate(sizes, start=1)]
        both = PointRows(parts, np.arange(sum(sizes)))[:]
        idx = np.array([i for i in picks if i < len(both)], dtype=np.int64)
        for cut in (both, both[idx], both[start::step], both[::-1]):
            assert cut.episode_id.dtype == cut.created_epoch.dtype == np.int64
            assert cut.episode_id.tolist() == cut.E[:, 0, 0].tolist()
            assert cut.created_epoch.tolist() == cut.E[:, 0, 1].tolist()
            assert [(r.episode_id, r.created_epoch) for r in cut] == list(zip(cut.E[:, 0, 0], cut.E[:, 0, 1]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 8), min_size=1, max_size=3),
        index=st.lists(st.integers(0, 23), min_size=1, max_size=30),
        picks=st.lists(st.integers(0, 29), max_size=12),
    )
    def test_point_rows_equal_rows_of_the_joined_selection(self, seed, sizes, index, picks):
        rng = np.random.default_rng(seed)
        parts = [random_points(rng, count, epoch) for epoch, count in enumerate(sizes, start=1)]
        joined = stacked_points(*parts)
        index = np.array([i for i in index if i < len(joined)], dtype=np.int64)
        if not len(index):
            return
        selected, rows = joined[index], PointRows(parts, index)
        assert len(rows) == len(selected)
        idx = np.array([i for i in picks if i < len(index)], dtype=np.int64)
        got, want = rows[idx], selected[idx]
        for name in (*PointSet._ARRAYS, *PointSet._COLUMNS):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert a.flags.c_contiguous and not a.flags.writeable, name

    def test_point_rows_check_their_index(self):
        pts = random_points(np.random.default_rng(0), 3, 1)
        with pytest.raises(ConfigurationError, match="outside the 3 joined rows"):
            PointRows([pts], [0, 3])
        with pytest.raises(ConfigurationError, match="different shapes"):
            PointRows([pts, PointSet(E=np.zeros((1, 1, 1)), Y=np.zeros((1, 1, 1)), M=np.ones((1, 1, 1)))], [0])

    def test_point_rows_without_rows_take_the_first_parts_shape(self):
        pts = random_points(np.random.default_rng(0), 3, 1)
        for parts, shape in (((pts[:0], NO_POINTS), (0, 3, 2)), ((NO_POINTS, pts[:0]), (0, 0, 0))):
            rows = PointRows(parts, np.arange(0))[:]
            assert rows.E.shape == shape and len(rows.episode_id) == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cap=st.integers(0, 6), inserts=st.lists(st.integers(0, 9), max_size=8))
    def test_pool_keeps_the_newest_cap_rows_in_order(self, seed, cap, inserts):
        rng = np.random.default_rng(seed)
        pool = SyntheticPool(cap=cap)
        inserted = []
        for epoch, count in enumerate(inserts, start=1):
            wave = random_points(rng, count, epoch)
            pool.insert(wave)
            inserted.extend(wave)
            newest = inserted[-cap:] if cap else []
            assert [p.episode_id for p in pool.items] == [p.episode_id for p in newest]
            assert pool.items.E.tobytes() == b"".join(p.e.tobytes() for p in newest)
            assert len(pool) == len(newest)


class TestTripletIO:
    def test_row_parsing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n7,0.25,3,91.5\n")
        episodes = load_triplets(str(path), n_vars=4)
        assert len(episodes) == 1
        e = episodes[0]
        assert e.episode_id == 7
        assert (e.t.tolist(), e.var_id.tolist(), e.value.tolist()) == ([0.25], [3], [91.5])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert load_triplets(str(path), n_vars=4) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n")
        assert load_triplets(str(path), n_vars=4) == []

    def test_negative_time_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n1,0.5,0,1.0\n1,-2.0,0,1.0\n")
        with pytest.raises(ValidationError, match=":3:"):
            load_triplets(str(path), n_vars=4)

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"episode_id,t_hours,var_id,value\xe9\n1,0.5,0,1.0\n", 1),
            (b"episode_id,t_hours,var_id,value\n1,0.5,0,1.0\n1,0.7,0,\xff1.0\n", 3),
            (b"episode_id,t_hours,var_id,value\n" + b"1,0.5,0,1.0\r\n" * 2000 + b"2,0.5,\xc3,1.0\r\n", 2002),
            (b"episode_id,t_hours,var_id,value\n" + b"1,0.5,0,1.0\r\n" * 90000 + b"2,0.5,\xc3,1.0\r\n", 90002),
        ],
        ids=["header", "row", "row-past-the-first-read-buffer", "row-past-the-first-check-chunk"],
    )
    def test_bytes_that_are_not_utf8_raise_parse_error_naming_the_line(self, tmp_path, body, line):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: not UTF-8")):
            load_triplets(str(path), n_vars=4)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"episode_id,t_hours,var_id,value\n1,abc,0,1.0\n1,0.7,0,\xff1.0\n", ":2: could not convert"),
            (b"episode_id,t_hours,var_id,value\n1,0.7,0,\xff1.0\n1,abc,0,1.0\n", ":2: not UTF-8"),
            (b"episode_id,t_hours,var_id,value\n1,0.5,9,1.0\n1,0.7,0,\xff1.0\n", ":2: variable index 9"),
            (b"episode_id,t_hours,var_id,value\n" + b"1,0.5,0,1.0\n" * 90000 + b"1,abc,0,1.0\n", ":90002: could not convert"),
        ],
        ids=["malformed-then-not-utf8", "not-utf8-then-malformed", "invalid-then-not-utf8", "malformed-past-the-first-check-chunk"],
    )
    def test_first_bad_line_is_named_whichever_its_fault(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises((ParseError, ValidationError), match=re.escape(f"{path}{message}")):
            load_triplets(str(path), n_vars=4)

    def test_plain_body_longer_than_one_check_chunk(self, tmp_path):
        # the vectorized pass checks the body in 1 MiB chunks, then reads it again from its first row
        path = tmp_path / "t.csv"
        rows = b"".join(b"%d,%d.5,%d,-1e3\r\n" % (i % 9, i, i % 4) for i in range(90000))
        path.write_bytes(b"episode_id,t_hours,var_id,value\r\n" + rows)
        episodes = load_triplets(str(path), n_vars=4)
        assert [e.episode_id for e in episodes] == list(range(9))
        assert [len(e.t) for e in episodes] == [10000] * 9
        assert episodes[0].t[0] == 0.5 and episodes[8].t[-1] == 89999.5
        assert all(e.value.tolist() == [-1000.0] * 10000 for e in episodes)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n1,abc,0,1.0\n")
        with pytest.raises(ParseError, match=":2:"):
            load_triplets(str(path), n_vars=4)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n1,0.5,0\n")
        with pytest.raises(ParseError, match="4 fields"):
            load_triplets(str(path), n_vars=4)

    def test_unknown_variable_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n1,0.5,9,1.0\n")
        with pytest.raises(ValidationError, match="variable index 9"):
            load_triplets(str(path), n_vars=4)

    def test_python_number_grammar_accepted(self, tmp_path):
        # numpy's parser rejects underscores; the line-by-line pass reads them as Python does
        path = tmp_path / "t.csv"
        path.write_text("episode_id,t_hours,var_id,value\n7,1_0.5,3,9_1.5\n")
        (e,) = load_triplets(str(path), n_vars=4)
        assert (e.episode_id, e.t.tolist(), e.var_id.tolist(), e.value.tolist()) == (7, [10.5], [3], [91.5])

    def test_write_load_round_trip(self, tmp_path):
        episodes = generate(GeneratorConfig(n_episodes=5, seed=3))
        path = tmp_path / "corpus.csv"
        write_triplets(episodes, str(path))
        loaded = load_triplets(str(path), n_vars=16)
        assert len(loaded) == len(episodes)
        for a, b in zip(episodes, loaded):
            assert a.episode_id == b.episode_id
            assert len(a.t) == len(b.t)
            for col in ("t", "var_id", "value"):
                assert getattr(a, col).tolist() == getattr(b, col).tolist()


class TestTripletIOProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpus=st.dictionaries(st.integers(-5, 10**12), st.lists(observations, min_size=1, max_size=12), max_size=6))
    def test_write_load_round_trip_is_exact(self, tmp_path_factory, corpus):
        episodes = [ep(eid, obs, max(math.ceil(max(o[0] for o in obs)), 1)) for eid, obs in corpus.items()]
        path = str(tmp_path_factory.mktemp("io") / "c.csv")
        write_triplets(episodes, path)
        loaded = load_triplets(path, n_vars=4)
        assert [e.episode_id for e in loaded] == sorted(corpus)
        written = {e.episode_id: e for e in episodes}
        for e in loaded:
            for col in ("t", "var_id", "value"):
                assert getattr(e, col).tobytes() == getattr(written[e.episode_id], col).tobytes()
            assert e.length_hours == max(math.ceil(e.t[-1]), 1)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 3), observations), max_size=30))
    def test_rows_grouped_by_id_and_stable_sorted_by_time(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("io") / "c.csv"
        path.write_text(HEADER + "".join(f"{eid},{t!r},{var},{val!r}\n" for eid, (t, var, val) in rows))
        loaded = load_triplets(str(path), n_vars=4)
        assert [e.episode_id for e in loaded] == sorted({eid for eid, _ in rows})
        for e in loaded:
            expected = sorted((obs for eid, obs in rows if eid == e.episode_id), key=lambda o: o[0])
            got = zip(e.t.tolist(), e.var_id.tolist(), e.value.tolist())
            assert [(repr(t), var, repr(val)) for t, var, val in got] == [(repr(t), v, repr(x)) for t, v, x in expected]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_episodes=st.integers(0, 6),
        n_vars=st.integers(1, 6),
        sparse_rate=st.floats(0.0, 1.0),
        stay=st.tuples(st.integers(1, 30), st.integers(0, 30)),
    )
    def test_generated_corpus_survives_a_load_write_cycle_byte_for_byte(
        self, tmp_path_factory, seed, n_episodes, n_vars, sparse_rate, stay
    ):
        cfg = GeneratorConfig(
            n_episodes=n_episodes,
            n_vars=n_vars,
            latent_dim=1,
            dense_var_count=1,
            sparse_rate=sparse_rate,
            stay_hours=(stay[0], stay[0] + stay[1]),
            seed=seed,
        )
        first, second = (tmp_path_factory.mktemp("io") / "c.csv" for _ in range(2))
        write_triplets(generate(cfg), str(first))
        write_triplets(load_triplets(str(first), n_vars=n_vars), str(second))
        assert first.read_bytes() == second.read_bytes()

    BAD_LINES = {
        "field count": ("1,0.5,0", ParseError),
        "number": ("1,abc,0,1.0", ParseError),
        "underscored number": ("1,0.5,0,1_0x", ParseError),
        "non-finite": ("1,0.5,0,nan", ParseError),
        "control character": ("1,0.5,0,1.0\x1c", ParseError),  # whitespace to numpy, not to float()
        "negative time": ("1,-2.0,0,1.0", ValidationError),
        "variable": ("1,0.5,9,1.0", ValidationError),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        good=st.lists(st.tuples(st.integers(0, 5), observations), min_size=2, max_size=30),
        kinds=st.tuples(st.sampled_from(sorted(BAD_LINES)), st.sampled_from(sorted(BAD_LINES))),
        data=st.data(),
    )
    def test_two_bad_lines_name_the_first(self, tmp_path_factory, good, kinds, data):
        lines = [f"{eid},{t!r},{var},{val!r}" for eid, (t, var, val) in good]
        first = data.draw(st.integers(0, len(lines) - 1))
        second = data.draw(st.integers(first + 1, len(lines)))
        lines.insert(second, self.BAD_LINES[kinds[1]][0])
        lines.insert(first, self.BAD_LINES[kinds[0]][0])
        path = tmp_path_factory.mktemp("io") / "c.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        with pytest.raises(self.BAD_LINES[kinds[0]][1], match=f"^{re.escape(str(path))}:{first + 2}:"):
            load_triplets(str(path), n_vars=4)


class TestReportIO:
    def _row(self, **kw):
        base = dict(
            run_id="r1",
            method="zoo",
            alpha_or_beta="0.75",
            epoch=1,
            mse_test=0.5,
            mse_heldout=0.6,
            tpr_at_tau=0.1,
            fpr_at_tau=0.05,
            priv_ratio=2.0,
            auroc=0.7,
            tau=0.55,
        )
        base.update(kw)
        return MetricsRow(**base)

    def test_metrics_round_trip_including_inf(self, tmp_path):
        rows = [self._row(), self._row(epoch=2, priv_ratio=math.inf, mse_test=1 / 3)]
        path = tmp_path / "metrics.csv"
        write_report_csv(rows, str(path))
        back = read_metrics_csv(str(path))
        assert back == rows
        assert "inf" in path.read_text()

    def test_bytes_that_are_not_utf8_raise_parse_error_naming_the_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_report_csv([self._row(), self._row(epoch=2)], str(path))
        path.write_bytes(path.read_bytes().replace(b"r1,zoo,0.75,2,", b"r\xff,zoo,0.75,2,"))
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: not UTF-8")):
            read_metrics_csv(str(path))

    def test_malformed_row_before_bytes_that_are_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_report_csv([self._row(), self._row(epoch=2)], str(path))
        body = path.read_bytes().replace(b"r1,zoo,0.75,1,", b"r1,zoo,0.75,x,").replace(b"r1,zoo,0.75,2,", b"r\xff,zoo,0.75,2,")
        path.write_bytes(body)
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: invalid literal")):
            read_metrics_csv(str(path))

    metric_floats = st.one_of(st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf]))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.builds(
                MetricsRow,
                run_id=st.text(alphabet="ab_,.\" 0", min_size=1, max_size=6),
                method=st.sampled_from(["baseline", "zoo", "zoo_pca", "mixup", "dp_sgd"]),
                alpha_or_beta=st.sampled_from(["", "0.75", "1.1"]),
                epoch=st.integers(0, 10**6),
                mse_test=metric_floats,
                mse_heldout=metric_floats,
                tpr_at_tau=metric_floats,
                fpr_at_tau=metric_floats,
                priv_ratio=metric_floats,
                auroc=metric_floats,
                tau=metric_floats,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_metrics_round_trip_any_floats(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
        write_report_csv(rows, str(path))
        assert read_metrics_csv(str(path)) == rows

    def test_append_mode_keeps_single_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_report_csv([self._row()], str(path))
        write_report_csv([self._row(epoch=2)], str(path))
        text = path.read_text()
        assert text.count("run_id") == 1
        assert len(read_metrics_csv(str(path))) == 2

    def test_roc_csv_format(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv([(-math.inf, 0.0, 0.0), (0.5, 0.25, 0.75), (math.inf, 1.0, 1.0)], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("-inf")
        assert lines[-1].startswith("inf")
