import json
import os

import numpy as np
import pytest

from helpers import identity_standardizer

from privtsf.augment import MixupConfig, ZooConfig
from privtsf.cli import _runconfig_from, build_parser, main
from privtsf.data import METRICS_HEADER, ConfigurationError, load_triplets, read_metrics_csv
from privtsf.forecaster import DpConfig, TrainConfig, init_params, save_checkpoint
from privtsf.runner import TRADEOFF_HEADER, RunConfig


def write_config(path, **overrides):
    cfg = {
        "n_vars": 16,
        "output_dir": str(path.parent / "out"),
        "split": [0.6, 0.2, 0.2],
        "train": {
            "learning_rate": 0.02,
            "batch_size": 32,
            "max_epochs": 20,
            "hidden_dim": 16,
            "n": 16,
            "horizon": 24,
        },
        "baseline_epochs": 40,
        "retrain_epochs": 1,
        "rounds": 1,
        "max_train_windows": 60,
        "max_eval_windows": 120,
        "zoo": {"alpha": 0.75, "lam": 30.0, "mu": 3.0, "k": 2, "steps": 2},
        "mixup_beta": 1.0,
        "dp": {"noise_multiplier": 1.1, "clip_norm": 2.0, "lr_scale": 100.0},
        "dp_sigma_grid": [1.1],
        "dp_epochs": 2,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert main(["gen-data", "--out", str(out), "--episodes", "5", "--seed", "3"]) == 0
        episodes = load_triplets(str(out), n_vars=16)
        assert len(episodes) == 5

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--out", str(a), "--episodes", "4", "--seed", "9"])
        main(["gen-data", "--out", str(b), "--episodes", "4", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["gen-data", "pretrain"])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"data": "missing.csv"}')  # pretrain fails on the seed before it reads data
        flags = {"gen-data": ["--out", str(tmp_path / "x.csv")], "pretrain": ["--config", str(cfg_path)]}[command]
        assert main([command, *flags, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -1")


class TestErrors:
    @pytest.mark.parametrize(
        "argv, in_config, directory",
        [
            (["pretrain", "--data", "INPUT"], False, False),
            (["pretrain"], True, False),
            (["pretrain"], True, True),
            (["attack", "--checkpoint", "INPUT"], False, False),
            (["augment", "--method", "zoo", "--checkpoint", "INPUT"], False, False),
            (["dp-train", "--checkpoint", "INPUT"], False, False),
            (["report", "--metrics", "INPUT"], False, False),
            (["pretrain", "--config", "INPUT", "--seed", "1"], False, False),
        ],
    )
    def test_missing_or_directory_input_exits_2_with_path(self, tmp_path, capsys, argv, in_config, directory):
        path = tmp_path / "input"
        if directory:
            path.mkdir()
        argv = [str(path) if a == "INPUT" else a for a in argv]
        if argv[0] == "report":
            argv += ["--out", str(tmp_path / "t.csv")]
        elif "--config" not in argv:
            config = tmp_path / "c.json"
            write_config(config, **({"data": str(path)} if in_config else {}))
            argv += ["--config", str(config), "--seed", "1"]
        assert main(argv) == 2
        assert f"error: cannot open {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(tmp_path / "x.csv"), "--seed", "1", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("field, bad", [("epoch", "x"), ("priv_ratio", "high")])
    def test_non_numeric_metrics_field_exits_1_naming_the_line(self, tmp_path, capsys, field, bad):
        metrics = tmp_path / "m.csv"
        row = dict(zip(METRICS_HEADER, ["r", "zoo", "0.75", "0", *["0.5"] * 7]), **{field: bad})
        metrics.write_text(",".join(METRICS_HEADER) + "\n" + ",".join(row[k] for k in METRICS_HEADER) + "\n")
        assert main(["report", "--metrics", str(metrics), "--out", str(tmp_path / "t.csv")]) == 1
        assert f"error: {metrics}:2: " in capsys.readouterr().err


class TestConfig:
    def test_unknown_top_level_key_exits_1_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, baseline_epoch=5)
        assert main(["pretrain", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "baseline_epoch" in capsys.readouterr().err

    def test_unknown_nested_key_exits_1_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, train={"lr": 0.1})
        assert main(["pretrain", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "unknown train key(s): lr" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [('{"rounds": 2,}', "is not valid JSON"), ("[1, 2]", "must hold a JSON object, got list")],
    )
    def test_malformed_config_file_exits_1_naming_it(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["pretrain", "--config", str(cfg_path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_path) in err and message in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"run_id": "caf\xe9"}', "is not valid JSON: 'utf-8' codec can't decode"),
            (b'{"split": [NaN, 0.5, 0.5]}', "holds NaN, which is not a JSON number"),
            (b'{"train": {"learning_rate": NaN}}', "holds NaN, which is not a JSON number"),
            (b'{"rounds": Infinity}', "holds Infinity, which is not a JSON number"),
            (b'{"dp": {"clip_norm": -Infinity}}', "holds -Infinity, which is not a JSON number"),
        ],
    )
    def test_config_that_is_not_utf8_json_exits_1_naming_it(self, tmp_path, capsys, content, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        assert main(["pretrain", "--config", str(cfg_path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and str(cfg_path) in err and message in err

    @pytest.mark.parametrize(
        "text, command, message",
        [
            ('{"train": {"learning_rate": 1e999}}', ["pretrain"], "learning_rate must be positive and finite, got inf"),
            ('{"data": "missing.csv", "pca_ratio": 1.5}', ["augment", "--method", "zoo-pca"], "pca_ratio must lie in"),
            ('{"data": "missing.csv", "dp_sigma_grid": [1.1, -1]}', ["dp-train"], "dp_sigma_grid entries must be >= 0"),
            ('{"generator": {"n_episodes": 30, "n_vars": 8}}', ["pretrain"], "generator n_vars must equal n_vars 16, got 8"),
            ('{"data": "missing.csv", "split": [0.5, 0.5, 0.5]}', ["pretrain"], "split_fractions must be 3 finite"),
            ('{"data": "missing.csv", "stride": 0}', ["pretrain"], "stride must be >= 1, got 0"),
            ('{"data": "missing.csv", "input_len": 0}', ["pretrain"], "input_len must be >= 1, got 0"),
            ('{"data": "missing.csv", "max_start": -4}', ["pretrain"], "max_start must be >= 0, got -4"),
        ],
    )
    def test_out_of_range_value_exits_1_naming_key_before_reading_data(self, tmp_path, capsys, text, command, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main([*command, "--config", str(cfg_path), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_string_rounds_exits_1_naming_key_and_type(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, rounds="3")
        assert main(["augment", "--method", "zoo", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "error: config key rounds must be int, got '3'" in capsys.readouterr().err

    def test_fractional_batch_size_exits_1_naming_key_and_type(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, train={"batch_size": 0.5})
        assert main(["pretrain", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "error: train key batch_size must be int, got 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, command",
        [
            ("max_train_windows", ["pretrain"]),
            ("max_eval_windows", ["pretrain"]),
            ("baseline_epochs", ["pretrain"]),
            ("retrain_epochs", ["augment", "--method", "zoo"]),
            ("samples_per_round", ["augment", "--method", "mixup"]),
            ("rounds", ["augment", "--method", "zoo"]),
            ("dp_epochs", ["dp-train"]),
        ],
    )
    def test_negative_count_exits_1_naming_key(self, tmp_path, capsys, key, command):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, **{key: -2})
        assert main([*command, "--config", str(cfg_path), "--seed", "1"]) == 1
        assert f"error: {key} must be >= 0, got -2" in capsys.readouterr().err
        assert getattr(RunConfig(method="baseline", seed=1, **{key: 0}), key) == 0  # zero stays valid

    @pytest.mark.parametrize(
        "cfg, ok",
        [
            ({"rounds": True}, False),
            ({"rounds": 3.0}, False),
            ({"pca_ratio": 1}, True),
            ({"pca_ratio": False}, False),
            ({"run_id": 5}, False),
            ({"run_id": None}, False),
            ({"split": [1, 0, 0]}, True),
            ({"split": [0.5, 0.5]}, False),
            ({"dp_sigma_grid": [1, 1.5]}, True),
            ({"dp_sigma_grid": 1.5}, False),
            ({"generator": {"stay_hours": [48.5, 96]}}, False),
        ],
    )
    def test_values_checked_against_field_types(self, cfg, ok):
        args = build_parser().parse_args(["pretrain", "--config", "c.json", "--seed", "5"])
        if ok:
            _runconfig_from(cfg, args, "baseline")
        else:
            with pytest.raises(ConfigurationError, match="must be"):
                _runconfig_from(cfg, args, "baseline")

    @pytest.mark.parametrize(
        "argv, method, extra",
        [
            (["pretrain"], "baseline", {}),
            (["attack", "--checkpoint", "c.npz"], "baseline", {"checkpoint": "c.npz"}),
            (["augment", "--method", "zoo"], "zoo", {"zoo": ZooConfig()}),
            (["augment", "--method", "zoo-pca"], "zoo_pca", {"zoo": ZooConfig()}),
            (["augment", "--method", "mixup"], "mixup", {"mixup": MixupConfig()}),
            (["dp-train"], "dp_sgd", {"dp": DpConfig()}),
        ],
    )
    def test_empty_config_takes_the_library_defaults(self, argv, method, extra):
        args = build_parser().parse_args(argv + ["--config", "c.json", "--seed", "5"])
        expected = RunConfig(method=method, seed=5, output_dir="out", train=TrainConfig(seed=5), **extra)
        assert _runconfig_from({}, args, method) == expected

    @pytest.mark.parametrize(
        "method, cfg, flag, run_id",
        [
            ("zoo", {"zoo": {"alpha": 1}}, ["--alpha", "1"], "zoo_a1.0_s31"),
            ("zoo_pca", {"zoo": {"alpha": 0.75}}, ["--alpha", "0.75"], "zoo_pca_a0.75_s31"),
            ("mixup", {"mixup_beta": 1}, ["--beta", "1"], "mixup_b1.0_s31"),
        ],
    )
    def test_one_parameter_value_gives_one_run_id(self, method, cfg, flag, run_id):
        argv = ["augment", "--method", method, "--config", "c.json", "--seed", "31"]
        from_json = _runconfig_from(cfg, build_parser().parse_args(argv), method)
        from_flag = _runconfig_from({}, build_parser().parse_args(argv + flag), method)
        assert from_json.resolved_run_id() == from_flag.resolved_run_id() == run_id

    def test_gate_tolerances_are_not_settable(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, eps_priv=0.01)
        assert main(["augment", "--method", "zoo", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "unknown config key(s): eps_priv" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["report", "--eps-priv", "0.01", "--metrics", "m.csv", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2

    def test_aliases_and_flags(self):
        cfg = {"data": "a.csv", "split": [0.5, 0.25, 0.25], "mixup_beta": 5.0, "generator": {"n_episodes": 9}}
        args = build_parser().parse_args(["augment", "--method", "mixup", "--config", "c.json", "--seed", "7"])
        got = _runconfig_from(cfg, args, "mixup")
        assert (got.data_path, got.split_fractions, got.mixup) == ("a.csv", (0.5, 0.25, 0.25), MixupConfig(beta=5.0))
        assert (got.generator.n_episodes, got.generator.seed) == (9, 7)
        argv = ["pretrain", "--config", "c.json", "--seed", "7", "--data", "b.csv", "--out-dir", "o", "--run-id", "r"]
        got = _runconfig_from({**cfg, "generator": {"seed": 3}}, build_parser().parse_args(argv), "baseline")
        assert (got.data_path, got.output_dir, got.run_id, got.generator.seed) == ("b.csv", "o", "r", 3)
        argv = ["augment", "--method", "mixup", "--config", "c.json", "--seed", "7", "--beta", "2"]
        assert _runconfig_from(cfg, build_parser().parse_args(argv), "mixup").mixup == MixupConfig(beta=2.0)


class TestCheckpointBinding:
    def test_attack_with_another_seed_exits_1_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "c.npz"
        emb, params = init_params(16, 16, 16, 24, seed=0, input_hours=24)
        save_checkpoint(str(ckpt), emb, params, identity_standardizer(16), seed=11)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, generator={"n_episodes": 30})
        argv = ["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--seed", "12"]
        assert main(argv) == 1
        assert "has seed 11, the run config 12" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "kind",
        [
            "text", "empty", "bad zip", "one array", "no w_state", "object array", "nan std_mean", "inf emb_weight",
            "nan emb_bias", "nan w_state", "-inf w_out",
        ],
    )
    def test_malformed_checkpoint_exits_1_naming_it(self, tmp_path, capsys, kind):
        ckpt = tmp_path / "c.npz"
        emb, params = init_params(16, 16, 16, 24, seed=0, input_hours=24)
        save_checkpoint(str(ckpt), emb, params, identity_standardizer(16), seed=12)
        with np.load(ckpt) as data:
            arrays = dict(data)
        if kind == "text":
            ckpt.write_text("version,1\n")
        elif kind == "empty":
            ckpt.write_bytes(b"")
        elif kind == "bad zip":
            ckpt.write_bytes(ckpt.read_bytes()[:100])
        elif kind == "one array":
            with open(ckpt, "wb") as fh:
                np.save(fh, params.w_state)
        elif kind == "no w_state":
            np.savez(ckpt, **{k: v for k, v in arrays.items() if k != "w_state"})
        elif kind == "object array":
            np.savez(ckpt, **{**arrays, "std_std": np.array([{}], dtype=object)})
        else:  # "<value> <key>": the key's first entry set to a NaN or an infinity
            value, key = kind.split()
            bad = arrays[key].copy()
            bad.flat[0] = float(value)
            np.savez(ckpt, **{**arrays, key: bad})
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, generator={"n_episodes": 30})
        argv = ["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--seed", "12"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt} "), err
        if kind.split()[0] in ("nan", "inf", "-inf"):
            expected = f"has non-finite values in {kind.split()[1]}"
        else:
            expected = "has no w_state" if kind == "no w_state" else "is not an npz archive of arrays"
        assert expected in err, err


class TestPipeline:
    """End-to-end command flow on a tiny corpus."""

    def test_full_flow(self, tmp_path):
        data = tmp_path / "corpus.csv"
        assert main(["gen-data", "--out", str(data), "--episodes", "120", "--seed", "17"]) == 0

        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, data=str(data))
        out = tmp_path / "out"

        assert main(["pretrain", "--config", str(cfg_path), "--seed", "17", "--run-id", "base"]) == 0
        ckpt = out / "checkpoint_base.npz"
        assert ckpt.exists()
        assert (out / "roc_base.csv").exists()

        assert (
            main(
                [
                    "augment",
                    "--config",
                    str(cfg_path),
                    "--method",
                    "zoo-pca",
                    "--alpha",
                    "0.75",
                    "--pca-ratio",
                    "0.7",
                    "--seed",
                    "17",
                    "--checkpoint",
                    str(ckpt),
                    "--run-id",
                    "zpca",
                ]
            )
            == 0
        )
        rows = read_metrics_csv(str(out / "metrics.csv"))
        zrows = [r for r in rows if r.run_id == "zpca"]
        assert len(zrows) == 2  # baseline row + 1 round
        assert all(r.method == "zoo_pca" for r in zrows)
        assert all(r.alpha_or_beta == "0.75" for r in zrows)

        assert (
            main(
                [
                    "attack",
                    "--config",
                    str(cfg_path),
                    "--checkpoint",
                    str(ckpt),
                    "--seed",
                    "17",
                    "--run-id",
                    "atk",
                ]
            )
            == 0
        )
        assert (out / "roc_atk.csv").exists()

        assert (
            main(
                [
                    "dp-train",
                    "--config",
                    str(cfg_path),
                    "--checkpoint",
                    str(ckpt),
                    "--seed",
                    "17",
                    "--run-id",
                    "dp",
                ]
            )
            == 0
        )
        rows = read_metrics_csv(str(out / "metrics.csv"))
        assert any(r.run_id == "dp" and r.alpha_or_beta == "1.1" for r in rows)

        tradeoff = tmp_path / "tradeoff.csv"
        assert main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(tradeoff)]) == 0
        lines = tradeoff.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRADEOFF_HEADER)
        assert len(lines) >= 4  # base + zpca + attack row + dp sigma

    def test_rounds_zero_is_respected(self, tmp_path):
        data = tmp_path / "corpus.csv"
        main(["gen-data", "--out", str(data), "--episodes", "100", "--seed", "19"])
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, data=str(data))
        assert (
            main(
                [
                    "augment",
                    "--config",
                    str(cfg_path),
                    "--method",
                    "zoo",
                    "--rounds",
                    "0",
                    "--seed",
                    "19",
                    "--run-id",
                    "z0",
                ]
            )
            == 0
        )
        rows = [r for r in read_metrics_csv(str(tmp_path / "out" / "metrics.csv")) if r.run_id == "z0"]
        assert len(rows) == 1  # baseline evaluation only
        assert rows[0].epoch == 0

    def test_report_alpha_grid(self, tmp_path):
        # five alpha runs produce five tradeoff rows for the method
        from privtsf.data import MetricsRow, write_report_csv

        rows = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            rid = f"zoo_pca_a{alpha}"
            for epoch, priv in ((0, 2.0), (1, 1.8)):
                rows.append(
                    MetricsRow(
                        run_id=rid,
                        method="zoo_pca",
                        alpha_or_beta=str(alpha),
                        epoch=epoch,
                        mse_test=0.5,
                        mse_heldout=0.6,
                        tpr_at_tau=0.4,
                        fpr_at_tau=0.3,
                        priv_ratio=priv,
                        auroc=0.6,
                        tau=0.5,
                    )
                )
        metrics_path = tmp_path / "metrics.csv"
        write_report_csv(rows, str(metrics_path))
        out = tmp_path / "tradeoff.csv"
        assert main(["report", "--metrics", str(metrics_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 rows

    def test_default_attack_ids_name_their_nonmembers(self, tmp_path):
        # attacks on test and on heldout non-members are two runs, and report keeps both
        ckpt = tmp_path / "c.npz"
        emb, params = init_params(16, 16, 16, 24, seed=0, input_hours=24)
        save_checkpoint(str(ckpt), emb, params, identity_standardizer(16), seed=12)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, generator={"n_episodes": 60})
        for nonmembers in ("test", "heldout"):
            argv = ["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--seed", "12"]
            assert main(argv + ["--nonmembers", nonmembers]) == 0
        out = tmp_path / "out"
        ids = ["attack_test_s12", "attack_heldout_s12"]
        assert [r.run_id for r in read_metrics_csv(str(out / "metrics.csv"))] == ids
        assert all((out / f"roc_{run_id}.csv").exists() for run_id in ids)
        tradeoff = tmp_path / "tradeoff.csv"
        assert main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(tradeoff)]) == 0
        assert [line.split(",")[0] for line in tradeoff.read_text().splitlines()[1:]] == ids

    def test_explicit_attack_ids_keep_their_nonmember_split_in_the_tradeoff(self, tmp_path):
        # with explicit run ids, the alpha_or_beta column tells a test attack from a heldout one
        ckpt = tmp_path / "c.npz"
        emb, params = init_params(16, 16, 16, 24, seed=0, input_hours=24)
        save_checkpoint(str(ckpt), emb, params, identity_standardizer(16), seed=12)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, generator={"n_episodes": 60})
        for run_id, nonmembers in (("atk_one", "test"), ("atk_two", "heldout")):
            argv = ["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--seed", "12"]
            assert main(argv + ["--nonmembers", nonmembers, "--run-id", run_id]) == 0
        out = tmp_path / "out"
        rows = read_metrics_csv(str(out / "metrics.csv"))
        assert [(r.run_id, r.method, r.alpha_or_beta) for r in rows] == [
            ("atk_one", "baseline", "test"),
            ("atk_two", "baseline", "heldout"),
        ]
        tradeoff = tmp_path / "tradeoff.csv"
        assert main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(tradeoff)]) == 0
        entries = [line.split(",")[:3] for line in tradeoff.read_text().splitlines()[1:]]
        assert entries == [["atk_one", "baseline", "test"], ["atk_two", "baseline", "heldout"]]
