"""Config plumbing, CLI behavior, metrics files, determinism."""

import argparse
import dataclasses
import json
import math
import os

import pytest

from splitmix.cli import _add_common_flags, build_config, main
from splitmix.config import ExperimentConfig
from splitmix.errors import ContractError
from splitmix import runner
from splitmix.runner import CSV_SCHEMA, run_attack_suite, run_experiment


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(method="cutmixsl", n_clients=3, k_way=3, alpha="uniform",
                               shuffle=True, gradient_mode="broadcast",
                               noise_x=0.1, dirichlet_mu=0.5, seed=9)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(again.to_dict()))) == again

    def test_alpha_spellings(self):
        assert ExperimentConfig(alpha="inf").alpha_value == math.inf
        assert ExperimentConfig(alpha="uniform").alpha_value == 1.0
        assert ExperimentConfig(alpha=6).alpha_value == 6.0
        with pytest.raises(ContractError):
            ExperimentConfig(alpha="sometimes")

    def test_method_validation(self):
        with pytest.raises(ContractError):
            ExperimentConfig(method="splitfed", k_way=2)
        with pytest.raises(ContractError):
            ExperimentConfig(method="cutmixsl", k_way=1)

    def test_fedavg_derived_from_method(self):
        assert ExperimentConfig(method="splitfed").fedavg_enabled
        assert ExperimentConfig(method="cutmixsfl", k_way=2).fedavg_enabled
        assert not ExperimentConfig(method="parallel_sl").fedavg_enabled
        assert not ExperimentConfig(method="cutmixsl_ktimes", k_way=2).fedavg_enabled

    @pytest.mark.parametrize("raw,field", [
        ({"n_clients": "4"}, "n_clients"), ({"lr": "x"}, "lr"), ({"k_way": 2.5}, "k_way"),
        ({"n_clients": True}, "n_clients"), ({"seed": 1.0}, "seed")])
    def test_field_types_checked(self, raw, field, tmp_path, capsys):
        with pytest.raises(ContractError, match=field):
            ExperimentConfig.from_dict(raw)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_annotation_types(self):
        ExperimentConfig(lr=1, keep_ratio=1, alpha="inf", shuffle=True, data_dir=None,
                         synthetic_radius=None, attack_keep_ratio=None)
        for bad in ({"write_transcript": 1}, {"shuffle": None}, {"alpha": None},
                    {"out_dir": 3}, {"attack_keep_ratio": "half"}):
            with pytest.raises(ContractError, match=next(iter(bad))):
                ExperimentConfig(**bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ContractError, match="mystery"):
            ExperimentConfig.from_dict({"mystery": 1})

    def test_removed_key_and_flag_are_usage_errors(self, tmp_path, capsys):
        # The method alone decides FedAvg, and cutout has one mask mode.
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"fedavg": True}))
        assert main(["train", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys") and "fedavg" in err
        assert main(["train", "--mask-mode", "fixed"]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "--mask-mode" in err

    def test_data_dir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPLITMIX_DATA_DIR", "/data/somewhere")
        assert ExperimentConfig().resolved_data_dir() == "/data/somewhere"
        assert ExperimentConfig(data_dir="/x").resolved_data_dir() == "/x"


class TestCliParsing:
    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"method": "cutmixsl", "k_way": 2,
                                        "epochs": 3, "seed": 5}))
        namespace = argparse.Namespace(
            command="train", config=str(cfg_file),
            **{f.name: None for f in dataclasses.fields(ExperimentConfig)})
        namespace.seed = 11
        cfg = build_config(namespace)
        assert cfg.method == "cutmixsl" and cfg.k_way == 2  # from file
        assert cfg.seed == 11  # flag wins
        assert cfg.epochs == 3

    def test_flag_surface_is_frozen(self):
        parser = argparse.ArgumentParser()
        _add_common_flags(parser)
        surface = [(a.option_strings, a.dest, a.type and a.type.__name__, a.choices,
                    type(a).__name__) for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert surface == FLAG_SURFACE

    def test_config_file_must_be_an_object(self, tmp_path, capsys):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text("[1, 2]")
        assert main(["train", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_config_is_usage_error(self, capsys):
        code = main(["train", "--method", "cutmixsl", "--k-way", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_is_a_usage_error(self, tmp_path, capsys):
        # Checked before any work: with the default config, `attack` would
        # otherwise train its snapshot first.
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for command in ("train", "attack"):
            for out_dir in (taken, taken / "sub"):
                assert main([command, "--out-dir", str(out_dir)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: out_dir ") and str(out_dir) in err
        assert taken.read_text() == "keep"

    def test_counts_below_one_are_usage_errors(self, capsys):
        for field in ("eval_every", "batch_size", "epochs", "n_clients",
                      "attack_pretrain_epochs", "k_way", "attack_batch_size",
                      "attack_decoder_width", "attack_epochs"):
            code = main(["train", "--" + field.replace("_", "-"), "0"])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err

    def test_out_of_range_values_are_usage_errors(self, capsys):
        for flags in (["--method", "cutmixsl", "--k-way", "3"],  # n_clients defaults to 2
                      ["--synthetic-classes", "20"],  # both profiles have 10 classes
                      ["--lr", "-1"], ["--warmup-epochs", "-3"], ["--cifar-subset", "-5"],
                      ["--synthetic-test", "0"],
                      *(["--method", "cutmixsl", "--k-way", "2", "--alpha", value]
                        for value in ("0", "-1", "nan")),
                      ["--attack-alpha", "0"], ["--attack-keep-ratio", "2"],
                      ["--partition", "dirichlet", "--dirichlet-mu", "0"],
                      ["--attack-lr", "-1"], ["--attack-decoder-depth", "-1"],
                      ["--weight-decay", "-1"],
                      ["--synthetic-noise", "-0.1"], ["--synthetic-jitter", "-1"],
                      ["--synthetic-mosaic", "-0.2"], ["--synthetic-radius", "0"],
                      ["--synthetic-radius", "-2"], ["--synthetic-samples", "0"],
                      ["--n-clients", "4", "--synthetic-samples", "3"]):
            field = flags[-2][2:].replace("-", "_")
            code = main(["train", *flags])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err

    def test_negative_noise_is_a_usage_error(self, capsys):
        # run_round adds noise only above 0, so a negative scale would train without it.
        for flag, value in (("--noise-x", "-1"), ("--noise-y", "-0.5")):
            code = main(["train", flag, value])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flag[2:].replace("-", "_") in err

    def test_parser_errors_return_2_and_help_returns_0(self, capsys):
        for argv, needle in ((["train", "--method", "sgd"], "--method"),
                             (["attack", "--epochs", "two"], "--epochs"),
                             (["train", "--no-such-flag"], "--no-such-flag"),
                             ([], "command")):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "error: " in err and needle in err, argv
        assert main(["train", "--help"]) == 0
        assert "--epochs" in capsys.readouterr().out

    def test_iid_shards_below_a_batch_fail_before_any_data(self, capsys, monkeypatch):
        small = {"synthetic_samples": 127, "n_clients": 4, "batch_size": 32}
        with pytest.raises(ContractError, match="synthetic_samples.*n_clients.*batch_size"):
            ExperimentConfig.from_dict(small)
        ExperimentConfig.from_dict({**small, "synthetic_samples": 128})
        # Dirichlet shard sizes are drawn with the data; TrainingSystem checks them.
        ExperimentConfig.from_dict({**small, "partition_mode": "dirichlet"})
        monkeypatch.setattr(runner, "load_experiment_data", lambda cfg: pytest.fail("data built"))
        assert main(["train", "--synthetic-samples", "127", "--n-clients", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic_samples 127 over n_clients 4")
        assert "batch_size 32" in err


STORE, BOOL = "_StoreAction", "BooleanOptionalAction"
FLAG_SURFACE = [
    (["--config"], "config", None, None, STORE),
    (["--method"], "method", None,
     ("parallel_sl", "splitfed", "cutmixsl", "cutmixsfl", "cutmixsl_ktimes"), STORE),
    (["--n-clients"], "n_clients", "int", None, STORE),
    (["--k-way"], "k_way", "int", None, STORE),
    (["--alpha"], "alpha", None, None, STORE),
    (["--shuffle", "--no-shuffle"], "shuffle", None, None, BOOL),
    (["--gradient-mode"], "gradient_mode", None, ("unicast", "broadcast"), STORE),
    (["--fedavg-cadence"], "fedavg_cadence", None, ("epoch", "round"), STORE),
    (["--keep-ratio"], "keep_ratio", "float", None, STORE),
    (["--noise-x"], "noise_x", "float", None, STORE),
    (["--noise-y"], "noise_y", "float", None, STORE),
    (["--dataset"], "dataset", None, ("synthetic", "cifar10"), STORE),
    (["--data-dir"], "data_dir", None, None, STORE),
    (["--cifar-subset"], "cifar_subset", "int", None, STORE),
    (["--synthetic-samples"], "synthetic_samples", "int", None, STORE),
    (["--synthetic-test"], "synthetic_test", "int", None, STORE),
    (["--synthetic-classes"], "synthetic_classes", "int", None, STORE),
    (["--synthetic-noise"], "synthetic_noise", "float", None, STORE),
    (["--synthetic-jitter"], "synthetic_jitter", "float", None, STORE),
    (["--synthetic-radius"], "synthetic_radius", "float", None, STORE),
    (["--synthetic-mosaic"], "synthetic_mosaic", "float", None, STORE),
    (["--partition"], "partition_mode", None, ("iid", "dirichlet"), STORE),
    (["--dirichlet-mu"], "dirichlet_mu", "float", None, STORE),
    (["--profile"], "profile", None, ("paper", "desk"), STORE),
    (["--lr"], "lr", "float", None, STORE),
    (["--weight-decay"], "weight_decay", "float", None, STORE),
    (["--warmup-epochs"], "warmup_epochs", "int", None, STORE),
    (["--epochs"], "epochs", "int", None, STORE),
    (["--batch-size"], "batch_size", "int", None, STORE),
    (["--eval-every"], "eval_every", "int", None, STORE),
    (["--seed"], "seed", "int", None, STORE),
    (["--out-dir"], "out_dir", None, None, STORE),
    (["--transcript", "--no-transcript"], "write_transcript", None, None, BOOL),
    (["--attack-decoder-width"], "attack_decoder_width", "int", None, STORE),
    (["--attack-decoder-depth"], "attack_decoder_depth", "int", None, STORE),
    (["--attack-epochs"], "attack_epochs", "int", None, STORE),
    (["--attack-batch-size"], "attack_batch_size", "int", None, STORE),
    (["--attack-lr"], "attack_lr", "float", None, STORE),
    (["--attack-keep-ratio"], "attack_keep_ratio", "float", None, STORE),
    (["--attack-alpha"], "attack_alpha", "float", None, STORE),
    (["--attack-pretrain-epochs"], "attack_pretrain_epochs", "int", None, STORE),
]


def fast_cfg(tmp_path, **overrides):
    base = dict(method="parallel_sl", n_clients=2, dataset="synthetic",
                synthetic_samples=128, synthetic_test=64, epochs=2,
                warmup_epochs=1, batch_size=16, seed=3,
                out_dir=str(tmp_path / "run"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_runner_checks_out_dir_before_any_work(tmp_path, monkeypatch):
    # Library callers, which bypass the CLI's check, get the OSError before
    # the data is loaded or the attack snapshot trained.
    def never(*args):
        pytest.fail("work started before out_dir was created")

    monkeypatch.setattr(runner, "load_experiment_data", never)
    monkeypatch.setattr(runner, "train_snapshot", never)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out_dir in (taken, taken / "sub"):
        for run in (run_experiment, run_attack_suite):
            with pytest.raises(OSError):
                run(fast_cfg(tmp_path, out_dir=str(out_dir)))
    assert taken.read_text() == "keep"


class TestRunExperiment:
    def test_metrics_files_and_schema(self, tmp_path):
        summary = run_experiment(fast_cfg(tmp_path))
        csv_path = os.path.join(summary["metrics_csv"])
        lines = open(csv_path).read().splitlines()
        assert lines[0] == f"# {CSV_SCHEMA}"
        assert lines[1] == "round,client0_bytes,client1_bytes,total_bytes,server_updates,loss,acc"
        assert len(lines) == 2 + summary["rounds"]
        saved = json.load(open(os.path.join(tmp_path, "run", "summary.json")))
        assert saved["total_uplink_bytes"] == summary["total_uplink_bytes"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = fast_cfg(tmp_path, out_dir=str(tmp_path / "a"), method="cutmixsl",
                         k_way=2, alpha=6.0, seed=7)
        cfg_b = fast_cfg(tmp_path, out_dir=str(tmp_path / "b"), method="cutmixsl",
                         k_way=2, alpha=6.0, seed=7)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        csv_a = open(tmp_path / "a" / "metrics.csv", "rb").read()
        csv_b = open(tmp_path / "b" / "metrics.csv", "rb").read()
        assert csv_a == csv_b

    def test_two_way_uplink_half_of_parallel(self, tmp_path):
        parallel = run_experiment(fast_cfg(tmp_path, out_dir=str(tmp_path / "p"),
                                           epochs=4))
        mixed = run_experiment(fast_cfg(tmp_path, out_dir=str(tmp_path / "m"),
                                        method="cutmixsl", k_way=2,
                                        alpha="inf", epochs=4))
        ratio = mixed["total_activation_bytes"] / parallel["total_activation_bytes"]
        assert ratio == pytest.approx(0.5, abs=1e-9)

    def test_transcript_written_when_asked(self, tmp_path):
        cfg = fast_cfg(tmp_path, write_transcript=True, epochs=1)
        run_experiment(cfg)
        from splitmix.transcript import read_transcript
        records = read_transcript(tmp_path / "run" / "transcript.bin")
        assert sum(r["type"] == "round_start" for r in records) == 4

    def test_cli_train_exit_code(self, tmp_path, capsys):
        code = main(["train", "--method", "parallel_sl", "--n-clients", "2",
                     "--dataset", "synthetic", "--synthetic-samples", "64",
                     "--synthetic-test", "32", "--epochs", "1",
                     "--warmup-epochs", "1", "--batch-size", "16",
                     "--out-dir", str(tmp_path / "cli")])
        assert code == 0
        assert "done:" in capsys.readouterr().out

    def test_run_that_never_evaluates_reports_no_top1(self, tmp_path, capsys):
        out = tmp_path / "noeval"
        code = main(["train", "--epochs", "1", "--eval-every", "2",
                     "--synthetic-samples", "64", "--synthetic-test", "16",
                     "--batch-size", "8", "--out-dir", str(out)])
        assert code == 0
        assert "best_top1=none (no evaluation ran)" in capsys.readouterr().out
        summary = json.load(open(out / "summary.json"))
        assert summary["best_top1"] is None and summary["final_top1"] is None
        evaluated = run_experiment(fast_cfg(tmp_path, epochs=2, eval_every=2))
        assert evaluated["best_top1"] == evaluated["final_top1"] is not None


class TestAttackSuiteRunner:
    def test_ten_reports_and_determinism(self, tmp_path):
        cfg = fast_cfg(tmp_path, synthetic_samples=192, synthetic_test=64,
                       attack_pretrain_epochs=1, attack_epochs=2,
                       attack_decoder_width=32)
        first = run_attack_suite(cfg)
        assert len(first["reports"]) == 10
        names = {(r["representation"], r["config"]["train_fraction"])
                 for r in first["reports"]}
        assert len(names) == 10
        second = run_attack_suite(cfg)
        assert first["mse"] == second["mse"]
        saved = json.load(open(tmp_path / "run" / "attack_report.json"))
        assert saved["mse"] == first["mse"]
