"""Config plumbing, CLI behavior, metrics files, determinism."""

import json
import math
import os

import pytest

from splitmix.cli import main
from splitmix.config import ExperimentConfig
from splitmix.errors import ContractError
from splitmix.runner import CSV_SCHEMA, run_attack_suite, run_experiment


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(method="cutmixsl", k_way=3, alpha="uniform",
                               shuffle=True, gradient_mode="broadcast",
                               noise_x=0.1, dirichlet_mu=0.5, seed=9)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert ExperimentConfig.from_json(again.to_json()) == again

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
        with pytest.raises(ContractError):
            ExperimentConfig(method="splitfed", fedavg=False)

    def test_fedavg_derived_from_method(self):
        assert ExperimentConfig(method="splitfed").fedavg_enabled
        assert ExperimentConfig(method="cutmixsfl", k_way=2).fedavg_enabled
        assert not ExperimentConfig(method="parallel_sl").fedavg_enabled

    def test_unknown_keys_rejected(self):
        with pytest.raises(ContractError, match="mystery"):
            ExperimentConfig.from_dict({"mystery": 1})

    def test_data_dir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SPLITMIX_DATA_DIR", "/data/somewhere")
        assert ExperimentConfig().resolved_data_dir() == "/data/somewhere"
        assert ExperimentConfig(data_dir="/x").resolved_data_dir() == "/x"


class TestCliParsing:
    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"method": "cutmixsl", "k_way": 2,
                                        "epochs": 3, "seed": 5}))
        from splitmix.cli import build_config
        import argparse
        namespace = argparse.Namespace(command="train", config=str(cfg_file), seed=11,
                                       **{f: None for f in [
                                           "method", "n_clients", "k_way", "alpha",
                                           "shuffle", "gradient_mode", "fedavg",
                                           "fedavg_cadence", "keep_ratio",
                                           "mask_mode", "noise_x",
                                           "noise_y", "dataset", "data_dir",
                                           "cifar_subset", "synthetic_samples",
                                           "synthetic_test", "synthetic_classes",
                                           "synthetic_noise", "synthetic_jitter",
                                           "synthetic_radius", "synthetic_mosaic",
                                           "partition_mode", "dirichlet_mu", "profile",
                                           "lr", "weight_decay", "warmup_epochs",
                                           "epochs", "batch_size", "eval_every",
                                           "out_dir", "write_transcript",
                                           "attack_decoder_width", "attack_decoder_depth",
                                           "attack_epochs", "attack_batch_size",
                                           "attack_lr", "attack_keep_ratio",
                                           "attack_alpha", "attack_pretrain_epochs",
                                           "attack_seed"]})
        cfg = build_config(namespace)
        assert cfg.method == "cutmixsl" and cfg.k_way == 2  # from file
        assert cfg.seed == 11  # flag wins
        assert cfg.epochs == 3

    def test_invalid_config_is_usage_error(self, capsys):
        code = main(["train", "--method", "cutmixsl", "--k-way", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_counts_below_one_are_usage_errors(self, capsys):
        for field in ("eval_every", "batch_size", "epochs", "n_clients",
                      "attack_pretrain_epochs"):
            code = main(["train", "--" + field.replace("_", "-"), "0"])
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


def fast_cfg(tmp_path, **overrides):
    base = dict(method="parallel_sl", n_clients=2, dataset="synthetic",
                synthetic_samples=128, synthetic_test=64, epochs=2,
                warmup_epochs=1, batch_size=16, seed=3,
                out_dir=str(tmp_path / "run"))
    base.update(overrides)
    return ExperimentConfig(**base)


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
