"""Reconstruction-attack harness sanity checks and contracts."""

import dataclasses
import json

import pytest

from splitmix import privacy, runner
from splitmix.config import ExperimentConfig
from splitmix.data import make_synthetic
from splitmix.errors import ContractError
from splitmix.model import ModelConfig, init_parameters
from splitmix.privacy import (REPRESENTATIONS, AttackConfig, Snapshot, build_representation,
                              prepare_representation, run_attack)
from splitmix.rng import STREAM_ATTACK, stream_generator
from splitmix.runner import ATTACK_FRACTIONS, run_attack_suite

MC = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                 depth=1, heads=2, num_classes=4)


@pytest.fixture(scope="module")
def snapshot():
    data = make_synthetic(512, 4, 8, seed=0, channels=1, noise_std=0.05)
    client, _ = init_parameters(MC, seed=0)
    return Snapshot(client_segment=client, dataset=data, model_config=MC)


def attack(config, snapshot):
    """One cell, prepared on its own."""
    return run_attack(config, prepare_representation(config, snapshot))


def test_fraction_contract():
    with pytest.raises(ContractError):
        AttackConfig(train_fraction=0.0)
    with pytest.raises(ContractError):
        AttackConfig(train_fraction=1.5)


def test_raw_identity_sanity(snapshot):
    config = AttackConfig(representation="raw", train_fraction=1.0, epochs=200,
                          decoder_width=256, normalize_inputs=False, seed=0)
    report = attack(config, snapshot)
    assert report.test_mse < 1e-3


def test_all_zero_representation_hits_variance_floor(snapshot):
    config = AttackConfig(representation="cutsmashed", keep_ratio=1e-6,
                          train_fraction=1.0, epochs=30, seed=0)
    report = attack(config, snapshot)
    # Reproduce the harness's held-out split to measure its pixel variance.
    n = len(snapshot.dataset)
    order = stream_generator(0, STREAM_ATTACK, 1).permutation(n)
    test_idx = order[:n // 5]
    pixels = snapshot.dataset.images[test_idx].reshape(len(test_idx), -1)
    floor = float(pixels.var(axis=0).mean())
    assert report.test_mse >= floor - 1e-3


def test_cutsmashed_leaks_less_than_smashed(snapshot):
    smashed = attack(AttackConfig(representation="smashed", train_fraction=1.0,
                                  epochs=60, seed=3), snapshot)
    cutsmashed = attack(AttackConfig(representation="cutsmashed", keep_ratio=0.5,
                                     train_fraction=1.0, epochs=60, seed=3), snapshot)
    assert cutsmashed.test_mse > smashed.test_mse


def test_report_is_deterministic(snapshot):
    config = AttackConfig(representation="mixup", train_fraction=0.5, epochs=10, seed=7)
    first = attack(config, snapshot)
    second = attack(config, snapshot)
    assert first.test_mse == second.test_mse


def test_report_json_schema(snapshot):
    report = attack(AttackConfig(representation="smashed", train_fraction=0.5,
                                 epochs=5, seed=1), snapshot)
    decoded = json.loads(json.dumps(dataclasses.asdict(report), sort_keys=True))
    assert decoded["representation"] == "smashed"
    assert decoded["test_mse"] >= 0
    assert decoded["sample_count"] == report.sample_count
    assert decoded["config"]["decoder_width"] == 256


def test_unknown_representation_rejected(snapshot):
    config = AttackConfig(representation="smashed", train_fraction=0.5, seed=0)
    with pytest.raises(ContractError):
        build_representation("pixels", snapshot, config,
                             stream_generator(0, STREAM_ATTACK, 0))


def test_representation_shapes(snapshot):
    config = AttackConfig(train_fraction=0.5, seed=0)
    rng = stream_generator(0, STREAM_ATTACK, 0)
    n = len(snapshot.dataset)
    for name in ("smashed", "cutsmashed", "mixup", "patch_cutmix", "shuffled_cutmix"):
        feats, targets = build_representation(name, snapshot, config, rng)
        assert feats.shape == (n, MC.tokens * MC.embed_dim)
        assert targets.shape == (n, MC.channels * MC.image_size ** 2)


def test_cutsmashed_rows_zeroed(snapshot):
    config = AttackConfig(keep_ratio=0.5, train_fraction=0.5, seed=0)
    feats, _ = build_representation("cutsmashed", snapshot, config,
                                    stream_generator(0, STREAM_ATTACK, 0))
    grids = feats.reshape(len(snapshot.dataset), MC.tokens, MC.embed_dim)
    zero_rows = (~grids.any(axis=2)).sum(axis=1)
    assert (zero_rows == MC.tokens // 2).all()


def _run_suite(snapshot, tmp_path, monkeypatch):
    """The suite on the module's snapshot rather than a trained one."""
    monkeypatch.setattr(runner, "train_snapshot", lambda cfg: (snapshot, None))
    return run_attack_suite(ExperimentConfig(attack_epochs=2, attack_decoder_width=32,
                                             seed=4, out_dir=str(tmp_path)))


def test_suite_builds_each_representation_once(snapshot, tmp_path, monkeypatch):
    built = []
    original = privacy.build_representation

    def counting(name, *args):
        built.append(name)
        return original(name, *args)

    monkeypatch.setattr(privacy, "build_representation", counting)
    result = _run_suite(snapshot, tmp_path, monkeypatch)
    # Two threads build, so only the multiset of builds is fixed.
    assert sorted(built) == sorted(REPRESENTATIONS)
    assert len(result["reports"]) == len(REPRESENTATIONS) * len(ATTACK_FRACTIONS)


def test_suite_matches_cells_prepared_on_their_own(snapshot, tmp_path, monkeypatch):
    result = _run_suite(snapshot, tmp_path, monkeypatch)
    table = {rep: {} for rep in REPRESENTATIONS}
    for report in result["reports"]:
        config = AttackConfig(**report["config"])
        cell = attack(config, snapshot)
        assert cell.test_mse == report["test_mse"]
        table[config.representation][str(config.train_fraction)] = cell.test_mse
    assert table == result["mse"]
