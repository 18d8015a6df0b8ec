"""Benchmark workloads: one `ExperimentConfig` dictionary per workload.

The seed reaches the program only through `ExperimentConfig.seed`; every
other field is fixed here.  `tiny=True` shrinks a workload to a length that
only the schema self-test uses.
"""

from __future__ import annotations

import hashlib
import json

# The criterion-6 "hard" synthetic set (tests/test_acceptance.py).
HARD_SYNTHETIC = dict(dataset="synthetic", synthetic_samples=2048, synthetic_test=2048,
                      synthetic_classes=10, synthetic_noise=1.4, synthetic_jitter=1.0,
                      synthetic_radius=16.0)

WHY = {
    "mix4": "criterion-6 cutmixsfl, n=4 k=2 broadcast: the server pass dominates, "
            "per-client and transcript paths near zero",
    "fleet64": "cutmixsfl n=64 k=4 unicast, shuffle and transcript on: the largest share of "
               "per-client, routing and mixing work; server batch tiny",
    "attack": "criterion-7 attack suite: few wide tensor nodes (batch 64, 512-256-768) "
              "in decoder training",
}

TRAIN_EPOCHS = 6


def _train(tiny: bool, **fields) -> dict:
    epochs = 1 if tiny else TRAIN_EPOCHS
    cfg = {**HARD_SYNTHETIC, "method": "cutmixsfl", "alpha": 6.0,
           "fedavg_cadence": "round", "warmup_epochs": 1,
           "epochs": epochs, "eval_every": epochs, **fields}
    if tiny:
        cfg.update(synthetic_samples=fields["n_clients"] * fields["batch_size"] * 2,
                   synthetic_test=64)
    return cfg


def config_dict(workload: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The `ExperimentConfig` fields of one workload run."""
    if workload == "mix4":
        cfg = _train(tiny, n_clients=4, k_way=2, gradient_mode="broadcast",
                     batch_size=16)
    elif workload == "fleet64":
        cfg = _train(tiny, n_clients=64, k_way=4, gradient_mode="unicast",
                     shuffle=True, batch_size=4, write_transcript=True)
    elif workload == "attack":
        # Criterion 7 with a shorter snapshot and decoder fit, so that a
        # run holds several repetitions.
        cfg = dict(method="parallel_sl", n_clients=2, dataset="synthetic",
                   synthetic_samples=2048, synthetic_test=512, synthetic_mosaic=0.25,
                   synthetic_noise=0.05, epochs=10, warmup_epochs=1, batch_size=32,
                   attack_pretrain_epochs=2, attack_epochs=4)
        if tiny:
            cfg.update(synthetic_samples=256, synthetic_test=64,
                       attack_pretrain_epochs=1, attack_epochs=1)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    return {**cfg, "seed": seed, "out_dir": out_dir}


def config_hash(workload: str, tiny: bool = False) -> str:
    """Hash of the workload's fixed fields (seed and output directory left out)."""
    cfg = config_dict(workload, 0, "", tiny)
    del cfg["seed"], cfg["out_dir"]
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
