"""Experiment configuration: defaults < config file < CLI flags."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ContractError

METHODS = ("parallel_sl", "splitfed", "cutmixsl", "cutmixsfl", "cutmixsl_ktimes")
MIXING_METHODS = ("cutmixsl", "cutmixsfl", "cutmixsl_ktimes")
FEDAVG_METHODS = ("splitfed", "cutmixsfl")

DATA_DIR_ENV = "SPLITMIX_DATA_DIR"


@dataclass
class ExperimentConfig:
    method: str = "parallel_sl"
    n_clients: int = 2
    k_way: int = 1
    alpha: float | str = 6.0  # number, "inf", or "uniform"
    shuffle: bool = False
    gradient_mode: str = "unicast"
    fedavg: bool | None = None  # None: derived from method
    fedavg_cadence: str = "epoch"  # or "round"
    keep_ratio: float = 1.0  # token cutout for the k=1 baseline
    mask_mode: str = "per_iteration"  # or "fixed"
    noise_x: float = 0.0
    noise_y: float = 0.0
    dataset: str = "synthetic"  # or "cifar10"
    data_dir: str | None = None
    cifar_subset: int = 0  # 0 = all samples
    synthetic_samples: int = 512
    synthetic_test: int = 512
    synthetic_classes: int = 10
    synthetic_noise: float = 0.1
    synthetic_jitter: float = 1.0
    synthetic_radius: float | None = None
    synthetic_mosaic: float = 0.0
    partition_mode: str = "iid"
    dirichlet_mu: float = 0.1
    profile: str = "desk"
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_epochs: int = 5
    epochs: int = 40
    batch_size: int = 32
    eval_every: int = 1
    seed: int = 0
    out_dir: str = "runs"
    write_transcript: bool = False
    attack_decoder_width: int = 256
    attack_decoder_depth: int = 1
    attack_epochs: int = 120
    attack_batch_size: int = 64
    attack_lr: float = 1e-3
    attack_keep_ratio: float | None = None
    attack_alpha: float = 6.0
    attack_pretrain_epochs: int = 3
    attack_seed: int | None = None  # None: reuse seed

    def __post_init__(self):
        self.validate()

    # -- derived views -----------------------------------------------------

    @property
    def fedavg_enabled(self) -> bool:
        if self.fedavg is not None:
            return self.fedavg
        return self.method in FEDAVG_METHODS

    @property
    def effective_k(self) -> int:
        return self.k_way if self.method in MIXING_METHODS else 1

    @property
    def alpha_value(self) -> float:
        """Numeric dispersion: "uniform" is Dirichlet(1), "inf" the even split."""
        if isinstance(self.alpha, str):
            key = self.alpha.strip().lower()
            if key in ("inf", "infinity"):
                return math.inf
            if key == "uniform":
                return 1.0
            try:
                return float(key)
            except ValueError:
                raise ContractError(f"alpha must be a number, 'inf' or 'uniform', got {self.alpha!r}")
        return float(self.alpha)

    def resolved_data_dir(self) -> str | None:
        return self.data_dir or os.environ.get(DATA_DIR_ENV)

    # -- validation and (de)serialization ----------------------------------

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ContractError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.method not in MIXING_METHODS and self.k_way > 1:
            raise ContractError(f"{self.method} does not mix activations; k_way must be 1")
        if self.method in MIXING_METHODS and self.k_way < 2:
            raise ContractError(f"{self.method} requires k_way >= 2")
        for name in ("n_clients", "epochs", "batch_size", "eval_every",
                     "attack_pretrain_epochs"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("noise_x", "noise_y"):
            if not getattr(self, name) >= 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.gradient_mode not in ("unicast", "broadcast"):
            raise ContractError(f"gradient_mode must be unicast or broadcast, got {self.gradient_mode!r}")
        if self.fedavg_cadence not in ("epoch", "round"):
            raise ContractError(f"fedavg_cadence must be epoch or round, got {self.fedavg_cadence!r}")
        if self.mask_mode not in ("fixed", "per_iteration"):
            raise ContractError(f"mask_mode must be fixed or per_iteration, got {self.mask_mode!r}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ContractError(f"keep_ratio must lie in (0, 1], got {self.keep_ratio}")
        if self.dataset not in ("synthetic", "cifar10"):
            raise ContractError(f"dataset must be synthetic or cifar10, got {self.dataset!r}")
        if self.partition_mode not in ("iid", "dirichlet"):
            raise ContractError(f"partition_mode must be iid or dirichlet")
        if self.profile not in ("paper", "desk"):
            raise ContractError(f"profile must be paper or desk, got {self.profile!r}")
        if self.method in FEDAVG_METHODS and self.fedavg is False:
            raise ContractError(f"{self.method} requires federated averaging")
        self.alpha_value  # raises on malformed strings

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))
