"""Experiment configuration: defaults < config file < CLI flags.

A field's annotation is the type ``validate`` checks and its CLI flag
parses; ``CHOICES`` restricts the enumerated fields for both.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass, field

from .errors import ContractError
from .model import PROFILES

MIXING_METHODS = ("cutmixsl", "cutmixsfl", "cutmixsl_ktimes")
FEDAVG_METHODS = ("splitfed", "cutmixsfl")

CHOICES = {
    "method": ("parallel_sl", "splitfed", *MIXING_METHODS),
    "gradient_mode": ("unicast", "broadcast"),
    "fedavg_cadence": ("epoch", "round"),
    "dataset": ("synthetic", "cifar10"),
    "partition_mode": ("iid", "dirichlet"),
    "profile": tuple(PROFILES),
}

DATA_DIR_ENV = "SPLITMIX_DATA_DIR"


@dataclass
class ExperimentConfig:
    method: str = "parallel_sl"
    n_clients: int = 2
    k_way: int = 1
    alpha: float | str = field(
        default=6.0, metadata={"help": "Dirichlet dispersion: number, 'inf', or 'uniform'"})
    shuffle: bool = False
    gradient_mode: str = "unicast"
    fedavg_cadence: str = "epoch"
    keep_ratio: float = 1.0  # token cutout for the k=1 baseline
    noise_x: float = 0.0
    noise_y: float = 0.0
    dataset: str = "synthetic"
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

    def __post_init__(self):
        self.validate()

    # -- derived views -----------------------------------------------------

    @property
    def fedavg_enabled(self) -> bool:
        return self.method in FEDAVG_METHODS

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
        for name, kinds in FIELD_TYPES.items():
            value = getattr(self, name)
            if not any(_is_a(value, kind) for kind in kinds):
                allowed = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
                raise ContractError(f"{name} must be {allowed}, got {value!r}")
            if name in CHOICES and value not in CHOICES[name]:
                raise ContractError(f"{name} must be one of {CHOICES[name]}, got {value!r}")
        for name in ("n_clients", "k_way", "epochs", "batch_size", "eval_every",
                     "attack_pretrain_epochs", "synthetic_test", "attack_decoder_width",
                     "attack_epochs", "attack_batch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("noise_x", "noise_y", "warmup_epochs", "cifar_subset", "weight_decay",
                     "attack_decoder_depth", "synthetic_noise", "synthetic_jitter",
                     "synthetic_mosaic"):
            if not getattr(self, name) >= 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "attack_lr", "dirichlet_mu", "attack_alpha", "synthetic_radius"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ContractError(f"{name} must be > 0, got {value}")
        if not self.alpha_value > 0:
            raise ContractError(f"alpha must be > 0 or inf, got {self.alpha!r}")
        for name in ("keep_ratio", "attack_keep_ratio"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value <= 1.0:
                raise ContractError(f"{name} must lie in (0, 1], got {value}")
        classes = PROFILES[self.profile].num_classes
        if not 1 <= self.synthetic_classes <= classes:
            raise ContractError(f"synthetic_classes must lie in [1, {classes}] for profile "
                                f"{self.profile!r}, got {self.synthetic_classes}")
        if self.method not in MIXING_METHODS and self.k_way > 1:
            raise ContractError(f"{self.method} does not mix activations; k_way must be 1")
        if self.method in MIXING_METHODS and self.k_way < 2:
            raise ContractError(f"{self.method} requires k_way >= 2")
        if self.dataset == "synthetic" and self.synthetic_samples < self.n_clients:
            raise ContractError(f"synthetic_samples {self.synthetic_samples} cannot be split "
                                f"across n_clients {self.n_clients}")
        # An iid shard too small for a batch is known from the pool's size
        # before any data is built or read.  Dirichlet shards depend on the
        # draw and a full CIFAR-10 pool on the files: TrainingSystem checks those.
        pool = {"synthetic": "synthetic_samples", "cifar10": "cifar_subset"}[self.dataset]
        size = getattr(self, pool)
        if self.partition_mode == "iid" and size and size // self.n_clients < self.batch_size:
            raise ContractError(
                f"{pool} {size} over n_clients {self.n_clients} leaves iid shards of "
                f"{size // self.n_clients} samples, fewer than batch_size {self.batch_size}")
        if self.k_way > self.n_clients:
            raise ContractError(f"k_way {self.k_way} exceeds n_clients {self.n_clients}: "
                                f"a group cannot mix more clients than there are")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


# Per field, the types its annotation admits: ``float | None`` -> (float, NoneType).
FIELD_TYPES = {name: typing.get_args(hint) or (hint,)
               for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is not a number and an int is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)
