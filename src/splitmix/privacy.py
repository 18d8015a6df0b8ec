"""Reconstruction-attack harness.

An attacker trains a decoder from uploaded representations back to raw
images; held-out mean squared error proxies privacy leakage (higher MSE =
less leakage).  The attacker sees representations only, never the masks or
allocations that produced them.  For mixed representations the target is
the first contributing client's raw image.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError
from .mixing import cut, generate_mask_set, keep_count, manifold_mixup, sample_mixing_counts
from .model import ClientSegment, ModelConfig, client_forward
from .optim import AdamW
from .rng import STREAM_ATTACK, stream_generator
from .tensor import Tensor, backward, gelu, linear, mse, no_grad

REPRESENTATIONS = ("smashed", "cutsmashed", "mixup", "patch_cutmix", "shuffled_cutmix")
_MIXUP_LAM = 0.5  # the mixup representation's weight on each sample
_WEIGHT_DECAY = 1e-4  # the decoder's AdamW


@dataclass
class AttackConfig:
    representation: str = "smashed"
    train_fraction: float = 0.1
    decoder_width: int = 256
    decoder_depth: int = 1
    epochs: int = 120
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    keep_ratio: float | None = None  # cutsmashed rows kept; None = protocol's 2-way draw
    cutmix_alpha: float = 6.0

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise ContractError(
                f"train_fraction must lie in (0, 1], got {self.train_fraction}")


@dataclass
class AttackReport:
    representation: str
    test_mse: float
    sample_count: int
    config: dict = field(default_factory=dict)


@dataclass
class Snapshot:
    """Frozen trained client segment (a fleet of one), the data it embeds,
    and that data's ``(n, M, d)`` smashed tokens.

    The smashed tokens are computed once, on construction, and are
    read-only, so every representation built from them, on any thread,
    shares one array.
    """

    client_segment: ClientSegment
    dataset: "object"  # data.Dataset
    model_config: ModelConfig
    smashed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        with no_grad():
            smashed = client_forward(self.client_segment, self.dataset.images[None],
                                     self.model_config).values[0]
        smashed.flags.writeable = False
        self.smashed = smashed


def build_representation(name: str, snapshot: Snapshot, config: AttackConfig,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Return (features, targets): one row per sample, targets are raw pixels.

    Targets are a view of the dataset's images, and the ``smashed``
    features a read-only view of ``snapshot.smashed``.
    """
    dataset = snapshot.dataset
    n = len(dataset)
    targets = dataset.images.reshape(n, -1)
    if name == "raw":
        return targets.copy(), targets
    smashed = snapshot.smashed
    tokens = snapshot.model_config.tokens
    if name == "smashed":
        feats = smashed
    elif name == "cutsmashed":
        # One client's upload under the 2-way protocol: the kept-row count
        # follows the same Dirichlet draw unless a fixed ratio is forced.
        masks = np.empty((n, tokens), dtype=np.uint8)
        for i in range(n):
            if config.keep_ratio is None:
                kept = int(sample_mixing_counts(2, config.cutmix_alpha, tokens, rng)[0])
            else:
                kept = keep_count(config.keep_ratio, tokens)
            masks[i] = generate_mask_set([kept, tokens - kept], tokens, rng)[0]
        feats = cut(smashed, masks)
    elif name in ("mixup", "patch_cutmix", "shuffled_cutmix"):
        # Pair each sample with a distinct partner via a random cyclic order.
        order = rng.permutation(n)
        pair = np.empty(n, dtype=np.int64)
        pair[order] = order[np.arange(n) - 1]
        if name == "mixup":
            feats = manifold_mixup(smashed, smashed[pair], _MIXUP_LAM)
        else:
            # Draw per sample (counts, masks, shuffle), then cut and add all pairs.
            masks = np.empty((2, n, tokens), dtype=np.uint8)
            perms = []
            for i in range(n):
                counts = sample_mixing_counts(2, config.cutmix_alpha, tokens, rng)
                masks[:, i] = generate_mask_set(counts, tokens, rng)
                if name == "shuffled_cutmix":
                    perms.append(rng.permutation(tokens))
            feats = cut(smashed, masks[0])
            feats += cut(smashed[pair], masks[1])
            if perms:
                feats = np.take_along_axis(feats, np.stack(perms)[..., None], axis=1)
    else:
        raise ContractError(f"unknown representation {name!r}")
    return feats.reshape(n, -1), targets


class _Decoder:
    """MLP regressor: features -> hidden (gelu) x depth -> pixels."""

    def __init__(self, in_dim: int, out_dim: int, width: int, depth: int,
                 gen: np.random.Generator):
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        dims = [in_dim] + [width] * depth + [out_dim]
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            std = 1.0 / math.sqrt(fan_in)
            w = gen.normal(0.0, std, size=(fan_out, fan_in)).astype(np.float32)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out, dtype=np.float32),
                                      requires_grad=True))

    def parameters(self) -> dict[str, Tensor]:
        named = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named[f"w{i}"] = w
            named[f"b{i}"] = b
        return named

    def forward(self, x: Tensor) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = linear(h, w, b)
            if i != last:
                h = gelu(h)
        return h


def prepare_representation(config: AttackConfig,
                           snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """Build ``config.representation`` and standardise each sample: (features, targets).

    The build draws from its own stream (``STREAM_ATTACK``, counter 0) and
    reads no training setting, so one preparation serves every
    ``train_fraction``.
    """
    rng_build = stream_generator(config.seed, STREAM_ATTACK, 0)
    features, targets = build_representation(config.representation, snapshot,
                                             config, rng_build)
    mu = features.mean(axis=1, keepdims=True)
    sd = features.std(axis=1, keepdims=True) + np.float32(1e-6)
    # Centred in place, unless the features are the snapshot's read-only
    # smashed tokens: only one of the raw and centred arrays is held.
    features = np.subtract(features, mu, out=features if features.flags.writeable else None)
    features /= sd
    return features, targets


def run_attack(config: AttackConfig,
               prepared: tuple[np.ndarray, np.ndarray]) -> AttackReport:
    """Train the decoder on a fraction of the prepared samples; report
    held-out MSE.  ``prepared`` is ``prepare_representation``'s output for
    the same representation, seed and build settings."""
    features, targets = prepared
    n = features.shape[0]
    if n < 4:
        raise ContractError("attack needs at least 4 samples")
    split_rng = stream_generator(config.seed, STREAM_ATTACK, 1)
    order = split_rng.permutation(n)
    test_count = max(1, n // 5)
    test_idx, pool_idx = order[:test_count], order[test_count:]
    used = max(1, int(round(config.train_fraction * pool_idx.size)))
    train_idx = pool_idx[:used]

    gen = stream_generator(config.seed, STREAM_ATTACK, 2)
    decoder = _Decoder(features.shape[1], targets.shape[1], config.decoder_width,
                       config.decoder_depth, gen)
    opt = AdamW(decoder.parameters(), lr=config.lr, weight_decay=_WEIGHT_DECAY)
    for _ in range(config.epochs):
        order = gen.permutation(train_idx.size)
        for start in range(0, train_idx.size, config.batch_size):
            take = train_idx[order[start:start + config.batch_size]]
            pred = decoder.forward(Tensor(features[take]))
            backward(mse(pred, targets[take]))
            opt.step()
            opt.zero_grads()

    with no_grad():
        pred = decoder.forward(Tensor(features[test_idx])).values
    test_mse = float(np.mean((pred - targets[test_idx]) ** 2))
    return AttackReport(representation=config.representation, test_mse=test_mse,
                        sample_count=int(train_idx.size), config=asdict(config))
