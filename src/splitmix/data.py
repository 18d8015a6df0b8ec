"""Dataset ingestion, synthetic generation, and client partitioning.

CIFAR-10 is read from the standard binary batches (3073-byte records: one
label byte followed by 3072 pixel bytes in R,G,B planes).  The synthetic
generator produces class-conditional Gaussian-blob images that a tiny
model separates in minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IngestionError

CIFAR_RECORD = 3073
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"
_SYNTHETIC_CHUNK = 256  # samples generated at once, which bounds the temporaries


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ContractError("images and labels disagree on sample count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise IngestionError(
                f"label outside [0, {self.num_classes}): {int(self.labels.max())}")
        if self.images.size and not np.isfinite(self.images).all():
            raise IngestionError("images contain non-finite values")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.num_classes)


def _read_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    if not os.path.exists(path):
        raise IngestionError(f"missing dataset file: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % CIFAR_RECORD != 0:
        offset = (len(blob) // CIFAR_RECORD) * CIFAR_RECORD
        raise IngestionError(f"{path}: truncated record at byte offset {offset}")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IngestionError(
            f"{path}: record {bad} carries label byte {int(labels[bad])} outside [0, 9]")
    images = raw[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_cifar10(path: str) -> tuple[Dataset, Dataset]:
    """Load the binary CIFAR-10 batches under ``path`` (50k train, 10k test)."""
    train_parts = [_read_records(os.path.join(path, name)) for name in CIFAR_TRAIN_FILES]
    images = np.concatenate([p[0] for p in train_parts])
    labels = np.concatenate([p[1] for p in train_parts])
    test_images, test_labels = _read_records(os.path.join(path, CIFAR_TEST_FILE))
    return (Dataset(images, labels, 10), Dataset(test_images, test_labels, 10))


def _class_templates(classes: int, image_size: int,
                     channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed, well-separated class geometry: centers on a circle, colors on
    an evenly spaced hue wheel.  Deterministic so task difficulty does not
    vary with the sampling seed."""
    angles = 2.0 * np.pi * np.arange(classes) / classes
    mid = (image_size - 1) / 2.0
    ring = image_size / 4.0
    centers = np.stack([mid + ring * np.sin(angles), mid + ring * np.cos(angles)], axis=1)
    colors = np.empty((classes, channels))
    for c in range(classes):
        hue = c / classes
        if channels == 3:
            import colorsys
            colors[c] = colorsys.hsv_to_rgb(hue, 0.9, 1.0)
        else:
            level = 0.3 + 0.7 * (c / max(1, classes - 1))
            colors[c] = np.linspace(level, min(1.0, level + 0.2), channels)
    return centers, colors


def make_synthetic(num_samples: int, classes: int, image_size: int, seed: int,
                   channels: int = 3, noise_std: float = 0.1,
                   blob_radius: float | None = None, jitter: float = 1.0,
                   mosaic_std: float = 0.0, mosaic_cell: int = 4) -> Dataset:
    """Class-conditional Gaussian-blob images, linearly separable by design.

    Each class owns a fixed blob center and color; a sample is its class
    template with a jittered center plus i.i.d. pixel noise, clipped to
    [0, 1].  The seed drives sampling only, not the class geometry.

    ``mosaic_std`` > 0 adds a per-sample random color offset to each
    ``mosaic_cell`` x ``mosaic_cell`` tile.  Tiles carry content that cannot
    be inferred from the rest of the image, which is what makes masked-token
    reconstruction measurably lossy (natural images have this property;
    pure blobs do not).
    """
    if classes <= 0 or image_size <= 0:
        raise ContractError("classes and image_size must be positive")
    if num_samples < 0:
        raise ContractError("num_samples must be nonnegative")
    if image_size % mosaic_cell != 0:
        raise ContractError(f"mosaic_cell {mosaic_cell} must divide image_size {image_size}")
    from .rng import STREAM_DATA, stream_generator

    gen = stream_generator(seed, STREAM_DATA)
    if blob_radius is None:
        blob_radius = image_size / 6.0
    centers, colors = _class_templates(classes, image_size, channels)
    if num_samples == 0:
        return Dataset(np.zeros((0, channels, image_size, image_size), dtype=np.float32),
                       np.zeros(0, dtype=np.int64), classes)

    labels = np.arange(num_samples, dtype=np.int64) % classes
    gen.shuffle(labels)
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    cells = image_size // mosaic_cell
    tiles = channels * cells * cells if mosaic_std > 0 else 0
    shape = (channels, image_size, image_size)
    images = np.empty((num_samples,) + shape, dtype=np.float32)
    # A sample draws its center jitter, then its tile offsets, then its pixel
    # noise, each normal(0, s), which is 0 + s * z over standard-normal draws;
    # so one draw of consecutive rows serves a chunk of samples in that order.
    for start in range(0, num_samples, _SYNTHETIC_CHUNK):
        chunk = labels[start:start + _SYNTHETIC_CHUNK]
        z = gen.standard_normal((chunk.size, 2 + tiles + int(np.prod(shape))))
        cy, cx = (centers[chunk] + (0.0 + jitter * z[:, :2])).T
        blob = np.exp(-((ys - cy[:, None, None]) ** 2 + (xs - cx[:, None, None]) ** 2)
                      / (2.0 * blob_radius ** 2))
        base = (0.7 * colors[chunk])[:, :, None, None] * blob[:, None] + 0.15
        if tiles:
            offsets = (0.0 + mosaic_std * z[:, 2:2 + tiles]).reshape(-1, channels, cells, cells)
            base = base + np.repeat(np.repeat(offsets, mosaic_cell, axis=2),
                                    mosaic_cell, axis=3)
        noisy = base + (0.0 + noise_std * z[:, 2 + tiles:]).reshape(base.shape)
        images[start:start + chunk.size] = np.clip(noisy, 0.0, 1.0)
    return Dataset(images, labels, classes)


def partition(dataset: Dataset, n_clients: int, mode: str,
              rng: np.random.Generator, dirichlet_mu: float = 0.1) -> list[np.ndarray]:
    """Split sample indices across clients.

    ``iid`` draws a uniform random equal-size split (remainder spread over
    the first clients).  ``dirichlet`` draws per-class client proportions
    from Dir(mu) and assigns each class's samples accordingly; small mu
    concentrates classes on few clients.
    """
    n = len(dataset)
    if n_clients < 1:
        raise ContractError(f"n_clients must be >= 1, got {n_clients}")
    if n_clients > n:
        raise ContractError(f"cannot split {n} samples across {n_clients} clients")
    if mode == "iid":
        order = rng.permutation(n)
        base, rem = divmod(n, n_clients)
        sizes = [base + (1 if i < rem else 0) for i in range(n_clients)]
        blocks, offset = [], 0
        for size in sizes:
            blocks.append(np.sort(order[offset:offset + size]))
            offset += size
        return blocks
    if mode == "dirichlet":
        if dirichlet_mu <= 0:
            raise ContractError(f"dirichlet concentration must be positive, got {dirichlet_mu}")
        blocks: list[list[int]] = [[] for _ in range(n_clients)]
        for cls in range(dataset.num_classes):
            members = np.flatnonzero(dataset.labels == cls)
            if members.size == 0:
                continue
            members = members[rng.permutation(members.size)]
            props = rng.dirichlet(np.full(n_clients, dirichlet_mu))
            splits = np.floor(np.cumsum(props) * members.size).astype(np.int64)[:-1]
            for client, chunk in enumerate(np.split(members, splits)):
                blocks[client].extend(chunk.tolist())
        return [np.sort(np.array(b, dtype=np.int64)) for b in blocks]
    raise ContractError(f"unknown partition mode {mode!r}")
