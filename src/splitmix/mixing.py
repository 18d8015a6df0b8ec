"""Masking and mixing algebra over token grids.

A token grid is an (M, d) matrix of patch embeddings, batched as
(batch, M, d).  A mask is a length-M 0/1 vector saying which token rows a
client transmits.  A mask set for a k-client group partitions the M
positions: masks are pairwise disjoint and jointly cover every position.

All functions are pure: randomness comes in as an explicit
``numpy.random.Generator`` so callers control streams and counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, ProtocolError


@dataclass
class CutSmashed:
    """Token grid with untransmitted rows zeroed, plus the mask that did it."""

    tokens: np.ndarray
    mask: np.ndarray
    client_id: int | None = None


@dataclass
class CutMixBatch:
    """Mixed token grid and its proportionally mixed soft label."""

    tokens: np.ndarray
    soft_label: np.ndarray


def _validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim == 0 or not ((mask == 0) | (mask == 1)).all():
        raise ContractError("mask must be a 0/1 array")
    return mask.astype(np.uint8)


def sample_mixing_counts(k: int, alpha: float, tokens: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Allocate the M token positions among k clients.

    Draw p from a symmetric Dirichlet(alpha) via k Gamma(alpha, 1) variates
    (one vectorized draw) normalized to a probability vector, then counts
    from Multinomial(M, p) realized as a sequential binomial decomposition.
    ``alpha = inf`` short-circuits to the exact even split, remainder going
    to the lowest indices.  Zero counts are legal.
    """
    if k <= 0:
        raise ContractError(f"k must be positive, got {k}")
    if tokens <= 0:
        raise ContractError(f"token count must be positive, got {tokens}")
    if math.isinf(alpha):
        base, rem = divmod(tokens, k)
        counts = np.full(k, base, dtype=np.int64)
        counts[:rem] += 1
        return counts
    if not alpha > 0:
        raise ContractError(f"alpha must be positive or inf, got {alpha}")
    gammas = rng.gamma(alpha, 1.0, size=k)
    total = gammas.sum()
    probs = gammas / total if total > 0 else np.full(k, 1.0 / k)
    counts = np.zeros(k, dtype=np.int64)
    remaining = tokens
    tail = 1.0
    for i in range(k - 1):
        if remaining == 0:
            break
        p = min(max(probs[i] / tail, 0.0), 1.0) if tail > 0 else 0.0
        counts[i] = rng.binomial(remaining, p)
        remaining -= counts[i]
        tail -= probs[i]
    counts[k - 1] = remaining
    return counts


def generate_mask_set(allocation: np.ndarray, tokens: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Uniformly random partition of positions into blocks of the given sizes.

    Returns a (k, M) 0/1 array: a single shuffled position list is split
    into contiguous runs of length a_1..a_k, so the masks are disjoint and
    complete by construction.
    """
    allocation = np.asarray(allocation, dtype=np.int64)
    if (allocation < 0).any() or allocation.sum() != tokens:
        raise ContractError(
            f"allocation {allocation.tolist()} does not sum to token count {tokens}")
    order = rng.permutation(tokens)
    masks = np.zeros((len(allocation), tokens), dtype=np.uint8)
    offset = 0
    for i, size in enumerate(allocation):
        masks[i, order[offset:offset + size]] = 1
        offset += size
    return masks


def cut(tokens: np.ndarray, mask: np.ndarray,
        client_id: int | None = None) -> CutSmashed:
    """Zero the token rows whose mask bit is 0; the input is untouched.

    ``tokens`` is ``(..., M, d)``.  ``mask`` is a length-M 0/1 vector, or a
    stack of them that broadcasts over the leading axes: ``(n, 1, M)`` cuts
    an ``(n, batch, M, d)`` fleet with one mask per client.
    """
    mask = _validate_mask(mask)
    tokens = np.asarray(tokens, dtype=np.float32)
    lead = tokens.shape[:-2]
    if mask.ndim > len(lead) + 1:
        raise ContractError(f"a {mask.ndim}-d mask cannot cut {tokens.ndim}-d token rows")
    if (tokens.ndim < 2 or tokens.shape[-2] != mask.shape[-1]
            or any(m not in (1, t) for m, t in zip(mask.shape[-2::-1], lead[::-1]))):
        raise DimensionError(f"mask of shape {mask.shape} does not fit token rows {tokens.shape}")
    kept = tokens * mask[..., None].astype(np.float32)
    return CutSmashed(tokens=kept, mask=mask, client_id=client_id)


def cutmix_assemble(parts: list[CutSmashed], labels: list[np.ndarray],
                    allocation: np.ndarray, tokens: int) -> CutMixBatch:
    """Sum the parts into one grid; soft label is the a_i/M mix of labels.

    Raises a protocol error if any position is claimed by two masks, naming
    the offending client.
    """
    if len(parts) != len(labels) or len(parts) != len(allocation):
        raise ContractError("parts, labels and allocation must align")
    claimed = np.zeros(tokens, dtype=np.int64)
    for part in parts:
        mask = _validate_mask(part.mask)
        if mask.shape != claimed.shape:
            raise DimensionError(f"mask of shape {mask.shape} in a {tokens}-token group")
        overlap = (claimed > 0) & (mask > 0)
        if overlap.any():
            who = "?" if part.client_id is None else part.client_id
            raise ProtocolError(
                f"mask overlap at position {int(np.argmax(overlap))} claimed by client {who}")
        claimed += mask
    if not (claimed == 1).all():
        raise ProtocolError(
            f"mask set leaves position {int(np.argmin(claimed))} unclaimed")
    mixed = parts[0].tokens.astype(np.float32).copy()
    for part in parts[1:]:
        mixed += part.tokens
    label_dim = np.asarray(labels[0]).shape
    soft = np.zeros(label_dim, dtype=np.float32)
    for weight, label in zip(np.asarray(allocation, dtype=np.float64) / tokens, labels):
        label = np.asarray(label, dtype=np.float32)
        if label.shape != label_dim:
            raise DimensionError(f"label shape {label.shape} differs from {label_dim}")
        soft += np.float32(weight) * label
    return CutMixBatch(tokens=mixed, soft_label=soft)


def shuffle_tokens(batch: CutMixBatch,
                   rng: np.random.Generator) -> tuple[CutMixBatch, np.ndarray]:
    """Permute the token rows of a (batch, M, d) grid, a fresh uniform
    permutation per sample.

    Returns the shuffled batch and the (batch, M) permutation array so the
    shuffle can be inverted (sample 0's permutation is drawn first).
    """
    grid = np.asarray(batch.tokens, dtype=np.float32)
    perms = np.stack([rng.permutation(grid.shape[1]) for _ in range(grid.shape[0])])
    shuffled = np.stack([g[perm] for g, perm in zip(grid, perms)])
    return CutMixBatch(tokens=shuffled, soft_label=batch.soft_label), perms


def unshuffle_grid(grid: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Invert ``shuffle_tokens`` on a (batch, M, d) array."""
    grid = np.asarray(grid)
    out = np.empty_like(grid)
    for b in range(grid.shape[0]):
        out[b, perms[b]] = grid[b]
    return out


def manifold_mixup(grid_a: np.ndarray, grid_b: np.ndarray, lam: float) -> np.ndarray:
    """lam * a + (1 - lam) * b, elementwise; lam in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"mixing weight must lie in [0, 1], got {lam}")
    grid_a = np.asarray(grid_a, dtype=np.float32)
    grid_b = np.asarray(grid_b, dtype=np.float32)
    if grid_a.shape != grid_b.shape:
        raise DimensionError(f"shapes {grid_a.shape} and {grid_b.shape} differ")
    return np.float32(lam) * grid_a + np.float32(1.0 - lam) * grid_b


def keep_count(keep_ratio: float, tokens: int) -> int:
    """Rows kept by a cutout mask; round half up for determinism."""
    if not keep_ratio > 0:
        raise ContractError(f"keep_ratio must be positive, got {keep_ratio}")
    if keep_ratio > 1:
        raise ContractError(f"keep_ratio must be at most 1, got {keep_ratio}")
    return min(tokens, int(math.floor(keep_ratio * tokens + 0.5)))


MASK_MODES = ("fixed", "per_iteration")


class CutoutMasker:
    """Random token-level cutout keeping round(keep_ratio * M) rows.

    ``fixed`` mode draws one mask at first use and reuses it on every call;
    ``per_iteration`` redraws a fresh mask each call.
    """

    def __init__(self, keep_ratio: float, mode: str, tokens: int,
                 rng: np.random.Generator):
        if mode not in MASK_MODES:
            raise ContractError(f"unknown cutout mode {mode!r}")
        self.count = keep_count(keep_ratio, tokens)
        self.mode = mode
        self.tokens = tokens
        self.rng = rng
        self._mask: np.ndarray | None = None

    def _draw(self) -> np.ndarray:
        return generate_mask_set([self.count, self.tokens - self.count], self.tokens,
                                 self.rng)[0]

    def next_mask(self) -> np.ndarray:
        if self.mode == "fixed":
            if self._mask is None:
                self._mask = self._draw()
            return self._mask
        return self._draw()


def add_gaussian_noise(tokens: np.ndarray, sigma: float,
                       rng: np.random.Generator) -> np.ndarray:
    """i.i.d. N(0, sigma^2) added per element; sigma = 0 is the identity."""
    if sigma < 0:
        raise ContractError(f"noise scale must be nonnegative, got {sigma}")
    tokens = np.asarray(tokens, dtype=np.float32)
    if sigma == 0:
        return tokens
    return tokens + rng.normal(0.0, sigma, size=tokens.shape).astype(np.float32)


def add_label_noise(label: np.ndarray, sigma: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Noise the label then clip at zero and renormalize rows to sum 1."""
    if sigma < 0:
        raise ContractError(f"noise scale must be nonnegative, got {sigma}")
    label = np.asarray(label, dtype=np.float32)
    if sigma == 0:
        return label
    noisy = np.clip(label + rng.normal(0.0, sigma, size=label.shape).astype(np.float32),
                    0.0, None)
    sums = noisy.sum(axis=-1, keepdims=True)
    flat = sums <= 0
    if flat.any():
        noisy = np.where(flat, np.float32(1.0 / label.shape[-1]), noisy)
        sums = noisy.sum(axis=-1, keepdims=True)
    return noisy / sums
