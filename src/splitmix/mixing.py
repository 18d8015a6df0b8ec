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

import numpy as np

from .errors import ContractError, DimensionError, ProtocolError


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
    masks[np.repeat(np.arange(len(allocation)), allocation), order] = 1
    return masks


def cut(tokens: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The token rows times their mask bits, as a new float32 array.

    ``tokens`` is ``(..., M, d)``.  ``mask`` is a length-M 0/1 vector, or a
    stack of them that broadcasts over the leading axes: ``(n, 1, M)`` cuts
    an ``(n, batch, M, d)`` fleet with one mask per client.  A dropped row
    is ``value * 0``, so negative values leave -0.0 behind.
    """
    mask = _validate_mask(mask)
    tokens = np.asarray(tokens, dtype=np.float32)
    lead = tokens.shape[:-2]
    if mask.ndim > len(lead) + 1:
        raise ContractError(f"a {mask.ndim}-d mask cannot cut {tokens.ndim}-d token rows")
    if (tokens.ndim < 2 or tokens.shape[-2] != mask.shape[-1]
            or any(m not in (1, t) for m, t in zip(mask.shape[-2::-1], lead[::-1]))):
        raise DimensionError(f"mask of shape {mask.shape} does not fit token rows {tokens.shape}")
    return tokens * mask[..., None].astype(np.float32)


def cutmix_assemble(uploads: np.ndarray, masks: np.ndarray, labels: np.ndarray,
                    groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum each group's uploads into one grid, in member order; its soft
    label is the a_i/M mix of its members' label rows, a_i being member i's
    mask count.  A singleton passes its rows through unchanged.

    Row i of the ``(n, batch, M, d)`` uploads, ``(n, M)`` masks and
    ``(n, batch, classes)`` labels is client i's; ``groups`` lists each
    group's ids.  Returns the ``(G, batch, M, d)`` grids and ``(G, batch,
    classes)`` soft labels, summed one member position at a time across all
    groups.  A position of a group claimed twice or never is a protocol
    error naming the client."""
    uploads = np.asarray(uploads, dtype=np.float32)
    masks = _validate_mask(masks)
    labels = np.asarray(labels, dtype=np.float32)
    n = len(uploads)
    if (uploads.ndim != 4 or masks.shape != (n, uploads.shape[2]) or labels.ndim != 3
            or labels.shape[:2] != uploads.shape[:2]
            or not all(groups) or not all(0 <= cid < n for group in groups for cid in group)):
        raise DimensionError(f"groups {groups}, masks {masks.shape} and labels "
                             f"{labels.shape} do not fit uploads {uploads.shape}")
    first = [group[0] for group in groups]
    grids, soft = uploads[first], labels[first]
    mixing = [g for g, group in enumerate(groups) if len(group) > 1]
    soft[mixing] = 0.0
    weights = (masks.sum(axis=1) / masks.shape[1]).astype(np.float32)  # a_i / M
    claimed = np.zeros((len(groups), masks.shape[1]), dtype=np.int64)
    for j in range(max((len(groups[g]) for g in mixing), default=0)):
        rows = [g for g in mixing if len(groups[g]) > j]
        ids = [groups[g][j] for g in rows]
        if j:
            grids[rows] += uploads[ids]
        soft[rows] += weights[ids][:, None, None] * labels[ids]
        claimed[rows] += masks[ids]
    broken = (claimed[mixing] != 1).any(axis=1)
    if broken.any():  # name the first broken group's first fault, in member order
        ids = groups[mixing[int(np.argmax(broken))]]
        claimed = np.cumsum(masks[ids], axis=0)
        overlap = (claimed > 1) & (masks[ids] > 0)
        if overlap.any():
            who = int(np.argmax(overlap.any(axis=1)))
            raise ProtocolError(f"mask overlap at position {int(np.argmax(overlap[who]))} "
                                f"claimed by client {ids[who]}")
        raise ProtocolError(f"mask set leaves position {int(np.argmin(claimed[-1]))} unclaimed")
    return grids, soft


def shuffle_tokens(grids: np.ndarray,
                   rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Permute the token rows of each grid of a (G, batch, M, d) stack, a
    fresh uniform permutation per sample, drawn from ``rngs[g]`` for grid g
    (sample 0's first).  Returns the shuffled grids and the (G, batch, M)
    permutations, so each grid's shuffle can be inverted."""
    grids = np.asarray(grids, dtype=np.float32)
    if grids.ndim != 4 or len(rngs) != len(grids):
        raise DimensionError(f"{len(rngs)} generators cannot shuffle grids {grids.shape}")
    count, batch, tokens = grids.shape[:3]
    perms = np.array([[rng.permutation(tokens) for _ in range(batch)] for rng in rngs],
                     dtype=np.int64).reshape(grids.shape[:3])
    return grids[np.arange(count)[:, None, None], np.arange(batch)[:, None], perms], perms


def unshuffle_grid(grid: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Invert one grid's ``shuffle_tokens`` on a (batch, M, d) array."""
    out = np.empty_like(grid)
    out[np.arange(len(perms))[:, None], perms] = grid
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
