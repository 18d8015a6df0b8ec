"""Split vision transformer: client embedding segments and server block stack.

A client holds only the patch-embedding layer (linear patch projection,
bias, learnable positional table) and emits one token grid per image.  The
n clients' segments are one stacked fleet, row i being client i, so all of
them run forward, backward and their optimizer step as one.  The server
holds the class token, the pre-norm transformer blocks, the final norm, and
the classifier head.  Keeping the class token server-side means masks and
mixing always operate over exactly the patch-token rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (Tensor, add, attention, concat, embed, expand_batch, gelu, layer_norm,
                     linear, reshape, slice_rows)


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    patch_size: int = 8
    channels: int = 3
    embed_dim: int = 192
    depth: int = 6
    heads: int = 3
    mlp_ratio: float = 4.0
    num_classes: int = 10

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ContractError(
                f"image_size {self.image_size} is not a multiple of patch_size {self.patch_size}")
        if self.embed_dim % self.heads != 0:
            raise ContractError(
                f"embed_dim {self.embed_dim} is not a multiple of heads {self.heads}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        """Patch-token count M = (image_size / patch_size)^2."""
        return self.grid * self.grid

    @property
    def patch_pixels(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


# Paper-shaped defaults and a desk-scale profile that trains in minutes.
PROFILES = {
    "paper": ModelConfig(image_size=32, patch_size=8, channels=3, embed_dim=192,
                         depth=6, heads=3, num_classes=10),
    "desk": ModelConfig(image_size=16, patch_size=4, channels=3, embed_dim=32,
                        depth=2, heads=2, num_classes=10),
}


@dataclass
class ClientSegment:
    """The patch embeddings of a fleet of n clients, stacked: weight
    (n, embed_dim, patch_pixels), bias (n, embed_dim), positional tables
    (n, tokens, embed_dim).  Row i is client i."""

    patch_weight: Tensor
    patch_bias: Tensor
    pos_embed: Tensor

    def __len__(self) -> int:
        return self.patch_weight.shape[0]

    def parameters(self) -> dict[str, Tensor]:
        return {"patch_weight": self.patch_weight, "patch_bias": self.patch_bias,
                "pos_embed": self.pos_embed}

    def row(self, i: int) -> "ClientSegment":
        """Client i as a fleet of one whose arrays are views of row i."""
        return ClientSegment(*(Tensor(t.values[i:i + 1]) for t in self.parameters().values()))


@dataclass
class BlockParams:
    ln1_gain: Tensor
    ln1_bias: Tensor
    q_weight: Tensor
    q_bias: Tensor
    k_weight: Tensor
    k_bias: Tensor
    v_weight: Tensor
    v_bias: Tensor
    out_weight: Tensor
    out_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    fc1_weight: Tensor
    fc1_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor


@dataclass
class ServerSegment:
    """Class token, transformer blocks, final norm, classifier head."""

    blocks: list[BlockParams]
    class_token: Tensor
    norm_gain: Tensor
    norm_bias: Tensor
    head_weight: Tensor
    head_bias: Tensor

    def parameters(self) -> dict[str, Tensor]:
        named = {"class_token": self.class_token, "norm_gain": self.norm_gain,
                 "norm_bias": self.norm_bias, "head_weight": self.head_weight,
                 "head_bias": self.head_bias}
        for i, blk in enumerate(self.blocks):
            for key, value in vars(blk).items():
                named[f"block{i}.{key}"] = value
        return named


def _truncated_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) with |z| > 2 resampled."""
    out = gen.normal(0.0, 1.0, size=shape)
    while True:
        over = np.abs(out) > 2.0
        if not over.any():
            break
        out[over] = gen.normal(0.0, 1.0, size=int(over.sum()))
    return (out * 0.02).astype(np.float32)


def init_parameters(config: ModelConfig, seed: int) -> tuple[ClientSegment, ServerSegment]:
    """Deterministic init: trunc-normal(0.02) weights, zero biases and positions.

    The client segment is a fleet of one; ``fleet_of`` repeats it.

    Draw order is fixed (client patch weight, then per-block q/k/v/out/fc1/fc2,
    class token, head) so the same seed always yields the same parameters.
    """
    from .rng import STREAM_INIT, stream_generator

    gen = stream_generator(seed, STREAM_INIT)
    d, p = config.embed_dim, config.patch_pixels

    def weight(*shape):
        return Tensor(_truncated_normal(gen, shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

    client = ClientSegment(patch_weight=weight(1, d, p), patch_bias=zeros(1, d),
                           pos_embed=zeros(1, config.tokens, d))
    blocks = []
    for _ in range(config.depth):
        blocks.append(BlockParams(
            ln1_gain=ones(d), ln1_bias=zeros(d),
            q_weight=weight(d, d), q_bias=zeros(d),
            k_weight=weight(d, d), k_bias=zeros(d),
            v_weight=weight(d, d), v_bias=zeros(d),
            out_weight=weight(d, d), out_bias=zeros(d),
            ln2_gain=ones(d), ln2_bias=zeros(d),
            fc1_weight=weight(config.mlp_dim, d), fc1_bias=zeros(config.mlp_dim),
            fc2_weight=weight(d, config.mlp_dim), fc2_bias=zeros(d),
        ))
    server = ServerSegment(blocks=blocks, class_token=weight(1, d),
                           norm_gain=ones(d), norm_bias=zeros(d),
                           head_weight=weight(config.num_classes, d),
                           head_bias=zeros(config.num_classes))
    return client, server


def extract_patches(images: np.ndarray, config: ModelConfig) -> np.ndarray:
    """(B, C, H, W) -> (B, M, C*p*p); patch index is row-major over the grid,
    pixels within a patch are channel-major."""
    if images.ndim != 4:
        raise DimensionError(f"images must be (batch, C, H, W), got {images.shape}")
    b, c, h, w = images.shape
    if (c, h, w) != (config.channels, config.image_size, config.image_size):
        raise DimensionError(
            f"images {images.shape[1:]} do not match config "
            f"({config.channels}, {config.image_size}, {config.image_size})")
    g, p = config.grid, config.patch_size
    patches = images.reshape(b, c, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(patches.reshape(b, config.tokens, config.patch_pixels),
                                dtype=np.float32)


def client_forward(segment: ClientSegment, images: np.ndarray,
                   config: ModelConfig) -> Tensor:
    """Every client's embedding at once: ``(n, batch, C, H, W)`` images, row i
    through client i, to ``(n, batch, M, d)`` tokens; no class token.

    Per-patch flatten, then one ``embed`` node: linear projection plus the
    positional table.
    """
    if images.ndim != 5 or images.shape[0] != len(segment):
        raise DimensionError(
            f"images must be ({len(segment)} clients, batch, C, H, W), got {images.shape}")
    n, batch = images.shape[:2]
    patches = extract_patches(images.reshape((n * batch,) + images.shape[2:]), config)
    return embed(patches.reshape(n, batch, config.tokens, config.patch_pixels),
                 segment.patch_weight, segment.patch_bias, segment.pos_embed)


def server_forward(segment: ServerSegment, tokens: Tensor,
                   config: ModelConfig) -> Tensor:
    """Prepend class token, run pre-norm blocks, norm the class row, apply head.

    The head reads only the class row, so the last block attends with the
    class row as its only query and computes that row alone.
    """
    if tokens.ndim != 3 or tokens.shape[1] != config.tokens or tokens.shape[2] != config.embed_dim:
        raise DimensionError(
            f"tokens must be (batch, {config.tokens}, {config.embed_dim}), got {tokens.shape}")
    batch = tokens.shape[0]
    cls = expand_batch(segment.class_token, batch)
    x = concat([cls, tokens], axis=1)
    last = len(segment.blocks) - 1
    for i, blk in enumerate(segment.blocks):
        h = attention(layer_norm(x, blk.ln1_gain, blk.ln1_bias), blk.q_weight, blk.q_bias,
                      blk.k_weight, blk.k_bias, blk.v_weight, blk.v_bias, config.heads,
                      queries=1 if i == last else None)
        if i == last:
            x = slice_rows(x, 0, 1)
        x = add(x, linear(h, blk.out_weight, blk.out_bias))
        h = linear(layer_norm(x, blk.ln2_gain, blk.ln2_bias), blk.fc1_weight, blk.fc1_bias)
        h = linear(gelu(h), blk.fc2_weight, blk.fc2_bias)
        x = add(x, h)
    if not segment.blocks:
        x = slice_rows(x, 0, 1)
    cls_row = reshape(x, (batch, config.embed_dim))
    normed = layer_norm(cls_row, segment.norm_gain, segment.norm_bias)
    return linear(normed, segment.head_weight, segment.head_bias)


def fleet_of(segment: ClientSegment, n: int) -> ClientSegment:
    """A fleet of n clients, each starting from a fleet of one's parameters."""
    return ClientSegment(*(Tensor(np.repeat(t.values, n, axis=0), requires_grad=True)
                           for t in segment.parameters().values()))
