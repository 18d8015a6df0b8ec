"""Independent float64 reference implementations and finite differences.

Everything here is deliberately separate from the package's engine: plain
numpy in double precision, loop-based where that makes independence
clearer.  Finite differences of these references give clean gradients to
hold the float32 autodiff to.  ``encode_records`` writes datasets in the
CIFAR-10 record format the loader reads.  The per-group mixer and router
(``ref_cutmix_assemble`` ... ``ref_route_gradients``) and the per-record
transcript writer are the loops the fleet-array round is held to bit for
bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from splitmix.data import CIFAR_RECORD
from splitmix.errors import ContractError, ProtocolError
from splitmix.protocol import GradientDown
from splitmix.transcript import TranscriptWriter


def central_difference(f, arrays: dict[str, np.ndarray], h: float = 1e-3) -> dict[str, np.ndarray]:
    """Central finite differences of scalar f with respect to each array."""
    grads = {}
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            out[i] = (up - down) / (2.0 * h)
        grads[name] = out.reshape(arr.shape)
    return grads


def ref_gelu(x):
    k = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(k * (x + 0.044715 * x ** 3)))


def ref_layer_norm(x, gain=None, bias=None, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    out = (x - mu) / np.sqrt(var + eps)
    if gain is not None:
        out = out * gain
    if bias is not None:
        out = out + bias
    return out


def ref_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def ref_cross_entropy(logits, soft_labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    return -(soft_labels * logp).sum() / logits.shape[0]


def ref_extract_patches(images, patch):
    """Loop-based patch extraction: row-major grid, channel-major pixels."""
    b, c, h, w = images.shape
    grid = h // patch
    out = np.zeros((b, grid * grid, c * patch * patch))
    for n in range(b):
        for gy in range(grid):
            for gx in range(grid):
                tile = images[n, :, gy * patch:(gy + 1) * patch, gx * patch:(gx + 1) * patch]
                out[n, gy * grid + gx] = tile.reshape(-1)
    return out


def ref_client_forward(params, images, patch):
    """params: patch_weight (d, P), patch_bias (d,), pos_embed (M, d), each
    with or without a leading fleet axis of one."""
    patches = ref_extract_patches(images, patch)
    tokens = patches @ np.swapaxes(params["patch_weight"], -1, -2)
    return tokens + params["patch_bias"][..., None, :] + params["pos_embed"]


def _ref_attention(x, p, prefix, heads):
    b, n, d = x.shape
    dh = d // heads

    def proj(name):
        w, bias = p[f"{prefix}{name}_weight"], p[f"{prefix}{name}_bias"]
        return (x.reshape(b * n, d) @ w.T + bias).reshape(b, n, d)

    def split(t):
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(proj("q")), split(proj("k")), split(proj("v"))
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    weights = ref_softmax(scores, axis=-1)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    w, bias = p[f"{prefix}out_weight"], p[f"{prefix}out_bias"]
    return (ctx.reshape(b * n, d) @ w.T + bias).reshape(b, n, d)


def ref_server_forward(params, tokens, depth, heads):
    """params use the package's flat naming (block{i}.*, class_token, ...)."""
    b, m, d = tokens.shape
    cls = np.broadcast_to(params["class_token"], (b, 1, d))
    x = np.concatenate([cls, tokens], axis=1)
    n = m + 1
    for i in range(depth):
        p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(f"block{i}.")}
        h = ref_layer_norm(x, p["ln1_gain"], p["ln1_bias"])
        x = x + _ref_attention(h, p, "", heads)
        h = ref_layer_norm(x, p["ln2_gain"], p["ln2_bias"])
        h = ref_gelu(h.reshape(b * n, d) @ p["fc1_weight"].T + p["fc1_bias"])
        x = x + (h @ p["fc2_weight"].T + p["fc2_bias"]).reshape(b, n, d)
    cls_row = ref_layer_norm(x[:, 0, :], params["norm_gain"], params["norm_bias"])
    return cls_row @ params["head_weight"].T + params["head_bias"]


def ref_make_synthetic(num_samples, classes, image_size, seed, channels=3, noise_std=0.1,
                       blob_radius=None, jitter=1.0, mosaic_std=0.0, mosaic_cell=4):
    """``data.make_synthetic`` one sample at a time, with three generator
    calls per sample: the loop the chunked generator is held to byte for byte."""
    from splitmix.data import _class_templates
    from splitmix.rng import STREAM_DATA, stream_generator

    gen = stream_generator(seed, STREAM_DATA)
    if blob_radius is None:
        blob_radius = image_size / 6.0
    centers, colors = _class_templates(classes, image_size, channels)
    labels = np.arange(num_samples, dtype=np.int64) % classes
    gen.shuffle(labels)
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    cells = image_size // mosaic_cell
    images = np.empty((num_samples, channels, image_size, image_size), dtype=np.float32)
    for i, label in enumerate(labels):
        cy, cx = centers[label] + gen.normal(0.0, jitter, size=2)
        blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * blob_radius ** 2))
        base = 0.7 * colors[label][:, None, None] * blob[None, :, :] + 0.15
        if mosaic_std > 0:
            tiles = gen.normal(0.0, mosaic_std, size=(channels, cells, cells))
            base = base + np.repeat(np.repeat(tiles, mosaic_cell, axis=1),
                                    mosaic_cell, axis=2)
        noisy = base + gen.normal(0.0, noise_std, size=base.shape)
        images[i] = np.clip(noisy, 0.0, 1.0)
    return images, labels


def named_values(segment, prefix="") -> dict[str, np.ndarray]:
    """Float64 copies of a segment's parameters keyed by their flat names."""
    return {prefix + k: t.values.astype(np.float64) for k, t in segment.parameters().items()}


class RefAdamW:
    """Per-array AdamW: one pair of moments per parameter, stepped in turn.

    Unlike the rest of this module it runs in float32 with the package's
    elementwise expressions, because the flat optimizer is held to it bit
    for bit, not within a tolerance.  It steps copies of ``values``, or with
    ``in_place`` the given arrays themselves.
    """

    def __init__(self, values: dict[str, np.ndarray], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.05,
                 in_place: bool = False):
        self.values = dict(values) if in_place else {k: v.copy() for k, v in values.items()}
        self.lr, (self.beta1, self.beta2) = lr, betas
        self.eps, self.weight_decay = eps, weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in self.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.values.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, value in self.values.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            value -= np.float32(self.lr) * (update + self.weight_decay * value)


def encode_records(dataset) -> bytes:
    """Re-encode a dataset into the binary record format (round-trips CIFAR).

    The record layout is fixed at 3x32x32, so only CIFAR-shaped datasets
    (including synthetic ones generated at that size) can be dumped.
    """
    n = len(dataset)
    if dataset.images.shape[1:] != (3, 32, 32):
        raise ContractError(
            f"record format requires (3, 32, 32) images, got {dataset.images.shape[1:]}")
    out = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
    out[:, 0] = dataset.labels.astype(np.uint8)
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    out[:, 1:] = pixels.reshape(n, -1)
    return out.tobytes()


def ref_cutmix_assemble(uploads, masks, labels, groups):
    """``mixing.cutmix_assemble`` one group at a time: a copy of the first
    member's upload plus each other member's in turn, and a soft label summed
    from zeros; a singleton's rows pass through."""
    grids, soft_labels = [], []
    for ids in groups:
        if len(ids) == 1:
            grids.append(uploads[ids[0]])
            soft_labels.append(labels[ids[0]])
            continue
        claimed = np.cumsum(masks[ids], axis=0)
        overlap = (claimed > 1) & (masks[ids] > 0)
        if overlap.any():
            who = int(np.argmax(overlap.any(axis=1)))
            raise ProtocolError(f"mask overlap at position {int(np.argmax(overlap[who]))} "
                                f"claimed by client {ids[who]}")
        if not (claimed[-1] == 1).all():
            raise ProtocolError(
                f"mask set leaves position {int(np.argmin(claimed[-1]))} unclaimed")
        mixed = uploads[ids[0]].copy()
        for cid in ids[1:]:
            mixed += uploads[cid]
        soft = np.zeros(labels.shape[1:], dtype=np.float32)
        for cid in ids:
            soft += np.float32(masks[cid].sum() / masks.shape[1]) * labels[cid]
        grids.append(mixed)
        soft_labels.append(soft)
    return np.stack(grids), np.stack(soft_labels)


def ref_shuffle_tokens(grids, rngs):
    """``mixing.shuffle_tokens`` one grid at a time, gathered along the token axis."""
    perms = [np.stack([rng.permutation(grid.shape[1]) for _ in range(len(grid))])
             for grid, rng in zip(grids, rngs)]
    return (np.stack([np.take_along_axis(grid, p[..., None], axis=1)
                      for grid, p in zip(grids, perms)]), np.stack(perms))


def ref_unshuffle_grid(grid, perms):
    out = np.empty_like(grid)
    np.put_along_axis(out, perms[..., None], grid, axis=1)
    return out


def ref_route_gradients(members, masks, grad, mode, seeds):
    """One freshly made gradient per member (one shared array under
    broadcast), each also copied into the member's row of ``seeds``."""
    if mode == "unicast":
        downs = [GradientDown(target=m, rows=int(mask.sum()),
                              grad=grad * mask[:, None].astype(np.float32))
                 for m, mask in zip(members, masks)]
    else:
        downs = [GradientDown(target=m, grad=grad, rows=grad.shape[-2], broadcast=True)
                 for m in members]
    for down in downs:
        seeds[down.target] = down.grad
    return downs


class PerRecordTranscriptWriter(TranscriptWriter):
    """Writes each record as it is made, header and payload, two writes a record."""

    def _record(self, tag, *payload):
        self._fh.write(struct.pack("<BI", tag, sum(map(len, payload))))
        self._fh.write(b"".join(payload))
