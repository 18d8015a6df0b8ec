"""The composite ops that fused nodes replace, kept as references.

``matmul``, ``softmax``, ``transpose``, ``mul``, ``scale`` and ``mean`` are
the engine's former ops, unchanged (``mul`` still broadcasts a smaller
operand over the trailing dimensions of the larger one); ``attention`` is
the chain the model ran before ``tensor.attention`` became one node,
``mse`` the decoder loss before ``tensor.mse`` did, ``gelu`` the engine's
GELU before it wrote its temporaries in place, and ``client_forward`` one
client's embedding before the fleet's became one ``embed`` node.  The
engine's ops are held to these bit for bit, in values and in gradients.
``server_forward`` is the server pass before its last block computed only
the class row: every block over all rows, then the class row sliced out.
It is held to the model's pass in value, not in bits.
"""

from __future__ import annotations

import math

import numpy as np

from splitmix import tensor
from splitmix.errors import DimensionError
from splitmix.model import extract_patches
from splitmix.tensor import (_GELU_C, _GELU_K, Tensor, _as_tensor, _node, add, concat,
                             expand_batch, layer_norm, linear, reshape, slice_rows)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul requires at least 2-d operands")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch dims differ, {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims {a.shape[-1]} and {b.shape[-2]} disagree")
    out = a.values @ b.values

    def bwd(g):
        return g @ np.swapaxes(b.values, -1, -2), np.swapaxes(a.values, -1, -2) @ g

    return _node(out, (a, b), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    if a.ndim == 0 or a.shape[axis] == 0:
        raise DimensionError("softmax over an empty axis")
    x = a.values
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = (ex / ex.sum(axis=axis, keepdims=True)).astype(np.float32)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _node(out, (a,), bwd)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of {a.ndim} axes")
    inverse = np.argsort(axes)
    out = np.transpose(a.values, axes)
    return _node(out, (a,), lambda g: (np.transpose(g, inverse),))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    lead = a.ndim - b.ndim
    if lead < 0 or a.shape[lead:] != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} are incompatible")

    def bwd(g):
        gb = g * a.values
        return g * b.values, gb.sum(axis=tuple(range(lead))) if lead else gb

    return _node(a.values * b.values, (a, b), bwd)


def scale(a, factor: float) -> Tensor:
    a = _as_tensor(a)
    factor = float(factor)
    return _node(a.values * factor, (a,), lambda g: (g * factor,))


def mean(a) -> Tensor:
    a = _as_tensor(a)
    if a.values.size == 0:
        raise DimensionError("mean of an empty tensor")
    n = a.values.size
    out = np.float32(a.values.mean())
    shape = a.shape
    return _node(np.asarray(out), (a,), lambda g: (np.full(shape, g / n, dtype=np.float32),))


def mse(pred, target) -> Tensor:
    """The decoder's former loss: ``mean(mul(d, d))``, ``d = pred - target``."""
    diff = add(pred, scale(Tensor(target), -1.0))
    return mean(mul(diff, diff))


def gelu(a) -> Tensor:
    """GELU via the tanh approximation (differentiable everywhere)."""
    a = _as_tensor(a)
    x = a.values
    inner = _GELU_K * (x + _GELU_C * x * x * x)
    t = np.tanh(inner)
    out = (0.5 * x * (1.0 + t)).astype(np.float32)

    def bwd(g):
        d_inner = _GELU_K * (1.0 + 3.0 * _GELU_C * x * x)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * local,)

    return _node(out, (a,), bwd)


def _split_heads(x: Tensor, batch: int, rows: int, heads: int, head_dim: int) -> Tensor:
    return transpose(reshape(x, (batch, rows, heads, head_dim)), (0, 2, 1, 3))


def attention(x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias, heads, queries=None):
    """The model's former attention chain, up to the out projection, with
    queries from the first ``queries`` rows (default: every row)."""
    batch, rows, d = x.shape
    queries = rows if queries is None else queries
    head_dim = d // heads
    q = _split_heads(linear(slice_rows(x, 0, queries), q_weight, q_bias),
                     batch, queries, heads, head_dim)
    k = _split_heads(linear(x, k_weight, k_bias), batch, rows, heads, head_dim)
    v = _split_heads(linear(x, v_weight, v_bias), batch, rows, heads, head_dim)
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    weights = softmax(scores, axis=-1)
    context = matmul(weights, v)
    return reshape(transpose(context, (0, 2, 1, 3)), (batch, queries, d))


def server_forward(segment, tokens, config):
    """The all-rows server pass: every block over the class row and all
    patch rows, then the class row sliced out for the norm and head."""
    batch = tokens.shape[0]
    x = concat([expand_batch(segment.class_token, batch), tokens], axis=1)
    for blk in segment.blocks:
        h = tensor.attention(layer_norm(x, blk.ln1_gain, blk.ln1_bias), blk.q_weight, blk.q_bias,
                             blk.k_weight, blk.k_bias, blk.v_weight, blk.v_bias, config.heads)
        x = add(x, linear(h, blk.out_weight, blk.out_bias))
        h = linear(layer_norm(x, blk.ln2_gain, blk.ln2_bias), blk.fc1_weight, blk.fc1_bias)
        h = linear(tensor.gelu(h), blk.fc2_weight, blk.fc2_bias)
        x = add(x, h)
    cls_row = reshape(slice_rows(x, 0, 1), (batch, config.embed_dim))
    normed = layer_norm(cls_row, segment.norm_gain, segment.norm_bias)
    return linear(normed, segment.head_weight, segment.head_bias)


def client_forward(weight, bias, pos, images, config):
    """One client's embedding of ``(batch, C, H, W)`` images: a ``linear`` of its
    ``(d, P)`` weight and ``(d,)`` bias, then an ``add`` of its ``(M, d)`` table,
    repeated over the batch."""
    patches = Tensor(extract_patches(images, config))
    return add(linear(patches, weight, bias), expand_batch(pos, images.shape[0]))
