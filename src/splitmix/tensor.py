"""Reverse-mode automatic differentiation over float32 numpy arrays.

The engine is a classic tape-free design: every operation returns a new
``Tensor`` holding references to its inputs and a closure that maps the
output gradient to input gradients.  ``backward`` topologically sorts the
recorded graph from the loss and visits each node exactly once in reverse
order.  Gradients are stored on leaves only (tensors created directly, with
no recorded backward); intermediate nodes pass theirs on and keep none.
Inside ``with no_grad():`` nothing is recorded, so a forward that is never
backpropagated frees each temporary as soon as the next operation has read it.

Contracts:
  * all values and gradients are float32;
  * the fused nodes return each parameter gradient C-contiguous, in its
    parameter's shape;
  * leaf gradients accumulate across ``backward`` calls until the
    optimizer's ``zero_grads`` clears them;
  * from the moment its optimizer is built, a parameter's values are a
    view of that optimizer's flat buffer: write them in place, as FedAvg
    does, and never rebind them (``AdamW.step`` rejects a rebound one);
  * no broadcasting: ``add`` takes operands of equal shape, and a fused
    node states the shapes it takes;
  * graphs are single-threaded; independent graphs share no state, so
    threads may each build and backpropagate their own.  Whether operations
    record is a per-thread flag: ``no_grad`` on one thread leaves the others
    recording.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


class Tensor:
    """A dense float32 array plus optional gradient and graph linkage."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Recording(threading.local):
    """Whether this thread's operations record a graph; every thread starts on."""

    on = True


_recording = _Recording()


class no_grad:
    """Context in which the calling thread's operations record no graph.

    Outputs made inside have ``requires_grad`` false and keep neither
    parents nor a backward closure.  The previous state returns on exit,
    also when the block raises.  Other threads keep recording.
    """

    def __enter__(self) -> None:
        self._previous, _recording.on = _recording.on, False

    def __exit__(self, *exc) -> bool:
        _recording.on = self._previous
        return False


def _node(values: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(values)
    if _recording.on and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph below ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor, grad: np.ndarray | None = None) -> None:
    """Populate ``grad`` for every requires_grad leaf reachable from ``root``.

    ``grad`` is the gradient of some downstream quantity with respect to
    ``root`` and must have ``root``'s shape; a client seeds its smashed data
    with the gradient the server sent back.  Without it, ``root`` must be a
    scalar loss and is seeded with 1.  Only leaves (tensors without a
    recorded backward) receive ``grad``; intermediate nodes get none.  Leaf
    gradients add onto whatever is already stored, so calling twice without
    clearing them doubles them.
    """
    if grad is None:
        if root.values.shape != ():
            raise ContractError(f"backward requires a scalar loss, got shape {root.values.shape}")
        grad = np.ones((), dtype=np.float32)
    elif np.shape(grad) != root.values.shape:
        raise DimensionError(
            f"backward: gradient {np.shape(grad)} does not match root {root.values.shape}")
    if not root.requires_grad:
        return
    flowing: dict[int, np.ndarray] = {id(root): np.asarray(grad, dtype=np.float32)}
    for node in reversed(_topo_order(root)):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pgrad in zip(node._parents, node._backward(g)):
            if pgrad is None or not parent.requires_grad:
                continue
            pgrad = pgrad.astype(np.float32, copy=False)
            key = id(parent)
            flowing[key] = pgrad if key not in flowing else flowing[key] + pgrad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    return _node(a.values + b.values, (a, b), lambda g: (g, g))


def linear(x, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight.T + bias`` over the last axis of ``(..., in)`` tokens.

    ``weight`` is ``(out, in)`` and ``bias`` is ``(out,)``.  One node stands
    for the reshape / transpose / matmul / add chain and evaluates its numpy
    expressions, except that the weight gradient is ``g^T @ x`` in the
    weight's own layout rather than the chain's transposed view
    ``(x^T @ g)^T``, so the leaf copy in ``backward`` is a plain memcpy.  The
    two products are equal bit for bit, so values and gradients match the
    chain bit for bit.
    """
    x = _as_tensor(x)
    if weight.ndim != 2 or bias.shape != weight.shape[:1]:
        raise DimensionError(
            f"linear: weight {weight.shape} and bias {bias.shape} are not (out, in) and (out,)")
    out_dim, in_dim = weight.shape
    if x.ndim < 1 or x.shape[-1] != in_dim:
        raise DimensionError(f"linear: input {x.shape} does not end in {in_dim}")
    w = weight.values
    flat = x.values.reshape(-1, in_dim)
    out = (flat @ w.T + bias.values).reshape(x.shape[:-1] + (out_dim,))

    def bwd(g):
        g = g.reshape(-1, out_dim)
        gx = (g @ w).reshape(x.shape) if x.requires_grad else None
        return gx, g.T @ flat, g.sum(axis=0)

    return _node(out, (x, weight, bias), bwd)


def embed(patches: np.ndarray, weight: Tensor, bias: Tensor, pos: Tensor) -> Tensor:
    """Patch embedding of a fleet of n clients: ``patches @ weight.T + bias + pos``
    for each client.

    ``patches`` is a constant ``(n, batch, rows, in)`` array; ``weight`` is
    ``(n, out, in)``, ``bias`` ``(n, out)`` and ``pos`` ``(n, rows, out)``.
    One node stands for a ``linear`` and an ``add`` per client and evaluates
    their numpy expressions on all n slices at once (stacked matmuls, sums
    over axis 1), so each client's values and gradients match its own pair
    bit for bit.  As in ``linear``, the weight gradient is ``g^T @ patches``
    in the weight's ``(n, out, in)`` layout.
    """
    if patches.ndim != 4:
        raise DimensionError(f"embed: patches must be (n, batch, rows, in), got {patches.shape}")
    n, batch, rows, in_dim = patches.shape
    out_dim = bias.shape[-1]
    if (weight.shape != (n, out_dim, in_dim) or bias.shape != (n, out_dim)
            or pos.shape != (n, rows, out_dim)):
        raise DimensionError(f"embed: weight {weight.shape}, bias {bias.shape} and pos "
                             f"{pos.shape} do not fit patches {patches.shape}")
    flat = patches.reshape(n, -1, in_dim)
    out = flat @ np.swapaxes(weight.values, 1, 2)
    out += bias.values[:, None, :]
    out = out.reshape(n, batch, rows, out_dim)
    out += pos.values[:, None]

    def bwd(g):
        g_pos = g.sum(axis=1)
        g = g.reshape(n, -1, out_dim)
        return np.swapaxes(g, 1, 2) @ flat, g.sum(axis=1), g_pos

    return _node(out, (weight, bias, pos), bwd)


def gelu(a) -> Tensor:
    """GELU via the tanh approximation (differentiable everywhere).

    Temporaries are written in place, in the order of the textbook
    expressions: at server-batch sizes each fresh array would be larger
    than glibc's mmap threshold, so the allocator would map and unmap it on
    every call.
    """
    a = _as_tensor(a)
    x = a.values
    t = _GELU_C * x  # becomes tanh(k * (x + c x^3))
    t *= x
    t *= x
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t

    def bwd(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) k (1 + 3 c x^2), multiplied by g
        tail = t * t
        np.subtract(1.0, tail, out=tail)
        tail *= 0.5 * x
        local = (3.0 * _GELU_C) * x
        local *= x
        local += 1.0
        local *= _GELU_K
        tail *= local
        np.add(t, 1.0, out=local)
        local *= 0.5
        local += tail
        local *= g
        return (local,)

    return _node(out, (a,), bwd)


def layer_norm(a, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Backward follows the standard per-row reduction: with normalized
    values ``h`` and upstream ``dh = g * gain``,
    ``dx = (dh - mean(dh) - h * mean(dh * h)) / sqrt(var + eps)``, eps = 1e-5.
    """
    a = _as_tensor(a)
    if a.ndim < 1 or a.shape[-1] == 0:
        raise DimensionError("layer_norm requires a non-empty last axis")
    dim = a.shape[-1]
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != (dim,):
            raise DimensionError(f"layer_norm {name} must have shape ({dim},), got {p.shape}")
    # Row means are ``np.add.reduce(...) / dim``: what ``ndarray.mean`` computes,
    # without its Python wrapper.
    x = a.values
    mu = np.add.reduce(x, axis=-1, keepdims=True) / dim
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt(var + np.float32(1e-5))
    normed = centered * inv

    def bwd(g):
        dh = g * gain.values
        mean_dh = np.add.reduce(dh, axis=-1, keepdims=True) / dim
        mean_dh_h = np.add.reduce(dh * normed, axis=-1, keepdims=True) / dim
        dx = (dh - mean_dh - normed * mean_dh_h) * inv
        return (dx, (g * normed).reshape(-1, dim).sum(axis=0),
                g.reshape(-1, dim).sum(axis=0))

    return _node(normed * gain.values + bias.values, (a, gain, bias), bwd)


def attention(x, q_weight: Tensor, q_bias: Tensor, k_weight: Tensor, k_bias: Tensor,
              v_weight: Tensor, v_bias: Tensor, heads: int, queries: int | None = None) -> Tensor:
    """Multi-head attention over ``(batch, rows, dim)`` tokens, before the out
    projection.

    Queries come from the first ``queries`` rows (default: every row), keys
    and values from all rows, so the output is ``(batch, queries, dim)``.
    One node stands for the chain of q/k/v ``linear``s (the q one over the
    query rows only), head split, scaled ``q @ k^T``, softmax, ``@ v`` and
    head merge.  It evaluates that chain's numpy expressions in the chain's
    order, with the softmax temporaries written in place, so values and all
    seven gradients match it bit for bit.  As in ``linear``, each weight
    gradient is ``g^T @ x`` in the weight's own layout.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"attention expects (batch, rows, dim) tokens, got {x.shape}")
    batch, rows, dim = x.shape
    if heads < 1 or dim % heads:
        raise DimensionError(f"attention: {heads} heads do not divide dim {dim}")
    queries = rows if queries is None else queries
    if not 1 <= queries <= rows:
        raise DimensionError(f"attention: {queries} queries out of range for {rows} rows")
    for weight, bias in ((q_weight, q_bias), (k_weight, k_bias), (v_weight, v_bias)):
        if weight.shape != (dim, dim) or bias.shape != (dim,):
            raise DimensionError(f"attention: weight {weight.shape} and bias {bias.shape} "
                                 f"are not ({dim}, {dim}) and ({dim},)")
    head_dim = dim // heads
    factor = 1.0 / math.sqrt(head_dim)
    flat = x.values.reshape(-1, dim)
    q_flat = x.values[:, :queries].reshape(-1, dim)

    def project(source, weight, bias):
        split = (batch, -1, heads, head_dim)
        return np.transpose((source @ weight.values.T + bias.values).reshape(split), (0, 2, 1, 3))

    q = project(q_flat, q_weight, q_bias)
    k, v = project(flat, k_weight, k_bias), project(flat, v_weight, v_bias)
    k_t = np.transpose(k, (0, 1, 3, 2))
    weights = q @ k_t
    weights *= factor
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = np.transpose(weights @ v, (0, 2, 1, 3)).reshape(batch, queries, dim)

    def bwd(g):
        g_context = np.transpose(g.reshape(batch, queries, heads, head_dim), (0, 2, 1, 3))
        g_scores = g_context @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(weights, -1, -2) @ g_context
        inner = (g_scores * weights).sum(axis=-1, keepdims=True)
        g_scores -= inner
        g_scores *= weights
        g_scores *= factor
        g_q = g_scores @ np.swapaxes(k_t, -1, -2)
        g_k = np.transpose(np.swapaxes(q, -1, -2) @ g_scores, (0, 1, 3, 2))
        gx, grads = None, []
        for gh, weight, source in ((g_q, q_weight, q_flat), (g_k, k_weight, flat),
                                   (g_v, v_weight, flat)):
            gh = np.transpose(gh, (0, 2, 1, 3)).reshape(-1, dim)
            if x.requires_grad:  # summed as (q + k) + v, the chain's order
                part = (gh @ weight.values).reshape(batch, -1, dim)
                if gx is None:  # the q part reaches the query rows only
                    gx = np.zeros(x.shape, np.float32)
                    gx[:, :queries] = part
                else:
                    gx += part
            grads += [gh.T @ source, gh.sum(axis=0)]
        return (gx, *grads)

    return _node(merged, (x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias), bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.values.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    original = a.shape
    return _node(a.values.reshape(shape), (a,), lambda g: (g.reshape(original),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat of zero tensors")
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base):
            raise DimensionError("concat: rank mismatch")
        if base[:axis] + base[axis + 1:] != other[:axis] + other[axis + 1:]:
            raise DimensionError("concat: off-axis shapes differ")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]
    out = np.concatenate([p.values for p in parts], axis=axis)

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(out, parts, bwd)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Slice rows (axis -2) of a stack of matrices."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError("slice_rows requires at least 2-d input")
    rows = a.shape[-2]
    if not (0 <= start < stop <= rows):
        raise DimensionError(f"slice_rows: [{start}:{stop}] out of range for {rows} rows")
    index = (Ellipsis, slice(start, stop), slice(None))
    out = a.values[index].copy()
    full_shape = a.shape

    def bwd(g):
        full = np.zeros(full_shape, dtype=np.float32)
        full[index] = g
        return (full,)

    return _node(out, (a,), bwd)


def expand_batch(a, batch: int) -> Tensor:
    """Stack ``batch`` copies of ``a`` along a new leading axis."""
    a = _as_tensor(a)
    if batch <= 0:
        raise DimensionError("expand_batch requires batch >= 1")
    out = np.broadcast_to(a.values, (batch,) + a.shape).copy()
    return _node(out, (a,), lambda g: (g.sum(axis=0),))


def cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of row-wise softmax(logits) against soft labels.

    ``labels`` rows are probability vectors (one-hot or mixed); the loss is
    linear in them, which is what makes mixed-label training well posed.
    Labels are constants: they receive no gradient.
    """
    logits, labels = _as_tensor(logits), _as_tensor(labels)
    if logits.ndim != 2 or labels.ndim != 2 or logits.shape != labels.shape:
        raise DimensionError(
            f"cross_entropy expects matching (batch, classes) inputs, got {logits.shape} vs {labels.shape}")
    batch = logits.shape[0]
    if batch == 0:
        raise DimensionError("cross_entropy on an empty batch")
    x = logits.values
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = np.asarray(np.float32(-(labels.values * logp).sum() / batch))
    probs = np.exp(logp)

    def bwd(g):
        return g * (probs * labels.values.sum(axis=1, keepdims=True) - labels.values) / batch, None

    return _node(out, (logits, labels), bwd)


def mse(pred, target) -> Tensor:
    """Mean squared error of ``pred`` against a constant ``target`` of its shape.

    One node stands for the chain ``mean(mul(d, d))`` with
    ``d = add(pred, scale(target, -1))`` and evaluates its numpy expressions
    in the chain's order, so value and gradient match it bit for bit.  The
    gradient is ``h + h`` with ``h = (g / n) * d``: ``mul``'s two parent
    gradients, equal because both parents are ``d``, summed as ``backward``
    summed them.
    """
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"mse: shapes {pred.shape} and {target.shape} differ")
    if pred.values.size == 0:
        raise DimensionError("mse of an empty tensor")
    d = pred.values + target.values * -1.0
    n = d.size

    def bwd(g):
        h = np.full(d.shape, g / n, dtype=np.float32) * d
        return (h + h,)

    return _node(np.asarray(np.float32((d * d).mean())), (pred,), bwd)
