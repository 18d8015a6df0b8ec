"""AdamW with decoupled weight decay and a warmup + cosine-annealing schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor


# Floats per update piece.  A piece's five float32 rows (m, v and three of
# scratch) take 640 KiB, so one pass over them stays in cache.
_PIECE = 1 << 15


class AdamW:
    """Standard AdamW over a named parameter dict; float32 state.

    The moments ``m`` and ``v`` are one flat buffer each, laid out in the
    parameter dict's order.  A step walks that layout in pieces of at most
    ``_PIECE`` floats: it gathers a piece's gradients and values, updates it
    with vectorized elementwise ops and subtracts the result from the
    parameters in place.  A parameter inside one piece is gathered and
    written back whole; a larger one, or one across a piece boundary, by
    flat slices, which is why parameters must be C-contiguous.  The ops are
    elementwise, so the pieces give the bits one pass over the layout gives.
    Every intermediate lands in a preallocated ``(3, piece)`` scratch:
    fresh arrays of the flat size would be mapped and unmapped by the
    allocator on every step once they pass its mmap threshold (about
    128 KiB).  The views into it are made once, on construction.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.05):
        if not params:
            raise ContractError("AdamW needs at least one parameter")
        for name, p in params.items():
            if not p.values.flags.c_contiguous:
                raise ContractError(f"AdamW: parameter {name!r} is not C-contiguous")
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        size = sum(p.values.size for p in params.values())
        m, v = np.zeros(size, dtype=np.float32), np.zeros(size, dtype=np.float32)
        scratch = np.empty((3, min(size, _PIECE)), dtype=np.float32)
        # Per piece: its m and v, its three scratch rows (gradients, values,
        # update) and, per parameter in it, (tensor, lo, hi, part): the
        # parameter's flat [lo, hi) and its part of the update row.  lo is
        # None, and part has the parameter's shape, when the parameter lies
        # whole in the piece.
        self._pieces = []
        for piece_start in range(0, size, _PIECE):
            piece_stop = min(piece_start + _PIECE, size)
            rows = tuple(scratch[:, :piece_stop - piece_start])
            members, begin, offset = [], 0, 0
            for p in params.values():
                end = begin + p.values.size
                lo, hi = max(begin, piece_start) - begin, min(end, piece_stop) - begin
                if lo < hi:
                    part = rows[2][offset:offset + hi - lo]
                    if hi - lo == p.values.size:
                        members.append((p, None, hi, part.reshape(p.values.shape)))
                    else:
                        members.append((p, lo, hi, part))
                    offset += hi - lo
                begin = end
            self._pieces.append((m[piece_start:piece_stop], v[piece_start:piece_stop],
                                 rows, members))

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"AdamW.step: parameter {name!r} has no gradient")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for m, v, (g, values, update), members in self._pieces:
            np.concatenate([p.grad.ravel() if lo is None else p.grad.reshape(-1)[lo:hi]
                            for p, lo, hi, _ in members], out=g)
            np.concatenate([p.values.ravel() if lo is None else p.values.reshape(-1)[lo:hi]
                            for p, lo, hi, _ in members], out=values)
            # The same float32 expressions as the textbook per-array loop:
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   update = lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*values)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=update)
            m += update
            v *= self.beta2
            g *= g
            g *= 1.0 - self.beta2
            v += g
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, bc1, out=update)
            update /= g
            values *= self.weight_decay
            update += values
            update *= np.float32(self.lr)
            for p, lo, hi, part in members:
                if lo is None:
                    p.values -= part
                else:
                    p.values.reshape(-1)[lo:hi] -= part

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


class WarmupCosine:
    """Linear warmup to ``base_lr`` then cosine decay to 0."""

    def __init__(self, base_lr: float, total_steps: int, warmup_steps: int = 0):
        self.base_lr = float(base_lr)
        self.total_steps = max(1, int(total_steps))
        self.warmup_steps = max(0, int(warmup_steps))

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        span = max(1, self.total_steps - self.warmup_steps)
        progress = min(1.0, (step - self.warmup_steps) / span)
        return 0.5 * self.base_lr * (1.0 + math.cos(math.pi * progress))
