"""AdamW with decoupled weight decay and a warmup + cosine-annealing schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class AdamW:
    """Standard AdamW over a named parameter dict; float32 state.

    The moments ``m`` and ``v`` are one flat buffer each, laid out in the
    parameter dict's order, so a step is one vectorized update over the
    concatenated gradients followed by an in-place subtraction per parameter.
    Every intermediate lands in preallocated scratch rows: fresh arrays of
    the flat size would be mapped and unmapped by the allocator on every
    step once they pass its mmap threshold (about 128 KiB).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.05):
        if not params:
            raise ContractError("AdamW needs at least one parameter")
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        size = sum(p.values.size for p in params.values())
        self._m = np.zeros(size, dtype=np.float32)
        self._v = np.zeros(size, dtype=np.float32)
        self._scratch = np.empty((3, size), dtype=np.float32)

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"AdamW.step: parameter {name!r} has no gradient")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        params = self.params.values()
        m, v = self._m, self._v
        g, values, update = self._scratch
        np.concatenate([p.grad.ravel() for p in params], out=g)
        np.concatenate([p.values.ravel() for p in params], out=values)
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
        offset = 0
        for p in params:
            size = p.values.size
            p.values -= update[offset:offset + size].reshape(p.values.shape)
            offset += size

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
