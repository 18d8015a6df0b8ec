"""AdamW with decoupled weight decay and a warmup + cosine-annealing schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor


# Most floats per update piece.  Each numpy call of a step hands the GIL over
# when another thread steps too (the attack suite runs two): at 2^17 a decoder
# step is 3 pieces, not 11 at 2^15.  A piece fits a core's L2; a decoder does not.
_PIECE = 1 << 17


class AdamW:
    """Standard AdamW over a named parameter dict; float32 state.

    The optimizer owns its parameters' values: on construction it copies
    them, in dict order, into one flat buffer and rebinds each ``values`` to
    a view of its slice.  The moments and a gradient buffer share that
    layout.  A step gathers the gradients with one concatenate, then walks
    the buffers in the fewest equal pieces of at most ``_PIECE`` floats with
    elementwise ops, so it gives a per-parameter loop's bits.  Write the
    parameters in place, as FedAvg does: ``step`` rejects a rebound one."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.05):
        if not params:
            raise ContractError("AdamW needs at least one parameter")
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._values = values = np.concatenate([p.values.ravel() for p in params.values()])
        ends = np.cumsum([p.values.size for p in params.values()])
        for p, part in zip(params.values(), np.split(values, ends[:-1])):
            p.values = part.reshape(p.values.shape)
        size = values.size
        m, v, self._grads = np.zeros((3, size), dtype=np.float32)
        piece = -(-size // -(-size // _PIECE)) if size else 1
        update = np.empty(piece, dtype=np.float32)  # fresh >128 KiB arrays are mmapped per step
        self._pieces = [(m[at:at + piece], v[at:at + piece], self._grads[at:at + piece],
                         values[at:at + piece], update[:min(piece, size - at)])
                        for at in range(0, size, piece)]

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"AdamW.step: parameter {name!r} has no gradient")
            if p.values.base is not self._values:
                raise ContractError(f"AdamW.step: parameter {name!r} was rebound; write in place")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        np.concatenate([p.grad.ravel() for p in self.params.values()], out=self._grads)
        for m, v, g, values, update in self._pieces:
            # The same float32 expressions as the textbook per-array loop:
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   values -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*values)
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
            np.multiply(values, self.weight_decay, out=g)
            update += g
            update *= np.float32(self.lr)
            values -= update

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
