"""Counter-based random streams for reproducible simulation.

Every source of randomness in the simulator draws from a Philox 4x64
generator keyed on ``(seed, stream)`` with the counter set from the call
site (round index, group index, ...).  Because the generator for one
purpose is derived from the key and counter alone, results do not depend
on how calls from different subsystems interleave.

Stream ids (part of the reproducibility contract):

====================  ====
purpose               id
====================  ====
mask generation        1
ratio allocations      2
token shuffles         3
noise injection        4
parameter init         5
group formation        6
data partitioning      7
attack harness         8
====================  ====
"""

from __future__ import annotations

from functools import partialmethod

import numpy as np

STREAM_MASKS = 1
STREAM_ALLOC = 2
STREAM_SHUFFLE = 3
STREAM_NOISE = 4
STREAM_INIT = 5
STREAM_GROUPS = 6
STREAM_DATA = 7
STREAM_ATTACK = 8

_MASK64 = (1 << 64) - 1


def stream_generator(seed: int, stream: int, *counter: int) -> np.random.Generator:
    """Return a Generator for (seed, stream) positioned at ``counter``.

    ``counter`` is up to three integers (e.g. round, group) that select a
    disjoint slice of the stream; omitted positions default to zero.  The
    components occupy the high words of Philox's 256-bit block counter
    (the low word is the running position), so distinct counters get
    non-overlapping output segments regardless of how much each consumes.
    """
    if len(counter) > 3:
        raise ValueError("at most three counter components supported")
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    position = 0
    for i, c in enumerate(counter):
        position |= (c & _MASK64) << (64 * (i + 1))
    return np.random.Generator(np.random.Philox(counter=position, key=key))


class RngHub:
    """Per-experiment handle that hands out purpose-scoped generators."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _stream(self, stream: int, *counter: int) -> np.random.Generator:
        return stream_generator(self.seed, stream, *counter)

    masks = partialmethod(_stream, STREAM_MASKS)
    allocations = partialmethod(_stream, STREAM_ALLOC)
    shuffles = partialmethod(_stream, STREAM_SHUFFLE)
    noise = partialmethod(_stream, STREAM_NOISE)
    groups = partialmethod(_stream, STREAM_GROUPS)
    data = partialmethod(_stream, STREAM_DATA)
