"""Counter-based random streams for reproducible Monte Carlo.

Every Monte Carlo draw gets its own Philox stream identified by
(seed, draw index), so estimates are bit-identical for any chunking or
worker count: stream i is the Philox-4x64-10 counter sequence advanced
to block ``i * 2**40``, giving each draw 2**42 independent doubles,
far more than any draw consumes.
"""

import numpy as np

# counter blocks reserved per draw; each block yields 4 uint64 outputs
_BLOCKS_PER_DRAW = 1 << 40


def stream(seed, index):
    """Return a Generator on the draw-local Philox stream.

    Parameters
    ----------
    seed : int
        Experiment seed.
    index : int
        Zero-based draw index.
    """
    if index < 0:
        raise ValueError(f"draw index must be non-negative, got {index}")
    bitgen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    bitgen.advance(index * _BLOCKS_PER_DRAW)
    return np.random.Generator(bitgen)

