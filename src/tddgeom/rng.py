"""Counter-based random streams for reproducible Monte Carlo.

Every Monte Carlo draw gets its own Philox stream identified by
(seed, draw index), so estimates are bit-identical for any chunking or
worker count: stream i is the Philox-4x64-10 counter sequence advanced
to block ``i * 2**40``, giving each draw 2**42 independent doubles,
far more than any draw consumes.

A sampler holds one :class:`Streams` per seed: one Philox and one
Generator, re-positioned at the start of each draw by writing the
counter and emptying the output buffer.  That reads exactly the numbers
of a fresh Philox advanced to the draw's block, at about a tenth of the
cost of building one.
"""

import numpy as np

# counter blocks reserved per draw; each block yields 4 uint64 outputs
_BLOCKS_PER_DRAW = 1 << 40
_WORD = (1 << 64) - 1


class Streams:
    """The draw-local Philox streams of one seed.

    ``at(i)`` returns a Generator positioned at the start of stream
    (seed, i).  The Generator is shared: positioning it again abandons
    whatever stream it was reading, so take one draw's numbers before
    asking for the next.
    """

    def __init__(self, seed):
        self._bitgen = np.random.Philox(key=np.uint64(seed & _WORD))
        self._gen = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        self._counter = state["state"]["counter"]
        # an exhausted buffer and no pending 32-bit half: the state a
        # fresh or advanced Philox starts from
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._state = state

    def at(self, index):
        """Generator on stream ``index`` (zero-based draw index)."""
        if index < 0:
            raise ValueError(f"draw index must be non-negative, got {index}")
        block = index * _BLOCKS_PER_DRAW
        self._counter[0] = block & _WORD
        self._counter[1] = block >> 64
        self._bitgen.state = self._state
        return self._gen


def stream(seed, index):
    """Return a Generator on the draw-local Philox stream.

    Parameters
    ----------
    seed : int
        Experiment seed.
    index : int
        Zero-based draw index.
    """
    return Streams(seed).at(index)
