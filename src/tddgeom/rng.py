"""Counter-based random streams for reproducible Monte Carlo, and the
ordered thread map that runs a sampler's chunks on every core.

Each seed has streams identified by (seed, index): stream i is the
Philox-4x64-10 counter sequence advanced to block ``i * 2**40``, giving
it 2**42 independent doubles.  The macro sampler of
:mod:`tddgeom.hexgrid` gives each draw a stream of its own, the
sampler of :mod:`tddgeom.ppp_sampler` each chunk of a fixed number of
draws, and the brute-force ISR one stream summed in fixed blocks of
samples, so their estimates are bit-identical for any worker count.  A
read of a stream can start at any block of it, which is how one stream
is split between workers, or split into regions for different kinds of
number.

A :class:`Streams` holds one Philox and one Generator of a seed,
re-positioned at the start of each stream by writing the counter and
emptying the output buffer.  That reads exactly the numbers of a fresh
Philox advanced to the stream's block, at about a tenth of the cost of
building one.  A Streams is not shared between threads: each worker of
:func:`chunk_map` keeps its own in its workspace.

:func:`chunk_map` runs jobs on :func:`workers` threads and yields
their results in job order.  numpy releases the GIL in its bulk
generation and array arithmetic, so chunks that spend their time there
run in parallel; the consumer reduces the results in order, so every
float sum is added in the same order for any worker count.
"""

import collections
import os
import threading

import numpy as np

from .params import _check_count

# counter blocks reserved per stream; each block yields 4 uint64 outputs
_BLOCKS_PER_STREAM = 1 << 40
_WORD = (1 << 64) - 1
# seeds lie in [0, _SEED_LIMIT): the streams take a seed as one 64-bit
# key word, so 2**64 would repeat the streams of 0
_SEED_LIMIT = 1 << 64


def _check_seed(seed):
    """TypeError unless ``seed`` is an integer, ValueError outside
    [0, 2**64)."""
    _check_count("seed", seed, 0, _SEED_LIMIT)


class Streams:
    """The Philox streams of one seed, an integer in [0, 2**64).

    ``at(i)`` returns a Generator positioned at the start of stream
    (seed, i).  The Generator is shared: positioning it again abandons
    whatever stream it was reading, so take one draw's numbers before
    asking for the next.
    """

    def __init__(self, seed):
        _check_seed(seed)
        self._bitgen = np.random.Philox(key=np.uint64(seed))
        self._gen = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        self._counter = state["state"]["counter"]
        # an exhausted buffer and no pending 32-bit half: the state a
        # fresh or advanced Philox starts from
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._state = state

    def at(self, index, block=0):
        """Generator on stream ``index`` (zero-based), skipping
        its first ``block`` counter blocks: the Generator then reads the
        stream's numbers from output 4 * block on."""
        if index < 0:
            raise ValueError(f"draw index must be non-negative, got {index}")
        if not 0 <= block < _BLOCKS_PER_STREAM:
            raise ValueError(f"block offset must lie in [0, 2**40), got {block}")
        block += index * _BLOCKS_PER_STREAM
        self._counter[0] = block & _WORD
        self._counter[1] = block >> 64
        self._bitgen.state = self._state
        return self._gen


def stream(seed, index):
    """Return a Generator on Philox stream (seed, index).

    Parameters
    ----------
    seed : int
        Experiment seed.
    index : int
        Zero-based stream index.
    """
    return Streams(seed).at(index)


def workers():
    """Threads of :func:`chunk_map`: the cores this process may run on,
    or, where the platform cannot tell (macOS, Windows), the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def chunk_map(job, items, workspace):
    """Yield ``job(item, ws)`` for each item, in order, computed on
    :func:`workers` threads.

    ``workspace`` is a zero-argument factory of the state a worker keeps
    across its jobs, its streams and buffers.  Each worker thread calls
    it once, on its first job of this call, and passes the result as
    ``ws`` to every job it runs.  A workspace lives for one call, and no
    two threads share one.  A job returns arrays of its own, never views
    of its workspace: the worker overwrites the workspace with its next
    job while the consumer still holds the result.

    At most :func:`workers` results are in flight: the one the consumer
    holds and the jobs queued or running behind it.  A job that raises
    re-raises here, at its place in the order; the jobs not yet started
    are cancelled and the threads are joined before the exception
    leaves, as they are when the consumer stops early.
    """
    # imported here so that the analytic paths do not pay for it
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def run(item):
        try:
            ws = local.ws
        except AttributeError:
            ws = local.ws = workspace()
        return job(item, ws)

    n = workers()
    pool = ThreadPoolExecutor(max_workers=n)
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(run, item))
            if len(pending) == n:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
