"""Tests for the re-positioned Philox streams and the chunk map."""

import os
import threading
import time

import numpy as np
import pytest

from tddgeom import rng

SEED = 20200207
INDICES = (0, 1, 2**24 - 1, 2**24, 2**24 + 5, 2**30)


def _oracle(seed, index):
    """Stream (seed, index) from its definition: a fresh Philox on the
    seed's key, advanced by index * 2**40 counter blocks."""
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(index * 2**40)
    return np.random.Generator(bitgen)


def _read(gen):
    return (gen.random(7), gen.standard_exponential(5), gen.poisson(78.5, 3),
            gen.integers(0, 2**32, 3, dtype=np.uint32), gen.random(2))


def _assert_same(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("index", INDICES)
def test_at_matches_an_advanced_philox(index):
    _assert_same(_read(rng.Streams(SEED).at(index)), _read(_oracle(SEED, index)))
    _assert_same(_read(rng.stream(SEED, index)), _read(_oracle(SEED, index)))


@pytest.mark.parametrize("index", INDICES)
def test_at_forgets_a_partly_read_stream(index):
    streams = rng.Streams(SEED)
    # three doubles leave the four-word output buffer partly used, and a
    # 32-bit integer leaves a pending half word
    gen = streams.at(3)
    gen.random(3)
    gen.integers(0, 2**32, dtype=np.uint32)
    _assert_same(_read(streams.at(index)), _read(_oracle(SEED, index)))
    gen = streams.at(index + 1)
    gen.random()
    _assert_same(_read(streams.at(index)), _read(_oracle(SEED, index)))


def test_a_seed_must_be_one_key_word():
    # -1 and 2**64 would read the streams of 2**64 - 1 and of 0
    _assert_same(_read(rng.Streams(2**64 - 1).at(2)), _read(_oracle(2**64 - 1, 2)))
    for seed, error in ((-1, ValueError), (2**64, ValueError), (1.5, TypeError), (True, TypeError)):
        with pytest.raises(error, match="seed must"):
            rng.Streams(seed)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        rng.Streams(SEED).at(-1)
    with pytest.raises(ValueError):
        rng.stream(SEED, -1)


@pytest.mark.parametrize("index", (0, 3, 2**30))
@pytest.mark.parametrize("block", (0, 1, 5, 777))
def test_block_offset_reads_the_stream_from_four_outputs_per_block(index, block):
    whole = rng.Streams(SEED).at(index).random(4 * block + 30)
    streams = rng.Streams(SEED)
    # a partly read stream first, so the offset must also empty the buffer
    streams.at(index + 1).random(3)
    assert np.array_equal(streams.at(index, block).random(30), whole[4 * block :])


def test_block_offset_stays_inside_its_stream():
    with pytest.raises(ValueError):
        rng.Streams(SEED).at(0, -1)
    with pytest.raises(ValueError):
        rng.Streams(SEED).at(0, 2**40)


def test_chunk_map_keeps_order_and_bounds_the_results_in_flight(monkeypatch):
    monkeypatch.setattr(rng, "workers", lambda: 3)
    started = []

    def job(item, ws):
        started.append(item)
        return item * item

    for i, value in enumerate(rng.chunk_map(job, range(10), object)):
        assert value == i * i
        # the consumer holds result i; at most two more jobs were queued
        assert len(started) <= i + 3
    assert sorted(started) == list(range(10))


def test_chunk_map_builds_one_workspace_per_thread_and_call(monkeypatch):
    monkeypatch.setattr(rng, "workers", lambda: 3)
    calls = []
    for _ in range(2):
        built, seen = [], []

        def workspace():
            built.append(threading.get_ident())
            return object()

        def job(item, ws):
            seen.append((threading.get_ident(), ws))
            # a short wait, so that the jobs spread over the threads
            time.sleep(0.002)
            return item

        assert list(rng.chunk_map(job, range(10), workspace)) == list(range(10))
        # the factory runs at most once per thread, and only in a thread
        # that then runs a job
        assert len(built) == len(set(built)) <= 3
        assert set(built) == {thread for thread, _ in seen}
        # each thread's jobs see one workspace, and no two threads share one
        by_thread = {}
        for thread, ws in seen:
            assert by_thread.setdefault(thread, ws) is ws
        assert len({id(ws) for ws in by_thread.values()}) == len(by_thread)
        calls.append(by_thread.values())
    # the second call builds its own: the first call's workspaces are
    # still alive here, so a shared id would be a shared object
    assert not {id(ws) for ws in calls[0]} & {id(ws) for ws in calls[1]}


def test_workers_falls_back_to_the_cpu_count_without_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rng.workers() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng.workers() == 1
