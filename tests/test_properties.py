"""Property tests: each batched path against its one-replicate case.

Examples are derandomized and their number fixed, so every run checks the
same cases.
"""
from itertools import islice
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppboot import rng as rng_module
from ppboot.geometry import (
    Interval1,
    Window2,
    _simulate_homogeneous_block,
    _simulate_inhomogeneous_block,
    constant_intensity,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
)
from ppboot.rng import RngSeed, replicate_generators

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)

seeds = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
prefixes = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**40)), min_size=1, max_size=3)
# replicate ids below, across and above 2^32, where an id takes a second entropy word
starts = st.one_of(st.integers(0, 100), st.integers(2**32 - 6, 2**32 + 2))
# how a run of replicates is split into blocks, and the chunk the states are computed in
splits = st.lists(st.integers(1, 5), min_size=1, max_size=5)
chunks = st.integers(1, 7)


def numpy_state(seed: int, stream: tuple[int, ...]) -> dict:
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)).state


@SETTINGS
@given(seed=seeds, prefix=prefixes, start=starts, n=st.integers(1, 8))
def test_states_equal_numpys(seed, prefix, start, n):
    ids = range(start, start + n)
    got = [g.bit_generator.state for g in replicate_generators(RngSeed(seed, prefix), ids)]
    assert got == [numpy_state(seed, tuple(prefix) + (r,)) for r in ids]


@SETTINGS
@given(seed=seeds, prefix=prefixes, start=starts, n=st.integers(1, 6), chunk=chunks)
def test_draws_equal_a_fresh_generators(seed, prefix, start, n, chunk):
    parent, ids = RngSeed(seed, prefix), range(start, start + n)
    with mock.patch.object(rng_module, "_STATE_CHUNK", chunk):
        for r, g in zip(ids, replicate_generators(parent, ids)):
            fresh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(prefix) + (r,)))
            # an odd number of 32-bit draws leaves half a word buffered in the bit generator
            for draw in (lambda x: x.integers(0, 2**32, 3, dtype=np.uint32),
                         lambda x: x.random(2), lambda x: x.poisson(7.5, 2)):
                assert draw(g).tobytes() == draw(fresh).tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), first=starts, split=splits, chunk=chunks,
       lam=st.sampled_from([0.0, 0.7, 6.0, 40.0]))
def test_homogeneous_blocks_equal_one_seed_draws(seed, first, split, chunk, lam):
    window, parent = Window2(-1.0, 2.0, 1e6, 1e6 + 0.5), RngSeed(seed, (0,))
    ids = range(first, first + sum(split))
    with mock.patch.object(rng_module, "_STATE_CHUNK", chunk):
        rngs = replicate_generators(parent, ids)
        drawn = [_simulate_homogeneous_block(lam, window, islice(rngs, size)) for size in split]
    alone = [simulate_homogeneous_poisson(lam, window, parent.substream(r)).points for r in ids]
    assert np.concatenate([counts for _, counts in drawn]).tolist() == [len(a) for a in alone]
    assert np.concatenate([p for p, _ in drawn]).tobytes() == np.concatenate(alone).tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), first=starts, split=splits, chunk=chunks,
       linear=st.booleans())
def test_inhomogeneous_blocks_equal_one_seed_draws(seed, first, split, chunk, linear):
    interval, parent = Interval1(-0.5, 1.5), RngSeed(seed, (3, 0))
    lam = linear_intensity(12.0, 20.0, interval) if linear else constant_intensity(4.0)
    ids = range(first, first + sum(split))
    with mock.patch.object(rng_module, "_STATE_CHUNK", chunk):
        rngs = replicate_generators(parent, ids)
        drawn = [_simulate_inhomogeneous_block(lam, interval, islice(rngs, size))
                 for size in split]
    alone = [simulate_inhomogeneous_poisson(lam, interval, parent.substream(r)).points
             for r in ids]
    assert np.concatenate([counts for _, counts in drawn]).tolist() == [len(a) for a in alone]
    assert np.concatenate([p for p, _ in drawn]).tobytes() == np.concatenate(alone).tobytes()


def test_states_are_computed_a_chunk_at_a_time():
    sizes, states = [], rng_module._pcg64_states

    def counted(pool, const, last):
        sizes.append(len(last))
        return states(pool, const, last)

    with mock.patch.object(rng_module, "_pcg64_states", counted):
        taken = list(islice(replicate_generators(RngSeed(9), range(10**15)), 5000))
    assert len(taken) == 5000 and sizes == [rng_module._STATE_CHUNK] * 2
