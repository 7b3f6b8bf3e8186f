"""Property tests: each batched path against its one-replicate case.

Examples are derandomized and their number fixed, so every run checks the
same cases.
"""
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppboot import intensity as intensity_module
from ppboot import rng as rng_module
from ppboot.errors import DuplicatePointError
from ppboot.geometry import (
    Interval1,
    Window2,
    _check_replicates,
    _first_repeat,
    _simulate_homogeneous_block,
    _simulate_inhomogeneous_block,
    constant_intensity,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
)
from ppboot.intensity import (BAND_METHODS, _count_histogram, _window_ends, coverage_experiment,
                              window_counts)
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


# linear intensities a + b x on [0, 1], with 0 to 135 expected points
linear_lambdas = st.builds(lambda a, b: linear_intensity(a, b, Interval1(0.0, 1.0)),
                           st.floats(0.0, 60.0), st.floats(0.0, 150.0))


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), lam=linear_lambdas,
       methods=st.lists(st.sampled_from(BAND_METHODS), min_size=1, unique=True),
       h=st.sampled_from([0.05, 0.1, 0.3]), steps=st.integers(1, 6))
def test_shared_coverage_equals_each_method_alone(seed, lam, methods, h, steps):
    interval = Interval1(0.0, 1.0)
    grid = np.linspace(0.0, 1.0, steps + 2)[1:-1]

    def run(ms):
        return coverage_experiment(lam, interval, h, 0.1, ms, 100, grid, RngSeed(seed),
                                   mc_draws=1000)

    shared = run(methods)
    assert list(shared) == methods
    for m in methods:
        alone = run([m])[m]
        for key in ("grid", "coverage_true", "coverage_smoothed"):
            assert getattr(shared[m], key).tobytes() == getattr(alone, key).tobytes()
        assert (shared[m].reps, shared[m].flags) == (alone.reps, alone.flags)


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), reps=st.integers(1, 30),
       proposals=st.one_of(st.integers(1, 300), st.sampled_from([1 << 14])),
       lam=st.one_of(linear_lambdas, st.sampled_from([constant_intensity(0.0),
                                                       constant_intensity(0.7)])),
       h=st.sampled_from([0.02, 0.1, 0.6]), steps=st.integers(1, 12))
def test_count_histogram_is_bincount_of_window_counts(seed, reps, proposals, lam, h, steps):
    interval, parent = Interval1(0.0, 1.0), RngSeed(seed)
    grid = np.linspace(0.0, 1.0, steps)
    alone = np.array([window_counts(simulate_inhomogeneous_poisson(lam, interval,
                                                                   parent.substream(0, r)), h, grid)
                      for r in range(reps)])
    with mock.patch.object(intensity_module, "_BLOCK_PROPOSALS", proposals):
        seen, hist = _count_histogram(lam, interval, reps, parent, _window_ends(interval, grid, h))
    expected = np.column_stack([np.bincount(column, minlength=alone.max() + 1)
                                for column in alone.T])
    assert seen.tolist() == np.unique(alone).tolist()
    assert hist.dtype == np.int64 and np.array_equal(hist, expected[seen])


def first_repeat_by_set(rows) -> tuple[int, int] | None:
    """(k, e) for the first row k that equals an earlier row e, by a scan with a dict."""
    first = {}
    for k, row in enumerate(map(tuple, rows)):
        if row in first:
            return k, first[row]
        first[row] = k
    return None


# replicates of 0-6 points from a few values, so that repeats are common
replicate_lists = st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=6)


@SETTINGS
@given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
       width=st.integers(1, 2))
def test_first_repeat_agrees_with_a_set_search(rows, width):
    rows = np.array(rows, dtype=float).reshape(len(rows), 2)[:, :width]
    assert _first_repeat(rows) == first_repeat_by_set(rows)
    ordered = rows[np.lexsort(rows.T[::-1])]  # equal rows next to each other
    assert _first_repeat(ordered, grouped=True) == first_repeat_by_set(ordered)


@SETTINGS
@given(replicates=replicate_lists, start=starts)
def test_check_replicates_names_the_global_replicate(replicates, start):
    interval = Interval1(0.0, 1.0)
    values = [sorted(v) for v in replicates]
    points = np.array([0.1 * x for v in values for x in v])
    counts = np.array([len(v) for v in values])
    group = np.repeat(np.arange(len(values)), counts)
    expected = first_repeat_by_set(np.column_stack([points, group]))
    for grouped in (True, False):
        if expected is None:
            _check_replicates(points, counts, interval, grouped=grouped, first=start)
            continue
        k, e = expected
        g = group[k]
        i, j = k - counts[:g].sum(), e - counts[:g].sum()
        with pytest.raises(DuplicatePointError,
                           match=rf"^point {i} of replicate {start + g} repeats its point {j};"):
            _check_replicates(points, counts, interval, grouped=grouped, first=start)
