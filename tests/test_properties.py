"""Property tests: each batched path against its one-replicate case.

Examples are derandomized and their number fixed, so every run checks the
same cases.
"""
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ppboot import bootstrap as bootstrap_module
from ppboot import experiments as experiments_module
from ppboot import geometry as geometry_module
from ppboot import intensity as intensity_module
from ppboot import moments as moments_module
from ppboot.bootstrap import (SCHEMES, _limit_from_sums, bootstrap_statistics,
                              bootstrap_variance_limit)
from ppboot.errors import DuplicatePointError, UnattainableLevelError
from ppboot.geometry import (
    Interval1,
    PointPattern,
    Window2,
    _check_replicates,
    _first_repeat,
    _poisson_block,
    _replicate_blocks,
    _simulate_inhomogeneous_block,
    constant_intensity,
    linear_intensity,
)
from ppboot.intensity import (BAND_METHODS, _count_histogram, _min_t_threshold, _window_ends,
                              coverage_experiment, window_counts)
from ppboot.moments import s_moments_poisson
from ppboot.rng import RngSeed
from ppboot.twopoint import (_REACH_PAD, KernelFunction, _close_pairs, _grouped_sums,
                             constant_pair_function, distinct_index_sums, kernel_pair_function)

from conftest import (brute_force_sums, drawn_weights, one_at_a_time, pair_values,
                      random_pattern, reference_min_t_threshold, stream_generators)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# the number of a block's first replicate: small, and past 2^32
starts = st.one_of(st.integers(0, 100), st.integers(2**32 - 6, 2**32 + 2))
# how a run of replicates is split into blocks
splits = st.lists(st.integers(1, 5), min_size=1, max_size=5)


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), split=splits, mean=st.sampled_from([0.0, 0.7, 6.0, 40.0]))
def test_poisson_blocks_read_each_stream_in_replicate_order(seed, split, mean):
    box, parent = Window2(-1.0, 2.0, 1e6, 1e6 + 0.5), RngSeed(seed, (0,))
    rngs = stream_generators(parent)
    drawn = [_poisson_block(mean, box, rngs, size) for size in split]
    counts_rng, x_rng, y_rng = (parent.substream(k).generator() for k in range(3))
    counts = [counts_rng.poisson(mean) for _ in range(sum(split))]
    want = [np.column_stack([x_rng.uniform(-1.0, 2.0, n), y_rng.uniform(1e6, 1e6 + 0.5, n)])
            for n in counts]
    assert np.concatenate([c for _, c in drawn]).tolist() == counts
    assert np.concatenate([p for p, _ in drawn]).tobytes() == np.concatenate(want).tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 5), reps=st.integers(1, 25),
       lam=st.sampled_from([0.0, 0.7, 6.0, 40.0]))
def test_homogeneous_blocks_equal_one_seed_draws(seed, block, reps, lam):
    window = Window2(-1.0, 2.0, 1e6, 1e6 + 0.5)
    mean = lam * window.area
    drawn = list(_replicate_blocks(partial(_poisson_block, mean, window), mean, window, reps,
                                   RngSeed(seed), most=block))
    alone = one_at_a_time(_poisson_block, mean, window, seed=RngSeed(seed, (0,)), reps=reps)
    assert [first for first, _, _ in drawn] == list(range(0, reps, block))
    assert np.concatenate([counts for _, _, counts in drawn]).tolist() == [len(a) for a in alone]
    assert np.concatenate([p for _, p, _ in drawn]).tobytes() == np.concatenate(alone).tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), split=splits, linear=st.booleans())
def test_inhomogeneous_blocks_equal_one_seed_draws(seed, split, linear):
    interval, parent = Interval1(-0.5, 1.5), RngSeed(seed, (3, 0))
    lam = linear_intensity(12.0, 20.0, interval) if linear else constant_intensity(4.0)
    rngs = stream_generators(parent)
    drawn = [_simulate_inhomogeneous_block(lam, interval, rngs, size) for size in split]
    alone = one_at_a_time(_simulate_inhomogeneous_block, lam, interval, seed=parent,
                          reps=sum(split))
    assert np.concatenate([counts for _, counts in drawn]).tolist() == [len(a) for a in alone]
    assert np.concatenate([p for p, _ in drawn]).tobytes() == np.concatenate(alone).tobytes()


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
    alone = np.array([window_counts(PointPattern(points, interval), h, grid)
                      for points in one_at_a_time(_simulate_inhomogeneous_block, lam, interval,
                                                  seed=parent.substream(0), reps=reps)])
    with mock.patch.object(geometry_module, "_BLOCK_POINTS", proposals):
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


def with_repeat_at(draw, target):
    """``draw``, a block simulator, with point 1 of replicate ``target`` set to its point 0.

    The replicate is found by counting the replicates drawn before, not by
    any block offset of the loop under test.
    """
    drawn = [0]

    def draw_block(*args):
        points, counts = draw(*args)
        k = target - drawn[0]
        if 0 <= k < len(counts):
            assert counts[k] >= 2
            start = counts[:k].sum()
            points[start + 1] = points[start]
        drawn[0] += len(counts)
        return points, counts

    return draw_block


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 8), reps=st.integers(2, 30),
       data=st.data())
def test_both_replicate_loops_name_the_repeating_replicate(seed, block, reps, data):
    target = data.draw(st.integers(0, reps - 1), label="target")
    message = rf"^point 1 of replicate {target} repeats its point 0;"
    # 30 and 40 expected points, so that every replicate has two
    config = {"lambda": 30.0, "window": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
              "f_spec": "ones", "scheme": "poissonized", "reps": reps, "seed": seed}
    with mock.patch.object(geometry_module, "_BLOCK_POINTS", block * 30.0), \
            mock.patch.object(experiments_module, "_poisson_block",
                              with_repeat_at(_poisson_block, target)), \
            pytest.raises(DuplicatePointError, match=message):
        experiments_module.run_variance_comparison(config)
    interval = Interval1(0.0, 1.0)
    with mock.patch.object(geometry_module, "_BLOCK_POINTS", block * 40.0), \
            mock.patch.object(intensity_module, "_simulate_inhomogeneous_block",
                              with_repeat_at(_simulate_inhomogeneous_block, target)), \
            pytest.raises(DuplicatePointError, match=message):
        _count_histogram(constant_intensity(40.0), interval, reps, RngSeed(seed),
                         _window_ends(interval, np.array([0.5]), 0.1))


UNIT, FAR = Window2(0.0, 1.0, 0.0, 1.0), Window2(1e6, 1e6 + 1.0, -2e5, -2e5 + 0.5)
# (window, f): a short-range kernel, one far from the origin, one whose reach is wider
# than the window, and f == 1
PAIR_CASES = {
    "box": (UNIT, kernel_pair_function(KernelFunction("box", 0.1), 0.2, UNIT)),
    "far": (FAR, kernel_pair_function(KernelFunction("epanechnikov", 0.1), 0.3, FAR)),
    "wide": (UNIT, kernel_pair_function(KernelFunction("box", 0.5), 3.0, UNIT)),
    "ones": (UNIT, constant_pair_function(UNIT, 1.0)),
}
# stacks of 1-5 patterns of 0-6 points, so that empty and one-point patterns are common;
# ``shared`` patterns are prefixes of one list, so points coincide across patterns, and
# one-point patterns then span nothing
stacks = st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2**32 - 1),
                   st.sampled_from(sorted(PAIR_CASES)), st.booleans())


def stacked_patterns(stack):
    """(points, counts, window, f) for a stack of uniform patterns."""
    sizes, point_seed, case, shared = stack
    window, f = PAIR_CASES[case]
    rng = np.random.default_rng(point_seed)
    n = max(sizes) if shared else sum(sizes)
    points = np.column_stack([rng.uniform(window.x_min, window.x_max, n),
                              rng.uniform(window.y_min, window.y_max, n)])
    if shared:
        points = np.concatenate([points[:size] for size in sizes])
    return points, np.array(sizes), window, f


def split_patterns(points, counts, window):
    return [PointPattern(p, window) for p in np.split(points, np.cumsum(counts)[:-1])]


@SETTINGS
@given(stack=stacks)
@example(stack=([1, 1, 1], 0, "ones", True))  # one place for every point: a zero span
def test_grouped_sums_equal_each_pattern_alone(stack):
    points, counts, window, f = stacked_patterns(stack)
    sums = _grouped_sums(points, counts, f)
    for g, pattern in enumerate(split_patterns(points, counts, window)):
        alone = distinct_index_sums(pattern, f)
        got = np.array([sums.P[g], sums.T3[g], sums.Q4[g], sums.R[g]])
        assert got.tobytes() == np.array([alone.P, alone.T3, alone.Q4, alone.R]).tobytes()
        want = brute_force_sums(pair_values(pattern, f))
        scale = max(1.0, got[0] ** 2, *np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert abs(got[0] ** 2 - (got[2] + 4.0 * got[1] + 2.0 * got[3])) <= 1e-12 * scale


@SETTINGS
@given(stack=stacks, scheme=st.sampled_from(SCHEMES))
def test_limits_from_grouped_sums_equal_each_pattern_alone(stack, scheme):
    points, counts, window, f = stacked_patterns(stack)
    limits = _limit_from_sums(_grouped_sums(points, counts, f), counts, scheme)
    alone = [bootstrap_variance_limit(p, f, scheme) for p in split_patterns(points, counts, window)]
    assert limits.tolist() == alone


# pair searches over stacked patterns of 0-12 points on [0, 1] or its square: on a
# lattice of ``step`` (ties at the reach, equal coordinates on cell edges, points on
# the edges) or uniform with some coordinates on the edges; out to a lattice distance,
# to one the padding rounds up to it, to a tiny reach, or past the span (the diagonal,
# the sum of the spans, inf); with one label per pattern, so empty patterns skip labels
pair_searches = st.fixed_dictionaries({
    "counts": st.lists(st.integers(0, 12), min_size=1, max_size=4),
    "dim": st.sampled_from([1, 2]),
    "step": st.sampled_from([0.1, 0.125, 1 / 3, 0.25]),
    "lattice": st.booleans(),
    "reach": st.sampled_from([1.0, 1.0 / (1.0 + _REACH_PAD), math.sqrt(2.0), math.sqrt(5.0), 2.0,
                              "tiny", "diagonal", "spans", "inf"]),
    "grouped": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


def brute_force_pairs(points, reach, group):
    """(i, j), i < j, in row-major order: all pairs within the padded reach and one group."""
    pts = points if points.ndim == 2 else points[:, None]
    d = pts[:, None, :] - pts[None, :, :]
    radius = reach * (1.0 + _REACH_PAD)
    near = (d * d).sum(axis=-1) <= radius * radius
    if group is not None:
        near &= group[:, None] == group[None, :]
    return np.nonzero(np.triu(near, 1))


@settings(SETTINGS, max_examples=300)
@given(case=pair_searches)
@example(case={"counts": [0], "dim": 2, "step": 0.1, "lattice": True, "reach": 1.0,
               "grouped": False, "seed": 0})
@example(case={"counts": [1], "dim": 1, "step": 0.1, "lattice": False, "reach": "inf",
               "grouped": True, "seed": 0})
@example(case={"counts": [2], "dim": 2, "step": 0.25, "lattice": True, "reach": "diagonal",
               "grouped": False, "seed": 1})
@example(case={"counts": [5, 0, 0, 7], "dim": 2, "step": 1 / 3, "lattice": True,
               "reach": 1.0 / (1.0 + _REACH_PAD), "grouped": True, "seed": 2})
def test_close_pairs_equal_brute_force_distances(case):
    counts, dim, step = case["counts"], case["dim"], case["step"]
    rng = np.random.default_rng(case["seed"])
    n = sum(counts)
    if case["lattice"]:
        points = rng.integers(0, round(1.0 / step) + 1, (n, dim)) * step
    else:
        points = rng.uniform(0.0, 1.0, (n, dim))
        points[rng.random((n, dim)) < 0.2] = 1.0
        points[rng.random((n, dim)) < 0.2] = 0.0
    if dim == 1:
        points = points[:, 0]
    named = {"tiny": 1e-7, "diagonal": math.sqrt(dim), "spans": float(dim), "inf": math.inf}
    reach = named.get(case["reach"]) or case["reach"] * step
    group = np.repeat(np.arange(len(counts)), counts) if case["grouped"] else None
    got = _close_pairs(points, reach, group)
    want = brute_force_pairs(points, reach, group)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


# (chunk, draw entries, pair entries, resamples): the library's bounds, under which
# `ones` binds the pair bound from n = 34 on and every chunk holds more than one row
# block, or small bounds that split a few resamples
layouts = st.one_of(
    st.tuples(st.just(None), st.just(None), st.just(None), st.integers(4000, 9000)),
    st.tuples(st.integers(1, 30), st.integers(1, 300), st.integers(1, 300), st.integers(1, 120)))


# shrinking these examples of thousands of resamples takes minutes; a failure is reported as drawn
BOOTSTRAP_SETTINGS = settings(SETTINGS, phases=(Phase.explicit, Phase.generate))


def patched_bounds(*values):
    """The bootstrap's bounds set to ``values``; None keeps the library's bound."""
    names = ("_CHUNK", "_DRAW_ENTRIES", "_PAIR_ENTRIES")
    return mock.patch.multiple(bootstrap_module, **{
        k: getattr(bootstrap_module, k) if v is None else v for k, v in zip(names, values)})


@BOOTSTRAP_SETTINGS
@given(n=st.integers(0, 45), point_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**64 - 1),
       case=st.sampled_from(sorted(PAIR_CASES)), scheme=st.sampled_from(SCHEMES), layout=layouts)
def test_statistics_are_dense_forms_of_row_blocks_drawn_in_turn(n, point_seed, seed, case,
                                                                scheme, layout):
    window, f = PAIR_CASES[case]
    *bounds, n_resamples = layout
    pattern = random_pattern(n, np.random.default_rng(point_seed), window)
    with patched_bounds(*bounds):
        stats = bootstrap_statistics(pattern, f, n_resamples, scheme, RngSeed(seed))
        if n == 0:
            assert stats.tolist() == [0.0] * n_resamples
            return
        mat = f.pair_matrix(pattern.points)
        chunk = bootstrap_module._CHUNK
        for c, lo in enumerate(range(0, n_resamples, chunk)):
            w = drawn_weights(n, scheme, RngSeed(seed), min(chunk, n_resamples - lo), c,
                              mat.any(axis=1))
            want = np.einsum("ki,ij,kj->k", w, mat, w)
            assert stats[lo:lo + len(w)] == pytest.approx(want, rel=1e-12)


@BOOTSTRAP_SETTINGS
@given(n=st.integers(0, 45), point_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**64 - 1),
       case=st.sampled_from(sorted(PAIR_CASES)), scheme=st.sampled_from(SCHEMES), layout=layouts)
def test_statistics_identical_for_one_and_two_threads(n, point_seed, seed, case, scheme, layout):
    window, f = PAIR_CASES[case]
    *bounds, n_resamples = layout
    pattern = random_pattern(n, np.random.default_rng(point_seed), window)
    with patched_bounds(*bounds):
        one, two = (bootstrap_statistics(pattern, f, n_resamples, scheme, RngSeed(seed), threads=t)
                    for t in (1, 2))
    assert one.tobytes() == two.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(seed=st.integers(0, 2**64 - 1), samples=st.integers(1000, 3000),
       chunk=st.integers(100, 1500), case=st.sampled_from(sorted(PAIR_CASES)))
def test_moments_identical_for_one_and_two_threads(seed, samples, chunk, case):
    window, f = PAIR_CASES[case]
    with mock.patch.object(moments_module, "_MC_CHUNK", chunk):
        one, two = (s_moments_poisson(30.0, window, f, samples, RngSeed(seed), threads=t)
                    for t in (1, 2))
    assert one == two


def threshold_outcome(fn, *args):
    """fn's result, or the type and message of the UnattainableLevelError it raised."""
    try:
        return repr(fn(*args))
    except UnattainableLevelError as exc:
        return type(exc).__name__, str(exc)


@SETTINGS
@given(mean=st.one_of(st.integers(0, 150).map(float), st.floats(0.0, 150.0)),
       two_h=st.floats(0.002, 1.0),
       alpha=st.one_of(st.sampled_from([0.0, 1e-6, 0.05, 0.5, 1.0, 1.5]), st.floats(1e-6, 0.99)))
def test_min_t_threshold_equals_the_atom_scan(mean, two_h, alpha):
    want = threshold_outcome(reference_min_t_threshold, mean, mean, two_h, alpha,
                             mean.is_integer())
    assert threshold_outcome(_min_t_threshold, mean, two_h, alpha) == want
