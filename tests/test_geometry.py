from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from ppboot import geometry as geometry_module
from ppboot.errors import DuplicatePointError, InvalidBoundError, OutOfWindowError, ParameterError
from ppboot.geometry import (
    IntensityFunction,
    Interval1,
    PointPattern,
    Window2,
    _check_replicates,
    _poisson_block,
    _replicate_blocks,
    _simulate_inhomogeneous_block,
    constant_intensity,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
    unit_square,
)
from ppboot.intensity import window_counts
from ppboot.rng import RngSeed

from conftest import stream_generators


class TestWindows:
    def test_area(self):
        assert Window2(0, 2, 0, 3).area == 6

    @pytest.mark.parametrize("bad", [(1, 1, 0, 1), (0, 1, 2, 2), (2, 1, 0, 1),
                                     (0, np.inf, 0, 1), (-np.inf, 1, 0, 1), (0, 1, 0, np.nan)])
    def test_degenerate_window_rejected(self, bad):
        with pytest.raises(ParameterError):
            Window2(*bad)

    def test_degenerate_interval_rejected(self):
        for bad in [(0.5, 0.5), (0, np.inf), (-np.inf, 0), (np.nan, 1)]:
            with pytest.raises(ParameterError):
                Interval1(*bad)

    def test_contains(self):
        w = unit_square()
        mask = w.contains(np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert mask.tolist() == [True, False]
        # a batch of points: the trailing axis holds the coordinates
        batch = np.array([[[0.5, 0.5], [1.5, 0.5], [0.0, 1.0]],
                          [[0.5, -0.1], [1.0, 1.0], [0.2, 1.2]]])
        assert w.contains(batch).tolist() == [[True, False, True], [False, True, False]]


REPEAT_CASES = pytest.mark.parametrize("points, window, index, earlier", [
    ([0.3, 0.1, 0.5, 0.1], Interval1(0, 1), 3, 1),
    ([0.5, 0.2, 0.5, 0.5], Interval1(0, 1), 2, 0),  # three-way repeat
    ([0.0, 0.3, -0.0], Interval1(-1, 1), 2, 0),  # 0.0 and -0.0 coincide
    ([[0.1, 0.2], [0.3, 0.4], [0.3, 0.4], [0.1, 0.2]], unit_square(), 2, 1),
    ([[0.2, 0.5], [0.5, 0.2], [0.2, 0.5], [0.2, 0.5]], unit_square(), 2, 0),
    ([[0.0, 0.5], [0.5, 0.0], [-0.0, 0.5]], Window2(-1, 1, -1, 1), 2, 0),
], ids=["1d", "1d-three-way", "1d-signed-zero", "2d", "2d-three-way", "2d-signed-zero"])


class TestPointPattern:
    def test_out_of_window_rejected(self):
        with pytest.raises(OutOfWindowError):
            PointPattern(np.array([[0.5, 0.5], [1.2, 0.1]]), unit_square())

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointError):
            PointPattern(np.array([[0.5, 0.5], [0.5, 0.5]]), unit_square())

    def test_n_and_dim(self):
        p2 = PointPattern(np.array([[0.1, 0.2]]), unit_square())
        assert p2.n == 1 and p2.dim == 2
        p1 = PointPattern(np.array([0.3, 0.7]), Interval1(0, 1))
        assert p1.n == 2 and p1.dim == 1

    def test_first_outside_point_named(self):
        with pytest.raises(OutOfWindowError, match="point 1 lies outside") as info:
            PointPattern(np.array([[0.5, 0.5], [1.2, 0.1], [-1.0, 0.0]]), unit_square())
        assert info.value.index == 1

    @REPEAT_CASES
    def test_first_repeat_named(self, points, window, index, earlier):
        with pytest.raises(DuplicatePointError, match=f"point {index} repeats point {earlier};") as info:
            PointPattern(np.array(points), window)
        assert info.value.index == index

    @pytest.mark.parametrize("points, window", [
        (np.array([[0.1, 0.2], [0.3, 0.4]]), Interval1(0, 1)),
        (np.full((2, 3), 0.5), unit_square()),
        (np.array([0.1, 0.2, 0.3]), unit_square()),
        (np.array([[0.1], [0.2]]), unit_square()),
        (np.float64(0.5), Interval1(0, 1)),
    ], ids=["n-by-2-on-interval", "n-by-3-on-square", "odd-1d-on-square", "n-by-1-on-square",
            "scalar-on-interval"])
    def test_wrong_shape_rejected(self, points, window):
        with pytest.raises(ParameterError, match="shape"):
            PointPattern(points, window)

    def test_empty_points_of_any_shape_accepted(self):
        assert PointPattern(np.empty(0), unit_square()).points.shape == (0, 2)
        assert PointPattern(np.empty((0, 2)), Interval1(0, 1)).points.shape == (0,)


class TestReplicateChecks:
    """``_check_replicates`` checks stacked patterns as ``PointPattern`` checks one."""

    @REPEAT_CASES
    def test_repeat_within_replicate_named_as_pattern_names_it(self, points, window, index, earlier):
        # replicate 0 holds the faulty replicate's first point: a repeat across replicates
        pts = np.array(points)
        stacked = np.concatenate([pts[:1], pts])
        with pytest.raises(DuplicatePointError,
                           match=f"point {index} of replicate 1 repeats its point {earlier};") as info:
            _check_replicates(stacked, np.array([1, len(pts)]), window)
        assert info.value.index == index

    @pytest.mark.parametrize("points, window", [
        (np.array([[0.5, 0.5], [0.2, 0.3], [0.5, 0.5], [0.2, 0.3]]), unit_square()),
        (np.array([0.5, 0.2, 0.5, 0.2]), Interval1(0, 1)),
    ], ids=["2d", "1d"])
    def test_same_point_in_two_replicates_accepted(self, points, window):
        _check_replicates(points, np.array([2, 2]), window)
        _check_replicates(points, np.array([2, 0, 2]), window)

    @pytest.mark.parametrize("replicates, index, earlier", [
        ([[0.1, 0.3], [0.2, 0.5, 0.5, 0.7]], 2, 1),
        ([[0.4], [0.2, 0.2, 0.2, 0.6]], 1, 0),  # three-way repeat
        ([[0.3], [-0.0, 0.0, 0.5]], 1, 0),  # 0.0 and -0.0 coincide
    ], ids=["1d", "1d-three-way", "1d-signed-zero"])
    def test_sorted_repeat_named_without_a_sort(self, replicates, index, earlier):
        # sorted replicates need no sort; with or without one the same repeat is named
        points = np.concatenate([np.array(r, dtype=float) for r in replicates])
        counts = np.array([len(r) for r in replicates])
        for grouped in (True, False):
            with pytest.raises(DuplicatePointError,
                               match=f"point {index} of replicate 1 repeats its point {earlier};") as info:
                _check_replicates(points, counts, Interval1(-1, 1), grouped=grouped)
            assert info.value.index == index

    def test_sorted_replicates_sharing_a_value_accepted(self):
        # 0.5 ends the first replicate and starts the last: next to each other, in two replicates
        points = np.array([0.2, 0.5, 0.5, 0.6])
        _check_replicates(points, np.array([2, 2]), Interval1(0, 1), grouped=True)
        _check_replicates(points, np.array([2, 0, 2]), Interval1(0, 1), grouped=True)

    def test_distinct_block_sorts_no_row_by_every_column(self):
        # a block of 2^14 uniform points in 300 replicates: the one-column sort finds no
        # two equal x, so the sort by every column sees no row.  A planted repeat brings
        # its run of equal x, two rows, to that sort
        rng = np.random.default_rng(39)
        points, counts = rng.uniform(size=(1 << 14, 2)), np.full(300, (1 << 14) // 300)
        counts[-1] += (1 << 14) - counts.sum()
        sizes, full_sort = [], np.lexsort

        def lexsort(keys):
            sizes.append(np.shape(keys)[-1])
            return full_sort(keys)

        with mock.patch.object(geometry_module.np, "lexsort", lexsort):
            _check_replicates(points, counts, unit_square())
            PointPattern(points.copy(), unit_square())
            assert sizes == [0, 0]
            points[counts[0] + 7] = points[counts[0] + 2]
            with pytest.raises(DuplicatePointError, match="point 7 of replicate 1 repeats its point 2;"):
                _check_replicates(points, counts, unit_square())
        assert sizes == [0, 0, 2]

    def test_out_of_window_point_named_by_replicate(self):
        pts = np.array([[0.5, 0.5], [0.2, 0.2], [1.5, 0.5], [2.0, 0.0]])
        with pytest.raises(OutOfWindowError, match="point 1 of replicate 2 lies outside") as info:
            _check_replicates(pts, np.array([1, 0, 3]), unit_square())
        assert info.value.index == 1

    def test_block_draws_each_seed_alone(self):
        # the counts, every x and every y, each from its own stream in replicate order
        window, seed = Window2(1e6, 1e6 + 2.0, -1.0, 0.0), RngSeed(5, (0,))
        (_, points, counts), = _replicate_blocks(partial(_poisson_block, window.area, window),
                                                 window.area, window, 40, RngSeed(5))
        counts_rng, x_rng, y_rng = (seed.substream(k).generator() for k in range(3))
        want = []
        for _ in range(40):
            n = counts_rng.poisson(window.area)
            want.append(np.column_stack([x_rng.uniform(1e6, 1e6 + 2.0, n),
                                         y_rng.uniform(-1.0, 0.0, n)]))
        assert counts.tolist() == [len(w) for w in want]
        assert 0 in counts
        assert np.array_equal(points, np.concatenate(want))
        # one pattern: a Poisson count, then that many x, then as many y, from one generator
        rng = seed.generator()
        n = rng.poisson(window.area)
        one = np.column_stack([rng.uniform(1e6, 1e6 + 2.0, n), rng.uniform(-1.0, 0.0, n)])
        assert np.array_equal(simulate_homogeneous_poisson(1.0, window, seed).points, one)

    def test_one_thinned_pattern_draws_from_one_generator(self):
        # a Poisson count, then that many proposals, then as many uniforms
        interval, seed = Interval1(0.5, 2.5), RngSeed(6, (3, 0))
        lam = linear_intensity(10.0, 20.0, interval)
        rng = seed.generator()
        n = rng.poisson(lam.lambda_max * interval.length)
        proposals, u = rng.uniform(0.5, 2.5, n), rng.uniform(0.0, 1.0, n)
        want = np.sort(proposals[u * lam.lambda_max < lam(proposals)])
        assert 0 < len(want) < n
        assert simulate_inhomogeneous_poisson(lam, interval, seed).points.tobytes() == want.tobytes()


class TestHomogeneousSimulation:
    def test_zero_intensity_gives_empty_pattern(self):
        assert simulate_homogeneous_poisson(0.0, unit_square(), RngSeed(1)).n == 0

    def test_negative_or_nonfinite_intensity_rejected(self):
        with pytest.raises(ParameterError):
            simulate_homogeneous_poisson(-1.0, unit_square(), RngSeed(1))
        with pytest.raises(ParameterError):
            simulate_homogeneous_poisson(float("inf"), unit_square(), RngSeed(1))

    def test_interval_window_rejected(self):
        with pytest.raises(ParameterError, match="planar window"):
            simulate_homogeneous_poisson(5.0, Interval1(0, 1), RngSeed(1))

    @pytest.mark.parametrize("lam", [1.0, 1e-3])
    def test_huge_expected_count_rejected_before_the_draw(self, lam):
        # 1e20 and 1e17 expected points: numpy's sampler or the allocation would fail
        with pytest.raises(ParameterError, match="simulation cap"):
            simulate_homogeneous_poisson(lam, Window2(0, 1e10, 0, 1e10), RngSeed(1))

    def test_fixed_seed_reproduces_identical_pattern(self):
        a = simulate_homogeneous_poisson(100.0, unit_square(), RngSeed(42))
        b = simulate_homogeneous_poisson(100.0, unit_square(), RngSeed(42))
        assert np.array_equal(a.points, b.points)

    def test_different_streams_differ(self):
        a = simulate_homogeneous_poisson(100.0, unit_square(), RngSeed(42, (1,)))
        b = simulate_homogeneous_poisson(100.0, unit_square(), RngSeed(42, (2,)))
        assert not np.array_equal(a.points, b.points)

    def test_count_moments_match_poisson(self):
        # Poisson(100): mean 100 (3-sigma band), variance 100 (4-sigma band)
        reps = 10_000
        seed = RngSeed(2024)
        counts = np.array([
            simulate_homogeneous_poisson(100.0, unit_square(), seed.substream(r)).n
            for r in range(reps)
        ])
        se_mean = np.sqrt(100.0 / reps)
        assert abs(counts.mean() - 100.0) < 3 * se_mean
        kappa_minus_1 = 2.0 + 1.0 / 100.0
        se_var = np.sqrt(kappa_minus_1 * 100.0**2 / reps)
        assert abs(counts.var(ddof=1) - 100.0) < 4 * se_var

    def test_points_inside_and_distinct(self):
        pat = simulate_homogeneous_poisson(500.0, Window2(-1, 2, 3, 5), RngSeed(9))
        assert bool(np.all(pat.window.contains(pat.points)))
        assert len(np.unique(pat.points, axis=0)) == pat.n


class TestInhomogeneousSimulation:
    def test_zero_intensity_gives_empty_pattern(self):
        pat = simulate_inhomogeneous_poisson(constant_intensity(0.0), Interval1(0, 1), RngSeed(3))
        assert pat.n == 0

    def test_huge_expected_count_rejected_before_the_draw(self):
        with pytest.raises(ParameterError, match="simulation cap"):
            simulate_inhomogeneous_poisson(constant_intensity(1.0), Interval1(0, 1e20),
                                           RngSeed(3))

    def test_planar_window_rejected(self):
        with pytest.raises(ParameterError, match="an interval"):
            simulate_inhomogeneous_poisson(constant_intensity(5.0), unit_square(), RngSeed(3))
        with pytest.raises(ParameterError, match="an interval"):
            linear_intensity(50.0, 20.0, unit_square())

    def test_constant_intensity_count_is_poisson(self):
        # thinning a constant intensity must reduce to the homogeneous law;
        # chi-square goodness of fit on counts at the 1% level
        mu = 40.0
        reps = 10_000
        seed = RngSeed(78)
        counts = np.array([
            simulate_inhomogeneous_poisson(constant_intensity(mu), Interval1(0, 1),
                                           seed.substream(r)).n
            for r in range(reps)
        ])
        lo, hi = int(stats.poisson.ppf(0.001, mu)), int(stats.poisson.ppf(0.999, mu))
        edges = list(range(lo, hi + 1))
        observed = np.array(
            [np.sum(counts <= lo)]
            + [np.sum(counts == k) for k in edges[1:-1]]
            + [np.sum(counts >= hi)]
        )
        expected = np.array(
            [stats.poisson.cdf(lo, mu)]
            + [stats.poisson.pmf(k, mu) for k in edges[1:-1]]
            + [stats.poisson.sf(hi - 1, mu)]
        ) * reps
        stat = np.sum((observed - expected) ** 2 / expected)
        p_value = stats.chi2.sf(stat, len(observed) - 1)
        assert p_value > 0.01

    def test_linear_intensity_mean_count(self):
        # integral of 50 + 20x over (0,1) is 60
        reps = 10_000
        seed = RngSeed(88)
        intensity = linear_intensity(50.0, 20.0, Interval1(0, 1))
        counts = np.array([
            simulate_inhomogeneous_poisson(intensity, Interval1(0, 1), seed.substream(r)).n
            for r in range(reps)
        ])
        assert abs(counts.mean() - 60.0) < 3 * np.sqrt(60.0 / reps)

    def test_thinning_matches_direct_homogeneous_locations(self):
        # pooled locations from thinned constant-intensity runs vs uniform draws
        seed = RngSeed(5150)
        thinned = np.concatenate([
            simulate_inhomogeneous_poisson(constant_intensity(40.0), Interval1(0, 1),
                                           seed.substream(0, r)).points
            for r in range(200)
        ])
        direct = seed.substream(1).generator().uniform(0, 1, thinned.size)
        assert stats.ks_2samp(thinned, direct).pvalue > 0.01

    def test_declared_bound_violation_detected(self):
        lying = IntensityFunction(lambda x: 30.0 + 50.0 * np.asarray(x), lambda_max=40.0,
                                  integral=lambda lo, hi: (hi - lo) * (30.0 + 25.0 * (lo + hi)))
        with pytest.raises(InvalidBoundError):
            simulate_inhomogeneous_poisson(lying, Interval1(0, 1), RngSeed(4))

    def test_negative_intensity_detected(self):
        negative = IntensityFunction(lambda x: -np.ones_like(np.asarray(x)), lambda_max=10.0,
                                     integral=lambda lo, hi: lo - hi)
        with pytest.raises(ParameterError):
            simulate_inhomogeneous_poisson(negative, Interval1(0, 1), RngSeed(4))


def one_at_a_time_outcomes(intensity, seed, reps):
    """The error each one-replicate block, drawn in turn from ``seed``'s streams, raises, or None."""
    rngs, outcomes = stream_generators(seed), []
    for _ in range(reps):
        try:
            _simulate_inhomogeneous_block(intensity, Interval1(0, 1), rngs, 1)
        except ParameterError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(None)
    return outcomes


class TestInhomogeneousBlock:
    """A block reports a bad lambda as its first pattern to show it would report it alone."""

    SEED, REPS = RngSeed(17, (0,)), 16

    def block(self, intensity):
        return _simulate_inhomogeneous_block(intensity, Interval1(0, 1),
                                             stream_generators(self.SEED), self.REPS)

    # 1 + x exceeds its declared 1.8 above x = 0.8, where Poisson(1.8) proposals
    # fall with probability 0.30; NEGATIVE is negative below x = 0.1 (0.16)
    LYING = IntensityFunction(lambda x: 1.0 + np.asarray(x), lambda_max=1.8,
                              integral=lambda lo, hi: (hi - lo) * (1.0 + 0.5 * (lo + hi)))
    NEGATIVE = IntensityFunction(lambda x: np.where(np.asarray(x) < 0.1, -1.0, 1.0),
                                 lambda_max=1.8, integral=lambda lo, hi: hi - lo)
    BOTH = IntensityFunction(lambda x: np.where(np.asarray(x) < 0.1, -1.0, 1.0 + np.asarray(x)),
                             lambda_max=1.8, integral=lambda lo, hi: hi - lo)

    @pytest.mark.parametrize("name", ["LYING", "NEGATIVE", "BOTH"])
    def test_error_is_the_first_failing_patterns(self, name):
        intensity = getattr(self, name)
        outcomes = one_at_a_time_outcomes(intensity, self.SEED, self.REPS)
        failing = [k for k, exc in enumerate(outcomes) if exc is not None]
        # neither the block's first pattern nor its only failing one; in BOTH a negative
        # lambda follows the first failure, an exceeded bound
        assert failing[0] > 0 and len(failing) > 1
        if name == "BOTH":
            assert type(outcomes[failing[0]]) is InvalidBoundError
            assert any(type(outcomes[k]) is ParameterError for k in failing[1:])
        first = outcomes[failing[0]]
        with pytest.raises(ParameterError) as info:
            self.block(intensity)
        assert type(info.value) is type(first) and str(info.value) == str(first)

    def test_bound_violation_names_the_patterns_largest_lambda(self):
        outcomes = one_at_a_time_outcomes(self.LYING, self.SEED, self.REPS)
        # replayed from the counts and x streams; the thinning uniforms have their own
        counts_rng, x_rng = (self.SEED.substream(k).generator() for k in range(2))
        for _ in range(next(k for k, exc in enumerate(outcomes) if exc is not None) + 1):
            proposals = x_rng.uniform(0.0, 1.0, counts_rng.poisson(1.8))
        x_bad = proposals[np.argmax(1.0 + proposals)]
        with pytest.raises(InvalidBoundError) as info:
            self.block(self.LYING)
        assert str(info.value) == f"intensity exceeds declared lambda_max=1.8 at x={x_bad:.6g}"

    def test_negative_lambda_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="negative at an evaluated point") as info:
            self.block(self.NEGATIVE)
        assert type(info.value) is ParameterError


class TestCountPointsIn:
    """Counts in the closed interval [0.25, 0.75], as window_counts takes them."""

    @staticmethod
    def count(points) -> int:
        pat = PointPattern(np.array(points, dtype=float), Interval1(0, 1))
        return int(window_counts(pat, 0.25, [0.5])[0])

    def test_empty_pattern(self):
        assert self.count([]) == 0

    def test_direct_count(self):
        assert self.count([0.1, 0.5, 0.9]) == 1

    def test_closed_boundaries(self):
        assert self.count([0.25, 0.75]) == 2
        assert self.count([np.nextafter(0.25, 0), np.nextafter(0.75, 1)]) == 0


class TestIntensityFunctions:
    def test_linear_negative_on_interval_rejected(self):
        with pytest.raises(ParameterError):
            linear_intensity(1.0, -10.0, Interval1(0, 1))

    def test_integral(self):
        intensity = linear_intensity(50.0, 20.0, Interval1(0, 1))
        assert intensity.integral(0.0, 1.0) == pytest.approx(60.0, rel=1e-12)

    @pytest.mark.parametrize("a, b, lo, hi", [(40.0, 0.0, 0.0, 1.0), (20.0, 2000.0, 0.0, 1.0),
                                              (100.0, -50.0, 0.0, 1.0), (50.0, 20.0, 1e4, 1e4 + 1)])
    def test_integral_exact_to_rounding(self, a, b, lo, hi):
        # against the exact rational integral of the same float inputs: random
        # ends, and windows of half-width h cut at either end of the interval
        interval = Interval1(lo, hi)
        intensity = constant_intensity(a) if b == 0 else linear_intensity(a, b, interval)
        rng = np.random.default_rng(26)
        h = 0.05 * interval.length
        near_lo, near_hi = rng.uniform(lo, lo + h, 50).tolist(), rng.uniform(hi - h, hi, 50).tolist()
        windows = [*(sorted(pair) for pair in rng.uniform(lo, hi, (200, 2)).tolist()),
                   *((lo, x + h) for x in near_lo), *((x - h, hi) for x in near_hi), (lo, hi)]
        a_q, b_q = Fraction(a), Fraction(b)
        for u, v in windows:
            u_q, v_q = Fraction(u), Fraction(v)
            exact = (v_q - u_q) * (a_q + b_q * (u_q + v_q) / 2)
            got = intensity.integral(u, v)
            assert abs(Fraction(got) - exact) <= 4 * np.finfo(float).eps * exact, (u, v)

    def test_lambda_max_validation(self):
        with pytest.raises(ParameterError):
            IntensityFunction(lambda x: x, lambda_max=float("nan"),
                              integral=lambda lo, hi: 0.5 * (hi * hi - lo * lo))
