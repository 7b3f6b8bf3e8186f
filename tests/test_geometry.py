import numpy as np
import pytest
from scipy import stats

from ppboot.errors import DuplicatePointError, InvalidBoundError, OutOfWindowError, ParameterError
from ppboot.geometry import (
    IntensityFunction,
    Interval1,
    PointPattern,
    Window2,
    constant_intensity,
    gauss_legendre_rule,
    linear_intensity,
    simulate_homogeneous_poisson,
    simulate_inhomogeneous_poisson,
    unit_square,
)
from ppboot.intensity import kernel_intensity_estimate
from ppboot.rng import RngSeed


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

    @pytest.mark.parametrize("points, window, index, earlier", [
        ([0.3, 0.1, 0.5, 0.1], Interval1(0, 1), 3, 1),
        ([0.5, 0.2, 0.5, 0.5], Interval1(0, 1), 2, 0),  # three-way repeat
        ([0.0, 0.3, -0.0], Interval1(-1, 1), 2, 0),  # 0.0 and -0.0 coincide
        ([[0.1, 0.2], [0.3, 0.4], [0.3, 0.4], [0.1, 0.2]], unit_square(), 2, 1),
        ([[0.2, 0.5], [0.5, 0.2], [0.2, 0.5], [0.2, 0.5]], unit_square(), 2, 0),
        ([[0.0, 0.5], [0.5, 0.0], [-0.0, 0.5]], Window2(-1, 1, -1, 1), 2, 0),
    ], ids=["1d", "1d-three-way", "1d-signed-zero", "2d", "2d-three-way", "2d-signed-zero"])
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
        lying = IntensityFunction(lambda x: 30.0 + 50.0 * np.asarray(x), lambda_max=40.0)
        with pytest.raises(InvalidBoundError):
            simulate_inhomogeneous_poisson(lying, Interval1(0, 1), RngSeed(4))

    def test_negative_intensity_detected(self):
        negative = IntensityFunction(lambda x: -np.ones_like(np.asarray(x)), lambda_max=10.0)
        with pytest.raises(ParameterError):
            simulate_inhomogeneous_poisson(negative, Interval1(0, 1), RngSeed(4))


class TestCountPointsIn:
    """Counts in the closed interval [0.25, 0.75], as kernel_intensity_estimate takes them."""

    @staticmethod
    def count(points) -> int:
        pat = PointPattern(np.array(points, dtype=float), Interval1(0, 1))
        return int(kernel_intensity_estimate(pat, 0.25, [0.5]).counts[0])

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

    def test_quadrature_rule_cached_and_read_only(self):
        nodes, weights = gauss_legendre_rule(16)
        assert gauss_legendre_rule(16)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 24, 32, 256])
    def test_quadrature_rule_matches_leggauss_bits(self, n):
        nodes, weights = gauss_legendre_rule(n)
        fresh_nodes, fresh_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)

    def test_lambda_max_validation(self):
        with pytest.raises(ParameterError):
            IntensityFunction(lambda x: x, lambda_max=float("nan"))
