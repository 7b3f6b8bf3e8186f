import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ppboot.bootstrap import (
    _CHUNK,
    _draw_weights,
    _limit_from_sums,
    alpha_coefficients,
    alpha_polynomials_exact,
    bootstrap_statistics,
    bootstrap_variance,
    bootstrap_variance_limit,
    variance_with_error,
)
from ppboot.errors import ParameterError
from ppboot.geometry import PointPattern, simulate_homogeneous_poisson, unit_square
from ppboot.twopoint import (
    KernelFunction,
    TwoPointSums,
    constant_pair_function,
    distinct_index_sums,
    kernel_pair_function,
    two_point_statistic,
)
from ppboot.rng import RngSeed

from conftest import (
    UndefinedMomentError,
    all_point_weights,
    alpha_fractions_from_moments,
    drawn_weights,
    multinomial_moment_oracle,
    pair_values,
    random_pattern,
    random_smooth_pair_function,
)


def raw_enumeration_moment(n: int, exponents: tuple[int, ...]) -> Fraction:
    """E[prod w(i)^a_i] by iterating every one of the n^n equiprobable assignments.

    Fully independent of the package's symmetry-reduced counting.
    """
    m = len(exponents)
    total = 0
    for assignment in itertools.product(range(n), repeat=n):
        value = 1
        for cat, a in zip(range(m), exponents):
            count = sum(1 for draw in assignment if draw == cat)
            value *= count**a
        total += value
    return Fraction(total, n**n)


class TestWeightVector:
    def test_weights_are_nonnegative_integers(self):
        for scheme in ("multinomial", "poissonized"):
            w = drawn_weights(20, scheme, RngSeed(5), 50)
            assert w.shape == (50, 20)
            assert np.all(w >= 0) and np.all(w == np.round(w))

    def test_multinomial_sum_constraint(self):
        w = drawn_weights(7, "multinomial", RngSeed(6), 200)
        assert np.all(w.sum(axis=1) == 7)

    def test_unknown_scheme_rejected(self):
        pat = random_pattern(3, np.random.default_rng(7))
        with pytest.raises(ParameterError):
            bootstrap_statistics(pat, constant_pair_function(unit_square()), 5, "jackknife", RngSeed(1))


class TestDrawWeights:
    def test_n_zero_rejected(self):
        with pytest.raises(ParameterError):
            _draw_weights(0, np.array([0]), RngSeed(1).generator())

    def test_single_point_multinomial_is_deterministic(self):
        for s in range(5):
            assert drawn_weights(1, "multinomial", RngSeed(s), 3).tolist() == [[1], [1], [1]]

    def test_multinomial_two_point_probabilities(self):
        # enumeration oracle: outcomes (2,0), (1,1), (0,2) with probs 1/4, 1/2, 1/4
        draws = 100_000
        w = drawn_weights(2, "multinomial", RngSeed(303), draws)
        hits = int(np.count_nonzero(np.all(w == 1, axis=1)))
        se = math.sqrt(0.5 * 0.5 / draws)
        assert abs(hits / draws - 0.5) < 3 * se

    def test_poissonized_moments(self):
        draws = 2000
        n = 100
        w = drawn_weights(n, "poissonized", RngSeed(404), draws)
        total = draws * n  # every component is Poisson(1)
        assert abs(w.mean() - 1.0) < 4 * math.sqrt(1.0 / total)
        kappa_minus_1 = 2.0 + 1.0  # Poisson(1): (kappa - 1) sigma^4 = 3 sigma^4 with sigma^2 = 1
        assert abs(w.var(ddof=1) - 1.0) < 4 * math.sqrt(kappa_minus_1 / total)

    def test_deterministic_given_seed(self):
        a = drawn_weights(50, "multinomial", RngSeed(7, (3,)), 4)
        b = drawn_weights(50, "multinomial", RngSeed(7, (3,)), 4)
        assert np.array_equal(a, b)

    def test_multinomial_rows_above_sub_block_size_sum_to_n(self):
        # n > 2**16 draws one row per row block
        n = 70_000
        w = drawn_weights(n, "multinomial", RngSeed(9), 3)
        assert w.shape == (3, n) and w.dtype == np.float64
        assert np.all(w.sum(axis=1) == n)


class TestWeightLaw:
    """Factorial moments of the drawn weights against their exact values, within 4 sigma."""

    ROWS = 200_000
    N = 10

    @staticmethod
    def assert_mean_within_4_sigma(values: np.ndarray, want: float) -> None:
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - want) < 4 * se

    @pytest.mark.parametrize("scheme, want", [("multinomial", (N - 1) / N), ("poissonized", 1.0)])
    def test_factorial_moments(self, scheme, want):
        w = drawn_weights(self.N, scheme, RngSeed(505), self.ROWS)
        self.assert_mean_within_4_sigma(w[:, 0] * w[:, 1], want)
        self.assert_mean_within_4_sigma(w[:, 0] * (w[:, 0] - 1), want)

    def test_poissonized_row_sums_are_poisson_n(self):
        n, rows = self.N, self.ROWS
        sums = drawn_weights(n, "poissonized", RngSeed(506), rows).sum(axis=1)
        assert abs(sums.mean() - n) < 4 * math.sqrt(n / rows)
        # Poisson(n): fourth central moment n + 3n^2, so var(s^2) ~ (n + 2n^2) / rows
        assert abs(sums.var(ddof=1) - n) < 4 * math.sqrt((n + 2 * n * n) / rows)


class TestChunkStreams:
    """Chunk c of the resamples draws its weights from substream c of the seed."""

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_statistics_identical_for_one_and_two_threads(self, scheme):
        rng = np.random.default_rng(44)
        pat = random_pattern(12, rng)
        f = random_smooth_pair_function(rng)
        n_resamples = 2 * _CHUNK + 17
        one = bootstrap_statistics(pat, f, n_resamples, scheme, RngSeed(13), threads=1)
        two = bootstrap_statistics(pat, f, n_resamples, scheme, RngSeed(13), threads=2)
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_chunk_slice_is_quadratic_form_of_its_weights(self, scheme):
        rng = np.random.default_rng(45)
        pat = random_pattern(12, rng)
        f = random_smooth_pair_function(rng)
        mat = pair_values(pat, f)
        n_resamples = 2 * _CHUNK + 17
        seed = RngSeed(14)
        stats = bootstrap_statistics(pat, f, n_resamples, scheme, seed)
        blocks = [drawn_weights(pat.n, scheme, seed, size, c, active=mat.any(axis=1))
                  for c, size in enumerate((_CHUNK, _CHUNK, 17))]
        assert not np.array_equal(blocks[0], blocks[1])
        for c, w in enumerate(blocks):
            want = np.einsum("ki,ij,kj->k", w, mat, w)
            assert stats[c * _CHUNK:c * _CHUNK + len(w)] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_chunks_past_n_1024_hold_4096_resamples(self, scheme):
        # about 1,200 pairs: row blocks of 59 resamples, bound by the weight draw
        rng = np.random.default_rng(46)
        pat = random_pattern(1100, rng)
        f = kernel_pair_function(KernelFunction("box", 0.005), 0.02, unit_square())
        seed = RngSeed(15)
        one = bootstrap_statistics(pat, f, _CHUNK + 7, scheme, seed, threads=1)
        two = bootstrap_statistics(pat, f, _CHUNK + 7, scheme, seed, threads=2)
        assert one.tobytes() == two.tobytes()
        mat = f.pair_matrix(pat.points)
        active = mat.any(axis=1)
        first = drawn_weights(pat.n, scheme, seed, _CHUNK, 0, active)[[0, 1, -2, -1]]
        second = drawn_weights(pat.n, scheme, seed, 7, 1, active)
        assert not np.array_equal(first, second[:4])
        for got, w in ((one[[0, 1, _CHUNK - 2, _CHUNK - 1]], first), (one[_CHUNK:], second)):
            assert got == pytest.approx(np.einsum("ki,ij,kj->k", w, mat, w), rel=1e-12)

    def test_weight_block_memory_bounded(self):
        # about 2,500 pairs; one uncapped chunk would hold 1,000 x 20,000 weights (160 MB)
        pat = random_pattern(20_000, np.random.default_rng(47))
        f = kernel_pair_function(KernelFunction("box", 0.0005), 0.002, unit_square())
        tracemalloc.start()
        try:
            bootstrap_statistics(pat, f, 1000, "multinomial", RngSeed(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_weight_memory_is_one_row_block(self):
        # row blocks of 3 resamples at n = 20,000 hold 0.5 MB of weights; all 1,000 take 160 MB
        pat = random_pattern(20_000, np.random.default_rng(47))
        f = kernel_pair_function(KernelFunction("box", 0.0005), 0.002, unit_square())
        tracemalloc.start()
        try:
            bootstrap_statistics(pat, f, 1000, "multinomial", RngSeed(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestBootstrapStatistic:
    """Each statistic is sum_{i != j} f(x_i, x_j) w(i) w(j) of its resample's weights."""

    def test_identity_weights_reduce_to_plain_statistic(self):
        # n = 2 multinomial draws w = (1, 1) half the time
        rng = np.random.default_rng(30)
        pat = random_pattern(2, rng)
        f = random_smooth_pair_function(rng)
        w = drawn_weights(2, "multinomial", RngSeed(30), 64)
        stats = bootstrap_statistics(pat, f, 64, "multinomial", RngSeed(30))
        ones = np.all(w == 1, axis=1)
        assert ones.any()
        assert stats[ones] == pytest.approx(two_point_statistic(pat, f), rel=1e-12)

    def test_single_surviving_index_gives_zero(self):
        rng = np.random.default_rng(31)
        pat = random_pattern(2, rng)
        f = random_smooth_pair_function(rng)
        w = drawn_weights(2, "multinomial", RngSeed(31), 64)
        stats = bootstrap_statistics(pat, f, 64, "multinomial", RngSeed(31))
        single = np.count_nonzero(w, axis=1) == 1
        assert single.any()
        assert np.all(stats[single] == 0.0)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(32)
        pat = random_pattern(8, rng)
        f = random_smooth_pair_function(rng)
        w = drawn_weights(8, "poissonized", RngSeed(32), 5)
        stats = bootstrap_statistics(pat, f, 5, "poissonized", RngSeed(32))
        for k in range(5):
            by_loop = math.fsum(
                float(f(pat.points[i], pat.points[j])) * w[k, i] * w[k, j]
                for i in range(8) for j in range(8) if i != j
            )
            assert stats[k] == pytest.approx(by_loop, rel=1e-12)


class TestActivePoints:
    """Resamples draw only the k points in some nonzero pair, from the exact law of their weights."""

    F = kernel_pair_function(KernelFunction("box", 0.01), 0.05, unit_square())

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_sample_variance_within_its_bar_of_the_limit(self, scheme):
        # 20 of the 60 points have a partner at distance 0.04 to 0.06
        pat = random_pattern(60, np.random.default_rng(49))
        assert np.count_nonzero(self.F.pair_matrix(pat.points).any(axis=1)) == 20
        stats = bootstrap_statistics(pat, self.F, 20_000, scheme, RngSeed(49))
        v, err = variance_with_error(stats)
        assert abs(v - bootstrap_variance_limit(pat, self.F, scheme)) <= err

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_every_point_paired_draws_over_all_points(self, scheme):
        # with f == 1 every statistic is an exact integer, whatever the order of additions
        pat = random_pattern(60, np.random.default_rng(50))
        f = constant_pair_function(unit_square())
        mat = f.pair_matrix(pat.points)
        stats = bootstrap_statistics(pat, f, _CHUNK + 700, scheme, RngSeed(50))
        w = np.vstack([all_point_weights(pat.n, scheme, RngSeed(50), size, c)
                       for c, size in enumerate((_CHUNK, 700))])
        assert stats.tobytes() == np.einsum("ki,ij,kj->k", w, mat, w).tobytes()

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_no_pair_draws_nothing(self, scheme):
        points = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        pat = PointPattern(points, unit_square())
        with mock.patch.object(RngSeed, "generator", autospec=True) as generator:
            stats = bootstrap_statistics(pat, self.F, 50, scheme, RngSeed(51))
        generator.assert_not_called()
        assert stats.tolist() == [0.0] * 50


class TestVarianceWithError:
    """The 3-sigma bar of s^2 from Var(s^2) ~ (m4 - (N-3)/(N-1) m2^2) / N."""

    def test_balanced_two_valued_sample(self):
        # m2 = 1/4 and m4 = 1/16 = m2^2, so Var(s^2) ~ (1/16 - (1/3)(1/16)) / 4 = 1/96
        var, err = variance_with_error(np.array([0.0, 1.0, 0.0, 1.0]))
        assert var == pytest.approx(1 / 3, rel=1e-15)
        assert err == pytest.approx(3 * math.sqrt(1 / 96), rel=1e-15)

    def test_constant_sample_has_no_error(self):
        assert variance_with_error(np.full(5, 2.0)) == (0.0, 0.0)

    def test_normal_sample_matches_the_exact_variance(self):
        # for normal data Var(s^2) = 2 sigma^4 / (N - 1)
        n = 200_000
        var, err = variance_with_error(np.random.default_rng(40).normal(0.0, 2.0, n))
        assert err == pytest.approx(3 * math.sqrt(2 * 16 / (n - 1)), rel=0.03)

    @pytest.mark.parametrize("seed", [3, 5, 6, 9, 12])
    def test_two_point_bar_covers_the_limit(self, seed):
        # n = 2: a statistic is 0 or 2 f(x1, x2), each with probability 1/2
        pat = PointPattern(np.array([[0.1, 0.1], [0.12, 0.1]]), unit_square())
        f = kernel_pair_function(KernelFunction("box", 0.01), 0.02, unit_square())
        stats = bootstrap_statistics(pat, f, 10_000, "multinomial", RngSeed(seed))
        var, err = variance_with_error(stats)
        assert err > 0
        assert abs(var - bootstrap_variance_limit(pat, f, "multinomial")) <= err


class TestBootstrapVariance:
    def test_zero_pair_function(self):
        pat = random_pattern(10, np.random.default_rng(34))
        f = constant_pair_function(unit_square(), 0.0)
        assert bootstrap_variance(pat, f, 50, "multinomial", RngSeed(1)) == 0.0

    def test_single_point_pattern(self):
        pat = PointPattern(np.array([[0.5, 0.5]]), unit_square())
        f = constant_pair_function(unit_square())
        assert bootstrap_variance(pat, f, 50, "multinomial", RngSeed(2)) == 0.0

    def test_too_few_resamples_rejected(self):
        pat = random_pattern(5, np.random.default_rng(35))
        f = constant_pair_function(unit_square())
        with pytest.raises(ParameterError):
            bootstrap_variance(pat, f, 1, "multinomial", RngSeed(3))

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(36)
        pat = random_pattern(30, rng)
        f = random_smooth_pair_function(rng)
        v1 = bootstrap_variance(pat, f, 3000, "poissonized", RngSeed(11), threads=1)
        v3 = bootstrap_variance(pat, f, 3000, "poissonized", RngSeed(11), threads=3)
        assert v1 == v3

    def test_conditional_mean_of_bootstrap_statistic(self):
        # E* theta* = E[w(1)w(2)] * theta = ((n-1)/n) theta for multinomial
        rng = np.random.default_rng(37)
        pat = random_pattern(40, rng)
        f = kernel_pair_function(KernelFunction("box", 0.3), 0.4, unit_square())
        stats = bootstrap_statistics(pat, f, 20_000, "multinomial", RngSeed(12))
        n = pat.n
        target = (n - 1) / n * two_point_statistic(pat, f)
        se = stats.std(ddof=1) / math.sqrt(len(stats))
        assert abs(stats.mean() - target) < 4 * se


class TestMomentOracle:
    def test_two_category_product(self):
        assert multinomial_moment_oracle(2, (1, 1)) == Fraction(1, 2)

    def test_four_category_product(self):
        assert multinomial_moment_oracle(4, (1, 1, 1, 1)) == Fraction(3, 32)

    def test_first_moment_is_one(self):
        for n in (1, 2, 5, 8):
            assert multinomial_moment_oracle(n, (1,)) == 1

    def test_too_many_categories_rejected(self):
        with pytest.raises(UndefinedMomentError):
            multinomial_moment_oracle(3, (1, 1, 1, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_oracle_agrees_with_raw_enumeration(self, n):
        for exponents in [(1, 1), (2,), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]:
            if len(exponents) > n:
                continue
            assert multinomial_moment_oracle(n, exponents) == raw_enumeration_moment(n, exponents)


class TestAlphaCoefficients:
    def test_poissonized_values_exact(self):
        a = alpha_coefficients(None, "poissonized")
        assert (a.alpha2, a.alpha3, a.alpha4) == (3.0, 1.0, 0.0)
        a_n = alpha_coefficients(250, "poissonized")
        assert (a_n.alpha2, a_n.alpha3, a_n.alpha4) == (3.0, 1.0, 0.0)

    def test_infinite_n_multinomial_gives_poissonized_values(self):
        a = alpha_coefficients(None, "multinomial")
        assert (a.alpha2, a.alpha3, a.alpha4) == (3.0, 1.0, 0.0)

    def test_spot_value_n4(self):
        a = alpha_coefficients(4, "multinomial")
        assert (a.alpha2, a.alpha3, a.alpha4) == (1.03125, -0.09375, -0.46875)

    def test_degenerate_n1(self):
        a = alpha_coefficients(1, "multinomial")
        assert (a.alpha2, a.alpha3, a.alpha4) == (0.0, 0.0, 0.0)

    def test_polynomials_match_moment_oracle_exactly(self):
        for n in range(4, 8):
            assert alpha_polynomials_exact(n) == alpha_fractions_from_moments(n)

    def test_tail_behavior(self):
        a1000 = alpha_coefficients(1000, "multinomial")
        assert abs(a1000.alpha3 - 1.0) < 0.008
        ns = np.array([4, 8, 16, 50, 200, 1000, 2000])
        a2 = [alpha_coefficients(int(n), "multinomial").alpha2 for n in ns]
        a3 = [alpha_coefficients(int(n), "multinomial").alpha3 for n in ns]
        assert all(x < y for x, y in zip(a2, a2[1:]))
        assert all(x < y for x, y in zip(a3, a3[1:]))
        assert a2[-1] < 3.0 and a3[-1] < 1.0


class TestVarianceLimit:
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_fewer_than_two_points_give_zero(self, n, scheme):
        pat = random_pattern(n, np.random.default_rng(37))
        f = random_smooth_pair_function(np.random.default_rng(36))
        assert bootstrap_variance_limit(pat, f, scheme) == 0.0

    @pytest.mark.parametrize("scheme", ["multinomial", "poissonized"])
    def test_limits_over_patterns_match_each_pattern(self, scheme):
        rng = np.random.default_rng(42)
        patterns = [random_pattern(n, rng) for n in (0, 1, 2, 7, 7, 12, 1)]
        f = kernel_pair_function(KernelFunction("epanechnikov", 0.2), 0.3, unit_square())
        sums = [distinct_index_sums(p, f) for p in patterns]
        stacked = TwoPointSums(*(np.array([getattr(s, k) for s in sums]) for k in ("P", "T3", "Q4", "R")))
        limits = _limit_from_sums(stacked, np.array([p.n for p in patterns]), scheme)
        assert limits.tolist() == [bootstrap_variance_limit(p, f, scheme) for p in patterns]

    def test_zero_pair_function(self):
        pat = random_pattern(12, np.random.default_rng(38))
        f = constant_pair_function(unit_square(), 0.0)
        assert bootstrap_variance_limit(pat, f, "multinomial") == 0.0

    def test_n2_reduces_to_pair_term(self):
        pat = random_pattern(2, np.random.default_rng(39))
        f = random_smooth_pair_function(np.random.default_rng(40))
        sums = distinct_index_sums(pat, f)
        a2 = alpha_coefficients(2, "multinomial").alpha2
        assert bootstrap_variance_limit(pat, f, "multinomial") == pytest.approx(
            2 * a2 * sums.R, rel=1e-12
        )

    def test_poissonized_limit_is_4t3_plus_6r(self):
        rng = np.random.default_rng(41)
        pat = random_pattern(25, rng)
        f = random_smooth_pair_function(rng)
        sums = distinct_index_sums(pat, f)
        assert bootstrap_variance_limit(pat, f, "poissonized") == pytest.approx(
            4 * sums.T3 + 6 * sums.R, rel=1e-12
        )

    def test_simulated_variance_approaches_limit(self):
        f = kernel_pair_function(KernelFunction("box", 0.01), 0.05, unit_square())
        pat = simulate_homogeneous_poisson(100.0, unit_square(), RngSeed(424242))
        limit = bootstrap_variance_limit(pat, f, "multinomial")
        v = bootstrap_variance(pat, f, 20_000, "multinomial", RngSeed(31337))
        assert abs(v / limit - 1.0) < 0.05

    def test_simulated_variance_approaches_limit_poissonized(self):
        rng = np.random.default_rng(43)
        pat = random_pattern(60, rng)
        f = random_smooth_pair_function(rng)
        limit = bootstrap_variance_limit(pat, f, "poissonized")
        v = bootstrap_variance(pat, f, 20_000, "poissonized", RngSeed(99))
        assert abs(v / limit - 1.0) < 0.08
