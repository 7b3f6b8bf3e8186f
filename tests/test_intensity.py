import math

import numpy as np
import pytest
from scipy import stats

from ppboot import geometry, intensity
from ppboot.errors import (DegenerateCountError, DuplicatePointError, ParameterError,
                           UnattainableLevelError)
from ppboot.experiments import midpoint_grid
from ppboot.geometry import (
    Interval1,
    PointPattern,
    constant_intensity,
    unit_square,
    linear_intensity,
    _simulate_inhomogeneous_block,
    simulate_inhomogeneous_poisson,
)
from ppboot.intensity import (
    BAND_METHODS,
    _BandBuilder,
    _atom_range,
    _count_histogram,
    _draw_atom_counts,
    _garwood_interval,
    _window_ends,
    confidence_band,
    coverage_experiment,
    t_alpha_oracle,
    t_star_closed_form,
    t_star_monte_carlo,
    t_star_monte_carlo_band,
    window_counts,
)
from ppboot.rng import RngSeed

from conftest import (
    coverage_probability,
    one_at_a_time,
    reference_t_alpha_oracle,
    reference_t_star_closed_form,
    reference_t_star_monte_carlo_band,
    stream_generators,
)

I01 = Interval1(0.0, 1.0)


def cut_mean(intensity, x, h):
    """The expected count at x: lambda integrated over [x-h, x+h] cut to I01."""
    return intensity.integral(max(x - h, I01.lo), min(x + h, I01.hi))


class TestKernelIntensityEstimate:
    def test_empty_pattern(self):
        pat = PointPattern(np.empty(0), I01)
        assert np.all(window_counts(pat, 0.1, np.linspace(0.1, 0.9, 5)) == 0)

    def test_single_point_formula(self):
        pat = PointPattern(np.array([0.5]), I01)
        assert window_counts(pat, 0.1, [0.5])[0] == 1
        band = confidence_band(pat, 0.1, 0.05, [0.5], "exact_poisson")
        assert band.lambda_hat[0] == pytest.approx(1 / 0.2)

    def test_closed_window_boundaries(self):
        pat = PointPattern(np.array([0.4, 0.6]), I01)
        assert window_counts(pat, 0.1, [0.5])[0] == 2

    def test_bad_bandwidth(self):
        pat = PointPattern(np.array([0.5]), I01)
        with pytest.raises(ParameterError):
            window_counts(pat, 0.0, [0.5])

    def test_grid_outside_interval(self):
        pat = PointPattern(np.array([0.5]), I01)
        with pytest.raises(ParameterError):
            window_counts(pat, 0.1, [1.2])

    def test_nan_grid_point_rejected(self):
        pat = PointPattern(np.array([0.5]), I01)
        with pytest.raises(ParameterError, match="inside the observation interval"):
            window_counts(pat, 0.05, [np.nan, 0.5])
        with pytest.raises(ParameterError, match="inside the observation interval"):
            confidence_band(pat, 0.05, 0.05, [np.nan, 0.5], "oracle_true_t",
                            intensity=constant_intensity(40.0))

    def test_constant_intensity_unbiased(self):
        lam, h, reps = 60.0, 0.1, 1000
        seed = RngSeed(515)
        values = np.array([
            window_counts(
                simulate_inhomogeneous_poisson(constant_intensity(lam), I01, seed.substream(r)),
                h, [0.5],
            )[0] / (2 * h)
            for r in range(reps)
        ])
        se = math.sqrt(2 * h * lam / reps) / (2 * h)
        assert abs(values.mean() - lam) < 3 * se


class TestTStarArguments:
    def test_validation_in_both_routines(self):
        routines = (t_star_closed_form,
                    lambda p, h, alpha: t_star_monte_carlo_band(p, h, alpha, 1000, RngSeed(1)))
        for threshold in routines:
            for p, h, alpha in [(-1, 0.1, 0.05), (2.5, 0.1, 0.05), (4, 0.0, 0.05),
                                (4, math.inf, 0.05), (4, 0.1, 1.5), (4, 0.1, -0.1)]:
                with pytest.raises(ParameterError):
                    threshold(p, h, alpha)
            with pytest.raises(DegenerateCountError):
                threshold(0, 0.1, 0.05)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, np.float64(math.nan), "4"])
    def test_count_that_is_not_a_finite_number(self, p):
        for threshold in (t_star_closed_form,
                          lambda *args: t_star_monte_carlo_band(*args, 1000, RngSeed(1))):
            with pytest.raises(ParameterError, match="count p must be a nonnegative integer"):
                threshold(p, 0.1, 0.05)


class TestTStarClosedForm:
    def test_alpha_one_gives_zero(self):
        assert t_star_closed_form(4, 0.1, 1.0) == 0.0

    def test_zero_count_rejected(self):
        with pytest.raises(DegenerateCountError):
            t_star_closed_form(0, 0.1, 0.05)

    def test_alpha_zero_unattainable(self):
        with pytest.raises(UnattainableLevelError):
            t_star_closed_form(4, 0.1, 0.0)

    def test_small_count_levels_unattainable(self):
        # the resampled count is zero with probability exp(-p), which no
        # finite threshold covers, so 1 - alpha > 1 - exp(-p) is infeasible
        for p, alpha in [(1, 0.05), (1, 0.10), (2, 0.05), (2, 0.10)]:
            with pytest.raises(UnattainableLevelError):
                t_star_closed_form(p, 0.1, alpha)

    def test_level_lost_to_rounding_raises(self):
        # alpha one ulp above exp(-1) is feasible in exact arithmetic, but
        # the rounded coverage of counts 1, 2, ... never reaches 1 - alpha
        with pytest.raises(UnattainableLevelError, match="not attained"):
            t_star_closed_form(1, 0.05, math.nextafter(math.exp(-1), 1))

    def test_spot_case_against_monte_carlo(self):
        t = t_star_closed_form(4, 0.1, 0.05)
        t_mc, lo, hi = t_star_monte_carlo_band(4, 0.1, 0.05, 200_000, RngSeed(606))
        assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12)
        assert coverage_probability(4, 0.1, t) >= 0.95
        # minimality probe: just below t* the coverage drops under the level
        assert coverage_probability(4, 0.1, t * (1 - 1e-6)) < 0.95

    def test_monotone_in_level(self):
        for p in range(5, 51, 5):
            t_strict = t_star_closed_form(p, 0.1, 0.01)
            t_loose = t_star_closed_form(p, 0.1, 0.10)
            assert t_strict >= t_loose

    def test_tight_levels_raise_for_tiny_counts(self):
        for p in (1, 2, 3, 4):
            if math.exp(-p) >= 0.01:
                with pytest.raises(UnattainableLevelError):
                    t_star_closed_form(p, 0.1, 0.01)

    def test_coverage_probability_step_function(self):
        ts = np.linspace(0, 25, 600)
        cov = np.array([coverage_probability(6, 0.05, t) for t in ts])
        assert np.all(np.diff(cov) >= -1e-12)
        assert cov[0] == pytest.approx(stats.poisson.pmf(6, 6))
        # by t = 25 every count except 0 is covered
        assert cov[-1] == pytest.approx(1 - math.exp(-6), rel=1e-9)


class TestTStarMonteCarlo:
    def test_reproducible(self):
        a = t_star_monte_carlo(7, 0.05, 0.05, 50_000, RngSeed(1, (2,)))
        b = t_star_monte_carlo(7, 0.05, 0.05, 50_000, RngSeed(1, (2,)))
        assert a == b

    def test_needs_enough_draws(self):
        with pytest.raises(ParameterError):
            t_star_monte_carlo(7, 0.05, 0.05, 10, RngSeed(1))

    def test_large_count_approaches_normal_quantile(self):
        # with 2h = 1 the studentized deviation is asymptotically N(0, 1)
        t = t_star_monte_carlo(400, 0.5, 0.05, 400_000, RngSeed(2))
        assert abs(t / 1.959964 - 1.0) < 0.05

    def test_agrees_with_closed_form_across_counts(self):
        # p = 3 at alpha = 0.05 sits 2e-4 from the feasibility edge, where
        # the empirical quantile is legitimately unstable; start at p = 4
        for p in (4, 7, 20, 45):
            t = t_star_closed_form(p, 0.1, 0.05)
            t_mc, lo, hi = t_star_monte_carlo_band(p, 0.1, 0.05, 100_000, RngSeed(3, (p,)))
            assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12)

    def test_full_feasible_sweep_against_closed_form(self):
        # every feasible (p, h, alpha) combination; (3, 0.05) is skipped
        # because its zero-count mass 0.0498 sits within Monte Carlo noise
        # of alpha = 0.05, making the empirical quantile infinite for a
        # large share of seeds.  The 1e-12 slack covers tied atoms whose
        # equal real |T| values round to floats one ulp apart (e.g. counts
        # 27 and 48 at p = 36), not statistical error.
        draws = 100_000
        for h in (0.02, 0.1):
            for alpha in (0.05, 0.10):
                for p in range(1, 51):
                    if math.exp(-p) >= alpha or (p == 3 and alpha == 0.05):
                        continue
                    t = t_star_closed_form(p, h, alpha)
                    _, lo, hi = t_star_monte_carlo_band(
                        p, h, alpha, draws,
                        RngSeed(8800, (p, int(1000 * h), int(100 * alpha))))
                    assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12), (p, h, alpha)

    def test_unattainable_level_raises(self):
        with pytest.raises(UnattainableLevelError):
            t_star_monte_carlo(1, 0.1, 0.05, 10_000, RngSeed(4))

    def test_alpha_one_covers_at_zero(self):
        assert t_star_monte_carlo(5, 0.1, 1.0, 10_000, RngSeed(5)) == 0.0
        assert t_star_monte_carlo_band(5, 0.1, 1.0, 10_000, RngSeed(5)) == (0.0, 0.0, 0.0)

    def test_quantile_is_the_band_center(self):
        for alpha in (0.0, 0.05, 0.5):
            t = t_star_monte_carlo(400, 0.5, alpha, 20_000, RngSeed(6))
            assert t == t_star_monte_carlo_band(400, 0.5, alpha, 20_000, RngSeed(6))[0]


def outcome(fn, *args):
    """The repr of fn's result, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except (DegenerateCountError, UnattainableLevelError) as exc:
        return type(exc).__name__, str(exc)


class TestAgainstAtomScan:
    """Bit equality with the atom-by-atom scan and the sort-based quantile."""

    @pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01, 1e-3, 1e-8])
    @pytest.mark.parametrize("h", [0.05, 0.01, 1 / 3])
    def test_closed_form(self, h, alpha):
        # at alpha = 1e-8 the covering step can be a tie whose partner lies
        # outside the atom table (atoms 5 and 180 at p = 30, as 5 * 180 = 30^2);
        # the reference scan is too slow there beyond p = 120
        if alpha == 1e-8:
            ps = range(0, 121)
        else:
            ps = [*range(0, 121), 333, 999, 10007, *([10**6] if alpha == 0.05 else [])]
        for p in ps:
            assert outcome(t_star_closed_form, p, h, alpha) == \
                outcome(reference_t_star_closed_form, p, h, alpha), p

    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-3])
    @pytest.mark.parametrize("a, b", [(20.0, 2000.0), (100.0, -50.0)])
    def test_oracle(self, a, b, alpha):
        intensity = linear_intensity(a, b, I01)
        for h in (0.05, 0.01):
            for x in np.linspace(0.0, 1.0, 41).tolist():
                m = cut_mean(intensity, x, h)
                assert outcome(t_alpha_oracle, m, h, alpha) == \
                    outcome(reference_t_alpha_oracle, m, h, alpha), (h, x)

    @pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01])
    def test_monte_carlo_band(self, alpha):
        # the reference sorts |T*| over the same atom counts, expanded to draws
        for p in [*range(0, 61), 150, 999]:
            seed = RngSeed(5).substream(1, p)
            first, counts = _draw_atom_counts(p, 20_000, seed.generator())
            p_star = np.repeat(np.arange(first, first + len(counts)), counts)
            assert outcome(t_star_monte_carlo_band, p, 0.05, alpha, 20_000, seed) == \
                outcome(reference_t_star_monte_carlo_band, p, 0.05, alpha, p_star), p


class TestAtomCountDraw:
    N_DRAWS = 200_000

    @pytest.mark.parametrize("p", [0, 1, 4, 37, 999, 12_345])
    def test_counts_follow_the_poisson_law(self, p):
        first, counts = _draw_atom_counts(p, self.N_DRAWS, RngSeed(21).substream(p).generator())
        assert counts.sum() == self.N_DRAWS and np.all(counts >= 0)
        atoms = np.arange(first, first + len(counts))
        mean = counts @ atoms / self.N_DRAWS
        var = counts @ (atoms - mean) ** 2 / (self.N_DRAWS - 1)
        # sampling sd of the mean is sqrt(p / n), of the variance
        # sqrt((mu4 - p^2) / n) with the Poisson mu4 = p + 3 p^2
        assert abs(mean - p) <= 4 * math.sqrt(p / self.N_DRAWS)
        assert abs(var - p) <= 4 * math.sqrt((p + 2 * p * p) / self.N_DRAWS)

    def test_counts_match_the_pmf(self):
        p = 7
        first, counts = _draw_atom_counts(p, self.N_DRAWS, RngSeed(22).generator())
        pmf = stats.poisson.pmf(np.arange(first, first + len(counts)), p)
        expected = self.N_DRAWS * pmf
        assert np.all(np.abs(counts - expected) <= 4 * np.sqrt(expected) + 1)

    def test_tail_cell_draws_land_outside_the_range_and_are_counted(self):
        # span 0.5 keeps only 94..106 at p = 100, so about half the draws
        # fall in the tail cell and are redrawn outside that range
        p, lo, hi = 100, 94, 106
        first, counts = _draw_atom_counts(p, self.N_DRAWS, RngSeed(23).generator(), span=0.5)
        atoms = np.arange(first, first + len(counts))
        inside = (atoms >= lo) & (atoms <= hi)
        outside_share = stats.poisson.cdf(lo - 1, p) + stats.poisson.sf(hi, p)
        assert counts.sum() == self.N_DRAWS
        assert first < lo and atoms[-1] > hi
        for drawn, share in [(counts[~inside].sum(), outside_share),
                             (counts[atoms < lo].sum(), stats.poisson.cdf(lo - 1, p))]:
            assert abs(drawn - self.N_DRAWS * share) <= \
                4 * math.sqrt(self.N_DRAWS * share * (1 - share))
        mean = counts @ atoms / self.N_DRAWS
        assert abs(mean - p) <= 4 * math.sqrt(p / self.N_DRAWS)


class TestScipySpecialForms:
    """The scipy.special forms give the same bits as the scipy.stats calls they replace."""

    def test_poisson_cdf_and_pmf_match_scipy_stats(self):
        means = [*np.geomspace(0.5, 3000.0, 120).tolist(), 6, 20, 150]
        for mean in means:
            first, last = _atom_range(mean)
            k = np.arange(first, last + 1)
            assert np.array_equal(intensity.stats.poisson.cdf(k, mean),
                                  stats.poisson.cdf(k, mean)), mean
            assert np.array_equal(intensity._poisson_pmf(k, mean),
                                  stats.poisson.pmf(k, mean)), mean

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
    def test_garwood_interval_matches_chi_square_inversion(self, alpha):
        p = np.arange(2000)
        lo = np.where(p > 0, 0.5 * stats.chi2.ppf(alpha / 2, 2 * p), 0.0)
        hi = 0.5 * stats.chi2.ppf(1 - alpha / 2, 2 * p + 2)
        got = np.array([_garwood_interval(int(q), alpha) for q in p])
        assert np.array_equal(got[:, 0], lo)
        assert np.array_equal(got[:, 1], hi)


class TestAlgebraicEquivalence:
    def test_interval_forms_coincide_exact_integers(self):
        # |p*-p| <= t sqrt(2 h p*)  <=>  |p* - a| <= b, checked in exact
        # integer arithmetic on a rational grid (h = H/100, t = T/10):
        # the left event scales to 10^4 d^2 <= 2 H T^2 p*, the right to
        # (10^4 d - H T^2)^2 <= 2 H p T^2 10^4 + H^2 T^4, d = p* - p
        p = np.arange(0, 61, dtype=np.int64)[:, None, None, None]
        ps = np.arange(0, 61, dtype=np.int64)[None, :, None, None]
        T = np.arange(1, 51, dtype=np.int64)[None, None, :, None]
        H = np.array([2, 10], dtype=np.int64)[None, None, None, :]
        delta = ps - p
        lhs = 10_000 * delta**2 <= 2 * H * T**2 * ps
        rhs = (10_000 * delta - H * T**2) ** 2 <= 2 * H * p * T**2 * 10_000 + H**2 * T**4
        assert np.array_equal(lhs, rhs)


class TestConfidenceBand:
    def test_zero_count_exact_band_value(self):
        # p = 0, alpha = 0.05, h = 0.5: upper limit chi2_{0.975,2} / 2 / (2h)
        pat = PointPattern(np.empty(0), I01)
        band = confidence_band(pat, 0.5, 0.05, [0.5], "exact_poisson")
        assert band.lo[0] == 0.0
        assert band.hi[0] == pytest.approx(3.689, abs=5e-4)

    def test_bootstrap_zero_count_falls_back_flagged(self):
        pat = PointPattern(np.array([0.9]), I01)
        band = confidence_band(pat, 0.05, 0.05, [0.3], "bootstrap_closed_form")
        exact = confidence_band(pat, 0.05, 0.05, [0.3], "exact_poisson")
        assert "zero-count" in band.flags[0]
        assert band.lo[0] == exact.lo[0] and band.hi[0] == exact.hi[0]

    def test_lower_edge_clipped_at_zero(self):
        # p = 5 at alpha = 0.01 forces count 1 into the covered range,
        # so t* sqrt(lambda_hat) exceeds lambda_hat and clipping kicks in
        pat = PointPattern(np.array([0.45, 0.48, 0.5, 0.52, 0.55]), I01)
        band = confidence_band(pat, 0.1, 0.01, [0.5], "bootstrap_closed_form")
        assert band.lambda_hat[0] == pytest.approx(25.0)
        assert band.t_values[0] * math.sqrt(25.0) > 25.0
        assert band.lo[0] == 0.0
        assert np.all(band.lo >= 0.0)

    def test_band_symmetric_before_clipping(self):
        rng = np.random.default_rng(9)
        pat = PointPattern(np.sort(rng.uniform(0, 1, 60)), I01)
        grid = midpoint_grid(I01, 7)
        band = confidence_band(pat, 0.1, 0.05, grid, "bootstrap_closed_form")
        for lam, lo, hi, t in zip(band.lambda_hat, band.lo, band.hi, band.t_values):
            half = t * math.sqrt(lam)
            assert hi == pytest.approx(lam + half, rel=1e-12)
            if lam - half >= 0:
                assert lo == pytest.approx(lam - half, rel=1e-12)
            else:
                assert lo == 0.0

    def test_exact_poisson_nesting(self):
        rng = np.random.default_rng(10)
        pat = PointPattern(np.sort(rng.uniform(0, 1, 40)), I01)
        grid = midpoint_grid(I01, 9)
        wide = confidence_band(pat, 0.08, 0.01, grid, "exact_poisson")
        narrow = confidence_band(pat, 0.08, 0.10, grid, "exact_poisson")
        assert np.all(wide.lo <= narrow.lo + 1e-12)
        assert np.all(wide.hi >= narrow.hi - 1e-12)

    def test_edge_points_flagged(self):
        pat = PointPattern(np.array([0.5]), I01)
        band = confidence_band(pat, 0.1, 0.05, [0.05, 0.5, 0.97], "exact_poisson")
        assert "edge" in band.flags[0]
        assert band.flags[1] == ""
        assert "edge" in band.flags[2]

    def test_windows_ending_on_the_interval_ends_are_not_edge(self):
        # h = 1/60 on 30 midpoints: the first window is [0, 1/30] and the last
        # ends at 1.0 exactly, so neither is cut, although 1 - x < h rounds true
        grid, h = midpoint_grid(I01, 30), 0.016666666666666666
        assert grid[-1] + h == 1.0 and 1.0 - grid[-1] < h
        band = confidence_band(PointPattern(np.array([0.5]), I01), h, 0.05, grid,
                               "exact_poisson")
        cov = coverage_experiment(constant_intensity(40.0), I01, h, 0.05, ["exact_poisson"],
                                  100, grid, RngSeed(3))["exact_poisson"]
        for flags in (band.flags, cov.flags):
            assert flags[0] == flags[-1] == ""
            assert flags[1:-1] == ("",) * 28

    def test_exact_band_at_alpha_one_is_the_estimate(self):
        pat = PointPattern(np.array([0.45, 0.5, 0.52]), I01)
        band = confidence_band(pat, 0.1, 1.0, [0.3, 0.5], "exact_poisson")
        assert np.array_equal(band.lo, band.lambda_hat)
        assert np.array_equal(band.hi, band.lambda_hat)
        assert band.lambda_hat.tolist() == [0.0, 15.0]

    def test_bootstrap_zero_count_at_alpha_one(self):
        pat = PointPattern(np.array([0.9]), I01)
        band = confidence_band(pat, 0.05, 1.0, [0.3], "bootstrap_closed_form")
        assert (band.lo[0], band.hi[0]) == (0.0, 0.0)
        assert band.flags == ("zero-count",)

    def test_mc_method_needs_seed(self):
        pat = PointPattern(np.array([0.5]), I01)
        with pytest.raises(ParameterError):
            confidence_band(pat, 0.1, 0.05, [0.5], "bootstrap_mc")

    def test_oracle_needs_intensity(self):
        pat = PointPattern(np.array([0.5]), I01)
        with pytest.raises(ParameterError, match="true intensity"):
            confidence_band(pat, 0.1, 0.05, [0.5], "oracle_true_t")

    @pytest.mark.parametrize("method", BAND_METHODS)
    def test_empty_grid(self, method):
        pat = PointPattern(np.array([0.5]), I01)
        band = confidence_band(pat, 0.1, 0.05, [], method, intensity=constant_intensity(40.0),
                               seed=RngSeed(4))
        for values in (band.grid, band.lambda_hat, band.lo, band.hi, band.t_values):
            assert values.shape == (0,)
        assert band.flags == ()

    @pytest.mark.parametrize("method", BAND_METHODS)
    def test_empty_count_block(self, method):
        builder = _BandBuilder(0.1, 0.05, method, seed=RngSeed(4), means=np.full(3, 8.0))
        for values in builder.bounds(np.zeros((0, 3), dtype=int)):
            assert values.shape == (0, 3)

    def test_mc_and_closed_form_bands_close(self):
        rng = np.random.default_rng(11)
        pat = PointPattern(np.sort(rng.uniform(0, 1, 80)), I01)
        grid = midpoint_grid(I01, 5)
        closed = confidence_band(pat, 0.1, 0.05, grid, "bootstrap_closed_form")
        mc = confidence_band(pat, 0.1, 0.05, grid, "bootstrap_mc",
                             mc_draws=200_000, seed=RngSeed(12))
        np.testing.assert_allclose(mc.t_values, closed.t_values, rtol=0.02)


def reference_cell(builder, oracle_t, x, p):
    """(lo, hi, t, flag) of one grid cell, computed on its own by the scalar formula.

    ``oracle_t`` maps each grid point to its ``t_alpha_oracle`` threshold,
    nan where that is unattainable and the cell takes the Garwood interval.
    """
    if builder.method != "oracle_true_t":
        return builder.bounds_for_count(int(p))
    t = oracle_t[float(x)]
    lam = int(p) / (2.0 * builder.h)
    if math.isnan(t):
        g_lo, g_hi = _garwood_interval(int(p), builder.alpha)
        return g_lo / (2.0 * builder.h), g_hi / (2.0 * builder.h), t, "level-unattainable"
    return max(0.0, lam - t * math.sqrt(lam)), lam + t * math.sqrt(lam), t, ""


class TestBandPath:
    """The one band path (``_BandBuilder.bounds``) against a per-cell reference loop.

    The intensity keeps every interior oracle threshold attainable; at the
    edge point x = 0.02 the cut window [0, 0.07] holds mean 2.198, where
    exp(-2.198) >= 0.05, so the oracle falls back to the exact interval.
    The counts include zeros and the counts 1 and 2, whose bootstrap
    level 0.95 is unattainable (exp(-p) >= 0.05).
    """

    H, ALPHA, MC_DRAWS = 0.05, 0.05, 2000
    INTENSITY = linear_intensity(30.0, 40.0, I01)
    # counts 0 (at an edge point and inside), 1, 6, 4 and 2 on the grid below
    POINTS = [0.29, 0.46, 0.47, 0.48, 0.5, 0.52, 0.53, 0.68, 0.69, 0.71, 0.72, 0.88, 0.9]
    GRID = [0.02, 0.1, 0.3, 0.5, 0.7, 0.9]

    def means(self, grid):
        return np.array([cut_mean(self.INTENSITY, float(x), self.H) for x in grid])

    def builder(self, method, grid, seed):
        return _BandBuilder(self.H, self.ALPHA, method, mc_draws=self.MC_DRAWS, seed=seed,
                            means=self.means(grid))

    def oracle_t(self, grid):
        def threshold(m):
            try:
                return t_alpha_oracle(m, self.H, self.ALPHA)
            except UnattainableLevelError:
                return math.nan

        return {float(x): threshold(m) for x, m in zip(grid, self.means(grid))}

    @pytest.mark.parametrize("method", BAND_METHODS)
    def test_confidence_band_matches_per_cell_loop(self, method):
        pattern = PointPattern(np.array(self.POINTS), I01)
        seed = RngSeed(20)
        band = confidence_band(pattern, self.H, self.ALPHA, self.GRID, method,
                               intensity=self.INTENSITY, mc_draws=self.MC_DRAWS, seed=seed)
        counts = window_counts(pattern, self.H, self.GRID)
        assert list(counts) == [0, 0, 1, 6, 4, 2]
        builder = self.builder(method, self.GRID, seed)
        oracle_t = self.oracle_t(self.GRID)
        cells = [reference_cell(builder, oracle_t, x, p) for x, p in zip(self.GRID, counts)]
        lo, hi, t, fallback = (list(col) for col in zip(*cells))
        assert np.array_equal(band.lo, lo) and np.array_equal(band.hi, hi)
        assert np.array_equal(band.t_values, t, equal_nan=True)
        edge = ["edge", "", "", "", "", ""]
        assert band.flags == tuple(";".join(f for f in pair if f) for pair in zip(edge, fallback))
        if method.startswith("bootstrap"):
            assert band.flags[:3] == ("edge;zero-count", "zero-count", "level-unattainable")
        if method == "oracle_true_t":
            assert band.flags[0] == "edge;level-unattainable" and not any(band.flags[1:])

    @pytest.mark.parametrize("method", BAND_METHODS)
    def test_coverage_hits_match_per_cell_loop(self, method):
        grid = midpoint_grid(I01, 8)
        reps, seed = 300, RngSeed(21)
        cov = coverage_experiment(self.INTENSITY, I01, self.H, self.ALPHA, [method], reps, grid,
                                  seed, mc_draws=self.MC_DRAWS)[method]
        builder = self.builder(method, grid, seed)
        oracle_t = self.oracle_t(grid)
        lam_true = self.INTENSITY(grid)
        lam_smoothed = self.means(grid) / (2 * self.H)
        hits_true = np.zeros(len(grid), dtype=np.int64)
        hits_smoothed = np.zeros(len(grid), dtype=np.int64)
        seen = set()
        for points in one_at_a_time(_simulate_inhomogeneous_block, self.INTENSITY, I01,
                                    seed=seed.substream(0), reps=reps):
            counts = window_counts(PointPattern(points, I01), self.H, grid)
            seen.update(int(p) for p in counts)
            for g, (x, p) in enumerate(zip(grid, counts)):
                lo, hi, _, _ = reference_cell(builder, oracle_t, x, p)
                hits_true[g] += lo <= lam_true[g] <= hi
                hits_smoothed[g] += lo <= lam_smoothed[g] <= hi
        assert {0, 1, 2} <= seen
        assert np.array_equal(cov.coverage_true, hits_true / reps)
        assert np.array_equal(cov.coverage_smoothed, hits_smoothed / reps)


class TestTAlphaOracle:
    def test_alpha_one(self):
        assert t_alpha_oracle(4.0, 0.05, 1.0) == 0.0

    def test_matches_closed_form_at_integer_mean(self):
        # constant 40 on [x-h, x+h] with h = 0.05 gives integral 4; the
        # minimization is then identical to the bootstrap closed form at p = 4
        t_oracle = t_alpha_oracle(cut_mean(constant_intensity(40.0), 0.5, 0.05), 0.05, 0.05)
        t_boot = t_star_closed_form(4, 0.05, 0.05)
        assert t_oracle == pytest.approx(t_boot, rel=1e-9)

    def test_zero_mass_rejected(self):
        # the count is 0 with probability 1, which no threshold covers
        with pytest.raises(UnattainableLevelError):
            t_alpha_oracle(cut_mean(constant_intensity(0.0), 0.5, 0.05), 0.05, 0.05)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0])
    def test_bad_mean_rejected(self, mean):
        with pytest.raises(ParameterError):
            t_alpha_oracle(mean, 0.05, 0.05)

    def test_edge_point_centres_on_cut_window(self):
        # at x = 0.025 the count sees [0, 0.075] only; the band's threshold is the
        # oracle at that window's mean, not at the untruncated [-0.025, 0.075]
        intensity, h = linear_intensity(20.0, 2000.0, I01), 0.05
        grid = midpoint_grid(I01, 20)
        pattern = simulate_inhomogeneous_poisson(intensity, I01, RngSeed(27))
        band = confidence_band(pattern, h, 0.05, grid, "oracle_true_t", intensity=intensity)
        x = float(grid[0])
        assert band.flags[0] == "edge"
        assert band.t_values[0] == t_alpha_oracle(intensity.integral(0.0, x + h), h, 0.05)
        assert band.t_values[0] != t_alpha_oracle(intensity.integral(x - h, x + h), h, 0.05)

    def test_oracle_threshold_minimal_by_exact_cdf(self):
        # verify by the direct CDF formula at the real-valued mean m:
        # coverage >= 1 - alpha at t, and the last covered count leaves
        # just below t (1e-8 relative shrink clears the boundary guard
        # but stays well inside the atom spacing)
        intensity = linear_intensity(50.0, 20.0, I01)
        h = 0.05
        for x in (0.3, 0.62):
            m = intensity.integral(x - h, x + h)
            t = t_alpha_oracle(m, h, 0.05)
            assert coverage_probability(m, h, t) >= 0.95
            assert coverage_probability(m, h, t * (1 - 1e-8)) < 0.95

    def test_oracle_band_coverage(self):
        intensity = linear_intensity(50.0, 20.0, I01)
        grid = midpoint_grid(I01, 5)
        reps = 5000
        cov = coverage_experiment(intensity, I01, 0.05, 0.05, ["oracle_true_t"],
                                  reps, grid, RngSeed(13))["oracle_true_t"]
        se = math.sqrt(0.95 * 0.05 / reps)
        assert np.all(cov.coverage_smoothed >= 0.95 - 3 * se)

    def test_unattainable_band_falls_back_to_exact_interval(self):
        # constant 20 with h = 0.05 gives mean 2 everywhere, and exp(-2) >= 0.05
        intensity = constant_intensity(20.0)
        grid = midpoint_grid(I01, 9)
        pattern = simulate_inhomogeneous_poisson(intensity, I01, RngSeed(22))
        oracle = confidence_band(pattern, 0.05, 0.05, grid, "oracle_true_t", intensity=intensity)
        exact = confidence_band(pattern, 0.05, 0.05, grid, "exact_poisson")
        assert np.array_equal(oracle.lo, exact.lo) and np.array_equal(oracle.hi, exact.hi)
        assert np.all(np.isnan(oracle.t_values))
        assert all(flag.endswith("level-unattainable") for flag in oracle.flags)
        cov = {method: coverage_experiment(intensity, I01, 0.05, 0.05, [method], 100, grid,
                                           RngSeed(23))[method]
               for method in ("oracle_true_t", "exact_poisson")}
        assert np.array_equal(cov["oracle_true_t"].coverage_true,
                              cov["exact_poisson"].coverage_true)

    def test_fallback_only_where_unattainable(self):
        # expected counts run from 1.3 at x = 0.05 (exp(-1.3) >= 0.05) to 6.7 at x = 0.95
        intensity, h, alpha = linear_intensity(10.0, 60.0, I01), 0.05, 0.05
        grid = midpoint_grid(I01, 10)
        unattainable = np.array([math.exp(-cut_mean(intensity, x, h)) >= alpha for x in grid])
        assert unattainable.any() and not unattainable.all()
        pattern = simulate_inhomogeneous_poisson(intensity, I01, RngSeed(24))
        oracle = confidence_band(pattern, h, alpha, grid, "oracle_true_t", intensity=intensity)
        exact = confidence_band(pattern, h, alpha, grid, "exact_poisson")
        assert np.array_equal(oracle.lo[unattainable], exact.lo[unattainable])
        assert np.array_equal(oracle.hi[unattainable], exact.hi[unattainable])
        assert np.array_equal(np.isnan(oracle.t_values), unattainable)
        assert [f.endswith("level-unattainable") for f in oracle.flags] == unattainable.tolist()
        cov = {method: coverage_experiment(intensity, I01, h, alpha, [method], 100, grid,
                                           RngSeed(25))[method]
               for method in ("oracle_true_t", "exact_poisson")}
        assert np.array_equal(cov["oracle_true_t"].coverage_true[unattainable],
                              cov["exact_poisson"].coverage_true[unattainable])


class TestCoverageExperiment:
    def test_reproducible(self):
        intensity = constant_intensity(30.0)
        grid = midpoint_grid(I01, 4)
        a = coverage_experiment(intensity, I01, 0.1, 0.1, ["exact_poisson"], 300, grid,
                                RngSeed(14))["exact_poisson"]
        b = coverage_experiment(intensity, I01, 0.1, 0.1, ["exact_poisson"], 300, grid,
                                RngSeed(14))["exact_poisson"]
        assert np.array_equal(a.coverage_true, b.coverage_true)

    @pytest.mark.parametrize("methods", ["exact_poisson", [], ()])
    def test_methods_must_be_a_nonempty_sequence(self, methods):
        with pytest.raises(ParameterError, match="nonempty sequence of band methods"):
            coverage_experiment(constant_intensity(30.0), I01, 0.1, 0.1, methods, 100, [0.5],
                                RngSeed(16))

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="unknown band method"):
            coverage_experiment(constant_intensity(30.0), I01, 0.1, 0.1,
                                ["exact_poisson", "mystery"], 100, [0.5], RngSeed(16))

    def test_one_simulation_scores_every_method(self, monkeypatch):
        calls = []
        histogram = intensity._count_histogram
        monkeypatch.setattr(intensity, "_count_histogram",
                            lambda *args: calls.append(args) or histogram(*args))
        cov = coverage_experiment(linear_intensity(20.0, 200.0, I01), I01, 0.05, 0.05,
                                  BAND_METHODS, 100, midpoint_grid(I01, 5), RngSeed(16),
                                  mc_draws=2000)
        assert list(cov) == list(BAND_METHODS) and len(calls) == 1

    def test_needs_enough_reps(self):
        with pytest.raises(ParameterError):
            coverage_experiment(constant_intensity(30.0), I01, 0.1, 0.1,
                                ["exact_poisson"], 50, [0.5], RngSeed(16))

    def test_planar_window_rejected(self):
        with pytest.raises(ParameterError, match="needs an interval"):
            coverage_experiment(constant_intensity(40.0), unit_square(), 0.1, 0.1,
                                ["exact_poisson"], 100, [0.5], RngSeed(1))

    def test_grid_outside_interval_rejected(self):
        with pytest.raises(ParameterError, match="inside the observation interval"):
            coverage_experiment(constant_intensity(40.0), I01, 0.1, 0.1,
                                ["exact_poisson"], 100, [1.5, 0.5], RngSeed(1))

    def test_half_level_conservative(self):
        intensity = constant_intensity(40.0)
        grid = midpoint_grid(I01, 3)
        cov = coverage_experiment(intensity, I01, 0.1, 0.5, ["exact_poisson"],
                                  2000, grid, RngSeed(17))["exact_poisson"]
        se = math.sqrt(0.5 * 0.5 / 2000)
        assert np.all(cov.coverage_true >= 0.5 - 3 * se)
        # conservative but not wildly so
        assert np.all(cov.coverage_true <= 0.85)

    def test_edge_points_cover_truncated_target(self):
        # at x = 0.025 and 0.975 the count only sees the part of [x-h, x+h]
        # inside [0, 1], so the estimator's own target is the integral over that part
        intensity = linear_intensity(20.0, 2000.0, I01)
        grid = midpoint_grid(I01, 20)
        reps = 2000
        cov = coverage_experiment(intensity, I01, 0.05, 0.05, ["exact_poisson"],
                                  reps, grid, RngSeed(18))["exact_poisson"]
        assert cov.flags[0] == cov.flags[-1] == "edge"
        se = math.sqrt(0.95 * 0.05 / reps)
        assert np.all(cov.coverage_smoothed[[0, -1]] >= 0.95 - 3 * se)

    def test_interior_unbiasedness_linear_intensity(self):
        # for linear intensity the count in [x-h, x+h] has mean exactly
        # 2 h lambda(x), so both coverage targets coincide
        intensity = linear_intensity(50.0, 20.0, I01)
        grid = midpoint_grid(I01, 5)
        h = 0.05
        smoothed = np.array([intensity.integral(x - h, x + h) for x in grid]) / (2 * h)
        np.testing.assert_allclose(smoothed, intensity(grid), rtol=1e-10)


BLOCK_INTENSITIES = pytest.mark.parametrize("lam", [
    linear_intensity(20.0, 2000.0, I01),
    constant_intensity(40.0),
    constant_intensity(0.0),
    constant_intensity(0.7),  # no proposal at all in half the replicates
], ids=["linear", "constant", "zero", "sparse"])


def thinned_alone(lam, rngs):
    """The next replicate on I01: a count, its proposals and its uniforms, from ``rngs`` in turn."""
    n = rngs[0].poisson(lam.lambda_max)
    proposals, u = rngs[1].uniform(0.0, 1.0, n), rngs[2].uniform(0.0, 1.0, n)
    return np.sort(proposals[u * lam.lambda_max < lam(proposals)])


class TestCoverageBlocks:
    """Coverage replicates are drawn, checked and counted a block at a time."""

    SEED, REPS = RngSeed(31, (0,)), 40

    @BLOCK_INTENSITIES
    def test_block_is_each_seed_drawn_alone(self, lam):
        points, counts = _simulate_inhomogeneous_block(lam, I01, stream_generators(self.SEED),
                                                       self.REPS)
        rngs = [self.SEED.substream(k).generator() for k in range(3)]
        alone = [thinned_alone(lam, rngs) for _ in range(self.REPS)]
        assert counts.tolist() == [len(a) for a in alone]
        assert points.tobytes() == np.concatenate(alone).tobytes()
        for drawn, a in zip(one_at_a_time(_simulate_inhomogeneous_block, lam, I01, seed=self.SEED,
                                          reps=self.REPS), alone):
            assert drawn.tobytes() == a.tobytes()
        first = simulate_inhomogeneous_poisson(lam, I01, self.SEED)
        assert first.points.tobytes() == thinned_alone(lam, (self.SEED.generator(),) * 3).tobytes()
        if lam.lambda_max < 1:
            assert 0 in counts

    @BLOCK_INTENSITIES
    def test_histogram_equals_bincount_of_window_counts(self, monkeypatch, lam):
        grid, h = midpoint_grid(I01, 20), 0.05
        alone = np.array([window_counts(PointPattern(points, I01), h, grid)
                          for points in one_at_a_time(_simulate_inhomogeneous_block, lam, I01,
                                                      seed=self.SEED, reps=self.REPS)])
        expected = np.column_stack([np.bincount(column, minlength=alone.max() + 1)
                                    for column in alone.T])
        # blocks of 7 replicates
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 7 * max(lam.lambda_max, 1.0))
        seen, hist = _count_histogram(lam, I01, self.REPS, RngSeed(31),
                                      _window_ends(I01, grid, h))
        assert seen.tolist() == np.unique(alone).tolist()
        assert hist.dtype == np.int64 and np.array_equal(hist, expected[seen])

    @pytest.mark.parametrize("method", BAND_METHODS)
    def test_results_do_not_depend_on_block_size(self, monkeypatch, method):
        lam, grid = linear_intensity(20.0, 2000.0, I01), midpoint_grid(I01, 10)

        def run():
            return coverage_experiment(lam, I01, 0.05, 0.05, [method], 250, grid, RngSeed(33),
                                       mc_draws=2000)[method]

        default = run()
        for proposals in (1, 7 * 2020):  # blocks of 1 and of 7 replicates
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", proposals)
            blocked = run()
            assert np.array_equal(blocked.coverage_true, default.coverage_true)
            assert np.array_equal(blocked.coverage_smoothed, default.coverage_smoothed)

    def test_no_pattern_built_per_replicate(self, monkeypatch):
        built = []
        check = PointPattern.__post_init__
        monkeypatch.setattr(PointPattern, "__post_init__", lambda self: built.append(check(self)))
        coverage_experiment(constant_intensity(40.0), I01, 0.1, 0.1, ["exact_poisson"], 300,
                            midpoint_grid(I01, 4), RngSeed(14))
        assert built == []

    @pytest.mark.parametrize("method", ["bootstrap_mc", "bootstrap_closed_form"])
    def test_one_threshold_per_distinct_positive_count(self, monkeypatch, method):
        lam, grid, h, reps, seed = (constant_intensity(40.0), midpoint_grid(I01, 6), 0.1, 300,
                                    RngSeed(3))
        asked = []
        threshold = _BandBuilder._threshold
        monkeypatch.setattr(_BandBuilder, "_threshold",
                            lambda self, p: asked.append(p) or threshold(self, p))
        coverage_experiment(lam, I01, h, 0.1, [method], reps, grid, seed, mc_draws=2000)
        patterns = one_at_a_time(_simulate_inhomogeneous_block, lam, I01, seed=seed.substream(0),
                                 reps=reps)
        seen = {int(p) for points in patterns
                for p in window_counts(PointPattern(points, I01), h, grid)}
        assert sorted(asked) == sorted(seen - {0})

    def test_each_block_checked(self, monkeypatch):
        draw = intensity._simulate_inhomogeneous_block

        def with_repeat(*args):
            points, counts = draw(*args)
            points[counts[0] + 1] = points[counts[0]]  # replicate 1 repeats its point 0
            return points, counts

        monkeypatch.setattr(intensity, "_simulate_inhomogeneous_block", with_repeat)
        with pytest.raises(DuplicatePointError, match="point 1 of replicate 1 repeats its point 0;"):
            coverage_experiment(constant_intensity(40.0), I01, 0.1, 0.1, ["exact_poisson"], 300,
                                midpoint_grid(I01, 4), RngSeed(14))

    def test_repeat_in_a_later_block_named_by_its_replicate(self, monkeypatch):
        draw, calls = intensity._simulate_inhomogeneous_block, []

        def with_repeat(*args):
            points, counts = draw(*args)
            calls.append(len(counts))
            if len(calls) == 3:
                points[counts[0] + 1] = points[counts[0]]  # replicate 2 * 8 + 1 repeats its point 0
            return points, counts

        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 8 * 40)  # blocks of 8 at lambda_max 40
        monkeypatch.setattr(intensity, "_simulate_inhomogeneous_block", with_repeat)
        with pytest.raises(DuplicatePointError,
                           match="point 1 of replicate 17 repeats its point 0;"):
            coverage_experiment(constant_intensity(40.0), I01, 0.1, 0.1, ["exact_poisson"], 300,
                                midpoint_grid(I01, 4), RngSeed(14))
        assert calls == [8, 8, 8]
