import math
import tracemalloc

import numpy as np
import pytest

from scipy.spatial import cKDTree

from ppboot import twopoint
from ppboot.bootstrap import bootstrap_statistics
from ppboot.errors import ParameterError
from ppboot.geometry import (
    Interval1,
    PointPattern,
    Window2,
    simulate_homogeneous_poisson,
    unit_square,
)
from ppboot.moments import s_moments_poisson
from ppboot.rng import RngSeed
from ppboot.twopoint import (
    KernelFunction,
    PairFunction,
    _close_pairs,
    constant_pair_function,
    distinct_index_sums,
    estimate_product_density,
    kernel_pair_function,
    two_point_statistic,
)

from conftest import (brute_force_sums, drawn_weights, pair_values, random_pattern,
                      random_smooth_pair_function)


class TestKernels:
    @pytest.mark.parametrize("kind", ["box", "epanechnikov"])
    @pytest.mark.parametrize("b", [0.01, 0.1, 1.7])
    def test_unit_mass(self, kind, b):
        k = KernelFunction(kind, b)
        u = np.linspace(-b, b, 4096)
        assert abs(np.trapezoid(k(u), u) - 1.0) < 1e-6

    def test_zero_outside_support(self):
        k = KernelFunction("box", 0.2)
        assert k(0.21) == 0.0 and k(-5.0) == 0.0
        assert k(0.0) == pytest.approx(1 / 0.4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            KernelFunction("triangle", 0.1)
        with pytest.raises(ParameterError):
            KernelFunction("box", 0.0)


class TestPairFunction:
    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            f = random_smooth_pair_function(rng)
            x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            assert float(f(x, y)) == pytest.approx(float(f(y, x)), rel=1e-12)

    def test_zero_outside_window(self):
        f = random_smooth_pair_function(np.random.default_rng(11))
        assert float(f(np.array([1.5, 0.5]), np.array([0.5, 0.5]))) == 0.0
        assert float(f(np.array([0.5, 0.5]), np.array([0.5, -0.1]))) == 0.0

    def test_pair_matrix_applies_window(self):
        # pattern on [0,2]^2, f on [0,1]^2: only the pair inside f's window counts
        pat = PointPattern(np.array([[0.5, 0.5], [0.6, 0.6], [1.5, 1.5]]), Window2(0, 2, 0, 2))
        f = constant_pair_function(unit_square(), 1.0)
        by_calls = sum(float(f(x, y)) for i, x in enumerate(pat.points)
                       for j, y in enumerate(pat.points) if i != j)
        assert by_calls == 2.0
        assert two_point_statistic(pat, f) == by_calls
        assert distinct_index_sums(pat, f).P == by_calls

    @pytest.mark.parametrize("reach", [math.nan, -1.0, 0.0])
    def test_reach_must_be_positive(self, reach):
        # h = 1 on 50 points has theta_hat = 50 * 49; unchecked, a nan or 0
        # reach found no pair (theta_hat 0) and reach -1 gave 2,370 here,
        # while f(x, y) said 1 for every pair
        def ones(x, y):
            return np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))

        pat = random_pattern(50, np.random.default_rng(16))
        assert two_point_statistic(pat, PairFunction(ones, unit_square())) == 2450.0
        with pytest.raises(ParameterError, match="reach"):
            PairFunction(ones, unit_square(), reach=reach)

    def test_kernel_pair_function_needs_positive_r(self):
        with pytest.raises(ParameterError):
            kernel_pair_function(KernelFunction("box", 0.1), -0.3, unit_square())


class TestTwoPointStatistic:
    def test_no_pairs(self):
        empty = PointPattern(np.empty((0, 2)), unit_square())
        single = PointPattern(np.array([[0.5, 0.5]]), unit_square())
        f = constant_pair_function(unit_square())
        assert two_point_statistic(empty, f) == 0.0
        assert two_point_statistic(single, f) == 0.0

    def test_constant_f_counts_ordered_pairs(self):
        rng = np.random.default_rng(12)
        pat = random_pattern(17, rng)
        f = constant_pair_function(unit_square())
        assert two_point_statistic(pat, f) == pytest.approx(17 * 16, rel=1e-12)

    def test_matches_independent_double_loop(self):
        rng = np.random.default_rng(13)
        pat = random_pattern(8, rng)
        f = kernel_pair_function(KernelFunction("box", 0.4), 0.5, unit_square())
        by_loop = math.fsum(
            float(f(pat.points[i], pat.points[j]))
            for i in range(8) for j in range(8) if i != j
        )
        assert two_point_statistic(pat, f) == pytest.approx(by_loop, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        pat = random_pattern(11, rng)
        f = random_smooth_pair_function(rng)
        perm = rng.permutation(11)
        shuffled = PointPattern(pat.points[perm], pat.window)
        assert two_point_statistic(pat, f) == pytest.approx(
            two_point_statistic(shuffled, f), rel=1e-10
        )


class TestProductDensity:
    def test_empty_pattern(self):
        empty = PointPattern(np.empty((0, 2)), unit_square())
        table = estimate_product_density(empty, [0.05, 0.1], KernelFunction("box", 0.01))
        assert np.all(table[:, 1] == 0.0)

    def test_two_point_value(self):
        # two points at distance d, evaluated at r = d: each ordered pair
        # contributes K_b(0) = 1/(2b), normalized by 2 pi d area
        d, b = 0.3, 0.05
        pat = PointPattern(np.array([[0.2, 0.5], [0.2 + d, 0.5]]), unit_square())
        table = estimate_product_density(pat, [d], KernelFunction("box", b))
        expected = 2 * (1 / (2 * b)) / (2 * np.pi * d * 1.0)
        assert table[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_invalid_radius(self):
        pat = random_pattern(5, np.random.default_rng(15))
        for radii in ([0.0, 0.1], []):
            with pytest.raises(ParameterError):
                estimate_product_density(pat, radii, KernelFunction("box", 0.01))

    def test_translation_and_relabeling_invariance(self):
        rng = np.random.default_rng(16)
        pat = random_pattern(40, rng)
        kernel = KernelFunction("epanechnikov", 0.03)
        r = [0.05, 0.12, 0.2]
        base = estimate_product_density(pat, r, kernel)
        shifted = PointPattern(pat.points + np.array([3.0, -7.0]), Window2(3.0, 4.0, -7.0, -6.0))
        moved = estimate_product_density(shifted, r, kernel)
        perm = rng.permutation(40)
        relabeled = estimate_product_density(PointPattern(pat.points[perm], pat.window), r, kernel)
        np.testing.assert_allclose(moved[:, 1], base[:, 1], rtol=1e-10)
        np.testing.assert_allclose(relabeled[:, 1], base[:, 1], rtol=1e-10)

    def test_mean_matches_integrated_expectation(self):
        # E rho_hat(r) = lam^2 * I(f) / (2 pi r); the Monte Carlo integral
        # of the pair function is an independent oracle for the edge factor
        lam, r, b = 200.0, 0.05, 0.01
        window = unit_square()
        f = kernel_pair_function(KernelFunction("box", b), r, window)
        m = s_moments_poisson(1.0, window, f, 20_000_000, RngSeed(201))
        target = lam**2 * m.e_theta / (2 * np.pi * r)
        reps = 2000
        seed = RngSeed(202)
        kernel = KernelFunction("box", b)
        values = np.empty(reps)
        for rep in range(reps):
            pat = simulate_homogeneous_poisson(lam, window, seed.substream(rep))
            values[rep] = estimate_product_density(pat, [r], kernel)[0, 1]
        assert abs(values.mean() / target - 1.0) < 0.10


class TestProductDensityBlocks:
    """Radii are summed in blocks, with the bytes of one dense (radii x pairs) sum."""

    def test_blocks_match_dense_sum_bit_for_bit(self, monkeypatch):
        pat = random_pattern(400, np.random.default_rng(41))
        r = np.linspace(0.01, 0.2, 17)
        kernel = KernelFunction("epanechnikov", 0.01)
        i, j = _close_pairs(pat.points, float(r.max()) + kernel.bandwidth)
        diff = pat.points[i] - pat.points[j]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        dense = 2.0 * kernel(r[:, None] - d[None, :]).sum(axis=1)
        want = np.column_stack([r, dense / (2.0 * np.pi * r * pat.window.area)])
        # one radius per block, ragged blocks of three, everything in one block
        for block in (1, 3 * len(d) + 1, 1 << 40):
            monkeypatch.setattr(twopoint, "_PAIR_ENTRIES", block)
            assert estimate_product_density(pat, r, kernel).tobytes() == want.tobytes(), block

    def test_peak_memory_does_not_grow_with_radii(self):
        # temporaries are O(pairs): 80 radii peak as 10 do, well below one
        # dense (radii x pairs) float array
        pat = random_pattern(2000, np.random.default_rng(5))
        kernel = KernelFunction("box", 0.0033)
        pairs = len(_close_pairs(pat.points, 0.2 + kernel.bandwidth)[0])
        peaks = []
        for steps in (10, 80):
            tracemalloc.start()
            try:
                estimate_product_density(pat, np.linspace(0.005, 0.2, steps), kernel)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0]
        assert peaks[1] < 8 * 80 * pairs / 2


class TestDistinctIndexSums:
    def test_too_few_points(self):
        f = constant_pair_function(unit_square())
        empty = PointPattern(np.empty((0, 2)), unit_square())
        sums = distinct_index_sums(empty, f)
        assert (sums.P, sums.T3, sums.Q4, sums.R) == (0, 0, 0, 0)
        two = random_pattern(2, np.random.default_rng(17))
        s2 = distinct_index_sums(two, f)
        assert s2.T3 == 0.0 and s2.Q4 == 0.0
        three = random_pattern(3, np.random.default_rng(18))
        s3 = distinct_index_sums(three, f)
        assert s3.Q4 == pytest.approx(0.0, abs=1e-9)

    def test_constant_f_tuple_counts(self):
        n = 9
        pat = random_pattern(n, np.random.default_rng(19))
        sums = distinct_index_sums(pat, constant_pair_function(unit_square()))
        assert sums.P == pytest.approx(n * (n - 1), rel=1e-12)
        assert sums.R == pytest.approx(n * (n - 1), rel=1e-12)
        assert sums.T3 == pytest.approx(n * (n - 1) * (n - 2), rel=1e-12)
        assert sums.Q4 == pytest.approx(n * (n - 1) * (n - 2) * (n - 3), rel=1e-10)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            n = int(rng.integers(4, 11))
            pat = random_pattern(n, rng)
            f = random_smooth_pair_function(rng)
            fast = distinct_index_sums(pat, f)
            p, t3, q4, r = brute_force_sums(pair_values(pat, f))
            scale = max(abs(p), abs(t3), abs(q4), abs(r), 1.0)
            assert abs(fast.P - p) / scale < 1e-9
            assert abs(fast.T3 - t3) / scale < 1e-9
            assert abs(fast.Q4 - q4) / scale < 1e-9
            assert abs(fast.R - r) / scale < 1e-9

    def test_decomposition_identity_on_enumerated_tuples(self):
        # all four sums enumerated directly over the 4-index product
        # tensor (no reuse of the quadratic identity), then the identity
        # P^2 = Q4 + 4 T3 + 2 R and agreement with the fast path checked
        rng = np.random.default_rng(21)
        for n in (5, 18, 34, 50):
            pat = random_pattern(n, rng)
            f = random_smooth_pair_function(rng)
            mat = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        mat[i, j] = float(f(pat.points[i], pat.points[j]))
            idx = np.arange(n)
            i_ = idx[:, None, None, None]
            j_ = idx[None, :, None, None]
            k_ = idx[None, None, :, None]
            l_ = idx[None, None, None, :]
            distinct4 = (
                (i_ != j_) & (i_ != k_) & (i_ != l_)
                & (j_ != k_) & (j_ != l_) & (k_ != l_)
            )
            tensor4 = mat[:, :, None, None] * mat[None, None, :, :]
            q4 = float(tensor4[distinct4].sum())
            distinct3 = (i_ != j_) & (i_ != k_) & (j_ != k_)
            tensor3 = mat[:, :, None] * mat[:, None, :]
            t3 = float(tensor3[distinct3[..., 0]].sum())
            p = float(mat.sum())
            r = float((mat * mat).sum())
            scale = max(p * p, 1.0)
            assert abs(p * p - (q4 + 4 * t3 + 2 * r)) / scale < 1e-9
            fast = distinct_index_sums(pat, f)
            assert fast.P == pytest.approx(p, rel=1e-10)
            assert fast.R == pytest.approx(r, rel=1e-10)
            assert fast.T3 == pytest.approx(t3, rel=1e-9)
            assert abs(fast.Q4 - q4) / scale < 1e-9


# r - b and r + b are binary fractions, so axis-aligned pairs sit on the
# kernel's support edges exactly
EDGE_R, EDGE_B = 0.25, 0.0625


def _edge_points_2d() -> np.ndarray:
    """Pairs at distance exactly r - b and r + b, random points, and one
    point outside the unit square."""
    exact = [[0.25, 0.5], [0.4375, 0.5], [0.75, 0.5], [0.25, 0.8125]]
    # h puts these pairs at d = r + b, inside the support, but the squared
    # distance the k-d tree compares rounds above (r + b)^2
    oblique = [[0.16190038237188228, 0.19427233724301723], [0.2813235533083688, 0.4830531472762927],
               [0.3338377220513332, 0.11372608685892367], [0.5080693320405116, 0.37314774378173887]]
    rand = np.random.default_rng(60).uniform(0.0, 1.0, (14, 2))
    return np.vstack([exact, oblique, rand, [[1.2, 0.5]]])


def _edge_points_1d() -> np.ndarray:
    exact = [0.25, 0.4375, 0.75, 0.125]  # distances r - b, r + b, r
    rand = np.random.default_rng(61).uniform(0.0, 1.0, 10)
    return np.concatenate([exact, rand, [1.5]])


def _sparse_cases():
    """(pattern, f) for both kernels and window kinds, n in {0, 1, 2, 3} and
    larger, and constant f; the pattern window is wider than f's."""
    cases = []
    for dim, points, pat_window, f_window in (
        (2, _edge_points_2d(), Window2(0, 2, 0, 2), unit_square()),
        (1, _edge_points_1d(), Interval1(0, 2), Interval1(0, 1)),
    ):
        fs = [kernel_pair_function(KernelFunction(kind, EDGE_B), EDGE_R, f_window)
              for kind in ("box", "epanechnikov")]
        fs.append(constant_pair_function(f_window, 0.7))
        for n in (0, 1, 2, 3, len(points)):
            for f in fs:
                cases.append(pytest.param(PointPattern(points[:n], pat_window), f,
                                          id=f"{dim}d-n{n}-{f.label}"))
    return cases


class TestSparsePairs:
    """The pair list gives what the scalar f(x, y) calls give."""

    def test_reach(self):
        f = kernel_pair_function(KernelFunction("box", EDGE_B), EDGE_R, unit_square())
        assert f.reach == EDGE_R + EDGE_B
        assert constant_pair_function(unit_square()).reach == math.inf

    @pytest.mark.parametrize("pat, f", _sparse_cases())
    def test_pair_matrix_matches_scalar_calls(self, pat, f):
        np.testing.assert_allclose(f.pair_matrix(pat.points), pair_values(pat, f),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pat, f", _sparse_cases())
    def test_statistic_and_sums_match_brute_force(self, pat, f):
        p, t3, q4, r = brute_force_sums(pair_values(pat, f))
        assert two_point_statistic(pat, f) == pytest.approx(p, rel=1e-12)
        fast = distinct_index_sums(pat, f)
        scale = max(abs(p), abs(t3), abs(q4), abs(r), 1.0)
        for got, want in ((fast.P, p), (fast.T3, t3), (fast.Q4, q4), (fast.R, r)):
            assert abs(got - want) / scale < 1e-9

    @pytest.mark.parametrize("pat, f", _sparse_cases())
    def test_bootstrap_matches_dense_quadratic_form(self, pat, f):
        if pat.n == 0:
            return
        mat = pair_values(pat, f)
        w = drawn_weights(pat.n, "poissonized", RngSeed(62), 20, active=mat.any(axis=1))
        dense = np.einsum("ki,ij,kj->k", w, mat, w)
        stats = bootstrap_statistics(pat, f, 20, "poissonized", RngSeed(62))
        np.testing.assert_allclose(stats, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["box", "epanechnikov"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 22])
    def test_product_density_matches_all_pairs(self, kind, n):
        pat = PointPattern(_edge_points_2d()[:n], Window2(0, 2, 0, 2))
        kernel = KernelFunction(kind, EDGE_B)
        r = np.array([0.1, 0.2, EDGE_R])  # max(r) + b = r + b: padding matters
        pts = pat.points
        d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        off = ~np.eye(n, dtype=bool)
        want = np.array([kernel(ri - d[off]).sum() for ri in r]) / (2 * np.pi * r * 4.0)
        np.testing.assert_allclose(estimate_product_density(pat, r, kernel)[:, 1], want,
                                   rtol=1e-12, atol=0)

    def test_scale_without_dense_memory(self):
        # n = 20,000: a dense pair matrix would need 3.2 GB
        n, r, b = 20_000, 0.04, 0.0033
        pat = random_pattern(n, np.random.default_rng(63))
        tree = cKDTree(pat.points)

        def within(radius):  # neighbours of each point, itself excluded
            return tree.query_ball_point(pat.points, radius, return_length=True) - 1

        q = (within(r + b) - within(r - b)) / (2 * b)  # box row sums Q_i
        f = kernel_pair_function(KernelFunction("box", b), r, unit_square())
        sums = distinct_index_sums(pat, f)
        assert sums.P == pytest.approx(q.sum(), rel=1e-9)
        assert sums.R == pytest.approx(q.sum() / (2 * b), rel=1e-9)
        assert sums.T3 == pytest.approx((q * q).sum() - q.sum() / (2 * b), rel=1e-9)
        table = estimate_product_density(pat, [r], KernelFunction("box", b))
        assert table[0, 1] == pytest.approx(q.sum() / (2 * np.pi * r), rel=1e-9)


class TestPairSearch:
    """``_close_pairs``: a cell list, walked in slices of ``_SCAN_ENTRIES`` candidates."""

    def test_candidate_memory_is_one_slice(self):
        # n = 20,000 at reach 0.05: 1.5M pairs from 2.2M candidates.  The search peaks
        # near 1.1x (its output + one block of _PAIR_ENTRIES values); keeping every
        # slice's squared distances too would peak near 1.7x, all candidates at once
        # near 4.1x
        pat = random_pattern(20_000, np.random.default_rng(48))
        tracemalloc.start()
        try:
            i, j = _close_pairs(pat.points, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(i) > 1_400_000
        assert peak < 1.5 * (i.nbytes + j.nbytes + 8 * twopoint._PAIR_ENTRIES)

    @pytest.mark.parametrize("reach", [1e-4, 0.01, 0.05, 0.3, 2.0])
    def test_pairs_equal_kd_tree_pairs(self, reach):
        # scipy's k-d tree, an independent search, gives the same pair set
        pat = random_pattern(1500, np.random.default_rng(50))
        radius = reach * (1.0 + twopoint._REACH_PAD)
        want = cKDTree(pat.points).query_pairs(radius, output_type="ndarray")
        want = want[np.lexsort((want[:, 1], want[:, 0]))]
        i, j = _close_pairs(pat.points, reach)
        assert np.array_equal(np.column_stack([i, j]), want)

    def test_slices_give_the_pairs_of_one_slice(self, monkeypatch):
        pat = random_pattern(3000, np.random.default_rng(49))
        radii, kernel = np.array([0.02, 0.05]), KernelFunction("epanechnikov", 0.01)
        want = _close_pairs(pat.points, 0.06)
        want_rho = estimate_product_density(pat, radii, kernel)
        for block in (1, 777):
            monkeypatch.setattr(twopoint, "_SCAN_ENTRIES", block)
            got = _close_pairs(pat.points, 0.06)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), block
            assert np.array_equal(estimate_product_density(pat, radii, kernel), want_rho), block


def _rows_near_reach(reach: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(2, m) coordinate rows x, y: half uniform pairs, half at distances around ``reach``."""
    rng = np.random.default_rng(64)
    x = rng.random((2, m))
    y = rng.random((2, m))
    half = m // 2
    d = reach * rng.uniform(0.9, 1.1, half)
    phi = rng.uniform(0.0, 2 * np.pi, half)
    y[:, half:] = x[:, half:] + d * np.array([np.cos(phi), np.sin(phi)])
    return x, y


class TestNonzeroRows:
    """The reach prefilter returns exactly the nonzero values of dense h."""

    @pytest.mark.parametrize("r, b", [(0.04, 0.0033), (EDGE_R, EDGE_B)])
    @pytest.mark.parametrize("kind", ["box", "epanechnikov"])
    def test_matches_dense_h_bit_for_bit(self, kind, r, b):
        f = kernel_pair_function(KernelFunction(kind, b), r, unit_square())
        x, y = _rows_near_reach(f.reach, 1 << 16)
        plants = np.array([r - b, r + b, f.reach, np.nextafter(f.reach, np.inf),
                           np.nextafter(f.reach, -np.inf)])
        y0 = 0.3  # axis-aligned plants: the distance is exact
        oblique = _edge_points_2d()[4:8]  # squared distance above (EDGE_R + EDGE_B)^2
        x = np.hstack([x, [np.zeros_like(plants), np.full_like(plants, y0)], oblique[::2].T])
        y = np.hstack([y, [plants, np.full_like(plants, y0)], oblique[1::2].T])
        dense = np.asarray(f.h(x.T, y.T), dtype=float)
        rows, v = f.nonzero_rows(x, y)
        assert np.array_equal(rows, np.flatnonzero(dense))
        assert np.array_equal(v, dense[rows])

    def test_unbounded_reach_evaluates_every_row(self):
        f = constant_pair_function(unit_square(), 0.7)
        x, y = _rows_near_reach(0.1, 64)
        rows, v = f.nonzero_rows(x, y)
        assert np.array_equal(rows, np.arange(64))
        assert np.array_equal(v, np.full(64, 0.7))


def _stacked(patterns):
    return np.concatenate([p.points for p in patterns]), np.array([p.n for p in patterns])


def _with_edge_points(pattern: PointPattern) -> PointPattern:
    """``pattern`` plus its window's corners and edge midpoints."""
    w = pattern.window
    xm, ym = 0.5 * (w.x_min + w.x_max), 0.5 * (w.y_min + w.y_max)
    edges = [(x, y) for x in (w.x_min, xm, w.x_max) for y in (w.y_min, ym, w.y_max)
             if (x, y) != (xm, ym)]
    return PointPattern(np.vstack([pattern.points, edges]), w)


class TestGroupedSums:
    """``_grouped_sums`` over stacked patterns against ``distinct_index_sums`` on each."""

    @staticmethod
    def assert_matches_each(patterns, f):
        points, counts = _stacked(patterns)
        sums = twopoint._grouped_sums(points, counts, f)
        for g, pat in enumerate(patterns):
            one = distinct_index_sums(pat, f)
            want = (one.P, one.T3, one.Q4, one.R)
            scale = max(one.P ** 2, abs(one.T3), abs(one.R), 1e-300)
            for got, w in zip((sums.P[g], sums.T3[g], sums.Q4[g], sums.R[g]), want):
                assert abs(got - w) <= 1e-12 * scale
            # theta_hat is summed as two_point_statistic sums it
            assert sums.P[g] == two_point_statistic(pat, f)
        return sums

    @staticmethod
    def assert_no_pair_across(patterns, f):
        points, counts = _stacked(patterns)
        group = np.repeat(np.arange(len(counts)), counts)
        i, j, _ = f.pairs(points, group)
        assert np.array_equal(group[i], group[j])

    def test_empty_and_one_point_patterns_and_window_edges(self):
        rng = np.random.default_rng(70)
        sizes = [0, 1, 9, 0, 0, 40, 2, 1, 25]
        patterns = [random_pattern(n, rng) for n in sizes]
        patterns[2] = _with_edge_points(patterns[2])
        patterns[5] = _with_edge_points(patterns[5])
        f = kernel_pair_function(KernelFunction("epanechnikov", 0.1), 0.15, unit_square())
        sums = self.assert_matches_each(patterns, f)
        assert sums.P[[0, 1, 3, 4, 7]].tolist() == [0.0] * 5

    def test_pairs_outside_the_pair_window_dropped(self):
        rng = np.random.default_rng(71)
        big = Window2(0.0, 2.0, 0.0, 2.0)
        patterns = [_with_edge_points(random_pattern(n, rng, big)) for n in (5, 30, 0, 18)]
        f = kernel_pair_function(KernelFunction("box", 0.2), 0.5, unit_square())
        self.assert_matches_each(patterns, f)

    def test_reach_near_half_the_window_keeps_patterns_apart(self):
        rng = np.random.default_rng(72)
        patterns = [random_pattern(int(n), rng) for n in rng.poisson(15, 20)]
        f = kernel_pair_function(KernelFunction("box", 0.1), 0.6, unit_square())
        self.assert_no_pair_across(patterns, f)
        self.assert_matches_each(patterns, f)

    def test_window_far_from_origin_at_small_reach(self):
        # pairs planted 1e-7 (relative) inside the reach: shifting x by a
        # pattern offset would round them outside the 1e-9 search padding
        rng = np.random.default_rng(73)
        window = Window2(1e6, 1e6 + 1000.0, 0.0, 1000.0)
        f = kernel_pair_function(KernelFunction("box", 0.0002), 0.0008, window)
        patterns = []
        for _ in range(300):
            anchors = np.column_stack([rng.uniform(window.x_min, window.x_max - 1.0, 8),
                                       rng.uniform(window.y_min, window.y_max, 8)])
            partners = anchors + np.column_stack([f.reach * (1.0 - 1e-7 * rng.uniform(0, 3, 8)),
                                                  np.zeros(8)])
            patterns.append(PointPattern(np.vstack([anchors, partners]), window))
        self.assert_no_pair_across(patterns, f)
        sums = self.assert_matches_each(patterns, f)
        assert np.all(sums.P > 0)

    @pytest.mark.parametrize("f", [constant_pair_function(unit_square()),
                                   random_smooth_pair_function(np.random.default_rng(76))],
                             ids=["ones", "smooth"])
    def test_unbounded_reach(self, f):
        # the block's span bounds the search, so every pair within a pattern is listed
        rng = np.random.default_rng(74)
        patterns = [_with_edge_points(random_pattern(n, rng)) for n in (0, 1, 6, 13)]
        patterns += [random_pattern(n, rng) for n in (0, 1, 2, 9)]
        self.assert_no_pair_across(patterns, f)
        self.assert_matches_each(patterns, f)

    def test_each_pattern_summed_pairwise_as_alone(self):
        # each pattern's sums are numpy's pairwise sums over its own rows,
        # bit for bit, whatever patterns share its block
        rng = np.random.default_rng(77)
        patterns = [random_pattern(n, rng) for n in (150, 0, 300, 1, 220)]
        f = kernel_pair_function(KernelFunction("epanechnikov", 0.1), 0.2, unit_square())
        sums = twopoint._grouped_sums(*_stacked(patterns), f)
        for g, pat in enumerate(patterns):
            i, j, v = f.pairs(pat.points)
            q_i = np.bincount(i, v, pat.n) + np.bincount(j, v, pat.n)
            r_i = np.bincount(i, v * v, pat.n) + np.bincount(j, v * v, pat.n)
            assert sums.P[g] == 2.0 * v.sum()
            assert sums.R[g] == r_i.sum()
            assert sums.T3[g] == (q_i * q_i - r_i).sum()
            assert distinct_index_sums(pat, f).R == sums.R[g]

    def test_coincident_points_in_different_patterns(self):
        # a zero span: one point per pattern, all at one place
        f = constant_pair_function(unit_square())
        patterns = [PointPattern(np.array([[0.5, 0.5]]), unit_square()) for _ in range(3)]
        self.assert_no_pair_across(patterns, f)
        assert twopoint._grouped_sums(*_stacked(patterns), f).P.tolist() == [0.0] * 3

    def test_interval_patterns(self):
        rng = np.random.default_rng(75)
        interval = Interval1(0.0, 1.0)
        patterns = [PointPattern(np.sort(rng.uniform(0, 1, n)), interval) for n in (0, 12, 1, 30)]
        patterns.append(PointPattern(np.array([0.0, 0.05, 0.5, 1.0]), interval))
        f = kernel_pair_function(KernelFunction("box", 0.05), 0.1, interval)
        self.assert_no_pair_across(patterns, f)
        self.assert_matches_each(patterns, f)
