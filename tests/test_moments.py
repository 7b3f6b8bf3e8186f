import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ppboot.bootstrap import alpha_coefficients
from ppboot.errors import NumericalError, ParameterError
from ppboot.geometry import Interval1, Window2, simulate_homogeneous_poisson, unit_square
from ppboot.moments import (
    _axis_pairs,
    _chunk_stats,
    s_moments_poisson,
    true_variance_poisson,
)
from ppboot.rng import RngSeed
from ppboot.twopoint import (
    KernelFunction,
    PairFunction,
    constant_pair_function,
    kernel_pair_function,
    two_point_statistic,
)

from conftest import tensor_gauss_legendre_moments


def gaussian_pair_function(scale=0.08, window=None):
    window = window or unit_square()

    def h(x, y):
        return np.exp(-np.sum((x - y) ** 2, axis=-1) / scale)

    return PairFunction(h, window, label="gauss")


def separable_pair_function(window=None):
    window = window or unit_square()

    def h(x, y):
        gx = np.sin(2.1 * x[..., 0] + 0.3) * np.cos(1.7 * x[..., 1])
        gy = np.sin(2.1 * y[..., 0] + 0.3) * np.cos(1.7 * y[..., 1])
        return 0.4 + gx * gy

    return PairFunction(h, window, label="separable")


def compact_pair_function(window, reach=0.3):
    """h = max(0, 1 - d^2/R^2)^4: smooth, and 0 beyond its declared reach R."""
    def h(x, y):
        d2 = (x[..., 0] - y[..., 0]) ** 2 + (x[..., 1] - y[..., 1]) ** 2
        t = np.maximum(1.0 - d2 / reach**2, 0.0)
        t *= t
        return t * t

    return PairFunction(h, window, label="compact", reach=reach)


def disc_pair_function(window, rho):
    """h = 1[|x - y| <= rho], with reach rho."""
    def h(x, y):
        return (np.sum((x - y) ** 2, axis=-1) <= rho * rho).astype(float)

    return PairFunction(h, window, label=f"disc:{rho:g}", reach=rho)


def disc_pair_integral(a, b, rho):
    """I(h) over W^2 for the disc indicator on an a x b rectangle (rho < a).

    The set covariance (a - |t|)(b - |s|) integrated over the disc |(t, s)| <= rho,
    as one quadrature in s of the closed-form integral in t.
    """
    def strip(s):
        w = math.sqrt(rho * rho - s * s)
        return (b - s) * (a * w - w * w / 2.0)

    return 4.0 * quad(strip, 0.0, min(b, rho), epsabs=0.0, epsrel=1e-13, limit=200)[0]


# Monte Carlo is exact to rounding on a constant f, whatever the sample count
SMALL_MC = {"sample_count": 20_000, "seed": RngSeed(2)}

SMOOTH_SUITE = [
    ("constant", lambda: constant_pair_function(unit_square(), 0.7)),
    ("gaussian", gaussian_pair_function),
    ("separable", separable_pair_function),
]


class TestMomentValues:
    def test_too_few_samples_rejected(self):
        f = constant_pair_function(unit_square(), 1.0)
        with pytest.raises(ParameterError, match=">= 1000 samples"):
            s_moments_poisson(1.0, unit_square(), f, 999, RngSeed(1))
        assert s_moments_poisson(1.0, unit_square(), f, 1000, RngSeed(1)).s2 == pytest.approx(1.0)

    def test_zero_pair_function(self):
        f = constant_pair_function(unit_square(), 0.0)
        m = s_moments_poisson(2.0, unit_square(), f, 5000, RngSeed(1))
        assert (m.s2, m.s3, m.s4, m.e_theta) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kw", [
        pytest.param({"sample_count": 20_000}, id="monte_carlo-kw1"),
    ])
    def test_unit_constant_case(self, kw):
        # lam = 1, f = indicator product on the unit square: every moment is 1
        f = constant_pair_function(unit_square(), 1.0)
        m = s_moments_poisson(1.0, unit_square(), f, seed=RngSeed(2), **kw)
        for value in (m.s2, m.s3, m.s4, m.e_theta):
            assert value == pytest.approx(1.0, rel=1e-12)

    def test_known_constant_scaling(self):
        # f = c: e = lam^2 c, s2 = lam^2 c^2, s3 = lam^3 c^2, s4 = lam^4 c^2
        f = constant_pair_function(unit_square(), 0.5)
        m = s_moments_poisson(3.0, unit_square(), f, **SMALL_MC)
        assert m.e_theta == pytest.approx(9 * 0.5, rel=1e-12)
        assert m.s2 == pytest.approx(9 * 0.25, rel=1e-12)
        assert m.s3 == pytest.approx(27 * 0.25, rel=1e-12)
        assert m.s4 == pytest.approx(81 * 0.25, rel=1e-12)

    def test_methods_agree_within_reported_errors(self):
        # Monte Carlo against the tensor Gauss-Legendre oracle, which is
        # exact to rounding on this smooth suite (32 and 64 nodes agree)
        for name, build in SMOOTH_SUITE:
            f = build()
            oracle = tensor_gauss_legendre_moments(2.0, unit_square(), f, 64)
            coarse = tensor_gauss_legendre_moments(2.0, unit_square(), f, 32)
            for comp, value in oracle.items():
                assert coarse[comp] == pytest.approx(value, rel=1e-12, abs=0), f"{name}/{comp}"
            mm = s_moments_poisson(2.0, unit_square(), f, 2_000_000, RngSeed(55))
            for comp, value in oracle.items():
                diff = abs(getattr(mm, comp) - value)
                assert diff < mm.errors[comp], f"{name}/{comp}: {diff} vs {mm.errors[comp]}"

    @pytest.mark.parametrize("window", [unit_square(), Window2(0.0, 2.0, 0.0, 1.0)],
                             ids=["unit-square", "2x1"])
    def test_compact_reach_agrees_with_oracle(self, window):
        # a finite reach sends the draws through the reach filter and the
        # x3-on-hits draw; the tensor rule converges on this smooth f
        f = compact_pair_function(window)
        oracle = tensor_gauss_legendre_moments(2.0, window, f, 96)
        coarse = tensor_gauss_legendre_moments(2.0, window, f, 64)
        mm = s_moments_poisson(2.0, window, f, 2_000_000, RngSeed(55))
        for comp, value in oracle.items():
            assert abs(coarse[comp] - value) < 1e-3 * mm.errors[comp], comp
            diff = abs(getattr(mm, comp) - value)
            assert diff < mm.errors[comp], f"{comp}: {diff} vs {mm.errors[comp]}"

    def test_one_draw_feeds_every_moment(self):
        # one chunk from substream 0 of the seed, redrawn by the protocol:
        # K ~ Binomial(m, p) pairs (x1, x2) within the padded reach c on
        # each axis (x1 uniform, x2 = x1 + U(-c, c), rows leaving W
        # redrawn), then x3 for the hits of h12 only.  E theta, s2 and s3
        # are the means of h12, h12^2 and h12 h13 over all m stars, the
        # m - K stars outside the box adding zeros
        lam, m, seed = 3.0, 200_000, RngSeed(17)
        f = kernel_pair_function(KernelFunction("box", 0.05), 0.2, unit_square())
        mm = s_moments_poisson(lam, unit_square(), f, m, seed)
        c = f.reach * (1.0 + 1e-9)
        rng = seed.substream(0).generator()
        k = rng.binomial(m, (c * (2.0 - c)) ** 2)
        axes = []
        for _ in range(2):
            u1, u2, bad = np.empty(k), np.empty(k), np.arange(k)
            while bad.size:
                u1[bad] = rng.random(bad.size)
                u2[bad] = u1[bad] + c * (2.0 * rng.random(bad.size) - 1.0)
                bad = bad[(u2[bad] < 0.0) | (u2[bad] > 1.0)]
            axes.append((u1, u2))
        x1 = np.array([u1 for u1, _ in axes])
        x2 = np.array([u2 for _, u2 in axes])
        h12 = f.h(x1.T, x2.T)
        hits = np.flatnonzero(h12)
        h13 = np.zeros(k)
        h13[hits] = f.h(x1[:, hits].T, rng.random((2, len(hits))).T)
        assert mm.e_theta == pytest.approx(lam**2 * h12.sum() / m, rel=1e-12, abs=0)
        assert mm.s2 == pytest.approx(lam**2 * (h12 * h12).sum() / m, rel=1e-12, abs=0)
        assert mm.s3 == pytest.approx(lam**3 * (h12 * h13).sum() / m, rel=1e-12, abs=0)

    def test_intensity_scaling_law(self):
        f = gaussian_pair_function()
        base = s_moments_poisson(2.0, unit_square(), f, 50_000, RngSeed(3))
        for c in (0.5, 2.0):
            scaled = s_moments_poisson(2.0 * c, unit_square(), f, 50_000, RngSeed(3))
            assert scaled.s2 == pytest.approx(c**2 * base.s2, rel=1e-12)
            assert scaled.s3 == pytest.approx(c**3 * base.s3, rel=1e-12)
            assert scaled.s4 == pytest.approx(c**4 * base.s4, rel=1e-12)
            assert scaled.e_theta == pytest.approx(c**2 * base.e_theta, rel=1e-12)

    def test_s4_is_e_theta_squared(self):
        # Poisson truth: s4 = lam^4 I(f)^2 = (E theta)^2, with the error of
        # E theta propagated to first order at least
        for name, build in SMOOTH_SUITE:
            m = s_moments_poisson(2.0, unit_square(), build(), 100_000, RngSeed(66))
            assert m.s4 == m.e_theta * m.e_theta, name
            assert m.errors["s4"] >= 2 * abs(m.e_theta) * m.errors["e_theta"], name

    @pytest.mark.parametrize("kw", [
        pytest.param({"sample_count": 2_000_000, "seed": RngSeed(55)}, id="monte_carlo-kw1"),
        pytest.param({"sample_count": 1_000_000, "seed": RngSeed(66)}, id="monte_carlo-kw2"),
    ])
    def test_constant_errors_bound_rounding(self, kw):
        # f = c: e = lam^2 c, s2 = lam^2 c^2, s3 = lam^3 c^2, s4 = lam^4 c^2,
        # exact in rationals for the binary value of c; sampling error is 0,
        # so each reported error must still cover the rounding
        c, lam = 0.7, 2.0
        f = constant_pair_function(unit_square(), c)
        runs = [s_moments_poisson(lam, unit_square(), f, threads=t, **kw) for t in (1, 2)]
        assert runs[0].errors == runs[1].errors
        m = runs[0]
        qc, ql = Fraction(c), Fraction(lam)
        exact = {"e_theta": ql**2 * qc, "s2": ql**2 * qc**2,
                 "s3": ql**3 * qc**2, "s4": ql**4 * qc**2}
        for comp, value in exact.items():
            dev = abs(Fraction(getattr(m, comp)) - value)
            assert Fraction(m.errors[comp]) >= dev, f"{comp}: error {m.errors[comp]} < {float(dev)}"

    def test_box_kernel_structural_identity(self):
        # box kernel: f^2 = f / (2b) pointwise, so s2 * 2b = e_theta exactly
        b = 0.02
        f = kernel_pair_function(KernelFunction("box", b), 0.15, unit_square())
        m = s_moments_poisson(1.0, unit_square(), f, 4_000_000, RngSeed(77))
        budget = 2 * b * m.errors["s2"] + m.errors["e_theta"]
        assert abs(2 * b * m.s2 - m.e_theta) < budget

    def test_interval_window_rejected(self):
        f = constant_pair_function(Interval1(0.0, 1.0), 1.0)
        with pytest.raises(ParameterError, match="planar window"):
            s_moments_poisson(1.0, Interval1(0.0, 1.0), f, 2000, RngSeed(4))

    def test_nonfinite_integrand_reported(self):
        def bad(x, y):
            return np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), np.inf)

        f = PairFunction(bad, unit_square(), label="bad")
        with pytest.raises(NumericalError):
            s_moments_poisson(1.0, unit_square(), f, 2000, RngSeed(4))


class TestInReachDraw:
    """Only the pairs (x1, x2) within reach on each axis are drawn, by the exact law."""

    @pytest.mark.parametrize("window, rho", [
        (unit_square(), 0.15),
        (Window2(0.0, 2.0, 0.0, 1.0), 0.15),
        (Window2(0.0, 2.0, 0.0, 1.0), 1.2),  # reach spans the short side only
    ], ids=["unit-square", "2x1", "2x1-reach-past-short-side"])
    def test_disc_indicator_known_truth(self, window, rho):
        # h = h^2, so E theta = s2 = lam^2 I(h); below both sides I(h) =
        # pi rho^2 ab - 4/3 rho^3 (a + b) + rho^4 / 2
        lam = 2.0
        a, b = window.x_max - window.x_min, window.y_max - window.y_min
        truth = lam**2 * disc_pair_integral(a, b, rho)
        if rho < min(a, b):
            closed = math.pi * rho**2 * a * b - 4.0 / 3.0 * rho**3 * (a + b) + rho**4 / 2.0
            assert truth == pytest.approx(lam**2 * closed, rel=1e-12, abs=0)
        mm = s_moments_poisson(lam, window, disc_pair_function(window, rho), 2_000_000,
                               RngSeed(31))
        for comp in ("e_theta", "s2"):
            diff = abs(getattr(mm, comp) - truth)
            assert diff < mm.errors[comp], f"{comp}: {diff} vs {mm.errors[comp]}"

    @pytest.mark.parametrize("reach", [0.3, 1.7, 2.5], ids=["inside", "near-side", "past-side"])
    def test_axis_pairs_law(self, reach):
        # every pair lies in [lo, hi]^2 within reach; u1 and u2 each have
        # density proportional to min(u + c, L) - max(u - c, 0), c = min(reach, L)
        lo, hi, m = 0.5, 2.5, 400_000
        side = hi - lo
        u1, u2 = _axis_pairs(np.random.default_rng(12), lo, hi, reach, m)
        assert u1.shape == u2.shape == (m,)
        for u in (u1, u2):
            assert np.all((u >= lo) & (u <= hi))
        assert np.all(np.abs(u1 - u2) <= reach + 4 * np.spacing(hi))
        c = min(reach, side)

        def cdf(t):  # integral of the density from 0 to t, normalised
            inner = ((side - c) ** 2 - np.maximum(side - c - t, 0.0) ** 2) / 2.0
            return (t * side - inner - np.maximum(t - c, 0.0) ** 2 / 2.0) / (2.0 * side * c - c * c)

        edges = np.linspace(0.0, side, 21)
        q = np.diff(cdf(edges))
        assert q.sum() == pytest.approx(1.0, rel=1e-12)
        for u in (u1, u2):
            counts = np.histogram(u - lo, edges)[0]
            z = (counts - m * q) / np.sqrt(m * q * (1.0 - q))
            assert np.max(np.abs(z)) < 4.5, z

    @pytest.mark.parametrize("window", [unit_square(), Window2(0.0, 2.0, 0.0, 1.0)],
                             ids=["unit-square", "2x1"])
    def test_reach_spanning_window_keeps_constant_case(self, window):
        # a reach past the diagonal draws every pair uniform, as an
        # unbounded reach does: the same values and errors, and the
        # constant case's exact moments within those errors
        c, lam = 0.7, 2.0
        diagonal = math.hypot(window.x_max - window.x_min, window.y_max - window.y_min)
        unbounded = constant_pair_function(window, c)
        spanning = PairFunction(unbounded.h, window, label="const-reach", reach=diagonal)
        runs = [s_moments_poisson(lam, window, f, 300_000, RngSeed(9)) for f in (unbounded, spanning)]
        assert runs[0] == runs[1]
        m = runs[0]
        qa, qc, ql = Fraction(window.area), Fraction(c), Fraction(lam)
        exact = {"e_theta": ql**2 * qa**2 * qc, "s2": ql**2 * qa**2 * qc**2,
                 "s3": ql**3 * qa**3 * qc**2, "s4": ql**4 * qa**4 * qc**2}
        for comp, value in exact.items():
            dev = abs(Fraction(getattr(m, comp)) - value)
            assert Fraction(m.errors[comp]) >= dev, comp

    def test_work_bound(self, monkeypatch):
        # the draw offers the pair function only the Binomial(samples, p)
        # in-box pairs plus one x3 row per hit of h12, not every star
        samples = 2_000_000
        f = kernel_pair_function(KernelFunction("box", 0.0033), 0.04, unit_square())
        offered, kept = [], []
        inner = PairFunction.nonzero_rows

        def counting(self, x, y):
            rows, v = inner(self, x, y)
            offered.append(x.shape[1])
            kept.append(len(rows))
            return rows, v

        monkeypatch.setattr(PairFunction, "nonzero_rows", counting)
        s_moments_poisson(50.0, unit_square(), f, samples, RngSeed(20260808))
        # calls alternate per chunk: the (x1, x2) pairs, then x3 for their hits
        assert offered[1::2] == kept[0::2]
        c = f.reach * (1.0 + 1e-9)
        p = (c * (2.0 - c)) ** 2
        bound = p * samples + 6.0 * math.sqrt(samples * p * (1.0 - p))
        assert sum(offered[0::2]) <= bound
        assert sum(offered) <= bound + sum(offered[1::2])


class TestChunkStats:
    @pytest.mark.parametrize("k", [0, 7, 1000])
    def test_sparse_matches_dense_two_pass(self, k):
        # the k nonzero values scattered into n slots, the rest zeros
        n = 1000
        rng = np.random.default_rng(8)
        vals = rng.normal(0.6, 1.3, (2, k))
        dense = np.zeros((2, n))
        dense[:, rng.permutation(n)[:k]] = vals
        total, m2, abs_total = _chunk_stats(vals, n)
        for c in range(2):
            dev = dense[c] - dense[c].sum() / n
            assert total[c] == pytest.approx(dense[c].sum(), rel=1e-12, abs=0)
            assert m2[c] == pytest.approx(dev @ dev, rel=1e-12, abs=0)
            assert abs_total[c] == pytest.approx(np.abs(dense[c]).sum(), rel=1e-12, abs=0)


class TestVarianceFormulas:
    def test_zero_moments(self):
        f = constant_pair_function(unit_square(), 0.0)
        m = s_moments_poisson(1.0, unit_square(), f, 2000, RngSeed(5))
        assert true_variance_poisson(m) == 0.0
        assert alpha_coefficients(None, "poissonized").variance(m.s4, m.s3, m.s2) == 0.0

    def test_unit_case_closed_forms(self):
        f = constant_pair_function(unit_square(), 1.0)
        m = s_moments_poisson(1.0, unit_square(), f, **SMALL_MC)
        # full form 1 + 4 + 2 - 1 = 6 equals the reduced 4 s3 + 2 s2
        assert true_variance_poisson(m) == pytest.approx(6.0, rel=1e-12)
        assert m.reduced_true_variance() == pytest.approx(6.0, rel=1e-12)
        a_inf = alpha_coefficients(None, "poissonized")
        assert a_inf.variance(m.s4, m.s3, m.s2) == pytest.approx(10.0, rel=1e-12)

    def test_poissonized_expectation_is_reduced_form(self):
        f = gaussian_pair_function()
        m = s_moments_poisson(2.0, unit_square(), f, **SMALL_MC)
        a_inf = alpha_coefficients(None, "poissonized")
        assert a_inf.variance(m.s4, m.s3, m.s2) == pytest.approx(
            4 * m.s3 + 6 * m.s2, rel=1e-12
        )

    def test_large_n_multinomial_close_to_poissonized(self):
        for name, build in SMOOTH_SUITE:
            m = s_moments_poisson(2.0, unit_square(), build(), **SMALL_MC)
            a_n = alpha_coefficients(10_000, "multinomial")
            a_inf = alpha_coefficients(None, "poissonized")
            v_n = a_n.variance(m.s4, m.s3, m.s2)
            v_inf = a_inf.variance(m.s4, m.s3, m.s2)
            assert abs(v_n / v_inf - 1.0) < 0.01, name

    def test_true_variance_matches_simulation_analytic_case(self):
        # f = 1: theta = n(n-1) with n ~ Poisson(mu); exact variance 4 mu^3 + 2 mu^2
        lam = 30.0
        mu = lam
        f = constant_pair_function(unit_square(), 1.0)
        seed = RngSeed(92)
        reps = 3000
        thetas = np.array([
            two_point_statistic(simulate_homogeneous_poisson(lam, unit_square(),
                                                             seed.substream(r)), f)
            for r in range(reps)
        ])
        exact = 4 * mu**3 + 2 * mu**2
        assert abs(np.var(thetas, ddof=1) / exact - 1.0) < 0.10
        m = s_moments_poisson(lam, unit_square(), f, **SMALL_MC)
        assert true_variance_poisson(m) == pytest.approx(exact, rel=1e-10)
