from fractions import Fraction

import numpy as np
import pytest

from ppboot.bootstrap import alpha_coefficients
from ppboot.errors import NumericalError, ParameterError
from ppboot.geometry import Interval1, Window2, simulate_homogeneous_poisson, unit_square
from ppboot.moments import (
    IntegrationSpec,
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


# Monte Carlo is exact to rounding on a constant f, whatever the sample count
SMALL_MC = IntegrationSpec("monte_carlo", sample_count=20_000, seed=RngSeed(2))

SMOOTH_SUITE = [
    ("constant", lambda: constant_pair_function(unit_square(), 0.7)),
    ("gaussian", gaussian_pair_function),
    ("separable", separable_pair_function),
]


class TestIntegrationSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IntegrationSpec("simpson")
        with pytest.raises(ParameterError):
            IntegrationSpec("monte_carlo", sample_count=10)
        with pytest.raises(ParameterError):
            IntegrationSpec("product_quadrature")


class TestMomentValues:
    def test_zero_pair_function(self):
        f = constant_pair_function(unit_square(), 0.0)
        m = s_moments_poisson(2.0, unit_square(), f,
                              IntegrationSpec("monte_carlo", sample_count=5000, seed=RngSeed(1)))
        assert (m.s2, m.s3, m.s4, m.e_theta) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("method,kw", [
        pytest.param("monte_carlo", {"sample_count": 20_000}, id="monte_carlo-kw1"),
    ])
    def test_unit_constant_case(self, method, kw):
        # lam = 1, f = indicator product on the unit square: every moment is 1
        f = constant_pair_function(unit_square(), 1.0)
        m = s_moments_poisson(1.0, unit_square(), f,
                              IntegrationSpec(method, seed=RngSeed(2), **kw))
        for value in (m.s2, m.s3, m.s4, m.e_theta):
            assert value == pytest.approx(1.0, rel=1e-12)

    def test_known_constant_scaling(self):
        # f = c: e = lam^2 c, s2 = lam^2 c^2, s3 = lam^3 c^2, s4 = lam^4 c^2
        f = constant_pair_function(unit_square(), 0.5)
        m = s_moments_poisson(3.0, unit_square(), f, SMALL_MC)
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
            mm = s_moments_poisson(2.0, unit_square(), f,
                                   IntegrationSpec("monte_carlo", sample_count=2_000_000,
                                                   seed=RngSeed(55)))
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
        mm = s_moments_poisson(2.0, window, f,
                               IntegrationSpec("monte_carlo", sample_count=2_000_000,
                                               seed=RngSeed(55)))
        for comp, value in oracle.items():
            assert abs(coarse[comp] - value) < 1e-3 * mm.errors[comp], comp
            diff = abs(getattr(mm, comp) - value)
            assert diff < mm.errors[comp], f"{comp}: {diff} vs {mm.errors[comp]}"

    def test_intensity_scaling_law(self):
        f = gaussian_pair_function()
        spec = IntegrationSpec("monte_carlo", sample_count=50_000, seed=RngSeed(3))
        base = s_moments_poisson(2.0, unit_square(), f, spec)
        for c in (0.5, 2.0):
            scaled = s_moments_poisson(2.0 * c, unit_square(), f, spec)
            assert scaled.s2 == pytest.approx(c**2 * base.s2, rel=1e-12)
            assert scaled.s3 == pytest.approx(c**3 * base.s3, rel=1e-12)
            assert scaled.s4 == pytest.approx(c**4 * base.s4, rel=1e-12)
            assert scaled.e_theta == pytest.approx(c**2 * base.e_theta, rel=1e-12)

    def test_s4_is_e_theta_squared(self):
        # Poisson truth: s4 = lam^4 I(f)^2 = (E theta)^2, with the error of
        # E theta propagated to first order at least
        spec = IntegrationSpec("monte_carlo", sample_count=100_000, seed=RngSeed(66))
        for name, build in SMOOTH_SUITE:
            m = s_moments_poisson(2.0, unit_square(), build(), spec)
            assert m.s4 == m.e_theta * m.e_theta, name
            assert m.errors["s4"] >= 2 * abs(m.e_theta) * m.errors["e_theta"], name

    @pytest.mark.parametrize("method,kw", [
        pytest.param("monte_carlo", {"sample_count": 2_000_000, "seed": RngSeed(55)},
                     id="monte_carlo-kw1"),
        pytest.param("monte_carlo", {"sample_count": 1_000_000, "seed": RngSeed(66)},
                     id="monte_carlo-kw2"),
    ])
    def test_constant_errors_bound_rounding(self, method, kw):
        # f = c: e = lam^2 c, s2 = lam^2 c^2, s3 = lam^3 c^2, s4 = lam^4 c^2,
        # exact in rationals for the binary value of c; sampling error is 0,
        # so each reported error must still cover the rounding
        c, lam = 0.7, 2.0
        f = constant_pair_function(unit_square(), c)
        runs = [s_moments_poisson(lam, unit_square(), f, IntegrationSpec(method, threads=t, **kw))
                for t in (1, 2)]
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
        m = s_moments_poisson(1.0, unit_square(), f,
                              IntegrationSpec("monte_carlo", sample_count=4_000_000,
                                              seed=RngSeed(77)))
        budget = 2 * b * m.errors["s2"] + m.errors["e_theta"]
        assert abs(2 * b * m.s2 - m.e_theta) < budget

    def test_interval_window_rejected(self):
        f = constant_pair_function(Interval1(0.0, 1.0), 1.0)
        with pytest.raises(ParameterError, match="planar window"):
            s_moments_poisson(1.0, Interval1(0.0, 1.0), f,
                              IntegrationSpec("monte_carlo", sample_count=2000, seed=RngSeed(4)))

    def test_nonfinite_integrand_reported(self):
        def bad(x, y):
            return np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), np.inf)

        f = PairFunction(bad, unit_square(), label="bad")
        with pytest.raises(NumericalError):
            s_moments_poisson(1.0, unit_square(), f,
                              IntegrationSpec("monte_carlo", sample_count=2000, seed=RngSeed(4)))


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
        m = s_moments_poisson(1.0, unit_square(), f,
                              IntegrationSpec("monte_carlo", sample_count=2000, seed=RngSeed(5)))
        assert true_variance_poisson(m) == 0.0
        assert alpha_coefficients(None, "poissonized").variance(m.s4, m.s3, m.s2) == 0.0

    def test_unit_case_closed_forms(self):
        f = constant_pair_function(unit_square(), 1.0)
        m = s_moments_poisson(1.0, unit_square(), f, SMALL_MC)
        # full form 1 + 4 + 2 - 1 = 6 equals the reduced 4 s3 + 2 s2
        assert true_variance_poisson(m) == pytest.approx(6.0, rel=1e-12)
        assert m.reduced_true_variance() == pytest.approx(6.0, rel=1e-12)
        a_inf = alpha_coefficients(None, "poissonized")
        assert a_inf.variance(m.s4, m.s3, m.s2) == pytest.approx(10.0, rel=1e-12)

    def test_poissonized_expectation_is_reduced_form(self):
        f = gaussian_pair_function()
        m = s_moments_poisson(2.0, unit_square(), f, SMALL_MC)
        a_inf = alpha_coefficients(None, "poissonized")
        assert a_inf.variance(m.s4, m.s3, m.s2) == pytest.approx(
            4 * m.s3 + 6 * m.s2, rel=1e-12
        )

    def test_large_n_multinomial_close_to_poissonized(self):
        for name, build in SMOOTH_SUITE:
            m = s_moments_poisson(2.0, unit_square(), build(), SMALL_MC)
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
        m = s_moments_poisson(lam, unit_square(), f, SMALL_MC)
        assert true_variance_poisson(m) == pytest.approx(exact, rel=1e-10)
