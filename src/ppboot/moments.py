"""Numerical moments s2, s3, s4 and E theta_hat for a homogeneous Poisson truth.

For a Poisson process every product density is a power of the
intensity, so the moment integrals reduce to window integrals of the
pair function:

    s2      = lam^2 * I(f^2)          over W^2
    s3      = lam^3 * I(f(x1,x2) f(x1,x3))   over W^3
    s4      = lam^4 * I(f)^2
    E theta = lam^2 * I(f)

Two interchangeable integrators are provided: plain Monte Carlo with
standard-error reporting, and tensor-product Gauss-Legendre quadrature
with a refinement delta.  Reported error fields are 3-sigma bounds for
Monte Carlo and |fine - coarse| refinement deltas for quadrature, each
plus a floating-point floor: the a-priori summation bound
gamma_m * sum|terms|, gamma_m = m u / (1 - m u) with u = eps / 2 and m
the roundings from the terms to the value (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3-4).  The floor keeps a
constant integrand, whose sampling error is 0, from reporting less
error than its rounding, so "agreement within summed errors" is a
meaningful cross-method check.

The true estimator variance s4 + 4 s3 + 2 s2 - (E theta)^2 collapses to
4 s3 + 2 s2 under Poisson (s4 cancels against (E theta)^2); the
residual of that cancellation is surfaced as a consistency diagnostic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import Window2
from .rng import RngSeed, chunk_sizes, parallel_map
from .twopoint import PairFunction

INTEGRATION_METHODS = ("monte_carlo", "product_quadrature")

_MC_CHUNK = 1 << 19

_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Roundings besides the summation itself.  Monte Carlo: forming a term,
# dividing by n, and lam^k * area^k * mean for k <= 4 (area costs 3, so
# area^k carries 3k; two powers and two products add 4).
_MC_EXTRA_ROUNDINGS = 2 + 3 * 4 + 4
# Quadrature: each 1-D weight is scaled once and taken as accurate to a
# few ulps from leggauss (8 in all), a 2-D weight multiplies two of them,
# and a triple term carries three 2-D weights, one square and lam^3.
_QUAD_EXTRA_ROUNDINGS = 3 * (2 * 8 + 1) + 1 + 3


@dataclass(frozen=True)
class IntegrationSpec:
    """How to evaluate the moment integrals.

    ``sample_count`` is the total Monte Carlo budget (at least 1000),
    split across components: the triple integral behind s3 has by far
    the smallest hit rate for short-range pair functions and receives
    60% of the draws; the four pair integrals get 10% each.
    ``nodes_per_axis`` is the Gauss-Legendre resolution per coordinate
    axis (at least 8).
    """

    method: str = "monte_carlo"
    sample_count: int = 200_000
    nodes_per_axis: int = 32
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in INTEGRATION_METHODS:
            raise ParameterError(
                f"unknown integration method {self.method!r}; use one of {INTEGRATION_METHODS}"
            )
        if self.method == "monte_carlo" and self.sample_count < 1000:
            raise ParameterError(f"Monte Carlo needs >= 1000 samples, got {self.sample_count}")
        if self.method == "product_quadrature" and self.nodes_per_axis < 8:
            raise ParameterError(f"quadrature needs >= 8 nodes per axis, got {self.nodes_per_axis}")


@dataclass(frozen=True)
class MomentSet:
    """Integrated moments for a homogeneous Poisson ground truth.

    ``errors`` maps component name to its error estimate (3-sigma Monte
    Carlo bound or quadrature refinement delta) plus a floating-point
    floor that bounds the rounding in the value; the floor is 0 only
    when the integrand is 0 everywhere it was evaluated.
    """

    s2: float
    s3: float
    s4: float
    e_theta: float
    lam: float
    window: Window2
    f_label: str
    method: str
    errors: dict[str, float]

    @property
    def cancellation_gap(self) -> float:
        """s4 - (E theta)^2; zero for Poisson up to integration error."""
        return self.s4 - self.e_theta**2

    def reduced_true_variance(self) -> float:
        """4 s3 + 2 s2, the Poisson-cancelled form of the true variance."""
        return 4.0 * self.s3 + 2.0 * self.s2


def _require_finite(vals: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals.ravel()))[0])
        raise NumericalError(f"non-finite integrand sample in {where} (flat index {bad})")


def _gamma(m: int) -> float:
    """Higham's gamma_m, the relative error bound of m chained roundings."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _mc_mean(window: Window2, integrand, n_points: int, samples: int,
             seed: RngSeed, threads: int, where: str) -> tuple[float, float, float]:
    """Mean, standard error and mean |integrand| over uniform W^n_points samples.

    Each chunk reports its count, sum, sum of squared deviations (M2)
    and sum of |values|; the chunks are merged in task order with the
    pairwise update of Chan, Golub & LeVeque (1979), so the variance
    needs no clamp and is the same for every ``threads`` value.
    """
    offset = np.array([window.x_min, window.y_min])
    scale = np.array([window.x_max - window.x_min, window.y_max - window.y_min])
    sizes = chunk_sizes(samples, _MC_CHUNK)

    def run_chunk(c: int) -> tuple[int, float, float, float]:
        rng = seed.substream(c).generator()
        pts = [offset + scale * rng.random((sizes[c], 2)) for _ in range(n_points)]
        vals = integrand(*pts)
        _require_finite(vals, where)
        total = float(vals.sum())
        dev = vals - total / sizes[c]
        return sizes[c], total, float(dev @ dev), float(np.abs(vals).sum())

    parts = parallel_map(run_chunk, len(sizes), threads=threads)
    n, total, m2, abs_total = parts[0]
    for n_b, total_b, m2_b, abs_b in parts[1:]:
        delta = total_b / n_b - total / n
        m2 += m2_b + delta * delta * (n * n_b / (n + n_b))
        n += n_b
        total += total_b
        abs_total += abs_b
    return total / n, math.sqrt(m2) / n, abs_total / n


def _moments_monte_carlo(lam: float, window: Window2, f: PairFunction,
                         spec: IntegrationSpec) -> MomentSet:
    area = window.area
    m_pair = max(1000, spec.sample_count // 10)
    m_triple = max(1000, (6 * spec.sample_count) // 10)
    seed = spec.seed
    th = spec.threads

    # samples are drawn inside W, so the window indicators of f are
    # identically 1 and the bare h can be evaluated directly
    def f_val(x, y):
        return np.asarray(f.h(x, y), dtype=float)

    def f_sq(x, y):
        v = np.asarray(f.h(x, y), dtype=float)
        return v * v

    def f_prod(x1, x2, x3):
        return np.asarray(f.h(x1, x2), dtype=float) * np.asarray(f.h(x1, x3), dtype=float)

    i2_mean, i2_se, i2_abs = _mc_mean(window, f_val, 2, m_pair, seed.substream(0), th, "e_theta")
    i2b_mean, i2b_se, i2b_abs = _mc_mean(window, f_val, 2, m_pair, seed.substream(1), th,
                                         "s4 (first factor)")
    i2c_mean, i2c_se, i2c_abs = _mc_mean(window, f_val, 2, m_pair, seed.substream(2), th,
                                         "s4 (second factor)")
    s2_mean, s2_se, s2_abs = _mc_mean(window, f_sq, 2, m_pair, seed.substream(3), th, "s2")
    s3_mean, s3_se, s3_abs = _mc_mean(window, f_prod, 3, m_triple, seed.substream(4), th, "s3")

    e_theta = lam**2 * area**2 * i2_mean
    s2 = lam**2 * area**2 * s2_mean
    s3 = lam**3 * area**3 * s3_mean
    # product of two independent estimates keeps s4 unbiased for I(f)^2
    s4 = lam**4 * area**4 * i2b_mean * i2c_mean
    s4_se = lam**4 * area**4 * math.hypot(i2b_mean * i2c_se, i2c_mean * i2b_se)
    # rounding floors: a mean of m terms carries m - 1 additions; if a and b
    # are off by at most g_a A and g_b B with |a| <= A, |b| <= B, then a b is
    # off by at most (g_a + g_b + g_a g_b) A B <= g_{a+b} A B (Higham, lemma 3.3)
    g_pair = _gamma(m_pair + _MC_EXTRA_ROUNDINGS)
    g_triple = _gamma(m_triple + _MC_EXTRA_ROUNDINGS)
    g_s4 = _gamma(2 * (m_pair + _MC_EXTRA_ROUNDINGS))
    errors = {
        "e_theta": lam**2 * area**2 * (3.0 * i2_se + g_pair * i2_abs),
        "s2": lam**2 * area**2 * (3.0 * s2_se + g_pair * s2_abs),
        "s3": lam**3 * area**3 * (3.0 * s3_se + g_triple * s3_abs),
        "s4": 3.0 * s4_se + lam**4 * area**4 * g_s4 * i2b_abs * i2c_abs,
    }
    return MomentSet(s2=s2, s3=s3, s4=s4, e_theta=e_theta, lam=lam, window=window,
                     f_label=f.label, method=spec.method, errors=errors)


def _quadrature_components(window: Window2, f: PairFunction, nodes: int) -> dict[str, float]:
    """I(f), I(f^2) over W^2 and I(f f) over W^3 by tensor Gauss-Legendre.

    ``a2`` and ``a3`` are the same sums over |f|, the sum|terms| scale of
    the rounding floor (the weights are positive, so I(f^2) is its own).
    """
    gx, wx = np.polynomial.legendre.leggauss(nodes)
    xs = 0.5 * (window.x_max + window.x_min) + 0.5 * (window.x_max - window.x_min) * gx
    ys = 0.5 * (window.y_max + window.y_min) + 0.5 * (window.y_max - window.y_min) * gx
    wxs = 0.5 * (window.x_max - window.x_min) * wx
    wys = 0.5 * (window.y_max - window.y_min) * wx
    pts = np.column_stack([np.repeat(xs, nodes), np.tile(ys, nodes)])
    w = (wxs[:, None] * wys[None, :]).ravel()
    mat = f(pts[:, None, :], pts[None, :, :])
    _require_finite(mat, "quadrature pair matrix")
    inner = mat @ w  # integral over the second argument at each node
    i2 = float(w @ inner)
    i2_sq = float(w @ ((mat * mat) @ w))
    i3 = float(w @ (inner * inner))
    abs_inner = np.abs(mat) @ w
    a2 = float(w @ abs_inner)
    a3 = float(w @ (abs_inner * abs_inner))
    return {"i2": i2, "i2_sq": i2_sq, "i3": i3, "a2": a2, "a3": a3}


def _moments_quadrature(lam: float, window: Window2, f: PairFunction,
                        spec: IntegrationSpec) -> MomentSet:
    fine = _quadrature_components(window, f, spec.nodes_per_axis)
    coarse = _quadrature_components(window, f, max(8, spec.nodes_per_axis // 2))

    def assemble(c):
        return {
            "e_theta": lam**2 * c["i2"],
            "s2": lam**2 * c["i2_sq"],
            "s3": lam**3 * c["i3"],
            "s4": (lam**2 * c["i2"]) ** 2,
        }

    v_fine = assemble(fine)
    v_coarse = assemble(coarse)
    # rounding floor of the fine rule: two nested dot products over
    # nodes^2 points each, and s4 squares e_theta
    g = _gamma(2 * spec.nodes_per_axis**2 + _QUAD_EXTRA_ROUNDINGS)
    g_s4 = _gamma(2 * (2 * spec.nodes_per_axis**2 + _QUAD_EXTRA_ROUNDINGS) + 1)
    floors = {
        "e_theta": g * lam**2 * fine["a2"],
        "s2": g * lam**2 * fine["i2_sq"],
        "s3": g * lam**3 * fine["a3"],
        "s4": g_s4 * (lam**2 * fine["a2"]) ** 2,
    }
    errors = {k: abs(v_fine[k] - v_coarse[k]) + floors[k] for k in v_fine}
    return MomentSet(s2=v_fine["s2"], s3=v_fine["s3"], s4=v_fine["s4"],
                     e_theta=v_fine["e_theta"], lam=lam, window=window,
                     f_label=f.label, method=spec.method, errors=errors)


def s_moments_poisson(lam: float, window: Window2, f: PairFunction,
                      spec: IntegrationSpec) -> MomentSet:
    """Integrate s2, s3, s4 and E theta_hat for intensity ``lam`` on ``window``."""
    if not (lam >= 0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    if spec.method == "monte_carlo":
        return _moments_monte_carlo(lam, window, f, spec)
    return _moments_quadrature(lam, window, f, spec)


def true_variance_poisson(moments: MomentSet) -> float:
    """Variance of the two-point statistic: s4 + 4 s3 + 2 s2 - (E theta)^2.

    For a Poisson ground truth this equals 4 s3 + 2 s2 up to the
    integration error visible in ``moments.cancellation_gap``.
    """
    return moments.s4 + 4.0 * moments.s3 + 2.0 * moments.s2 - moments.e_theta**2


def expected_bootstrap_variance(moments: MomentSet, alphas) -> float:
    """Unconditional expectation of the bootstrap variance limit.

    alpha4*s4 + 4*alpha3*s3 + 2*alpha2*s2; with poissonized alphas this
    is exactly 4 s3 + 6 s2.
    """
    return (alphas.alpha4 * moments.s4
            + 4.0 * alphas.alpha3 * moments.s3
            + 2.0 * alphas.alpha2 * moments.s2)
