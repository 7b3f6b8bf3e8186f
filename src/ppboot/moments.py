"""Numerical moments s2, s3, s4 and E theta_hat for a homogeneous Poisson truth.

For a Poisson process every product density is a power of the
intensity, so the moment integrals reduce to window integrals of the
pair function:

    s2      = lam^2 * I(f^2)          over W^2
    s3      = lam^3 * I(f(x1,x2) f(x1,x3))   over W^3
    E theta = lam^2 * I(f)
    s4      = lam^4 * I(f)^2 = (E theta)^2

Two interchangeable integrators compute E theta, s2 and s3: plain Monte
Carlo with standard-error reporting, and tensor-product Gauss-Legendre
quadrature with a refinement delta.  s4 and its error are derived from
E theta in one place.  Reported error fields are 3-sigma bounds for
Monte Carlo and |fine - coarse| refinement deltas for quadrature, each
plus a floating-point floor: the a-priori summation bound
gamma_m * sum|terms|, gamma_m = m u / (1 - m u) with u = eps / 2 and m
the roundings from the terms to the value (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3-4).  The floor keeps a
constant integrand, whose sampling error is 0, from reporting less
error than its rounding, so "agreement within summed errors" is a
meaningful cross-method check.

The true estimator variance s4 + 4 s3 + 2 s2 - (E theta)^2 collapses to
4 s3 + 2 s2 under Poisson, because s4 cancels against (E theta)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import Window2, _require_window, gauss_legendre_rule
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
    split across two draws: 60% to the triple integral behind s3, which
    has by far the smallest hit rate for short-range pair functions, and
    40% to one pair draw that gives I(f) and I(f^2) from the same values.
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
    when the integrand is 0 everywhere it was evaluated.  ``s4`` is
    ``e_theta ** 2`` with the error propagated from ``e_theta``.
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
             seed: RngSeed, threads: int, where: str) -> list[tuple[float, float, float]]:
    """Mean, standard error and mean |value| of each integrand component.

    ``integrand`` maps n_points uniform W samples to one row of values
    per component (a 1-D array is one component).  Each chunk reports,
    per row, its sum, sum of squared deviations (M2) and sum of |values|;
    the chunks are merged in task order with the pairwise update of Chan,
    Golub & LeVeque (1979), so the variance needs no clamp and is the
    same for every ``threads`` value.
    """
    offset = np.array([window.x_min, window.y_min])
    scale = np.array([window.x_max - window.x_min, window.y_max - window.y_min])
    sizes = chunk_sizes(samples, _MC_CHUNK)

    def run_chunk(c: int) -> np.ndarray:
        rng = seed.substream(c).generator()
        pts = [offset + scale * rng.random((sizes[c], 2)) for _ in range(n_points)]
        vals = np.atleast_2d(integrand(*pts))
        _require_finite(vals, where)
        stats = []
        for row in vals:
            total = float(row.sum())
            dev = row - total / sizes[c]
            stats.append((total, float(dev @ dev), float(np.abs(row).sum())))
        return np.array(stats).T

    parts = parallel_map(run_chunk, len(sizes), threads=threads)
    n = sizes[0]
    total, m2, abs_total = parts[0]
    for n_b, (total_b, m2_b, abs_b) in zip(sizes[1:], parts[1:]):
        delta = total_b / n_b - total / n
        m2 += m2_b + delta * delta * (n * n_b / (n + n_b))
        n += n_b
        total += total_b
        abs_total += abs_b
    return list(zip((total / n).tolist(), (np.sqrt(m2) / n).tolist(), (abs_total / n).tolist()))


def _moments_monte_carlo(lam: float, window: Window2, f: PairFunction,
                         spec: IntegrationSpec) -> tuple[dict[str, float], dict[str, float]]:
    area = window.area
    m_pair = max(1000, (4 * spec.sample_count) // 10)
    m_triple = max(1000, (6 * spec.sample_count) // 10)

    # samples are drawn inside W, so the window indicators of f are
    # identically 1 and the bare h can be evaluated directly
    def f_and_sq(x, y):
        v = np.asarray(f.h(x, y), dtype=float)
        return np.stack([v, v * v])

    def f_prod(x1, x2, x3):
        return np.asarray(f.h(x1, x2), dtype=float) * np.asarray(f.h(x1, x3), dtype=float)

    (e, e_se, e_abs), (s2, s2_se, s2_abs) = _mc_mean(
        window, f_and_sq, 2, m_pair, spec.seed.substream(0), spec.threads, "e_theta and s2")
    [(s3, s3_se, s3_abs)] = _mc_mean(window, f_prod, 3, m_triple, spec.seed.substream(4),
                                     spec.threads, "s3")
    # rounding floors: a mean of m terms carries m - 1 additions
    g_pair = _gamma(m_pair + _MC_EXTRA_ROUNDINGS)
    g_triple = _gamma(m_triple + _MC_EXTRA_ROUNDINGS)
    scale2, scale3 = lam**2 * area**2, lam**3 * area**3
    values = {"e_theta": scale2 * e, "s2": scale2 * s2, "s3": scale3 * s3}
    errors = {
        "e_theta": scale2 * (3.0 * e_se + g_pair * e_abs),
        "s2": scale2 * (3.0 * s2_se + g_pair * s2_abs),
        "s3": scale3 * (3.0 * s3_se + g_triple * s3_abs),
    }
    return values, errors


def _quadrature_components(window: Window2, f: PairFunction, nodes: int) -> dict[str, float]:
    """I(f), I(f^2) over W^2 and I(f f) over W^3 by tensor Gauss-Legendre.

    ``a2`` and ``a3`` are the same sums over |f|, the sum|terms| scale of
    the rounding floor (the weights are positive, so I(f^2) is its own).
    """
    gx, wx = gauss_legendre_rule(nodes)
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
                        spec: IntegrationSpec) -> tuple[dict[str, float], dict[str, float]]:
    fine = _quadrature_components(window, f, spec.nodes_per_axis)
    coarse = _quadrature_components(window, f, max(8, spec.nodes_per_axis // 2))

    def assemble(c):
        return {"e_theta": lam**2 * c["i2"], "s2": lam**2 * c["i2_sq"], "s3": lam**3 * c["i3"]}

    v_fine = assemble(fine)
    v_coarse = assemble(coarse)
    # rounding floor of the fine rule: two nested dot products over nodes^2 points each
    g = _gamma(2 * spec.nodes_per_axis**2 + _QUAD_EXTRA_ROUNDINGS)
    floors = {
        "e_theta": g * lam**2 * fine["a2"],
        "s2": g * lam**2 * fine["i2_sq"],
        "s3": g * lam**3 * fine["a3"],
    }
    return v_fine, {k: abs(v_fine[k] - v_coarse[k]) + floors[k] for k in v_fine}


def s_moments_poisson(lam: float, window: Window2, f: PairFunction,
                      spec: IntegrationSpec) -> MomentSet:
    """Integrate s2, s3, s4 and E theta_hat for intensity ``lam`` on ``window``."""
    _require_window(window, Window2, "moment integration")
    if not (lam >= 0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    integrate = _moments_monte_carlo if spec.method == "monte_carlo" else _moments_quadrature
    values, errors = integrate(lam, window, f, spec)
    # s4 = lam^4 I(f)^2 = (E theta)^2 exactly; |E theta - e| <= d gives
    # |s4 - e^2| <= (2|e| + d) d, and gamma_1 e^2 bounds the rounding of e * e
    e, d = values["e_theta"], errors["e_theta"]
    errors["s4"] = (2.0 * abs(e) + d) * d + _gamma(1) * e * e
    return MomentSet(s4=e * e, lam=lam, window=window, f_label=f.label, method=spec.method,
                     errors=errors, **values)


def true_variance_poisson(moments: MomentSet) -> float:
    """Variance of the two-point statistic: s4 + 4 s3 + 2 s2 - (E theta)^2.

    For a Poisson ground truth s4 = (E theta)^2, so this equals
    4 s3 + 2 s2 up to rounding.
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
