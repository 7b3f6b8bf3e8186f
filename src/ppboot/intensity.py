"""Kernel intensity estimation on an interval and confidence bands for it.

The estimator uses the rectangular kernel: with bandwidth h, the
estimate at x is lambda_hat(x) = p(x) / (2h), where p(x) counts the
observed points in the closed interval [x-h, x+h].

Four routes to a pointwise band of level 1-alpha:

``bootstrap_mc``
    Resample the count Poisson-style and take the empirical quantile of
    the studentized deviation |T*| = |p* - p| / sqrt(2h p*).
``bootstrap_closed_form``
    The same quantile computed exactly: conditional on the data, p* is
    Poisson(p), so the quantile needs only Poisson tail sums.  The
    minimal t with P{|T*| <= t} >= 1-alpha is found by expanding the
    covered count range outward, atom by atom, in order of |T*|.
``exact_poisson``
    No resampling: 2h*lambda_hat(x) is Poisson with mean 2h*lambda(x)
    when lambda is close to linear across the kernel span, so a
    chi-square inversion (Garwood-style, conservative) interval for the
    Poisson mean divides through by 2h.
``oracle_true_t``
    Test-side reference: the ideal threshold computed from the true
    intensity (which real data never has).

Bootstrap bands are centered at lambda_hat with half-width
t * sqrt(lambda_hat), and the lower edge is clipped at zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats

from .errors import (
    DegenerateCountError,
    ParameterError,
    UnattainableLevelError,
)
from .geometry import Interval1, IntensityFunction, PointPattern, simulate_inhomogeneous_poisson
from .rng import RngSeed, parallel_map

BAND_METHODS = ("bootstrap_mc", "bootstrap_closed_form", "exact_poisson", "oracle_true_t")


@dataclass(frozen=True)
class IntensityEstimate:
    """Rectangular-kernel intensity estimate on a grid."""

    grid: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    h: float


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise confidence band [lo(x), hi(x)] for the intensity."""

    grid: np.ndarray
    lambda_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    alpha: float
    method: str
    t_values: np.ndarray  # threshold per point; nan where not applicable
    flags: tuple[str, ...]  # "", "edge", "zero-count", or "edge;zero-count"


@dataclass(frozen=True)
class TStarQuery:
    """Inputs of the closed-form bootstrap threshold at one grid point.

    The covered-count interval at threshold t is [a(t) - b(t), a(t) + b(t)]
    with a(t) = p + h t^2 and b(t) = t sqrt(2 h p + h^2 t^2).
    """

    p: int
    h: float
    alpha: float

    def __post_init__(self) -> None:
        if int(self.p) != self.p or self.p < 0:
            raise ParameterError(f"count p must be a nonnegative integer, got {self.p}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ParameterError(f"bandwidth must be positive and finite, got {self.h}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")


def _abs_t_squared_key(m: int, center: float, exact: bool) -> Fraction | float:
    """Ordering key (m - center)^2 / m, proportional to |T|^2 at count m."""
    if exact:
        c = int(center)
        return Fraction((m - c) * (m - c), m)
    d = m - center
    return d * d / m


def _min_t_threshold(mean: float, center: float, two_h: float, alpha: float,
                     exact: bool) -> float:
    """Minimal t >= 0 with P{|count - center| / sqrt(two_h * count) <= t} >= 1 - alpha.

    The count is Poisson(mean); count 0 gives |T| = +infinity and is
    never covered.  Expands the covered range outward from the most
    central atom in order of |T|, handling exact ties (possible when
    ``center`` is an integer) as a single step.
    """
    if alpha >= 1.0:
        return 0.0
    if alpha <= 0.0 or math.exp(-mean) >= alpha:
        raise UnattainableLevelError(
            f"coverage {1 - alpha} is not attainable: the resampled count is 0 "
            f"with probability {math.exp(-mean):.6g}, which is never covered"
        )
    target = 1.0 - alpha

    def t_at(m: int) -> float:
        # float path kept identical to the Monte Carlo |T| computation so
        # the two routes agree to the last bit on a shared atom
        return abs(m - center) / math.sqrt(two_h * m)

    start = max(1, int(math.floor(center)))
    if _abs_t_squared_key(start + 1, center, exact) < _abs_t_squared_key(start, center, exact):
        start += 1
    lo = hi = start
    threshold = t_at(start)

    def cdf(m: int) -> float:
        return float(stats.poisson.cdf(m, mean)) if m >= 0 else 0.0

    coverage = cdf(hi) - cdf(lo - 1)
    while coverage < target:
        left = _abs_t_squared_key(lo - 1, center, exact) if lo > 1 else None
        right = _abs_t_squared_key(hi + 1, center, exact)
        if left is not None and left < right:
            lo -= 1
            threshold = t_at(lo)
        elif left is not None and left == right:
            lo -= 1
            hi += 1
            threshold = max(t_at(lo), t_at(hi))
        else:
            hi += 1
            threshold = t_at(hi)
        coverage = cdf(hi) - cdf(lo - 1)
    return threshold


def t_star_closed_form(query: TStarQuery) -> float:
    """The bootstrap threshold t*_alpha without simulation.

    Conditional on the data, the resampled count p* at this grid point
    is Poisson(p); t* is the minimal t whose covered-count interval
    [a(t) - b(t), a(t) + b(t)] holds probability at least 1 - alpha.
    """
    if query.p < 1:
        raise DegenerateCountError("t* is undefined at a zero observed count")
    return _min_t_threshold(
        mean=float(query.p), center=float(query.p), two_h=2.0 * query.h,
        alpha=query.alpha, exact=True,
    )


def t_star_monte_carlo(p: int, h: float, alpha: float, n_draws: int, seed: RngSeed) -> float:
    """Empirical (1-alpha) quantile of |T*| over resampled counts.

    Each draw resamples the p points with i.i.d. Poisson(1) occurrence
    weights, so the resampled count p* is Poisson(p); draws with
    p* = 0 contribute |T*| = +infinity and are never covered.
    """
    return t_star_monte_carlo_band(p, h, alpha, n_draws, seed)[0]


def t_star_monte_carlo_band(
    p: int, h: float, alpha: float, n_draws: int, seed: RngSeed, z: float = 3.0
) -> tuple[float, float, float]:
    """(quantile, lower, upper): distribution-free z-sigma bracket for the MC threshold.

    The bracket takes the order statistics at rank
    ceil((1-alpha) n) -+ z sqrt(n alpha (1-alpha)), the binomial
    uncertainty of the empirical CDF at the target level.  At alpha = 1
    every threshold covers, and all three are 0.
    """
    TStarQuery(p, h, alpha)  # validates p, h, alpha
    if p < 1:
        raise DegenerateCountError("t* is undefined at a zero observed count")
    if n_draws < 1000:
        raise ParameterError(f"need at least 1000 draws, got {n_draws}")
    if alpha >= 1.0:
        return 0.0, 0.0, 0.0
    rng = seed.generator()
    p_star = rng.poisson(float(p), n_draws)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_abs = np.abs(p_star - p) / np.sqrt(2.0 * h * p_star)
    t_abs[p_star == 0] = np.inf
    t_abs.sort()
    k = math.ceil((1.0 - alpha) * n_draws)
    margin = z * math.sqrt(n_draws * alpha * (1.0 - alpha))
    k_lo = max(1, math.floor(k - margin))
    k_hi = min(n_draws, math.ceil(k + margin))
    value = float(t_abs[k - 1])
    if not math.isfinite(value):
        raise UnattainableLevelError(
            f"coverage {1 - alpha} not attained by any finite threshold in {n_draws} draws"
        )
    return value, float(t_abs[k_lo - 1]), float(t_abs[k_hi - 1])


def t_alpha_oracle(intensity: IntensityFunction, x: float, h: float, alpha: float) -> float:
    """The ideal threshold t_alpha(x) when the true intensity is known.

    The scaled estimate 2h*lambda_hat(x) is Poisson with mean
    m = integral of lambda over [x-h, x+h], and T(x) centers at the
    estimator's own mean m/(2h).  Same minimization as the bootstrap
    closed form, with Poisson(m) in place of Poisson(p).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ParameterError(f"bandwidth must be positive and finite, got {h}")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    m = intensity.integral(x - h, x + h)
    if m <= 0:
        raise DegenerateCountError(f"expected count over [{x - h}, {x + h}] is zero")
    return _min_t_threshold(mean=m, center=m, two_h=2.0 * h, alpha=alpha, exact=False)


def kernel_intensity_estimate(pattern: PointPattern, h: float, grid: np.ndarray) -> IntensityEstimate:
    """Rectangular-kernel estimate lambda_hat(x) = p(x) / (2h) on a grid."""
    if not (h > 0 and math.isfinite(h)):
        raise ParameterError(f"bandwidth must be positive and finite, got {h}")
    if pattern.dim != 1:
        raise ParameterError("kernel intensity estimation expects a one-dimensional pattern")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    win: Interval1 = pattern.window
    if np.any(grid < win.lo) or np.any(grid > win.hi):
        raise ParameterError("grid points must lie inside the observation interval")
    counts = _counts_on_grid(pattern.points, grid, h)
    return IntensityEstimate(grid=grid, values=counts / (2.0 * h), counts=counts, h=h)


def _counts_on_grid(points: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """p(x) = #{points in [x-h, x+h]} for every grid x (closed interval)."""
    xs = np.sort(np.asarray(points, dtype=float))
    lo = np.searchsorted(xs, grid - h, side="left")
    hi = np.searchsorted(xs, grid + h, side="right")
    return (hi - lo).astype(np.int64)


def _edge_flags(grid: np.ndarray, window: Interval1, h: float) -> list[str]:
    """Mark grid points whose kernel window [x-h, x+h] is truncated."""
    return ["edge" if (x - window.lo < h or window.hi - x < h) else "" for x in grid]


def _garwood_interval(p: int, alpha: float) -> tuple[float, float]:
    """Exact (conservative) interval for a Poisson mean from one count p."""
    lo = 0.0 if p == 0 else 0.5 * float(stats.chi2.ppf(alpha / 2.0, 2 * p))
    hi = 0.5 * float(stats.chi2.ppf(1.0 - alpha / 2.0, 2 * p + 2))
    return lo, hi


class _BandBuilder:
    """Maps observed counts on a grid to band bounds, caching per distinct count.

    One builder is reused across replications in coverage experiments so
    chi-square inversions and threshold searches run once per count; the
    ``oracle_true_t`` threshold depends on the grid point instead, and is
    computed once per point at construction.

    The bootstrap threshold is undefined at a zero count and unattainable
    whenever exp(-p) >= alpha; both cases substitute the exact interval
    and carry a per-point flag ("zero-count" or "level-unattainable").
    """

    def __init__(self, h: float, alpha: float, method: str, grid: np.ndarray,
                 mc_draws: int = 100_000, seed: RngSeed | None = None,
                 intensity: IntensityFunction | None = None):
        if method not in BAND_METHODS:
            raise ParameterError(f"unknown band method {method!r}; use one of {BAND_METHODS}")
        if not (h > 0 and math.isfinite(h)):
            raise ParameterError(f"bandwidth must be positive and finite, got {h}")
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"alpha must lie in (0, 1] for bands, got {alpha}")
        if method == "bootstrap_mc" and seed is None:
            raise ParameterError("bootstrap_mc bands need a seed")
        if method == "oracle_true_t" and intensity is None:
            raise ParameterError("oracle_true_t bands need the true intensity")
        self.h = h
        self.alpha = alpha
        self.method = method
        self.mc_draws = mc_draws
        self.seed = seed
        self._by_count: dict[int, tuple[float, float, float, str]] = {}
        self._grid_t = None
        if method == "oracle_true_t":
            self._grid_t = np.array([t_alpha_oracle(intensity, float(x), h, alpha) for x in grid])

    def _threshold(self, p: int) -> float:
        if self.method == "bootstrap_closed_form":
            return t_star_closed_form(TStarQuery(p, self.h, self.alpha))
        assert self.method == "bootstrap_mc"
        return t_star_monte_carlo(p, self.h, self.alpha, self.mc_draws,
                                  self.seed.substream(1, p))

    def _exact(self, p: int) -> tuple[float, float]:
        if self.alpha >= 1.0:
            lam = p / (2.0 * self.h)
            return lam, lam
        g_lo, g_hi = _garwood_interval(p, self.alpha)
        return g_lo / (2.0 * self.h), g_hi / (2.0 * self.h)

    def bounds_for_count(self, p: int) -> tuple[float, float, float, str]:
        """(lo, hi, t, flag) for observed count p; t is nan when not used."""
        cached = self._by_count.get(p)
        if cached is not None:
            return cached
        if self.method == "exact_poisson":
            out = (*self._exact(p), math.nan, "")
        elif p == 0:
            out = (*self._exact(p), math.nan, "zero-count")
        else:
            try:
                t = self._threshold(p)
            except UnattainableLevelError:
                out = (*self._exact(p), math.nan, "level-unattainable")
            else:
                lo, hi = _centered_band(p / (2.0 * self.h), t)
                out = (float(lo), float(hi), t, "")
        self._by_count[p] = out
        return out

    def bounds(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, t, flag) arrays for integer counts whose last axis runs over the grid."""
        counts = np.asarray(counts)
        if self._grid_t is not None:
            t = np.broadcast_to(self._grid_t, counts.shape)
            lo, hi = _centered_band(counts / (2.0 * self.h), t)
            return lo, hi, t, np.full(counts.shape, "", dtype=object)
        distinct, inverse = np.unique(counts, return_inverse=True)
        lo, hi, t = (np.empty(len(distinct)) for _ in range(3))
        flag = np.empty(len(distinct), dtype=object)
        for k, p in enumerate(distinct):
            lo[k], hi[k], t[k], flag[k] = self.bounds_for_count(int(p))
        inverse = inverse.reshape(counts.shape)
        return lo[inverse], hi[inverse], t[inverse], flag[inverse]


def _centered_band(lam: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bootstrap band lambda_hat -+ t sqrt(lambda_hat), clipped at zero."""
    half = t * np.sqrt(lam)
    return np.maximum(0.0, lam - half), lam + half


def confidence_band(
    pattern: PointPattern,
    h: float,
    alpha: float,
    grid: np.ndarray,
    method: str,
    *,
    intensity: IntensityFunction | None = None,
    mc_draws: int = 100_000,
    seed: RngSeed | None = None,
) -> ConfidenceBand:
    """Pointwise band for lambda(x) on a grid, by the chosen method.

    Bootstrap methods at grid points with zero observed count fall back
    to the exact interval and are flagged ``zero-count``; points closer
    than h to an interval end are flagged ``edge`` (the kernel window is
    truncated there).
    """
    est = kernel_intensity_estimate(pattern, h, grid)
    builder = _BandBuilder(h, alpha, method, est.grid, mc_draws=mc_draws, seed=seed,
                           intensity=intensity)
    lo, hi, ts, fallback = builder.bounds(est.counts)
    edge = _edge_flags(est.grid, pattern.window, h)
    flags = tuple(";".join(part for part in parts if part) for parts in zip(edge, fallback))
    return ConfidenceBand(grid=est.grid, lambda_hat=est.values, lo=lo, hi=hi,
                          alpha=alpha, method=method, t_values=ts, flags=flags)


@dataclass(frozen=True)
class CoverageResult:
    """Empirical pointwise coverage for both reference targets.

    ``coverage_true`` counts hits of the true lambda(x);
    ``coverage_smoothed`` counts hits of the estimator's own target
    E lambda_hat(x) = (integral of lambda over [x-h, x+h]) / (2h).
    """

    grid: np.ndarray
    coverage_true: np.ndarray
    coverage_smoothed: np.ndarray
    reps: int
    method: str
    alpha: float
    flags: tuple[str, ...]

    @property
    def se_true(self) -> np.ndarray:
        c = self.coverage_true
        return np.sqrt(c * (1.0 - c) / self.reps)

    @property
    def se_smoothed(self) -> np.ndarray:
        c = self.coverage_smoothed
        return np.sqrt(c * (1.0 - c) / self.reps)


def coverage_experiment(
    intensity: IntensityFunction,
    interval: Interval1,
    h: float,
    alpha: float,
    method: str,
    reps: int,
    grid: np.ndarray,
    seed: RngSeed,
    mc_draws: int = 100_000,
    threads: int = 1,
) -> CoverageResult:
    """Simulate fresh patterns and record how often the band captures each target."""
    if reps < 100:
        raise ParameterError(f"need at least 100 replications, got {reps}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    builder = _BandBuilder(h, alpha, method, grid, mc_draws=mc_draws,
                           seed=seed, intensity=intensity)
    lam_true = intensity(grid)
    lam_smoothed = np.array([intensity.integral(x - h, x + h) for x in grid]) / (2.0 * h)

    chunk = 200
    n_chunks = (reps + chunk - 1) // chunk

    def run_chunk(c: int) -> tuple[np.ndarray, np.ndarray]:
        patterns = (simulate_inhomogeneous_poisson(intensity, interval, seed.substream(0, r))
                    for r in range(c * chunk, min((c + 1) * chunk, reps)))
        lo, hi, _, _ = builder.bounds(np.array([_counts_on_grid(p.points, grid, h)
                                                for p in patterns]))
        return (((lo <= lam_true) & (lam_true <= hi)).sum(axis=0),
                ((lo <= lam_smoothed) & (lam_smoothed <= hi)).sum(axis=0))

    # the per-count cache is safe to share: entries are deterministic
    # functions of the count (per-count substreams), so a concurrent
    # duplicate computation writes the identical value
    parts = parallel_map(run_chunk, n_chunks, threads=threads)
    hits_true = sum(p[0] for p in parts)
    hits_smoothed = sum(p[1] for p in parts)
    return CoverageResult(
        grid=grid,
        coverage_true=hits_true / reps,
        coverage_smoothed=hits_smoothed / reps,
        reps=reps,
        method=method,
        alpha=alpha,
        flags=tuple(_edge_flags(grid, interval, h)),
    )
