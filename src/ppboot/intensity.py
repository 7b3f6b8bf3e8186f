"""Kernel intensity estimation on an interval and confidence bands for it.

The estimator uses the rectangular kernel: with bandwidth h, the
estimate at x is lambda_hat(x) = p(x) / (2h), where p(x) counts the
observed points in the closed interval [x-h, x+h].

Four routes to a pointwise band of level 1-alpha:

``bootstrap_mc``
    Resample the count Poisson-style and take the empirical quantile of
    the studentized deviation |T*| = |p* - p| / sqrt(2h p*).  The
    resampled counts are drawn as atom counts, by one multinomial draw.
``bootstrap_closed_form``
    The same quantile computed exactly: conditional on the data, p* is
    Poisson(p).  The atoms near p are sorted by |T*|, as on the Monte
    Carlo route; the first k cover the counts between their extremes, and
    t* is the |T*| of the first prefix holding probability 1-alpha, scored
    in doubling blocks, one Poisson cdf call each.  At integer p, atoms a
    and p^2/a tie exactly, and a tied step takes the larger rounded |T*|.
``exact_poisson``
    No resampling: 2h*lambda_hat(x) is Poisson with mean 2h*lambda(x)
    when lambda is close to linear across the kernel span, so the
    Garwood (conservative) interval for the Poisson mean divides through
    by 2h.  Its ends are inverse regularized incomplete gamma values,
    the same interval as the chi-square inversion.
``oracle_true_t``
    Test-side reference: the ideal threshold computed from the true
    intensity (which real data never has), at the expected count: the
    integral of lambda over the cut window, the part of [x-h, x+h] inside
    the interval.

Bootstrap bands are centered at lambda_hat with half-width
t * sqrt(lambda_hat), and the lower edge is clipped at zero.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateCountError, ParameterError, UnattainableLevelError
from .geometry import (
    Interval1,
    IntensityFunction,
    PointPattern,
    _replicate_blocks,
    _require_window,
    _simulate_inhomogeneous_block,
)
from .rng import RngSeed

BAND_METHODS = ("bootstrap_mc", "bootstrap_closed_form", "exact_poisson", "oracle_true_t")


def _poisson_cdf(k, mu):
    """P{Poisson(mu) <= k} for k >= 0; the same bits as ``scipy.stats.poisson.cdf``."""
    from scipy import special  # scipy loads with the first band, not with ppboot

    return special.pdtr(k, mu)


def _poisson_pmf(k, mu):
    """P{Poisson(mu) = k}, by scipy's own formula for ``scipy.stats.poisson.pmf``."""
    from scipy import special

    return np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu)


# named ``stats`` only for perfbench's tracer, which wraps stats.poisson.cdf; ROADMAP item 8 drops it
stats = SimpleNamespace(poisson=SimpleNamespace(cdf=_poisson_cdf))

# Monte Carlo draws are counted on the atoms p -+ (_ATOM_SPAN sqrt(p) + _ATOM_SPAN);
# the Poisson(p) mass outside is below 1e-26 for every p
_ATOM_SPAN = 12.0

# Monte Carlo draws per bootstrap_mc threshold when none are given
_MC_DRAWS = 100_000


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise confidence band [lo(x), hi(x)] for the intensity."""

    grid: np.ndarray
    lambda_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t_values: np.ndarray  # threshold per point; nan where not applicable
    flags: tuple[str, ...]  # "edge" and a fallback ("zero-count", "level-unattainable"), ";"-joined

    def columns(self) -> dict[str, np.ndarray | list[str]]:
        """The band table by column: grid, estimate, bounds and flags."""
        return {"x": self.grid, "lambda_hat": self.lambda_hat, "lo": self.lo, "hi": self.hi,
                "flag": list(self.flags)}


def _check_bandwidth(h: float) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ParameterError(f"bandwidth must be positive and finite, got {h}")


def _check_level(h: float, alpha: float) -> None:
    """Preconditions shared by every t* route: the bandwidth and alpha in [0, 1]."""
    _check_bandwidth(h)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")


def _check_t_star_args(p: int, h: float, alpha: float) -> None:
    """Preconditions shared by the closed-form and Monte Carlo bootstrap thresholds."""
    if not (isinstance(p, numbers.Real) and math.isfinite(p)) or int(p) != p or p < 0:
        raise ParameterError(f"count p must be a nonnegative integer, got {p}")
    _check_level(h, alpha)
    if p < 1:
        raise DegenerateCountError("t* is undefined at a zero observed count")


def _atom_range(center: float, span: float = _ATOM_SPAN) -> tuple[int, int]:
    """(first, last): the count atoms center -+ (span sqrt(center) + span), first >= 0."""
    root = math.sqrt(center)
    return max(0, math.floor(center - span * root - span)), math.ceil(center + span * root + span)


def _atoms_by_t(first: int, last: int, center: float,
                two_h: float) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, t): atoms first..last sorted by |T| = |m - center| / sqrt(two_h m), and their |T|.

    Count 0 gets |T| = +infinity.  The sort is stable, so atoms with equal
    rounded |T| keep their natural order.
    """
    atoms = np.arange(first, last + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_atom = np.abs(atoms - center) / np.sqrt(two_h * atoms)
    t_atom[atoms == 0] = np.inf
    order = np.argsort(t_atom, kind="stable")
    return atoms[order], t_atom[order]


def _min_t_threshold(mean: float, two_h: float, alpha: float) -> float:
    """Minimal t >= 0 with P{|count - mean| / sqrt(two_h * count) <= t} >= 1 - alpha.

    The count is Poisson(mean), and count 0 is never covered.  |T| falls
    towards the mean on both sides, so the first k atoms of ``_atoms_by_t``
    cover the counts from their smallest to their largest atom.  The
    answer is the |T| of the first such prefix whose range holds
    probability 1 - alpha.  Prefixes come in doubling blocks, each scored
    by one vectorised cdf call, so no monotone growth of the rounded
    coverage is assumed.  At an integer mean c, atoms a and c^2/a have
    exactly equal |T|, and the covering step takes both, also when c^2/a
    lies outside the table: the threshold is the larger of their rounded |T|.
    """
    if alpha >= 1.0:
        return 0.0
    if alpha <= 0.0 or math.exp(-mean) >= alpha:
        raise UnattainableLevelError(
            f"coverage {1 - alpha} is not attainable: the resampled count is 0 "
            f"with probability {math.exp(-mean):.6g}, which is never covered"
        )
    target = 1.0 - alpha
    first, last = _atom_range(mean)
    atoms, t_atom = _atoms_by_t(max(1, first), last, mean, two_h)
    lo, hi = np.minimum.accumulate(atoms), np.maximum.accumulate(atoms)
    start, block = 0, 16
    while start < len(atoms):
        stop = min(start + block, len(atoms))
        cdf = stats.poisson.cdf(np.concatenate([hi[start:stop], lo[start:stop] - 1]), mean)
        covered = np.flatnonzero(~(cdf[:stop - start] - cdf[stop - start:] < target))
        if len(covered):
            k = start + int(covered[0])
            t, a, c = float(t_atom[k]), int(atoms[k]), int(mean)
            if c == mean and c * c % a == 0:
                tie = c * c // a
                t = max(t, abs(tie - mean) / math.sqrt(two_h * tie))
            return t
        start, block = stop, 2 * block
    raise UnattainableLevelError(f"coverage {target} is not attained by any finite threshold")


def t_star_closed_form(p: int, h: float, alpha: float) -> float:
    """The bootstrap threshold t*_alpha at observed count p, without simulation.

    Conditional on the data, the resampled count p* at this grid point
    is Poisson(p); t* is the minimal t whose covered-count interval
    [a(t) - b(t), a(t) + b(t)], with a(t) = p + h t^2 and
    b(t) = t sqrt(2 h p + h^2 t^2), holds probability at least 1 - alpha.
    """
    _check_t_star_args(p, h, alpha)
    return _min_t_threshold(float(p), 2.0 * h, alpha)


def t_star_monte_carlo(p: int, h: float, alpha: float, n_draws: int, seed: RngSeed) -> float:
    """Empirical (1-alpha) quantile of |T*| over resampled counts.

    Each draw resamples the p points with i.i.d. Poisson(1) occurrence
    weights, so the resampled count p* is Poisson(p); draws with
    p* = 0 contribute |T*| = +infinity and are never covered.  Only how
    often each count is drawn matters, so the draws are taken as atom
    counts (see ``t_star_monte_carlo_band``).
    """
    return t_star_monte_carlo_band(p, h, alpha, n_draws, seed)[0]


def t_star_monte_carlo_band(
    p: int, h: float, alpha: float, n_draws: int, seed: RngSeed
) -> tuple[float, float, float]:
    """(quantile, lower, upper): distribution-free 3-sigma bracket for the MC threshold.

    The n_draws resampled counts are drawn as how often each atom occurs,
    by ``_draw_atom_counts``, which has the law of the ``bincount`` of
    n_draws Poisson(p) draws.  The bracket takes the order statistics at
    rank ceil((1-alpha) n) -+ 3 sqrt(n alpha (1-alpha)), the binomial
    uncertainty of the empirical CDF at the target level.  At alpha = 1
    every threshold covers, and all three are 0.
    """
    _check_t_star_args(p, h, alpha)
    if n_draws < 1000:
        raise ParameterError(f"need at least 1000 draws, got {n_draws}")
    if alpha >= 1.0:
        return 0.0, 0.0, 0.0
    first, counts = _draw_atom_counts(p, n_draws, seed.generator())
    # |T*| is a function of the atom, so the sorted draws are the atoms in
    # |T*| order, each repeated as often as it was drawn
    atoms, t_atom = _atoms_by_t(first, first + len(counts) - 1, p, 2.0 * h)
    cum = np.cumsum(counts[atoms - first])
    k = math.ceil((1.0 - alpha) * n_draws)
    margin = 3.0 * math.sqrt(n_draws * alpha * (1.0 - alpha))
    k_lo = max(1, math.floor(k - margin))
    k_hi = min(n_draws, math.ceil(k + margin))
    value, lo, hi = t_atom[np.searchsorted(cum, [k, k_lo, k_hi])].tolist()
    if not math.isfinite(value):
        raise UnattainableLevelError(
            f"coverage {1 - alpha} not attained by any finite threshold in {n_draws} draws"
        )
    return value, lo, hi


def _draw_atom_counts(p: int, n_draws: int, rng: np.random.Generator,
                      span: float = _ATOM_SPAN) -> tuple[int, np.ndarray]:
    """(first, counts): how often each atom first, first + 1, ... occurs in n_draws Poisson(p) draws.

    One multinomial draw over a tail cell, for the Poisson(p) mass outside
    lo..hi = p -+ (span sqrt(p) + span), and the atoms lo..hi.  The tail
    cell holds the tail mass itself, not the rounding deficit of the pmf
    sum (about 1e-13 at p = 150, against a tail below 1e-26), and it
    comes first because the multinomial's last cell takes that deficit.
    Otherwise the tail cell would be drawn far more often than the tail,
    and each of its draws would need some 1e26 rejection steps.  Tail
    draws are redrawn from Poisson(p) by rejection until they fall
    outside lo..hi, so the counts keep the exact law of the draws.
    """
    from scipy import special

    lo, hi = _atom_range(p, span)
    tail = float(special.pdtrc(hi, p)) + (float(special.pdtr(lo - 1, p)) if lo > 0 else 0.0)
    pmf = _poisson_pmf(np.arange(lo, hi + 1), p)
    pmf *= (1.0 - tail) / pmf.sum()
    cells = rng.multinomial(n_draws, np.concatenate([[tail], pmf]))
    counts = cells[1:]
    if cells[0] == 0:
        return lo, counts
    outside = np.empty(0, dtype=np.int64)
    while len(outside) < cells[0]:
        draws = rng.poisson(p, 1 << 16)
        outside = np.concatenate([outside, draws[(draws < lo) | (draws > hi)]])
    outside = outside[:cells[0]]
    first = min(lo, int(outside.min()))
    merged = np.bincount(outside - first, minlength=hi + 1 - first)
    merged[lo - first:hi + 1 - first] += counts
    return first, merged


def t_alpha_oracle(mean: float, h: float, alpha: float) -> float:
    """The ideal threshold t_alpha(x) when the true intensity is known.

    The scaled estimate 2h*lambda_hat(x) is Poisson with mean m, the
    integral of lambda over the cut window (``_window_ends``), and T(x)
    centers at the estimator's own mean m/(2h).  Same minimization as the
    bootstrap closed form, with Poisson(m) in place of Poisson(p).
    """
    _check_level(h, alpha)
    if not (math.isfinite(mean) and mean >= 0):
        raise ParameterError(f"expected count must be finite and >= 0, got {mean}")
    return _min_t_threshold(mean, 2.0 * h, alpha)


def _window_ends(interval: Interval1, grid: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the part of [x-h, x+h] inside the interval, which the count at x sees.

    Checks the bandwidth, that the window is an interval, and that every
    grid point lies inside it (a nan grid point does not).
    """
    _check_bandwidth(h)
    _require_window(interval, Interval1, "kernel intensity estimation")
    if not np.all((grid >= interval.lo) & (grid <= interval.hi)):
        raise ParameterError("grid points must lie inside the observation interval")
    return np.maximum(grid - h, interval.lo), np.minimum(grid + h, interval.hi)


def _window_means(intensity: IntensityFunction, ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """m(x) = the integral of lambda over each cut window (lo, hi) of ``_window_ends``."""
    return np.array([intensity.integral(lo, hi) for lo, hi in zip(*ends)])


def window_counts(pattern: PointPattern, h: float, grid: np.ndarray) -> np.ndarray:
    """The counts p(x) behind the estimate lambda_hat(x) = p(x) / (2h), on a grid."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    return _counts_in(np.sort(pattern.points), _window_ends(pattern.window, grid, h))


def _counts_in(points: np.ndarray, ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """#{points in [lo, hi]} for every cut window (lo, hi) (closed interval); ``points`` sorted."""
    return (np.searchsorted(points, ends[1], side="right")
            - np.searchsorted(points, ends[0], side="left")).astype(np.int64)


def _edge_flags(grid: np.ndarray, ends: tuple[np.ndarray, np.ndarray], h: float) -> list[str]:
    """Mark grid points whose cut window (``_window_ends``) is shorter than [x-h, x+h]."""
    return ["edge" if cut else "" for cut in (ends[0] > grid - h) | (ends[1] < grid + h)]


def _garwood_interval(p: int, alpha: float) -> tuple[float, float]:
    """Exact (conservative) interval for a Poisson mean from one count p.

    The ends are inverse regularized incomplete gamma values, bit for bit
    the chi-square inversion 0.5 chi2.ppf(alpha/2, 2p) and
    0.5 chi2.ppf(1 - alpha/2, 2p + 2).
    """
    from scipy import special

    lo = 0.0 if p == 0 else float(special.gammaincinv(p, alpha / 2.0))
    hi = float(special.gammaincinv(p + 1, 1.0 - alpha / 2.0))
    return lo, hi


class _BandBuilder:
    """Maps observed counts on a grid to band bounds.

    ``bounds`` runs the Garwood interval or threshold search once per
    distinct count in its array; a band makes one call, and a coverage
    experiment one per method.  The ``oracle_true_t`` threshold depends on the grid point's
    expected count (``means``) instead, and is computed once per point at
    construction; ``bounds`` centres the band on it wherever it is finite.

    The bootstrap threshold is undefined at a zero count and unattainable
    whenever exp(-p) >= alpha, and the oracle one whenever the expected
    count m has exp(-m) >= alpha; these cases substitute the exact interval
    and carry a per-point flag ("zero-count" or "level-unattainable").
    """

    def __init__(self, h: float, alpha: float, method: str, mc_draws: int = _MC_DRAWS,
                 seed: RngSeed | None = None, means: np.ndarray | None = None):
        if method not in BAND_METHODS:
            raise ParameterError(f"unknown band method {method!r}; use one of {BAND_METHODS}")
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"alpha must lie in (0, 1] for bands, got {alpha}")
        if method == "bootstrap_mc" and seed is None:
            raise ParameterError("bootstrap_mc bands need a seed")
        if method == "oracle_true_t" and means is None:
            raise ParameterError("oracle_true_t bands need the true intensity")
        self.h, self.alpha, self.method, self.mc_draws, self.seed = h, alpha, method, mc_draws, seed
        self._grid_t = (np.array([self._oracle_threshold(float(m)) for m in means])
                        if method == "oracle_true_t" else None)

    def _oracle_threshold(self, mean: float) -> float:
        try:
            return t_alpha_oracle(mean, self.h, self.alpha)
        except UnattainableLevelError:
            return math.nan

    def _threshold(self, p: int) -> float:
        if self.method == "bootstrap_closed_form":
            return t_star_closed_form(p, self.h, self.alpha)
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
        if self.method == "exact_poisson":
            return (*self._exact(p), math.nan, "")
        if self.method == "oracle_true_t":
            return (*self._exact(p), math.nan, "level-unattainable")
        if p == 0:
            return (*self._exact(p), math.nan, "zero-count")
        try:
            t = self._threshold(p)
        except UnattainableLevelError:
            return (*self._exact(p), math.nan, "level-unattainable")
        lo, hi = _centered_band(p / (2.0 * self.h), t)
        return float(lo), float(hi), t, ""

    def bounds(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, t, flag) arrays for integer counts whose last axis runs over the grid."""
        counts = np.asarray(counts)
        distinct, inverse = np.unique(counts, return_inverse=True)
        lo, hi, t = (np.empty(len(distinct)) for _ in range(3))
        flag = np.empty(len(distinct), dtype=object)
        for k, p in enumerate(distinct):
            lo[k], hi[k], t[k], flag[k] = self.bounds_for_count(int(p))
        inverse = inverse.reshape(counts.shape)
        lo, hi, t, flag = lo[inverse], hi[inverse], t[inverse], flag[inverse]
        if self._grid_t is not None:
            t = np.broadcast_to(self._grid_t, counts.shape)  # nan in every fallback cell
            finite = ~np.isnan(t)
            lo[finite], hi[finite] = _centered_band(counts[finite] / (2.0 * self.h), t[finite])
            flag[finite] = ""
        return lo, hi, t, flag


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
    mc_draws: int = _MC_DRAWS,
    seed: RngSeed | None = None,
) -> ConfidenceBand:
    """Pointwise band for lambda(x) on a grid, by the chosen method.

    Bootstrap methods at grid points with zero observed count fall back
    to the exact interval and are flagged ``zero-count``; points whose
    kernel window [x-h, x+h] reaches past an interval end are flagged
    ``edge`` (the window is cut there).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    ends = _window_ends(pattern.window, grid, h)
    counts = _counts_in(np.sort(pattern.points), ends)
    means = None if intensity is None else _window_means(intensity, ends)
    builder = _BandBuilder(h, alpha, method, mc_draws=mc_draws, seed=seed, means=means)
    lo, hi, ts, fallback = builder.bounds(counts)
    edge = _edge_flags(grid, ends, h)
    flags = tuple(";".join(part for part in parts if part) for parts in zip(edge, fallback))
    return ConfidenceBand(grid=grid, lambda_hat=counts / (2.0 * h), lo=lo, hi=hi,
                          t_values=ts, flags=flags)


@dataclass(frozen=True)
class CoverageResult:
    """Empirical pointwise coverage for both reference targets.

    ``coverage_true`` counts hits of the true lambda(x);
    ``coverage_smoothed`` counts hits of the estimator's own target
    E lambda_hat(x) = (integral of lambda over [x-h, x+h] cut to the
    interval) / (2h); the count sees no points outside the interval.
    """

    grid: np.ndarray
    coverage_true: np.ndarray
    coverage_smoothed: np.ndarray
    reps: int
    flags: tuple[str, ...]

    def columns(self) -> dict[str, np.ndarray]:
        """The coverage table by column: grid, then each coverage and its standard error."""
        def se(c: np.ndarray) -> np.ndarray:
            return np.sqrt(c * (1.0 - c) / self.reps)

        return {"x": self.grid,
                "coverage_true_lambda": self.coverage_true,
                "coverage_true_lambda_se": se(self.coverage_true),
                "coverage_e_lambda_hat": self.coverage_smoothed,
                "coverage_e_lambda_hat_se": se(self.coverage_smoothed)}


def coverage_experiment(intensity: IntensityFunction, interval: Interval1, h: float, alpha: float,
                        methods: Sequence[str], reps: int, grid: np.ndarray, seed: RngSeed,
                        mc_draws: int = _MC_DRAWS) -> dict[str, CoverageResult]:
    """Simulate fresh patterns once and record how often each method's band captures each target.

    Every method is scored on the same replicates; no result depends on the others or on a block
    size.  The hits at grid point g sum, over the counts p seen, the replicates with count p at g
    (``_count_histogram``) times 1[lo(p) <= target <= hi(p)], from one ``bounds`` call per method.
    """
    if isinstance(methods, str) or not methods:
        raise ParameterError(f"methods must be a nonempty sequence of band methods, got {methods!r}")
    if reps < 100:
        raise ParameterError(f"need at least 100 replications, got {reps}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    ends = _window_ends(interval, grid, h)
    means = _window_means(intensity, ends)
    builders = [_BandBuilder(h, alpha, m, mc_draws=mc_draws, seed=seed, means=means) for m in methods]
    targets = np.stack([intensity(grid), means / (2.0 * h)])[:, None]  # lambda and E lambda_hat
    seen, hist = _count_histogram(intensity, interval, reps, seed, ends)
    counts, flags = np.broadcast_to(seen[:, None], hist.shape), tuple(_edge_flags(grid, ends, h))
    results = {}
    for builder in builders:
        lo, hi, _, _ = builder.bounds(counts)
        true, smoothed = (hist * ((lo <= targets) & (targets <= hi))).sum(axis=1) / reps
        results[builder.method] = CoverageResult(grid, true, smoothed, reps, flags)
    return results


def _count_histogram(intensity: IntensityFunction, interval: Interval1, reps: int, seed: RngSeed,
                     ends: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(seen, hist): the counts seen, ascending, and hist[k, g], the replicates with count seen[k] at g.

    The replicates are thinned blocks from ``geometry._replicate_blocks``, sized by their
    proposals; each block is counted into hist[p, g], which has a row per count up to the
    largest seen.
    """
    n_grid = len(ends[0])
    hist = np.zeros((0, n_grid), dtype=np.int64)
    draw = partial(_simulate_inhomogeneous_block, intensity, interval)
    for _, points, sizes in _replicate_blocks(draw, intensity.lambda_max * interval.length,
                                              interval, reps, seed, grouped=True):
        counts = np.array([_counts_in(p, ends) for p in np.split(points, np.cumsum(sizes)[:-1])])
        if counts.max(initial=-1) >= len(hist):
            hist = np.pad(hist, ((0, counts.max() + 1 - len(hist)), (0, 0)))
        np.add.at(hist, (counts, np.arange(n_grid)), 1)
    seen = np.flatnonzero(hist.any(axis=1))
    return seen, hist[seen]
