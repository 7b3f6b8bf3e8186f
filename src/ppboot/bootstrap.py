"""Pointwise bootstrap of a pattern and its closed-form variance limit.

A resample is encoded by occurrence counts w = (w(1), ..., w(n)): the
``multinomial`` scheme draws w ~ Multinomial(n; 1/n, ..., 1/n) (classic
with-replacement resampling of all n points), the ``poissonized`` scheme
draws w(i) i.i.d. Poisson(1), equivalent to resampling a Poisson(n)
number of points.  Both are drawn alike: a resample draws its size (n,
or Poisson(n)) of point indices uniformly with replacement, and w counts
them.

As the number of resamples N grows, the usual variance estimator over
the bootstrap statistics converges, conditionally on the pattern, to

    alpha4 * Q4 + 4 * alpha3 * T3 + 2 * alpha2 * R,

where Q4, T3, R are the distinct-index sums of the pattern and the
alpha coefficients are moment differences of the weights that depend
only on n and the scheme.  ``bootstrap_variance_limit`` evaluates this
directly, with no simulation; ``bootstrap_statistics`` simulates the
resamples it replaces.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .geometry import PointPattern
from .rng import RngSeed, chunk_sizes, parallel_map
from .twopoint import PairFunction, TwoPointSums, distinct_index_sums

SCHEMES = ("multinomial", "poissonized")

# Resamples per parallel task, and per generator, at most _CHUNK_ENTRIES // n
# of them so that a task's (resamples, n) weight block stays within 32 MB
_CHUNK = 4096
_CHUNK_ENTRIES = 1 << 22
# Bound on rows x points of one weight-draw sub-block
_DRAW_ENTRIES = 1 << 16
# Bound on rows x pairs of one quadratic-form sub-block (8 MB per temporary)
_QUADFORM_ENTRIES = 1 << 20


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown resampling scheme {scheme!r}; use one of {SCHEMES}")


@dataclass(frozen=True)
class AlphaCoefficients:
    """The three weight-moment differences scaling R, T3 and Q4."""

    alpha2: float
    alpha3: float
    alpha4: float

    def variance(self, q4: float, t3: float, r: float) -> float:
        """alpha4*q4 + 4*alpha3*t3 + 2*alpha2*r: the limit at sums (Q4, T3, R); its mean at (s4, s3, s2)."""
        return self.alpha4 * q4 + 4.0 * self.alpha3 * t3 + 2.0 * self.alpha2 * r


def _draw_weights(n: int, scheme: str, seed: RngSeed, chunk: int, count: int) -> np.ndarray:
    """Weights of the ``count`` resamples of chunk ``chunk`` as a (count, n) block.

    The whole chunk draws from one generator, substream ``chunk`` of the
    seed, in sub-blocks whose layout depends only on (n, count).  Each
    resample draws its size, then that many point indices uniformly with
    replacement; its weights are the index counts.  The caller checks
    ``scheme``; anything but multinomial draws a Poisson(n) size.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 to resample, got {n}")
    rng = seed.substream(chunk).generator()
    w = np.empty((count, n))
    step = max(1, _DRAW_ENTRIES // n)
    for lo in range(0, count, step):
        rows = min(step, count - lo)
        sizes = np.full(rows, n) if scheme == "multinomial" else rng.poisson(n, rows)
        cells = rng.integers(0, n, int(sizes.sum()))
        cells += np.repeat(np.arange(rows) * n, sizes)
        w[lo:lo + rows] = np.bincount(cells, minlength=rows * n).reshape(rows, n)
    return w


def bootstrap_variance(
    pattern: PointPattern,
    f: PairFunction,
    n_resamples: int,
    scheme: str,
    seed: RngSeed,
    threads: int = 1,
) -> float:
    """Sample variance of the bootstrap statistic over N independent resamples.

    The usual ddof=1 estimator over ``bootstrap_statistics``, whose
    chunk c of resamples always uses substream c of the seed, so the
    result is identical for any thread count.
    """
    stats = bootstrap_statistics(pattern, f, n_resamples, scheme, seed, threads=threads)
    return variance_with_error(stats)[0]


def variance_with_error(x: np.ndarray) -> tuple[float, float]:
    """Sample variance (ddof=1) of x and its 3-sigma error from the fourth central moment."""
    if len(x) < 2:
        raise ParameterError(f"a sample variance needs at least 2 values, got {len(x)}")
    var = float(np.var(x, ddof=1))
    dev = x - x.mean()
    m4 = float(np.mean(dev**4))
    return var, 3.0 * float(np.sqrt(max(m4 - var**2, 0.0) / len(x)))


def bootstrap_statistics(
    pattern: PointPattern,
    f: PairFunction,
    n_resamples: int,
    scheme: str,
    seed: RngSeed,
    threads: int = 1,
) -> np.ndarray:
    """All N bootstrap statistics, in resample order (deterministic given seed)."""
    _check_scheme(scheme)
    if n_resamples < 1:
        raise ParameterError(f"need at least 1 resample, got {n_resamples}")
    if pattern.n == 0:
        return np.zeros(n_resamples)
    i, j, v = f.pairs(pattern.points)
    sizes = chunk_sizes(n_resamples, max(1, min(_CHUNK, _CHUNK_ENTRIES // pattern.n)))
    rows = max(1, _QUADFORM_ENTRIES // max(len(v), 1))

    def run_chunk(c: int) -> np.ndarray:
        w = _draw_weights(pattern.n, scheme, seed, c, sizes[c])
        # w^T F w = 2 sum over pairs i < j of w(i) w(j) f(x_i, x_j)
        return np.concatenate([2.0 * ((ws[:, i] * ws[:, j]) @ v)
                               for ws in np.split(w, range(rows, len(w), rows))])

    return np.concatenate(parallel_map(run_chunk, len(sizes), threads=threads))


def alpha_polynomials_exact(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form (alpha2, alpha3, alpha4) for the multinomial scheme at finite n."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    n3 = Fraction(n**3)
    alpha2 = Fraction(3 * n**3 - 11 * n**2 + 14 * n - 6) / n3
    alpha3 = Fraction(n**3 - 7 * n**2 + 12 * n - 6) / n3
    alpha4 = Fraction(-4 * n**2 + 10 * n - 6) / n3
    return alpha2, alpha3, alpha4


def alpha_coefficients(n: int | None, scheme: str) -> AlphaCoefficients:
    """Alpha coefficients for a pattern of n points under the given scheme.

    The poissonized scheme (or n=None, the n -> infinity limit) gives
    exactly (3, 1, 0).
    """
    _check_scheme(scheme)
    if scheme == "poissonized" or n is None:
        return AlphaCoefficients(3.0, 1.0, 0.0)
    a2, a3, a4 = alpha_polynomials_exact(int(n))
    return AlphaCoefficients(float(a2), float(a3), float(a4))


def bootstrap_variance_limit(pattern: PointPattern, f: PairFunction, scheme: str) -> float:
    """The N -> infinity limit of the bootstrap variance estimator, simulation-free.

    Combines the pattern's distinct-index sums with the scheme's alpha
    coefficients: alpha4*Q4 + 4*alpha3*T3 + 2*alpha2*R.
    """
    _check_scheme(scheme)
    return _limit_from_sums(distinct_index_sums(pattern, f), pattern.n, scheme)


def _limit_from_sums(sums: TwoPointSums, n: int, scheme: str) -> float:
    """alpha4*Q4 + 4*alpha3*T3 + 2*alpha2*R for a pattern of n points; 0 when n < 2."""
    if n < 2:
        return 0.0
    return alpha_coefficients(n, scheme).variance(sums.Q4, sums.T3, sums.R)
