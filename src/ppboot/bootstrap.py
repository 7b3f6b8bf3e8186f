"""Pointwise bootstrap of a pattern and its closed-form variance limit.

A resample is encoded by occurrence counts w = (w(1), ..., w(n)): the
``multinomial`` scheme draws w ~ Multinomial(n; 1/n, ..., 1/n) (classic
with-replacement resampling of all n points), the ``poissonized`` scheme
draws w(i) i.i.d. Poisson(1), equivalent to resampling a Poisson(n)
number of points.

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

# Bound on rows x pairs of one quadratic-form sub-block (8 MB per temporary)
_QUADFORM_ENTRIES = 1 << 20


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown resampling scheme {scheme!r}; use one of {SCHEMES}")


@dataclass(frozen=True)
class AlphaCoefficients:
    """The three weight-moment differences scaling R, T3 and Q4.

    ``n`` is None for the n -> infinity (equivalently poissonized)
    case, where (alpha2, alpha3, alpha4) = (3, 1, 0) exactly.
    """

    alpha2: float
    alpha3: float
    alpha4: float
    n: int | None
    scheme: str


def _draw_weights(n: int, scheme: str, seed: RngSeed, first: int, count: int) -> np.ndarray:
    """Weights of resamples first .. first+count-1 as a (count, n) block.

    Resample k always uses substream k of the seed, so a block's rows do
    not depend on how the resamples are split into blocks.  The caller
    checks ``scheme``; anything but multinomial draws Poisson(1) weights.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 to resample, got {n}")
    w = np.empty((count, n))
    prob = np.full(n, 1.0 / n)
    for j in range(count):
        rng = seed.substream(first + j).generator()
        w[j] = rng.multinomial(n, prob) if scheme == "multinomial" else rng.poisson(1.0, n)
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
    resample k always uses substream k of the seed, so the result is
    identical for any thread count.
    """
    if n_resamples < 2:
        raise ParameterError(f"need at least 2 resamples, got {n_resamples}")
    stats = bootstrap_statistics(pattern, f, n_resamples, scheme, seed, threads=threads)
    return float(np.var(stats, ddof=1))


def bootstrap_statistics(
    pattern: PointPattern,
    f: PairFunction,
    n_resamples: int,
    scheme: str,
    seed: RngSeed,
    threads: int = 1,
    chunk: int = 4096,
) -> np.ndarray:
    """All N bootstrap statistics, in resample order (deterministic given seed)."""
    _check_scheme(scheme)
    if n_resamples < 1:
        raise ParameterError(f"need at least 1 resample, got {n_resamples}")
    if pattern.n == 0:
        return np.zeros(n_resamples)
    i, j, v = f.pairs(pattern.points)
    sizes = chunk_sizes(n_resamples, chunk)
    rows = max(1, _QUADFORM_ENTRIES // max(len(v), 1))

    def run_chunk(c: int) -> np.ndarray:
        w = _draw_weights(pattern.n, scheme, seed, c * chunk, sizes[c])
        # w^T F w = 2 sum over pairs i < j of w(i) w(j) f(x_i, x_j)
        return np.concatenate([2.0 * ((ws[:, i] * ws[:, j]) @ v)
                               for ws in np.split(w, range(rows, len(w), rows))])

    blocks = parallel_map(run_chunk, len(sizes), threads=threads)
    return np.concatenate(blocks) if blocks else np.zeros(0)


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
        return AlphaCoefficients(3.0, 1.0, 0.0, None if n is None else int(n), scheme)
    a2, a3, a4 = alpha_polynomials_exact(int(n))
    return AlphaCoefficients(float(a2), float(a3), float(a4), int(n), scheme)


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
    alphas = alpha_coefficients(n, scheme)
    return alphas.alpha4 * sums.Q4 + 4.0 * alphas.alpha3 * sums.T3 + 2.0 * alphas.alpha2 * sums.R
