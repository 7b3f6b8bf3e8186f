"""Pointwise bootstrap of a pattern and its closed-form variance limit.

A resample is encoded by occurrence counts w = (w(1), ..., w(n)): the
``multinomial`` scheme draws w ~ Multinomial(n; 1/n, ..., 1/n) (classic
with-replacement resampling of all n points), the ``poissonized`` scheme
draws w(i) i.i.d. Poisson(1), equivalent to resampling a Poisson(n)
number of points.  The statistic reads only the weights of the k points
in some nonzero pair, so a resample draws how many of its indices land on
them (Binomial(n, k/n), or Poisson(k)), then that many indices uniformly
over the k points with replacement, and w counts them: the exact law of
w on those points, at O(k) cost per resample.

As the number of resamples N grows, the usual variance estimator over
the bootstrap statistics converges, conditionally on the pattern, to

    alpha4 * Q4 + 4 * alpha3 * T3 + 2 * alpha2 * R,

where Q4, T3, R are the distinct-index sums of the pattern and the
alpha coefficients are moment differences of the weights that depend
only on n and the scheme.  ``bootstrap_variance_limit`` evaluates this
directly, with no simulation; ``bootstrap_statistics`` simulates the
resamples it replaces, in chunks of 4096 with one generator each; a chunk
draws every size first, then holds one row block of weights at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .geometry import PointPattern
from .rng import RngSeed, chunk_sizes, parallel_map
from .twopoint import _PAIR_ENTRIES, PairFunction, TwoPointSums, distinct_index_sums

SCHEMES = ("multinomial", "poissonized")

# Resamples per parallel task, and per generator
_CHUNK = 4096
# Most rows x points of one row block's weights; ``_PAIR_ENTRIES`` bounds its rows x pairs
_DRAW_ENTRIES = 1 << 16


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown resampling scheme {scheme!r}; use one of {SCHEMES}")
    return scheme


@dataclass(frozen=True)
class AlphaCoefficients:
    """The three weight-moment differences scaling R, T3 and Q4."""

    alpha2: float
    alpha3: float
    alpha4: float

    def variance(self, q4: float, t3: float, r: float) -> float:
        """alpha4*q4 + 4*alpha3*t3 + 2*alpha2*r: the limit at sums (Q4, T3, R); its mean at (s4, s3, s2)."""
        return self.alpha4 * q4 + 4.0 * self.alpha3 * t3 + 2.0 * self.alpha2 * r


def _draw_weights(n: int, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Weights of resamples of the given sizes, as one (len(sizes), n) block.

    Resample k draws ``sizes[k]`` point indices from ``rng``, uniformly with
    replacement; its weights are the index counts.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 to resample, got {n}")
    cells = rng.integers(0, n, int(sizes.sum()))
    cells += np.repeat(np.arange(len(sizes)) * n, sizes)
    return np.bincount(cells, minlength=len(sizes) * n).reshape(len(sizes), n).astype(float)


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
    chunk c, resamples 4096c to 4096c + 4095, always draws from substream
    c of the seed, so the result is identical for any thread count.
    """
    stats = bootstrap_statistics(pattern, f, n_resamples, scheme, seed, threads=threads)
    return variance_with_error(stats)[0]


def variance_with_error(x: np.ndarray) -> tuple[float, float]:
    """Sample variance (ddof=1) of x and its 3-sigma error.

    Var(s^2) is about (m4 - (N-3)/(N-1) m2^2) / N, with central moments m2 and m4 (ddof=0),
    which is positive for any sample that is not constant, since m4 >= m2^2.
    """
    n = len(x)
    if n < 2:
        raise ParameterError(f"a sample variance needs at least 2 values, got {n}")
    dev = x - x.mean()
    m2, m4 = float(np.mean(dev**2)), float(np.mean(dev**4))
    return float(np.var(x, ddof=1)), 3.0 * float(np.sqrt((m4 - (n - 3) / (n - 1) * m2 * m2) / n))


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
    n = pattern.n
    i, j, v = f.pairs(pattern.points)
    # the k points in some nonzero pair, and each pair end's position among them
    active = np.bincount(np.concatenate((i, j)), minlength=n) > 0
    k = int(np.count_nonzero(active))
    if k == 0:
        return np.zeros(n_resamples)
    pos = np.cumsum(active) - 1
    i, j = pos[i], pos[j]
    chunks = chunk_sizes(n_resamples, _CHUNK)
    rows = max(1, min(_DRAW_ENTRIES // k, _PAIR_ENTRIES // len(v)))

    def run_chunk(c: int) -> np.ndarray:
        rng = seed.substream(c).generator()
        # how many indices land on the k points; binomial(n, 1.0) would still read the stream
        if scheme == "poissonized":
            sizes = rng.poisson(k, chunks[c])
        else:
            sizes = rng.binomial(n, k / n, chunks[c]) if k < n else np.full(chunks[c], n)
        out = np.empty(chunks[c])
        for lo in range(0, chunks[c], rows):
            w = _draw_weights(k, sizes[lo:lo + rows], rng)
            # w^T F w = 2 sum over pairs i < j of w(i) w(j) f(x_i, x_j)
            out[lo:lo + len(w)] = 2.0 * ((w[:, i] * w[:, j]) @ v)
        return out

    return np.concatenate(parallel_map(run_chunk, len(chunks), threads=threads))


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
    return float(_limit_from_sums(distinct_index_sums(pattern, f), pattern.n, scheme)[0])


def _limit_from_sums(sums: TwoPointSums, n: int | np.ndarray, scheme: str) -> np.ndarray:
    """alpha4*Q4 + 4*alpha3*T3 + 2*alpha2*R per pattern of n points; 0 where n < 2.

    ``sums`` and ``n`` hold one pattern's values or arrays over patterns;
    the result is an array either way.  The alphas are computed once per
    distinct n.
    """
    n = np.atleast_1d(n)
    q4, t3, r = (np.atleast_1d(x) for x in (sums.Q4, sums.T3, sums.R))
    limits = np.zeros(len(n))
    big = n >= 2
    ns, inverse = np.unique(n[big], return_inverse=True)
    alphas = [alpha_coefficients(int(k), scheme) for k in ns]
    table = np.array([(a.alpha2, a.alpha3, a.alpha4) for a in alphas]).reshape(-1, 3)
    alpha = AlphaCoefficients(*table[inverse].T)
    limits[big] = alpha.variance(q4[big], t3[big], r[big])
    return limits
