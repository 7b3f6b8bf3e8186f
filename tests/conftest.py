"""Shared fixtures and independent oracle helpers for the test suite."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ppboot import bootstrap
from ppboot.errors import ParameterError, UnattainableLevelError
from ppboot.geometry import PointPattern, Window2, unit_square
from ppboot.intensity import _check_level, _check_t_star_args
from ppboot.rng import RngSeed
from ppboot.twopoint import PairFunction

# Tolerance absorbing float roundoff when a +/- b sits exactly on an
# integer atom; atoms are >= 1 apart so this cannot over-include.
_BOUNDARY_EPS = 1e-9


class UndefinedMomentError(ParameterError):
    """A moment references more distinct categories than there are draws."""


@pytest.fixture
def square() -> Window2:
    return unit_square()


def random_pattern(n: int, rng: np.random.Generator, window: Window2 | None = None) -> PointPattern:
    """n i.i.d. uniform points in the window."""
    window = window or unit_square()
    xs = rng.uniform(window.x_min, window.x_max, n)
    ys = rng.uniform(window.y_min, window.y_max, n)
    return PointPattern(np.column_stack([xs, ys]), window)


def random_smooth_pair_function(rng: np.random.Generator,
                                window: Window2 | None = None) -> PairFunction:
    """A randomized symmetric pair function: offset + radial bump + separable wave."""
    window = window or unit_square()
    a0 = rng.uniform(-0.5, 0.5)
    a1 = rng.uniform(-2.0, 2.0)
    s2 = rng.uniform(0.02, 0.3)
    a2 = rng.uniform(-1.5, 1.5)
    w = rng.uniform(1.0, 9.0, 2)
    phase = rng.uniform(0.0, 2 * np.pi)

    def g(p):
        return np.cos(p[..., 0] * w[0] + p[..., 1] * w[1] + phase)

    def h(x, y):
        d2 = np.sum((x - y) ** 2, axis=-1)
        return a0 + a1 * np.exp(-d2 / s2) + a2 * g(x) * g(y)

    return PairFunction(h, window, label="random-smooth")


def pair_values(pattern: PointPattern, f: PairFunction) -> np.ndarray:
    """Pair matrix built point by point through the scalar call path.

    Deliberately avoids PairFunction.pair_matrix so oracle sums do not
    share the fast path's broadcasting code.
    """
    n = pattern.n
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                mat[i, j] = float(f(pattern.points[i], pattern.points[j]))
    return mat


def brute_force_sums(mat: np.ndarray) -> tuple[float, float, float, float]:
    """(P, T3, Q4, R) by explicit enumeration of distinct index tuples."""
    n = len(mat)
    p = math.fsum(mat[i, j] for i, j in itertools.permutations(range(n), 2))
    r = math.fsum(mat[i, j] ** 2 for i, j in itertools.permutations(range(n), 2))
    t3 = math.fsum(mat[i, j] * mat[i, k] for i, j, k in itertools.permutations(range(n), 3))
    q4 = math.fsum(mat[i, j] * mat[k, l] for i, j, k, l in itertools.permutations(range(n), 4))
    return p, t3, q4, r


def tensor_gauss_legendre_moments(lam: float, window: Window2, f: PairFunction,
                                  nodes: int) -> dict[str, float]:
    """E theta, s2, s3 and s4 of a Poisson truth by tensor Gauss-Legendre quadrature.

    ``nodes`` is the rule's size per coordinate axis.  The rule converges
    fast only for a smooth f; it is no reference for a kernel with a jump
    or a kink, so it returns values and no error estimate.
    """
    t, wt = np.polynomial.legendre.leggauss(nodes)
    xs = 0.5 * (window.x_min + window.x_max) + 0.5 * (window.x_max - window.x_min) * t
    ys = 0.5 * (window.y_min + window.y_max) + 0.5 * (window.y_max - window.y_min) * t
    pts = np.column_stack([np.repeat(xs, nodes), np.tile(ys, nodes)])
    w = np.outer(0.5 * (window.x_max - window.x_min) * wt,
                 0.5 * (window.y_max - window.y_min) * wt).ravel()
    inner, inner_sq = np.empty(len(w)), np.empty(len(w))
    for rows in np.array_split(np.arange(len(w)), max(1, len(w) // 256)):
        block = np.asarray(f(pts[rows, None, :], pts[None, :, :]), dtype=float)
        inner[rows] = block @ w  # integral over the second argument at each node
        inner_sq[rows] = (block * block) @ w
    e_theta = lam**2 * float(w @ inner)
    return {"e_theta": e_theta, "s2": lam**2 * float(w @ inner_sq),
            "s3": lam**3 * float(w @ (inner * inner)), "s4": e_theta * e_theta}


def seeded(seed: int, *stream: int) -> RngSeed:
    return RngSeed(seed).substream(*stream) if stream else RngSeed(seed)


def one_at_a_time(simulate_block, *args, seed: RngSeed, reps: int) -> list[np.ndarray]:
    """Each replicate's points, drawn as one-replicate blocks in turn.

    The counts, x and y streams are substreams 0, 1 and 2 of ``seed``.
    """
    rngs = stream_generators(seed)
    return [simulate_block(*args, rngs, 1)[0] for _ in range(reps)]


def stream_generators(seed: RngSeed) -> list[np.random.Generator]:
    """A block simulator's counts, x and y generators: substreams 0, 1 and 2 of ``seed``."""
    return [seed.substream(k).generator() for k in range(3)]


def drawn_weights(n: int, scheme: str, seed: RngSeed, count: int, chunk: int = 0,
                  active: np.ndarray | None = None) -> np.ndarray:
    """The weights of chunk ``chunk``, of ``count`` resamples, as one (count, n) array.

    Only the ``active`` points (a boolean mask, all n by default) are
    drawn; the rest weigh 0, and with none active nothing is drawn.  With
    k of them, substream ``chunk`` of the seed draws how many of each
    resample's indices land on them (Binomial(n, k/n), n when k == n, or
    Poisson(k)), then all those indices uniformly over the k points in
    one call.
    """
    active = np.ones(n, dtype=bool) if active is None else active
    k = int(np.count_nonzero(active))
    w = np.zeros((count, n))
    if k == 0:
        return w
    rng = seed.substream(chunk).generator()
    if scheme == "poissonized":
        sizes = rng.poisson(k, count)
    else:
        sizes = rng.binomial(n, k / n, count) if k < n else np.full(count, n)
    w[:, active] = bootstrap._draw_weights(k, sizes, rng)
    return w


def all_point_weights(n: int, scheme: str, seed: RngSeed, count: int, chunk: int = 0) -> np.ndarray:
    """Chunk ``chunk``'s weights drawn over all n points, whatever the pairs.

    Substream ``chunk`` of the seed draws every resample's size (n, or
    Poisson(n)), then all their point indices in one call.  When every
    point is in a nonzero pair, ``bootstrap_statistics`` must draw exactly
    these weights.
    """
    rng = seed.substream(chunk).generator()
    sizes = np.full(count, n) if scheme == "multinomial" else rng.poisson(n, count)
    return bootstrap._draw_weights(n, sizes, rng)


def multinomial_moment_oracle(n: int, exponents: tuple[int, ...]) -> Fraction:
    """Exact E[w(1)^a1 * ... * w(m)^am] for w ~ Multinomial(n; 1/n each).

    Counts outcomes by the joint distribution of the first m coordinates
    (symmetry-reduced enumeration of the n^n equiprobable assignments).
    Intended as a small-n test oracle; cost grows like n^m.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    exps = tuple(int(a) for a in exponents)
    if not exps or any(a < 1 for a in exps):
        raise ParameterError(f"exponents must be positive integers, got {exponents}")
    m = len(exps)
    if m > n:
        raise UndefinedMomentError(f"moment uses {m} distinct categories but only n={n} draws")
    n_fact = math.factorial(n)
    total = 0
    # c_i = 0 contributes nothing since every exponent is >= 1
    for counts in itertools.product(range(1, n + 1), repeat=m):
        s = sum(counts)
        if s > n:
            continue
        ways = n_fact
        for c in counts:
            ways //= math.factorial(c)
        ways //= math.factorial(n - s)
        ways *= (n - m) ** (n - s)
        value = 1
        for c, a in zip(counts, exps):
            value *= c**a
        total += value * ways
    return Fraction(total, n**n)


def alpha_fractions_from_moments(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha2, alpha3, alpha4) for the multinomial scheme, from the moment oracle only."""
    e_ww = multinomial_moment_oracle(n, (1, 1))
    alpha2 = multinomial_moment_oracle(n, (2, 2)) - e_ww**2
    alpha3 = multinomial_moment_oracle(n, (2, 1, 1)) - e_ww**2
    alpha4 = multinomial_moment_oracle(n, (1, 1, 1, 1)) - e_ww**2
    return alpha2, alpha3, alpha4


def coverage_probability(p: float, h: float, t: float) -> float:
    """Exact probability that the covered-count interval captures the resampled count.

    The event {|T*| <= t} equals {ceil(a-b) <= p* <= floor(a+b)} for
    p* ~ Poisson(p), with a = p + h t^2 and b = t sqrt(2 h p + h^2 t^2).
    Evaluated directly from the Poisson CDF; this is the
    verification-side formula, independent of the expansion used to
    construct t*.
    """
    if t < 0:
        return 0.0
    a = p + h * t * t
    b = t * math.sqrt(2.0 * h * p + (h * t) ** 2)
    hi = math.floor(a + b + _BOUNDARY_EPS)
    lo = math.ceil(a - b - _BOUNDARY_EPS)
    if hi < lo or hi < 0:
        return 0.0
    upper = stats.poisson.cdf(hi, p)
    lower = stats.poisson.cdf(lo - 1, p) if lo >= 1 else 0.0
    return float(upper - lower)


def reference_min_t_threshold(mean: float, center: float, two_h: float, alpha: float,
                              exact: bool) -> float:
    """Atom-by-atom scan for the minimal covering t, one scalar Poisson cdf per atom.

    The plain form of ``intensity._min_t_threshold``: it expands the
    covered range outward from the most central atom in order of |T|,
    takes exact ties as one step, and re-evaluates the coverage after
    every step.  With ``exact`` the order is kept in exact rationals, so
    atoms a and c^2/a at an integer center c tie.  The sorted atom table,
    scored in blocks and taking the larger rounded |T| of such a pair,
    must return exactly this.
    """
    if alpha >= 1.0:
        return 0.0
    if alpha <= 0.0 or math.exp(-mean) >= alpha:
        raise UnattainableLevelError(
            f"coverage {1 - alpha} is not attainable: the resampled count is 0 "
            f"with probability {math.exp(-mean):.6g}, which is never covered"
        )
    target = 1.0 - alpha

    def key(m: int) -> Fraction | float:
        if exact:
            c = int(center)
            return Fraction((m - c) * (m - c), m)
        d = m - center
        return d * d / m

    def t_at(m: int) -> float:
        return abs(m - center) / math.sqrt(two_h * m)

    def cdf(m: int) -> float:
        return float(stats.poisson.cdf(m, mean)) if m >= 0 else 0.0

    start = max(1, int(math.floor(center)))
    if key(start + 1) < key(start):
        start += 1
    lo = hi = start
    threshold = t_at(start)
    coverage = cdf(hi) - cdf(lo - 1)
    while coverage < target:
        left = key(lo - 1) if lo > 1 else None
        right = key(hi + 1)
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


def reference_t_star_closed_form(p: int, h: float, alpha: float) -> float:
    """``t_star_closed_form`` by the atom-by-atom scan."""
    _check_t_star_args(p, h, alpha)
    return reference_min_t_threshold(float(p), float(p), 2.0 * h, alpha, exact=True)


def reference_t_alpha_oracle(mean: float, h: float, alpha: float) -> float:
    """``t_alpha_oracle`` at expected count ``mean`` by the atom-by-atom scan."""
    _check_level(h, alpha)
    return reference_min_t_threshold(mean, mean, 2.0 * h, alpha, exact=False)


def reference_t_star_monte_carlo_band(p: int, h: float, alpha: float,
                                      p_star: np.ndarray) -> tuple[float, float, float]:
    """``t_star_monte_carlo_band`` on the resampled counts p_star, by sorting |T*| over every draw."""
    _check_t_star_args(p, h, alpha)
    if alpha >= 1.0:
        return 0.0, 0.0, 0.0
    n_draws = len(p_star)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_abs = np.abs(p_star - p) / np.sqrt(2.0 * h * p_star)
    t_abs[p_star == 0] = np.inf
    t_abs.sort()
    k = math.ceil((1.0 - alpha) * n_draws)
    margin = 3.0 * math.sqrt(n_draws * alpha * (1.0 - alpha))
    k_lo = max(1, math.floor(k - margin))
    k_hi = min(n_draws, math.ceil(k + margin))
    value = float(t_abs[k - 1])
    if not math.isfinite(value):
        raise UnattainableLevelError(
            f"coverage {1 - alpha} not attained by any finite threshold in {n_draws} draws"
        )
    return value, float(t_abs[k_lo - 1]), float(t_abs[k_hi - 1])
