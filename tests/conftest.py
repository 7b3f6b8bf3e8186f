"""Shared fixtures and independent oracle helpers for the test suite."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ppboot import (
    PairFunction,
    ParameterError,
    PointPattern,
    UndefinedMomentError,
    Window2,
    unit_square,
)
from ppboot.rng import RngSeed


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


def seeded(seed: int, *stream: int) -> RngSeed:
    return RngSeed(seed).substream(*stream) if stream else RngSeed(seed)


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
