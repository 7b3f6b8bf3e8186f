"""Numerical moments s2, s3, s4 and E theta_hat for a homogeneous Poisson truth.

For a Poisson process every product density is a power of the
intensity, so the moment integrals reduce to window integrals of the
pair function:

    s2      = lam^2 * I(f^2)          over W^2
    s3      = lam^3 * I(f(x1,x2) f(x1,x3))   over W^3
    E theta = lam^2 * I(f)
    s4      = lam^4 * I(f)^2 = (E theta)^2

Monte Carlo computes E theta, s2 and s3 from one draw of uniform stars
(x1, x2, x3) in W^3, as the means of h12, h12^2 and h12 h13 (hij =
h(xi, xj)); s4 and its error are derived from E theta in one place.
The draw is sparse.  h12 is 0 unless x2 lies in the box of half-width
c (the padded reach) around x1, which happens with probability
p = prod over the axes of c'(2L - c') / L^2, c' = min(c, L), for a side
of length L.  So each chunk of n stars draws the number of in-box pairs
K ~ Binomial(n, p) and only those K pairs, from the uniform law on
{|x1 - x2| <= c' on each axis}: per axis x1 is uniform, x2 = x1 +
U(-c', c'), and the rows where x2 leaves W are redrawn (acceptance at
least 1/2); where c' = L, x2 is drawn uniform.  The other n - K stars
have h12 = 0 exactly, so the estimator's law is that of n uniform
stars.  h runs only within reach, x3 is drawn uniform only where
h12 != 0, and each chunk's statistics are formed from the nonzero
values, with the zeros added analytically.
Reported error fields are 3-sigma bounds plus a floating-point floor:
the a-priori summation bound gamma_m * sum|terms|, gamma_m =
m u / (1 - m u) with u = eps / 2 and m the roundings from the terms to
the value (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 3-4).  The floor keeps a constant integrand, whose sampling error
is 0, from reporting less error than its rounding, so "agreement within
the reported error" is a meaningful check.

The true estimator variance s4 + 4 s3 + 2 s2 - (E theta)^2 collapses to
4 s3 + 2 s2 under Poisson, because s4 cancels against (E theta)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import Window2, _require_window
from .rng import RngSeed, chunk_sizes, parallel_map
from .twopoint import PairFunction

_MC_CHUNK = 1 << 19
# Monte Carlo stars when no sample count is given
_MC_SAMPLES = 200_000

_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Roundings besides the summation itself: forming a term, dividing by n,
# and lam^k * area^k * mean for k <= 4 (area costs 3, so area^k carries
# 3k; two powers and two products add 4).
_MC_EXTRA_ROUNDINGS = 2 + 3 * 4 + 4


@dataclass(frozen=True)
class MomentSet:
    """Integrated moments for a homogeneous Poisson ground truth.

    ``errors`` maps component name to its 3-sigma Monte Carlo bound plus
    a floating-point floor that bounds the rounding in the value; the
    floor is 0 only when the integrand is 0 everywhere it was evaluated.
    ``s4`` is ``e_theta ** 2`` with the error propagated from ``e_theta``.
    """

    s2: float
    s3: float
    s4: float
    e_theta: float
    errors: dict[str, float]

    def reduced_true_variance(self) -> float:
        """4 s3 + 2 s2, the Poisson-cancelled form of the true variance."""
        return 4.0 * self.s3 + 2.0 * self.s2


def _require_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals.ravel()))[0])
        raise NumericalError(f"non-finite integrand sample in the moment draw (flat index {bad})")


def _gamma(m: int) -> float:
    """Higham's gamma_m, the relative error bound of m chained roundings."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _uniform_rows(rng: np.random.Generator, window: Window2, m: int) -> np.ndarray:
    """m uniform points of ``window`` as (2, m) coordinate rows."""
    pts = rng.random((2, m))
    pts[0] *= window.x_max - window.x_min
    pts[0] += window.x_min
    pts[1] *= window.y_max - window.y_min
    pts[1] += window.y_min
    return pts


def _chunk_stats(vals: list[np.ndarray], n: int) -> np.ndarray:
    """(sum, M2, sum |v|) of each row of ``vals`` padded with zeros to n entries.

    Each row holds every nonzero value of one integrand over a chunk of
    n samples.  Each of the n - k implicit zeros deviates from the mean
    by -mean, so M2 = sum (v - mean)^2 + (n - k) mean^2.
    """
    stats = []
    for row in vals:
        total = float(row.sum())
        mean = total / n
        dev = row - mean
        stats.append((total, float(dev @ dev) + (n - len(row)) * mean * mean,
                      float(np.abs(row).sum())))
    return np.array(stats).T


def _axis_pairs(rng: np.random.Generator, lo: float, hi: float, reach: float,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """m pairs (u1, u2), uniform on {u1, u2 in [lo, hi], |u1 - u2| <= reach}.

    u1 is uniform and u2 = u1 + U(-reach, reach); the rows where u2
    leaves [lo, hi] are drawn again, and each round accepts at least half
    of them.  A reach spanning the side draws u2 uniform.
    """
    side = hi - lo
    if reach >= side:
        return lo + side * rng.random(m), lo + side * rng.random(m)
    u1, u2 = np.empty(m), np.empty(m)
    bad = np.arange(m)
    while bad.size:
        u1[bad] = lo + side * rng.random(bad.size)
        u2[bad] = u1[bad] + reach * (2.0 * rng.random(bad.size) - 1.0)
        bad = bad[(u2[bad] < lo) | (u2[bad] > hi)]
    return u1, u2


def _mc_mean(window: Window2, f: PairFunction, n_points: int, samples: int,
             seed: RngSeed, threads: int) -> list[tuple[float, float, float]]:
    """Mean, standard error and mean |value| of P_2, P_2**2, P_3, ..., P_n_points.

    P_k = h(x1, x2) ... h(x1, x_k) on a star of uniform W points.  A
    chunk of n stars draws only the Binomial(n, p) pairs (x1, x2) within
    the padded reach on each axis, p being the chance of that; the other
    stars have P_k = 0.  Each further point is drawn uniform only for the
    stars whose product is still nonzero, and h runs only within its
    reach (``PairFunction.nonzero_rows``).  Each chunk reports, per
    integrand, its sum, sum of squared deviations (M2) and sum of |values|
    from the nonzero values alone; the chunks are merged in task order
    with the pairwise update of Chan, Golub & LeVeque (1979), so the
    variance needs no clamp and is the same for every ``threads`` value.
    """
    sizes = chunk_sizes(samples, _MC_CHUNK)
    bounds = ((window.x_min, window.x_max), (window.y_min, window.y_max))
    reach = f.search_reach
    # chance that a uniform x2 lies within reach of a uniform x1 on each axis
    p = 1.0
    for lo, hi in bounds:
        w = min(reach, hi - lo)
        p *= w * (2.0 * (hi - lo) - w) / (hi - lo) ** 2

    def run_chunk(c: int) -> np.ndarray:
        rng = seed.substream(c).generator()
        m = int(rng.binomial(sizes[c], p))
        pairs = [_axis_pairs(rng, lo, hi, reach, m) for lo, hi in bounds]
        x1 = np.array([u1 for u1, _ in pairs])
        x2 = np.array([u2 for _, u2 in pairs])
        products = []
        for _ in range(n_points - 1):
            if products:
                x2 = _uniform_rows(rng, window, x1.shape[1])
            rows, v = f.nonzero_rows(x1, x2)
            _require_finite(v)
            x1 = x1[:, rows]
            products.append(v if not products else products[-1][rows] * v)
        return _chunk_stats([products[0], products[0] ** 2, *products[1:]], sizes[c])

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


def s_moments_poisson(lam: float, window: Window2, f: PairFunction, sample_count: int,
                      seed: RngSeed, threads: int = 1) -> MomentSet:
    """Integrate s2, s3, s4 and E theta_hat for intensity ``lam`` on ``window``.

    ``sample_count`` is the Monte Carlo budget (at least 1000): the
    number of stars (x1, x2, x3), each of which feeds I(f), I(f^2) and
    the triple integral behind s3.  Only the stars whose x2 lies within
    the pair function's reach of x1 on each axis are drawn, a
    Binomial(sample_count, p) number of them; the rest add exact zeros,
    so the estimate has the law of ``sample_count`` uniform stars.
    """
    _require_window(window, Window2, "moment integration")
    if not (lam >= 0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    if sample_count < 1000:
        raise ParameterError(f"Monte Carlo needs >= 1000 samples, got {sample_count}")
    area = window.area

    # samples are drawn inside W, so the window indicators of f are
    # identically 1 and the bare h can be evaluated directly
    stats = _mc_mean(window, f, 3, sample_count, seed, threads)
    # rounding floor: a mean of m terms carries m - 1 additions
    g = _gamma(sample_count + _MC_EXTRA_ROUNDINGS)
    scales = (lam**2 * area**2, lam**2 * area**2, lam**3 * area**3)
    values, errors = {}, {}
    for key, scale, (mean, se, mean_abs) in zip(("e_theta", "s2", "s3"), scales, stats):
        values[key] = scale * mean
        errors[key] = scale * (3.0 * se + g * mean_abs)
    # s4 = lam^4 I(f)^2 = (E theta)^2 exactly; an estimate t with
    # |E theta - t| <= d gives |s4 - t^2| <= (2|t| + d) d, and gamma_1 t^2
    # bounds the rounding of t * t
    t, d = values["e_theta"], errors["e_theta"]
    errors["s4"] = (2.0 * abs(t) + d) * d + _gamma(1) * t * t
    return MomentSet(s4=t * t, errors=errors, **values)


def true_variance_poisson(moments: MomentSet) -> float:
    """Variance of the two-point statistic: s4 + 4 s3 + 2 s2 - (E theta)^2.

    For a Poisson ground truth s4 = (E theta)^2, so this equals
    4 s3 + 2 s2 up to rounding.
    """
    return moments.s4 + 4.0 * moments.s3 + 2.0 * moments.s2 - moments.e_theta**2
