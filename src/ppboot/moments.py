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
The draw is sparse: h runs only on the pairs within the pair function's
reach, x3 is drawn only where h12 != 0, and each chunk's statistics are
formed from the nonzero values, with the zeros added analytically.
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
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import Window2, _require_window
from .rng import RngSeed, chunk_sizes, parallel_map
from .twopoint import PairFunction

INTEGRATION_METHODS = ("monte_carlo",)

_MC_CHUNK = 1 << 19

_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Roundings besides the summation itself: forming a term, dividing by n,
# and lam^k * area^k * mean for k <= 4 (area costs 3, so area^k carries
# 3k; two powers and two products add 4).
_MC_EXTRA_ROUNDINGS = 2 + 3 * 4 + 4


@dataclass(frozen=True)
class IntegrationSpec:
    """How to evaluate the moment integrals.

    ``sample_count`` is the Monte Carlo budget (at least 1000): the
    number of stars (x1, x2, x3), each of which feeds I(f), I(f^2) and
    the triple integral behind s3.
    """

    method: str = "monte_carlo"
    sample_count: int = 200_000
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in INTEGRATION_METHODS:
            raise ParameterError(
                f"unknown integration method {self.method!r}; use one of {INTEGRATION_METHODS}"
            )
        if self.sample_count < 1000:
            raise ParameterError(f"Monte Carlo needs >= 1000 samples, got {self.sample_count}")


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
    lam: float
    method: str
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


def _mc_mean(window: Window2, f: PairFunction, n_points: int, samples: int,
             seed: RngSeed, threads: int) -> list[tuple[float, float, float]]:
    """Mean, standard error and mean |value| of P_2, P_2**2, P_3, ..., P_n_points.

    P_k = h(x1, x2) ... h(x1, x_k) on a star of uniform W points.  Each
    sample draws x1 and x2; each further point is drawn only for the
    samples whose product is still nonzero, and h runs only within its
    reach (``PairFunction.nonzero_rows``).  Each chunk reports, per
    integrand, its sum, sum of squared deviations (M2) and sum of |values|
    from the nonzero values alone; the chunks are merged in task order
    with the pairwise update of Chan, Golub & LeVeque (1979), so the
    variance needs no clamp and is the same for every ``threads`` value.
    """
    sizes = chunk_sizes(samples, _MC_CHUNK)

    def run_chunk(c: int) -> np.ndarray:
        rng = seed.substream(c).generator()
        x1 = _uniform_rows(rng, window, sizes[c])
        products = []
        for _ in range(n_points - 1):
            rows, v = f.nonzero_rows(x1, _uniform_rows(rng, window, x1.shape[1]))
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


def s_moments_poisson(lam: float, window: Window2, f: PairFunction,
                      spec: IntegrationSpec) -> MomentSet:
    """Integrate s2, s3, s4 and E theta_hat for intensity ``lam`` on ``window``."""
    _require_window(window, Window2, "moment integration")
    if not (lam >= 0 and math.isfinite(lam)):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    area = window.area

    # samples are drawn inside W, so the window indicators of f are
    # identically 1 and the bare h can be evaluated directly
    stats = _mc_mean(window, f, 3, spec.sample_count, spec.seed, spec.threads)
    # rounding floor: a mean of m terms carries m - 1 additions
    g = _gamma(spec.sample_count + _MC_EXTRA_ROUNDINGS)
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
    return MomentSet(s4=t * t, lam=lam, method=spec.method, errors=errors, **values)


def true_variance_poisson(moments: MomentSet) -> float:
    """Variance of the two-point statistic: s4 + 4 s3 + 2 s2 - (E theta)^2.

    For a Poisson ground truth s4 = (E theta)^2, so this equals
    4 s3 + 2 s2 up to rounding.
    """
    return moments.s4 + 4.0 * moments.s3 + 2.0 * moments.s2 - moments.e_theta**2
