"""Two-point estimators and distinct-index tuple sums.

The central statistic is the double sum over ordered pairs of distinct
indices, theta_hat = sum_{i != j} f(x_i, x_j), for a symmetric pair
function f(x, y) = 1_W(x) 1_W(y) h(x, y).  The product-density
estimator is the special case where h is a kernel of the interpoint
distance, normalized by 2*pi*r*area and deliberately not edge-corrected.

Every statistic here works from one neighbour list, ``PairFunction.pairs``:
the unordered pairs i < j with f(x_i, x_j) != 0, found by a k-d tree
search out to the pair function's ``reach``.  For compact kernels the
cost is O(n log n + pairs within reach) in time and memory; a pair
function of unbounded reach (constant or custom h) lists all n(n-1)/2
pairs.  ``distinct_index_sums`` evaluates from that list the
pair/triple/quadruple sums over ordered tuples of pairwise-distinct
indices that drive the closed-form bootstrap variance limit, through the
exact decomposition P^2 = Q4 + 4*T3 + 2*R.  It is the one-pattern case of
``_grouped_sums``, which sums a block of stacked patterns from one pair
search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericalError, ParameterError
from .geometry import Interval1, PointPattern, Window2

# Relative padding of a search radius, so a pair whose distance rounds
# differently in the tree and in h stays a candidate.
_REACH_PAD = 1e-9

# Most entries of one (rows, pairs) temporary (8 MB): ``estimate_product_density``
# sums radii, and ``bootstrap_statistics`` reduces resamples, in blocks of at most
# this many, at least one row each, so temporaries stay O(pairs) however many rows.
_PAIR_ENTRIES = 1 << 20


def _box(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


_KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "box": _box,
    "epanechnikov": _epanechnikov,
    "epa": _epanechnikov,
}


@dataclass(frozen=True)
class KernelFunction:
    """Scaled kernel K_b(u) = k(u/b)/b with k supported on [-1, 1], integral 1."""

    kind: str  # a key of _KERNELS
    bandwidth: float

    def __post_init__(self) -> None:
        if self.kind not in _KERNELS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}; use box or epanechnikov")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ParameterError(f"bandwidth must be positive and finite, got {self.bandwidth}")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return _KERNELS[self.kind](u / self.bandwidth) / self.bandwidth


def _close_pairs(points: np.ndarray, reach: float,
                 group: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index arrays (i, j), i < j, of the pairs at distance <= reach (padded).

    With ``group``, one integer label per point, only pairs with equal
    labels are listed.  No two points lie farther apart than the sum of
    the axis spans, so that bounds the search, for any reach.  The tree
    searches one more coordinate, label * step: it is 0 apart within a
    group, so distances there are unchanged, and more than twice the
    search radius apart across groups.  The points' own coordinates are
    never shifted.  A step longer than the span also lets the tree split
    the groups apart before it splits within them, which nearly halves
    the search time.
    """
    pts = points if points.ndim == 2 else points[:, None]
    if group is not None:
        span = float(np.ptp(pts, axis=0).sum()) if len(pts) else 0.0
        reach = min(reach, span)
        pts = np.column_stack([pts, group * (2.0 * reach + span + 1.0)])
    pairs = cKDTree(pts).query_pairs(reach * (1.0 + _REACH_PAD), output_type="ndarray")
    # one key per pair sorts as (i, j) do, several times faster than a lexsort
    m = len(pts)
    key = np.sort(pairs[:, 0] * m + pairs[:, 1])
    return key // m, key % m


@dataclass(frozen=True)
class PairFunction:
    """Symmetric pair function f(x, y) = 1_W(x) 1_W(y) h(x, y).

    ``h`` must be vectorized: it receives two arrays of points with a
    trailing coordinate axis for planar windows (or plain arrays for
    intervals) and returns values with the broadcast batch shape.
    ``reach`` is a distance beyond which h is 0; ``inf`` when h has no
    such bound.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    window: Window2 | Interval1
    label: str = "custom"
    reach: float = math.inf

    def __post_init__(self) -> None:
        if not self.reach > 0:
            raise ParameterError(f"reach must be > 0 (inf for none), got {self.reach}")

    @property
    def search_reach(self) -> float:
        """``reach`` with its rounding padding: every pair within reach lies within it."""
        return self.reach * (1.0 + _REACH_PAD)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(self.window.contains(x) & self.window.contains(y), self.h(x, y), 0.0)

    def pairs(self, points: np.ndarray,
              group: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j with f(x_i, x_j) != 0, as sorted arrays (i, j, v).

        h runs only on the pairs within ``reach``, and pairs with a point
        outside ``window`` are dropped, as the indicators of f demand.  A
        non-finite value of h raises :class:`NumericalError`.  With
        ``group``, one integer label per point, only pairs within a group
        are listed.
        """
        pts = np.asarray(points, dtype=float)
        i, j = _close_pairs(pts, self.reach, group)
        inside = self.window.contains(pts)
        keep = inside[i] & inside[j]
        i, j = i[keep], j[keep]
        v = np.asarray(self.h(pts[i], pts[j]), dtype=float)
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"pair function {self.label} has a non-finite value")
        nonzero = v != 0.0
        return i[nonzero], j[nonzero], v[nonzero]

    def nonzero_rows(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows k with h(x_k, y_k) != 0 and those values, as arrays (k, v).

        ``x`` and ``y`` hold planar points as (2, m) coordinate rows.  h
        runs only on the rows within ``reach``, found by squared distance
        against the same padded radius as ``pairs``, so an unbounded reach
        keeps every row.  The window indicators of f are not applied.
        """
        d = x - y
        d *= d
        rows = np.flatnonzero(d[0] + d[1] <= self.search_reach ** 2)
        v = np.asarray(self.h(x[:, rows].T, y[:, rows].T), dtype=float)
        nonzero = np.flatnonzero(v)
        return rows[nonzero], v[nonzero]

    def pair_matrix(self, points: np.ndarray) -> np.ndarray:
        """Dense n x n view F[i, j] = f(x_i, x_j) of ``pairs``, with a zero diagonal."""
        n = len(points)
        i, j, v = self.pairs(points)
        mat = np.zeros((n, n))
        mat[i, j] = v
        mat[j, i] = v
        return mat


def constant_pair_function(window: Window2 | Interval1, value: float = 1.0) -> PairFunction:
    """f == value for both arguments in the window (h constant)."""
    def h(x, y):
        batch = np.broadcast_shapes(
            x.shape[:-1] if isinstance(window, Window2) else x.shape,
            y.shape[:-1] if isinstance(window, Window2) else y.shape,
        )
        return np.full(batch, value)

    return PairFunction(h, window, label=f"const:{value:g}")


def kernel_pair_function(kernel: KernelFunction, r: float, window: Window2 | Interval1) -> PairFunction:
    """f(x, y) = K_b(r - ||x - y||), the integrand of the product-density estimator."""
    if not (r > 0 and math.isfinite(r)):
        raise ParameterError(f"r must be positive and finite, got {r}")

    def h(x, y):
        if isinstance(window, Window2):
            d = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        else:
            d = np.abs(x - y)
        return kernel(r - d)

    return PairFunction(h, window, label=f"{kernel.kind}:r={r:g},b={kernel.bandwidth:g}",
                        reach=r + kernel.bandwidth)


@dataclass(frozen=True)
class TwoPointSums:
    """Sums over ordered tuples of pairwise-distinct indices.

    P  = sum_{i != j} f(x_i, x_j)
    R  = sum_{i != j} f(x_i, x_j)^2
    T3 = sum over distinct (i, j, k) of f(x_i, x_j) f(x_i, x_k)
    Q4 = sum over distinct (i, j, k, l) of f(x_i, x_j) f(x_k, x_l)

    These satisfy P^2 = Q4 + 4*T3 + 2*R exactly.  Each field is a float
    for one pattern, or an array over the patterns of ``_grouped_sums``.
    """

    P: float
    T3: float
    Q4: float
    R: float


def two_point_statistic(pattern: PointPattern, f: PairFunction) -> float:
    """theta_hat = sum over ordered pairs with distinct indices of f(x_i, x_j)."""
    return 2.0 * float(f.pairs(pattern.points)[2].sum())


def distinct_index_sums(pattern: PointPattern, f: PairFunction) -> TwoPointSums:
    """All four distinct-index sums from the pair list.

    The one-pattern case of ``_grouped_sums``, which states the method.
    """
    s = _grouped_sums(pattern.points, np.array([pattern.n]), f)
    return TwoPointSums(P=float(s.P[0]), T3=float(s.T3[0]), Q4=float(s.Q4[0]), R=float(s.R[0]))


def _grouped_sums(points: np.ndarray, counts: np.ndarray, f: PairFunction) -> TwoPointSums:
    """The distinct-index sums of stacked patterns, as arrays over the patterns.

    Pattern g is the ``counts[g]`` points after those of the patterns
    before it.  One pair list serves them all: ``PairFunction.pairs``
    with a pattern label per point.  Row sums Q_i = sum_{j != i} f(x_i, x_j)
    and R_i = sum_{j != i} f^2, from ``bincount``, give R = sum R_i and
    T3 = sum (Q_i^2 - R_i).  P is twice the pair sum.  Each pattern's
    sums are numpy's pairwise sums over its own slice, as for the pattern
    alone, so they do not depend on the other patterns in the block; Q4
    is recovered from the decomposition identity.
    """
    groups = len(counts)
    group = np.repeat(np.arange(groups), counts)
    # one pattern needs no label coordinate, and its tree is faster without
    i, j, v = f.pairs(points, group if groups > 1 else None)
    m = len(group)
    q_i = np.bincount(i, v, m) + np.bincount(j, v, m)
    r_i = np.bincount(i, v * v, m) + np.bincount(j, v * v, m)
    p = 2.0 * _run_sums(v, np.bincount(group[i], minlength=groups))
    r = _run_sums(r_i, counts)
    t3 = _run_sums(q_i * q_i - r_i, counts)
    q4 = p * p - 4.0 * t3 - 2.0 * r
    return TwoPointSums(P=p, T3=t3, Q4=q4, R=r)


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of each run of ``lengths[g]`` consecutive ``values``."""
    ends = np.cumsum(lengths).tolist()
    return np.array([values[lo:hi].sum() for lo, hi in zip([0] + ends[:-1], ends)])


def estimate_product_density(
    pattern: PointPattern, r_grid: np.ndarray, kernel: KernelFunction
) -> np.ndarray:
    """Second-order product density estimate on a grid of radii.

    rho_hat(r) = [2 pi r area(W)]^-1 * sum_{i != j} K_b(r - ||x_i - x_j||),
    with no border correction.  Returns an array of shape (len(r_grid), 2)
    with columns (r, rho_hat).  Only pairs within max(r_grid) + b enter,
    and the kernel is evaluated on blocks of radii of at most
    ``_PAIR_ENTRIES`` (radius, pair) values.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0:
        raise ParameterError("need at least one radius")
    if np.any(r_grid <= 0) or not np.all(np.isfinite(r_grid)):
        raise ParameterError("all radii must be positive and finite")
    if pattern.dim != 2:
        raise ParameterError("product density estimation expects a planar pattern")
    pts = pattern.points
    i, j = _close_pairs(pts, float(r_grid.max()) + kernel.bandwidth)
    diff = pts[i] - pts[j]
    pair_d = np.sqrt(np.sum(diff * diff, axis=-1))
    step = max(1, _PAIR_ENTRIES // max(len(pair_d), 1))
    # ordered pairs count each unordered pair twice
    sums = 2.0 * np.concatenate([kernel(r_grid[k:k + step, None] - pair_d[None, :]).sum(axis=1)
                                 for k in range(0, len(r_grid), step)])
    rho = sums / (2.0 * np.pi * r_grid * pattern.window.area)
    return np.column_stack([r_grid, rho])
