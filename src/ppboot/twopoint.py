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
exact decomposition P^2 = Q4 + 4*T3 + 2*R.
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


def _close_pairs(points: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index arrays (i, j), i < j, of the pairs at distance <= reach (padded)."""
    pts = points if points.ndim == 2 else points[:, None]
    pairs = cKDTree(pts).query_pairs(reach * (1.0 + _REACH_PAD), output_type="ndarray")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order, 0], pairs[order, 1]


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

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if isinstance(self.window, Window2):
            in_x = self.window.contains(x.reshape(-1, 2)).reshape(x.shape[:-1])
            in_y = self.window.contains(y.reshape(-1, 2)).reshape(y.shape[:-1])
        else:
            in_x = self.window.contains(x)
            in_y = self.window.contains(y)
        return np.where(in_x & in_y, self.h(x, y), 0.0)

    def pairs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j with f(x_i, x_j) != 0, as sorted arrays (i, j, v).

        h runs only on the pairs within ``reach``, and pairs with a point
        outside ``window`` are dropped, as the indicators of f demand.  A
        non-finite value of h raises :class:`NumericalError`.
        """
        pts = np.asarray(points, dtype=float)
        i, j = _close_pairs(pts, self.reach)
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
        rows = np.flatnonzero(d[0] + d[1] <= (self.reach * (1.0 + _REACH_PAD)) ** 2)
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

    These satisfy P^2 = Q4 + 4*T3 + 2*R exactly.
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

    Row sums Q_i = sum_{j != i} f(x_i, x_j) and R_i = sum_{j != i} f^2
    give R = sum R_i and T3 = sum (Q_i^2 - R_i); P is twice the pair sum,
    as in ``two_point_statistic``, and Q4 is recovered from the
    decomposition identity.
    """
    n = pattern.n
    i, j, v = f.pairs(pattern.points)
    q_i = np.bincount(i, v, n) + np.bincount(j, v, n)
    r_i = np.bincount(i, v * v, n) + np.bincount(j, v * v, n)
    p = 2.0 * float(v.sum())
    r = float(r_i.sum())
    t3 = float((q_i * q_i - r_i).sum())
    q4 = p * p - 4.0 * t3 - 2.0 * r
    return TwoPointSums(P=p, T3=t3, Q4=q4, R=r)


def estimate_product_density(
    pattern: PointPattern, r_grid: np.ndarray, kernel: KernelFunction
) -> np.ndarray:
    """Second-order product density estimate on a grid of radii.

    rho_hat(r) = [2 pi r area(W)]^-1 * sum_{i != j} K_b(r - ||x_i - x_j||),
    with no border correction.  Returns an array of shape (len(r_grid), 2)
    with columns (r, rho_hat).  Only pairs within max(r_grid) + b enter.
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
    # ordered pairs count each unordered pair twice
    sums = 2.0 * kernel(r_grid[:, None] - pair_d[None, :]).sum(axis=1)
    rho = sums / (2.0 * np.pi * r_grid * pattern.window.area)
    return np.column_stack([r_grid, rho])
