"""Two-point estimators and distinct-index tuple sums.

The central statistic is the double sum over ordered pairs of distinct
indices, theta_hat = sum_{i != j} f(x_i, x_j), for a symmetric pair
function f(x, y) = 1_W(x) 1_W(y) h(x, y).  The product-density
estimator is the special case where h is a kernel of the interpoint
distance, normalized by 2*pi*r*area and deliberately not edge-corrected.

Every statistic here works from one neighbour list, ``PairFunction.pairs``:
the unordered pairs i < j with f(x_i, x_j) != 0, found by a cell-list
search (``_pair_blocks``, numpy alone) out to the pair function's
``reach``.  For compact kernels the cost is O(n log n + pairs within
reach) in time and O(n + pairs) in memory; a pair function of unbounded
reach (constant or custom h) lists all n(n-1)/2 pairs.
``distinct_index_sums`` evaluates from that list the pair/triple/quadruple
sums over ordered tuples of pairwise-distinct indices that drive the
closed-form bootstrap variance limit, through the exact decomposition
P^2 = Q4 + 4*T3 + 2*R.  It is the one-pattern case of ``_grouped_sums``,
which sums a block of stacked patterns from one pair search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import Interval1, PointPattern, Window2

# Relative padding of a search radius, so a pair whose distance rounds
# differently in the search and in h stays a candidate.
_REACH_PAD = 1e-9

# Relative padding of a cell side beyond radius/k, far above the rounding
# of a cell index (some 1e-16 of the cell count).
_CELL_PAD = 1e-6

# Most cells of a pair search per point (per group at least 4): the start
# table stays O(points) however small the search radius.
_CELLS_PER_POINT = 4

# Most candidate pairs a pair search tests at once: each candidate temporary
# (128 KB) stays in cache, and the search's peak memory stays near its output's.
_SCAN_ENTRIES = 1 << 14

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


def _search_radius(reach: float) -> float:
    """``reach`` with its rounding padding: every pair within reach lies within it."""
    return reach * (1.0 + _REACH_PAD)


def _cell_grid(span: list[float], radius: float, per_group: float,
               cells_max: float) -> tuple[float, int]:
    """(side, k): square cells of ``side``, so pairs within ``radius`` lie <= k cells apart.

    ``per_group`` points share a bounding box of axis lengths ``span``.
    When a square of side ``radius`` holds c points, cells of side
    radius/k cut the candidates a point scans from about 4.5c (k = 1)
    towards 2c, for k + 1 index runs per point instead of 2; k near
    sqrt(c) balances the two.  Cells are padded by _CELL_PAD, so the
    rounding of a point's cell index never puts a pair within radius
    more than k cells apart.  The box's cells, padded by k on each axis,
    number at most ``cells_max``: where more would be needed, k falls to 1
    and cells double until they fit.
    """
    if not radius < sum(span):
        return math.inf, 0  # every pair is within radius: one cell
    crowd = per_group * math.prod(radius / max(s, radius) for s in span)
    k = max(1, round(math.sqrt(crowd)))
    side = radius * (1.0 + _CELL_PAD) / k
    while math.prod(s / side + k for s in span) > cells_max:
        k, side = 1, max(2.0 * side, radius * (1.0 + _CELL_PAD))
    return side, k


def _pair_blocks(points: np.ndarray, reach: float,
                 group: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (key, d2): keys i*m + j (i < j) of pairs within ``reach`` (padded), squared distances.

    A cell list (Allen & Tildesley 1987, sec. 5.3) of square cells from
    ``_cell_grid``.  Each point's integer key is its (group label, x cell,
    y cell), with k empty cells past the last on each axis, so no offset
    of up to k cells reaches a filled cell of another column or group.
    One sort orders the points by key, and a start table of the keys
    (``bincount`` and ``cumsum``) gives every cell's run of sorted
    positions.  A point scans, after its own position, the rest of its
    column up to k cells on, then the 2k + 1 cells at each of the k next
    columns: each is one contiguous run, and every pair is seen once,
    whatever the order of ties in the sort.  A candidate is kept where
    dx*dx + dy*dy <= radius*radius, for the padded radius of
    ``_search_radius``.  The runs are walked in slices of at most
    ``_SCAN_ENTRIES`` candidates (or one run), one block per slice, so
    the search holds O(n + one slice) beyond the blocks its caller keeps.
    Blocks come in cell order, and keys within a block are not sorted.
    """
    pts = np.asarray(points, dtype=float)
    columns = [pts] if pts.ndim == 1 else list(pts.T)
    m, dim = len(pts), len(columns)
    radius = _search_radius(reach)
    if m < 2:
        return
    label = None if group is None else np.asarray(group, np.intp)
    groups = 1 if label is None else int(label.max()) + 1
    low = [float(c.min()) for c in columns]
    span = [float(c.max()) - lo for c, lo in zip(columns, low)]
    side, k = _cell_grid(span, radius, m / groups, max(_CELLS_PER_POINT * m / groups, 4.0))
    nx = max(int(span[0] / side), 1)
    ny = max(int(span[1] / side), 1) if dim == 2 else 1
    kx, ky = min(k, nx - 1), min(k, ny - 1)  # offsets past the grid find nothing
    stride = ny + ky

    def cells(axis: int, n: int) -> np.ndarray:
        cell = ((columns[axis] - low[axis]) / side).astype(np.intp)
        return np.minimum(cell, n - 1, out=cell)

    key = cells(0, nx)
    if label is not None:
        key += label * (nx + kx)
    key *= stride
    if dim == 2:
        key += cells(1, ny)
    order = np.argsort(key)
    owner, lo, count = _scan_runs(key[order], groups * (nx + kx) * stride, kx, ky, stride)
    xy = [c[order] for c in columns]
    ends = np.cumsum(count)
    r2 = radius * radius
    r0 = done = 0
    while r0 < len(count):
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + _SCAN_ENTRIES, side="right")))
        runs = count[r0:r1]
        second = np.repeat(lo[r0:r1] - (ends[r0:r1] - runs - done), runs)
        second += np.arange(len(second))
        first = owner[r0:r1]
        d2 = 0.0
        for c in xy:
            d = np.repeat(c[first], runs)
            d -= c[second]
            d *= d
            d2 = d2 + d
        near = d2 <= r2
        i, j = np.repeat(order[first], runs)[near], order[second[near]]
        yield np.minimum(i, j) * m + np.maximum(i, j), d2[near]
        r0, done = r1, int(ends[r1 - 1])


def _scan_runs(key: np.ndarray, cells: int, kx: int, ky: int,
               stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty scan runs of ``_pair_blocks``, as arrays (owner, lo, count).

    ``key`` holds the sorted cell keys of the points, below ``cells``.
    Each point owns one run per column it scans: the rest of its own
    column, then each of the kx next columns.  A run is ``count`` sorted
    positions from ``lo``; the owner is the point's sorted position.  The
    start table and the (column, point) arrays die here, before the scan.
    """
    start = np.bincount(key + 1, minlength=cells + 1)
    np.cumsum(start, out=start)
    cols = np.arange(kx + 1)[:, None] * stride
    count = start[key + (cols + ky + 1)]
    lo = np.empty_like(count)
    lo[0] = np.arange(1, len(key) + 1)
    lo[1:] = start[key + (cols[1:] - ky)]
    count -= lo
    nonempty = count > 0
    owner = np.broadcast_to(np.arange(len(key)), count.shape)[nonempty]
    return owner, lo[nonempty], count[nonempty]


def _close_pairs(points: np.ndarray, reach: float,
                 group: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index arrays (i, j), i < j, of the pairs at distance <= reach (padded).

    With ``group``, one nonnegative integer label per point, only pairs
    with equal labels are listed.  The pairs come from ``_pair_blocks``.
    """
    blocks = _pair_blocks(points, reach, group)
    key = np.concatenate([np.empty(0, np.intp), *(k for k, _ in blocks)])
    key.sort()
    return key // len(points), key % len(points)


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
        return _search_radius(self.reach)

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
        ``group``, one nonnegative integer label per point, only pairs
        within a group are listed.
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
        radius = self.search_reach
        rows = np.flatnonzero(d[0] + d[1] <= radius * radius)
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
    i, j, v = f.pairs(points, group)
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
    blocks = [(np.empty(0, np.intp), np.empty(0)),
              *_pair_blocks(pattern.points, float(r_grid.max()) + kernel.bandwidth)]
    key = np.concatenate([k for k, _ in blocks])
    pair_d = np.sqrt(np.concatenate([d2 for _, d2 in blocks])[np.argsort(key)])
    step = max(1, _PAIR_ENTRIES // max(len(pair_d), 1))
    # ordered pairs count each unordered pair twice
    sums = 2.0 * np.concatenate([kernel(r_grid[k:k + step, None] - pair_d[None, :]).sum(axis=1)
                                 for k in range(0, len(r_grid), step)])
    rho = sums / (2.0 * np.pi * r_grid * pattern.window.area)
    return np.column_stack([r_grid, rho])
