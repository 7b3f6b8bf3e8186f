"""Observation windows, point patterns, and seeded Poisson simulators.

Planar homogeneous processes live on a rectangle :class:`Window2`;
one-dimensional inhomogeneous processes live on an :class:`Interval1`.
Patterns are immutable and validated on construction: points have the
window's shape, every point lies inside its window, and points are
pairwise distinct.  One Poisson block sampler draws every simulation, and
one driver, ``_replicate_blocks``, every loop over replicates: it checks a
block of stacked replicates in one call, which shares the duplicate search
with the pattern's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DuplicatePointError, InvalidBoundError, OutOfWindowError, ParameterError
from .rng import RngSeed


@dataclass(frozen=True)
class Window2:
    """Axis-aligned rectangular observation window in the plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        bounds = f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ParameterError(f"window bounds must be finite, got {bounds}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ParameterError(f"degenerate window: {bounds}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of the points of a (..., 2) array lying inside the window."""
        p = np.asarray(points, dtype=float)
        return (
            (p[..., 0] >= self.x_min)
            & (p[..., 0] <= self.x_max)
            & (p[..., 1] >= self.y_min)
            & (p[..., 1] <= self.y_max)
        )


@dataclass(frozen=True)
class Interval1:
    """One-dimensional observation interval."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ParameterError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ParameterError(f"degenerate interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (p >= self.lo) & (p <= self.hi)


def unit_square() -> Window2:
    return Window2(0.0, 1.0, 0.0, 1.0)


def _require_window(window: Window2 | Interval1, kind: type, what: str) -> None:
    """Raise ParameterError unless ``window`` is of ``kind`` (Window2 or Interval1)."""
    if not isinstance(window, kind):
        need = "a planar window" if kind is Window2 else "an interval"
        raise ParameterError(f"{what} needs {need}, got {type(window).__name__}")


@dataclass(frozen=True)
class PointPattern:
    """A finite pattern of pairwise-distinct points in a window.

    ``points`` has shape (n, 2) over a :class:`Window2` or shape (n,)
    over an :class:`Interval1`.
    """

    points: np.ndarray
    window: Window2 | Interval1

    def __post_init__(self) -> None:
        planar = isinstance(self.window, Window2)
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape((0, 2) if planar else (0,))
        elif pts.ndim == 0 or pts.shape[1:] != ((2,) if planar else ()):
            raise ParameterError(f"points must have shape {'(n, 2)' if planar else '(n,)'} "
                                 f"for this window, got {pts.shape}")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        outside = np.flatnonzero(~self.window.contains(pts)) if len(pts) else ()
        if len(outside):
            raise _point_error(OutOfWindowError, int(outside[0]), "lies outside the window")
        repeat = _first_repeat(pts.reshape(len(pts), 2 if planar else 1))
        if repeat is not None:
            raise _point_error(DuplicatePointError, repeat[0],
                               f"repeats point {repeat[1]}; points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.window, Window2) else 1


def _first_repeat(rows: np.ndarray, grouped: bool = False) -> tuple[int, int] | None:
    """(k, e): the smallest index k whose row equals an earlier row e; None if all differ.

    Rows can be equal only where their first coordinates are, so one sort of the first
    column narrows the search to the rows in a run of equal first coordinates; only those
    are sorted by every column.  Points drawn from a continuous law leave none.
    ``grouped`` rows, equal ones next to each other already, are not sorted at all.
    """
    at = order = np.arange(len(rows))  # the rows searched, and the order that sorts them
    if not grouped:
        by_x = np.argsort(rows[:, 0])
        tied = rows[by_x[1:], 0] == rows[by_x[:-1], 0]
        keep = np.zeros(len(rows), bool)
        keep[by_x[1:][tied]] = True
        keep[by_x[:-1][tied]] = True
        at = np.flatnonzero(keep)
        # a stable sort puts equal rows next to each other in index order (``grouped``
        # rows are so already), so each adjacent equal pair's second index repeats an earlier row
        order = np.lexsort(rows[at].T[::-1])
        rows = rows[at[order]]
    repeats = np.flatnonzero(np.logical_and.reduce([c[1:] == c[:-1] for c in rows.T]))
    if not len(repeats):
        return None
    k = repeats[np.argmin(order[repeats + 1])]
    return int(at[order[k + 1]]), int(at[order[k]])


def _check_replicates(points: np.ndarray, counts: np.ndarray, window: Window2 | Interval1,
                      grouped: bool = False, first: int = 0) -> None:
    """Check stacked patterns as ``PointPattern`` checks one, naming a point by its replicate.

    Replicate first + g is the ``counts[g]`` points after those of the replicates
    before it.  Every point must lie inside ``window``, and the points of
    each replicate must be pairwise distinct; a point may repeat one of
    another replicate.  ``grouped`` replicates are each sorted, so the search sorts nothing.
    """
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(len(counts)), counts)
    outside = np.flatnonzero(~window.contains(points)) if len(points) else ()
    if len(outside):
        g = group[outside[0]]
        raise _point_error(OutOfWindowError, int(outside[0] - starts[g]),
                           f"of replicate {first + g} lies outside the window")
    repeat = _first_repeat(np.column_stack([points, group]), grouped)
    if repeat is not None:
        g = group[repeat[0]]
        raise _point_error(DuplicatePointError, int(repeat[0] - starts[g]),
                           f"of replicate {first + g} repeats its point {repeat[1] - starts[g]}; "
                           "points must be pairwise distinct")


def _point_error(cls: type[Exception], index: int, what: str) -> Exception:
    """A ``cls`` error about point ``index``, which it also carries as ``.index``."""
    exc = cls(f"point {index} {what}")
    exc.index = index
    return exc


@dataclass(frozen=True)
class IntensityFunction:
    """Nonnegative intensity x -> lambda(x) on an interval, with a finite upper bound.

    ``fn`` must accept numpy arrays.  ``lambda_max`` is the caller's
    bound; simulation verifies it pointwise and rejects violations.
    ``integral(lo, hi)`` is the closed-form integral of lambda over
    [lo, hi], which the expected window counts of the intensity bands use.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lambda_max: float
    integral: Callable[[float, float], float]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_max) and self.lambda_max >= 0):
            raise ParameterError(f"lambda_max must be finite and >= 0, got {self.lambda_max}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def constant_intensity(value: float) -> IntensityFunction:
    if value < 0 or not math.isfinite(value):
        raise ParameterError(f"intensity must be finite and >= 0, got {value}")
    return IntensityFunction(lambda x: np.full_like(np.asarray(x, float), value),
                             lambda_max=value, integral=lambda lo, hi: value * (hi - lo))


def linear_intensity(a: float, b: float, interval: Interval1) -> IntensityFunction:
    """lambda(x) = a + b*x, clipped nowhere: must be >= 0 on the interval."""
    _require_window(interval, Interval1, "a linear intensity")
    ends = [a + b * interval.lo, a + b * interval.hi]
    if min(ends) < 0:
        raise ParameterError(f"linear intensity {a} + {b}x is negative on the interval")
    # the length times lambda at the midpoint: no difference of squares to cancel
    return IntensityFunction(lambda x: a + b * np.asarray(x, float), lambda_max=max(ends),
                             integral=lambda lo, hi: (hi - lo) * (a + 0.5 * b * (lo + hi)))


# Largest expected point count a simulator draws; a larger one would end
# in numpy's Poisson sampler or in an allocation that cannot succeed.
_MAX_EXPECTED_COUNT = 1e8


def _poisson_block(mean: float, box: Window2, rngs: Sequence[np.random.Generator],
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` patterns of Poisson(mean) i.i.d. uniform points in ``box``: stacked points, counts.

    The counts draw from ``rngs[0]``, every point's x from ``rngs[1]`` and its y from ``rngs[2]``,
    each in replicate order, so blocks drawn one after another equal one block of their total
    size.  One generator in all three roles draws one pattern's count, x, then y.  The points
    are not checked: ``PointPattern`` checks one pattern, ``_replicate_blocks`` a block.
    """
    if not mean <= _MAX_EXPECTED_COUNT:
        raise ParameterError(
            f"expected point count {mean:.6g} exceeds the simulation cap {_MAX_EXPECTED_COUNT:.0e}"
        )
    counts = rngs[0].poisson(mean, count)
    total = int(counts.sum())
    return np.column_stack([rngs[1].uniform(box.x_min, box.x_max, total),
                            rngs[2].uniform(box.y_min, box.y_max, total)]), counts


# Most points a block of replicates expects; at 2^15 malloc returns and refaults block memory
_BLOCK_POINTS = 1 << 14


def _replicate_blocks(draw: Callable, mean: float, window: Window2 | Interval1, reps: int,
                      seed: RngSeed, most: float = math.inf,
                      grouped: bool = False) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Blocks (first, points, counts) of replicates 0 to reps - 1, each checked, in order.

    ``draw(rngs, count)`` stacks ``count`` replicates from the counts, x and y generators on
    substreams (0, 0), (0, 1) and (0, 2) of ``seed``, each read in replicate order, so no draw
    depends on the blocks.  A block expects about ``_BLOCK_POINTS`` points at ``mean`` per
    replicate, holds at most ``most`` replicates, and names a fault by replicate first + g.
    """
    rngs = [seed.substream(0, k).generator() for k in range(3)]
    block = max(1, int(min(most, _BLOCK_POINTS / max(mean, 1.0))))
    for first in range(0, reps, block):
        points, counts = draw(rngs, min(block, reps - first))
        _check_replicates(points, counts, window, grouped, first)
        yield first, points, counts


def simulate_homogeneous_poisson(lam: float, window: Window2, seed: RngSeed) -> PointPattern:
    """Homogeneous Poisson process on a rectangle.

    The count is Poisson(lam * area) and locations are i.i.d. uniform.
    Deterministic given the seed.
    """
    _require_window(window, Window2, "homogeneous simulation")
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    rng = seed.generator()
    return PointPattern(_poisson_block(lam * window.area, window, (rng,) * 3, 1)[0], window)


def simulate_inhomogeneous_poisson(intensity: IntensityFunction, interval: Interval1,
                                   seed: RngSeed) -> PointPattern:
    """Inhomogeneous Poisson process on an interval by thinning, its points sorted.

    A homogeneous Poisson(lambda_max) proposal is thinned, keeping each
    point x with probability lambda(x) / lambda_max.  Exact as long as
    lambda(x) <= lambda_max everywhere; violations raise
    :class:`InvalidBoundError` when detected at evaluation.
    """
    rng = seed.generator()
    return PointPattern(
        _simulate_inhomogeneous_block(intensity, interval, (rng,) * 3, 1)[0], interval)


def _simulate_inhomogeneous_block(intensity: IntensityFunction, interval: Interval1,
                                  rngs: Sequence[np.random.Generator], count: int
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """``count`` thinned patterns: stacked points, sorted per pattern, and per-pattern counts.

    The proposals and their uniforms are a ``_poisson_block`` on interval x [0, 1].
    lambda is evaluated and the block thinned at once; a bad lambda is
    reported as the first pattern to show it would report it alone.  The
    points are not checked.
    """
    _require_window(interval, Interval1, "inhomogeneous simulation")
    lam_max = intensity.lambda_max
    proposals, counts = _poisson_block(lam_max * interval.length,
                                       Window2(interval.lo, interval.hi, 0.0, 1.0), rngs, count)
    x, uniforms = np.ascontiguousarray(proposals.T)
    starts = np.concatenate([[0], np.cumsum(counts)])
    values = intensity(x) if len(x) else x
    bad = np.flatnonzero((values < 0) | (values > lam_max * (1 + 1e-12)))
    if len(bad):
        g = np.searchsorted(starts, bad[0], side="right") - 1
        own = values[starts[g]:starts[g + 1]]
        if np.any(own < 0):
            raise ParameterError("intensity function is negative at an evaluated point")
        raise InvalidBoundError(f"intensity exceeds declared lambda_max={lam_max} "
                                f"at x={x[starts[g] + np.argmax(own)]:.6g}")
    # the kept indices ascend, so pattern g keeps those from starts[g] to starts[g + 1]
    kept = np.flatnonzero(uniforms * lam_max < values)
    bounds = np.searchsorted(kept, starts)
    points = x[kept]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        points[lo:hi].sort()
    return points, np.diff(bounds)
