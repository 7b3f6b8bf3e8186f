"""Observation windows, point patterns, and seeded Poisson simulators.

Planar homogeneous processes live on a rectangle :class:`Window2`;
one-dimensional inhomogeneous processes live on an :class:`Interval1`.
Patterns are immutable and validated on construction, and only there:
points have the window's shape, every point lies inside its window, and
points are pairwise distinct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
        """Boolean mask of rows of an (n, 2) array lying inside the window."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (p[:, 0] >= self.x_min)
            & (p[:, 0] <= self.x_max)
            & (p[:, 1] >= self.y_min)
            & (p[:, 1] <= self.y_max)
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
        if len(pts) > 1:
            # a stable sort puts equal points next to each other in index order,
            # so each adjacent equal pair's second index repeats an earlier point
            rows = pts.reshape(len(pts), -1)
            order = np.lexsort(rows.T[::-1])
            repeats = np.flatnonzero(np.all(rows[order[1:]] == rows[order[:-1]], axis=1))
            if len(repeats):
                k = repeats[np.argmin(order[repeats + 1])]
                raise _point_error(DuplicatePointError, int(order[k + 1]),
                                   f"repeats point {order[k]}; points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.window, Window2) else 1


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


def _require_drawable(mean: float) -> None:
    if not mean <= _MAX_EXPECTED_COUNT:
        raise ParameterError(
            f"expected point count {mean:.6g} exceeds the simulation cap {_MAX_EXPECTED_COUNT:.0e}"
        )


def simulate_homogeneous_poisson(lam: float, window: Window2, seed: RngSeed) -> PointPattern:
    """Homogeneous Poisson process on a rectangle.

    The count is Poisson(lam * area) and locations are i.i.d. uniform.
    Deterministic given the seed.
    """
    _require_window(window, Window2, "homogeneous simulation")
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
    _require_drawable(lam * window.area)
    rng = seed.generator()
    n = int(rng.poisson(lam * window.area))
    xs = rng.uniform(window.x_min, window.x_max, n)
    ys = rng.uniform(window.y_min, window.y_max, n)
    return PointPattern(np.column_stack([xs, ys]), window)


def simulate_inhomogeneous_poisson(
    intensity: IntensityFunction, interval: Interval1, seed: RngSeed
) -> PointPattern:
    """Inhomogeneous Poisson process on an interval by thinning.

    A homogeneous Poisson(lambda_max) proposal is thinned, keeping each
    point x with probability lambda(x) / lambda_max.  Exact as long as
    lambda(x) <= lambda_max everywhere; violations raise
    :class:`InvalidBoundError` when detected at evaluation.
    """
    _require_window(interval, Interval1, "inhomogeneous simulation")
    _require_drawable(intensity.lambda_max * interval.length)
    rng = seed.generator()
    n_prop = int(rng.poisson(intensity.lambda_max * interval.length))
    proposals = rng.uniform(interval.lo, interval.hi, n_prop)
    u = rng.uniform(0.0, 1.0, n_prop)
    if n_prop == 0:
        return PointPattern(np.empty(0), interval)
    values = intensity(proposals)
    if np.any(values < 0):
        raise ParameterError("intensity function is negative at an evaluated point")
    if np.any(values > intensity.lambda_max * (1 + 1e-12)):
        x_bad = float(proposals[np.argmax(values)])
        raise InvalidBoundError(
            f"intensity exceeds declared lambda_max={intensity.lambda_max} at x={x_bad:.6g}"
        )
    kept = proposals[u * intensity.lambda_max < values]
    return PointPattern(np.sort(kept), interval)
