"""Observation windows, point patterns, and seeded Poisson simulators.

Planar homogeneous processes live on a rectangle :class:`Window2`;
one-dimensional inhomogeneous processes live on an :class:`Interval1`.
Patterns are immutable and validated on construction: every point lies
inside its window and points are pairwise distinct.
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
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ParameterError(
                f"degenerate window: [{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )

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

    def translate(self, dx: float, dy: float) -> "Window2":
        return Window2(self.x_min + dx, self.x_max + dx, self.y_min + dy, self.y_max + dy)


@dataclass(frozen=True)
class Interval1:
    """One-dimensional observation interval."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class PointPattern:
    """A finite pattern of pairwise-distinct points in a window.

    ``points`` has shape (n, 2) over a :class:`Window2` or shape (n,)
    over an :class:`Interval1`.
    """

    points: np.ndarray
    window: Window2 | Interval1

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if isinstance(self.window, Window2):
            pts = pts.reshape(-1, 2) if pts.size else pts.reshape(0, 2)
        else:
            pts = pts.reshape(-1) if pts.size else pts.reshape(0)
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        inside = self.window.contains(pts) if len(pts) else np.ones(0, bool)
        if not bool(np.all(inside)):
            row = int(np.flatnonzero(~inside)[0])
            raise OutOfWindowError(f"point at row {row} lies outside the window")
        if len(pts) > 1:
            rows = pts if pts.ndim == 2 else pts[:, None]
            if len(np.unique(rows, axis=0)) != len(rows):
                raise DuplicatePointError("points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.window, Window2) else 1

    def translate(self, dx: float, dy: float = 0.0) -> "PointPattern":
        """Shift pattern and window together (the statistics are invariant)."""
        if self.dim == 2:
            return PointPattern(self.points + np.array([dx, dy]), self.window.translate(dx, dy))
        win = Interval1(self.window.lo + dx, self.window.hi + dx)
        return PointPattern(self.points + dx, win)


@dataclass(frozen=True)
class IntensityFunction:
    """Nonnegative intensity x -> lambda(x) on an interval, with a finite upper bound.

    ``fn`` must accept numpy arrays.  ``lambda_max`` is the caller's
    bound; simulation verifies it pointwise and rejects violations.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lambda_max: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_max) and self.lambda_max >= 0):
            raise ParameterError(f"lambda_max must be finite and >= 0, got {self.lambda_max}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def integral(self, lo: float, hi: float, n_nodes: int = 256) -> float:
        """Integral of lambda over [lo, hi] by Gauss-Legendre quadrature."""
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return float(half * np.sum(weights * self(mid + half * nodes)))


def constant_intensity(value: float) -> IntensityFunction:
    if value < 0 or not math.isfinite(value):
        raise ParameterError(f"intensity must be finite and >= 0, got {value}")
    return IntensityFunction(lambda x: np.full_like(np.asarray(x, float), value),
                             lambda_max=value, label=f"const:{value:g}")


def linear_intensity(a: float, b: float, interval: Interval1) -> IntensityFunction:
    """lambda(x) = a + b*x, clipped nowhere: must be >= 0 on the interval."""
    ends = [a + b * interval.lo, a + b * interval.hi]
    if min(ends) < 0:
        raise ParameterError(f"linear intensity {a} + {b}x is negative on the interval")
    return IntensityFunction(lambda x: a + b * np.asarray(x, float),
                             lambda_max=max(ends), label=f"linear:{a:g},{b:g}")


def simulate_homogeneous_poisson(lam: float, window: Window2, seed: RngSeed) -> PointPattern:
    """Homogeneous Poisson process on a rectangle.

    The count is Poisson(lam * area) and locations are i.i.d. uniform.
    Deterministic given the seed.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError(f"intensity must be finite and >= 0, got {lam}")
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
