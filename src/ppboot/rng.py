"""Deterministic seeding with hierarchical substreams.

Every randomized operation takes an :class:`RngSeed`.  A seed plus a
substream path identifies one random stream, independent of how many
workers execute the job, so parallel and serial runs produce identical
results.  Monte Carlo drivers give each replication (or chunk) its own
substream and combine results in index order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from .errors import ParameterError

_T = TypeVar("_T")

_MAX_SEED = 2**64


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed plus a substream path.

    Identical ``(seed, stream)`` pairs reproduce identical output on any
    worker count.  ``stream`` may be given as a single integer; nested
    substreams extend it into a tuple path.
    """

    seed: int
    stream: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ParameterError(f"seed must be in [0, 2^64), got {self.seed}")
        stream = self.stream
        if isinstance(stream, (int, np.integer)):
            stream = (int(stream),)
        object.__setattr__(self, "stream", tuple(int(s) for s in stream))
        if any(s < 0 for s in self.stream):
            raise ParameterError(f"stream ids must be nonnegative, got {self.stream}")

    def substream(self, *ids: int) -> "RngSeed":
        """Derive a child seed for an independent substream."""
        return RngSeed(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        """A fresh generator for this (seed, stream) pair."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.stream))


def parallel_map(fn: Callable[[int], _T], n_tasks: int, threads: int = 1) -> list[_T]:
    """Run ``fn(0..n_tasks-1)`` and return results in task order.

    The task decomposition is fixed by ``n_tasks`` alone, so the result
    is identical for every ``threads`` value; threading only affects
    wall-clock time.  ``threads`` must be at least 1.
    """
    if n_tasks < 0:
        raise ParameterError("n_tasks must be nonnegative")
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    if threads == 1 or n_tasks <= 1:
        return [fn(i) for i in range(n_tasks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_tasks)))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` items into fixed-size chunks (last one ragged)."""
    if total < 0 or chunk <= 0:
        raise ParameterError("total must be >= 0 and chunk > 0")
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])
