"""Deterministic seeding with hierarchical substreams.

Every randomized operation takes an :class:`RngSeed`.  A seed plus a
substream path identifies one random stream, independent of how many
workers execute the job, so parallel and serial runs produce identical
results.  Monte Carlo drivers give each replication (or chunk) its own
substream and combine results in index order.

Loops over many replicates seed them with :func:`replicate_generators`.
Replicate r of ``parent`` draws from ``parent.substream(r)``, exactly as
``parent.substream(r).generator()`` would, but without a ``SeedSequence``
and ``PCG64`` per replicate.  numpy fixes both seeding algorithms for
reproducibility (NEP 19), so the states are computed directly:
``SeedSequence`` hashes every entropy word into a pool of four, and only
the last word, r, differs between replicates.  The shared words are mixed
once, in Python integers; r's word, the pool's output
``generate_state(4, uint64)`` = (w0, w1, w2, w3) and then PCG64's seeding
(inc = (w2 * 2^64 + w3) * 2 + 1; from state 0 one LCG step, add
w0 * 2^64 + w1, one more step) run over uint32 arrays of a chunk of ids.
One generator is reused: its state is set before each replicate draws, so
a yielded generator is valid only until the next one is taken, and the
iterator belongs to the thread that drives it.  Ids of 2^32 or more (two
entropy words) take numpy's own ``SeedSequence`` path.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import ParameterError

_T = TypeVar("_T")

_MAX_SEED = 2**64

# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL = 4
# replicate states computed at once: large enough to spread the fixed cost
# of the array passes, small enough that memory does not grow with the ids
_STATE_CHUNK = 4096


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


def replicate_generators(parent: RngSeed, ids: range) -> Iterator[np.random.Generator]:
    """For each r in ``ids``, a generator that draws as ``parent.substream(r).generator()``.

    The generator is one object, reseeded before it is yielded again; draw
    from it before taking the next.  States are computed a chunk of
    ``_STATE_CHUNK`` ids at a time, as the iterator is consumed.
    """
    pool, const = _shared_pool(parent.seed, parent.stream)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for lo in range(0, len(ids), _STATE_CHUNK):
        chunk = ids[lo:lo + _STATE_CHUNK]
        r = np.arange(chunk.start, chunk.stop, chunk.step)
        one_word = (r >= 0) & (r <= _MASK32)
        states = iter(_pcg64_states(pool, const, r[one_word].astype(np.uint32)))
        for rid, fast in zip(chunk, one_word):
            if not fast:
                yield parent.substream(rid).generator()
                continue
            state, inc = next(states)
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's word hash: (hashed value, next hash constant); ints or uint32 arrays."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    mixed = (_MIX_L * x - _MIX_R * y) & _MASK32
    return mixed ^ mixed >> 16


def _words(value: int) -> list[int]:
    """An integer's 32-bit words, least significant first, as SeedSequence splits it."""
    return [value >> (32 * k) & _MASK32 for k in range(max(1, -(-value.bit_length() // 32)))]


def _shared_pool(seed: int, prefix: tuple[int, ...]) -> tuple[list[int], int]:
    """SeedSequence(seed, spawn_key=prefix + (r,))'s pool before r is mixed in, and its hash constant.

    With a spawn key the seed's words are padded to the pool size.
    """
    run = _words(seed)
    words = run + [0] * (_POOL - len(run)) + [w for k in prefix for w in _words(k)]
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _pcg64_states(pool: list[int], const: int, last: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) for each last entropy word of uint32 array ``last``."""
    mixed = [np.full(len(last), word, dtype=np.uint32) for word in pool]
    for dst in range(_POOL):
        value, const = _hashmix(last, const)
        mixed[dst] = _mix(mixed[dst], value)
    out, const = [], _INIT_B
    for k in range(8):  # generate_state(4, uint64): 8 words, each uint64 low half first
        value, const = _hashmix(mixed[k % _POOL], const, _MULT_B)
        out.append(value.astype(np.uint64))
    w0, w1, w2, w3 = ((lo | hi << 32).tolist() for lo, hi in zip(out[::2], out[1::2]))
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(w0, w1, w2, w3):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


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
