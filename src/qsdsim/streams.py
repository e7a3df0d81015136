"""Deterministic random-stream addressing built on numpy SeedSequence.

All randomness in the package flows from one root seed. A RandomStream
names a node in the SeedSequence spawn tree; replica r of an ensemble
uses the child stream ``root.substream(r)``, so results do not depend on
evaluation order or on how replicas are distributed over workers.

Replica generators are seeded a chunk at a time: ``seed_words``
repeats numpy's SeedSequence hash (entropy pool of 4 words, then
``generate_state``) in vectorised 32-bit arithmetic over a range of
replica indices, and each row seeds a PCG64 exactly as
``substream(r).generator()`` would, bit for bit.

Per-event loops take their uniforms one at a time from :class:`Uniforms`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence coerces it."""
    if n < 0:
        raise ValueError(f"entropy and spawn keys must be nonnegative, got {n}")
    out = [n & _MASK]
    while n > _MASK:
        n >>= 32
        out.append(n & _MASK)
    return out


def _hash_consts(init: int, mult: int):
    """The (before, after) multiplier pairs of successive hash calls."""
    const = init
    while True:
        nxt = const * mult & _MASK
        yield const, nxt
        const = nxt


def _scramble(value, pair):
    # Words are ints or uint64 arrays below 2**32, so products stay below
    # 2**64 and the mask reduces them mod 2**32.
    before, after = pair
    value = (value ^ before) * after & _MASK
    return value ^ (value >> 16)


def _mix(x, y):
    # uint64 wrap-around is exact mod 2**32, so the difference needs no care.
    value = (_MIX_L * x - _MIX_R * y) & _MASK
    return value ^ (value >> 16)


def seed_words(entropy: int, key: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """PCG64 seeds of spawn keys ``key + (r,)`` for r in [start, stop).

    Row ``r - start`` equals
    ``SeedSequence(entropy, spawn_key=key + (r,)).generate_state(4, np.uint64)``.
    Every word but the last is shared by the range, so it is hashed once as
    a Python int; only the replica word is a vector.
    """
    if not 0 <= start <= stop <= _MASK + 1:
        raise ValueError(f"replica range [{start}, {stop}) must lie in [0, 2**32]")
    run = _words(entropy)
    run += [0] * (_POOL_SIZE - len(run))  # padded because the spawn key is never empty
    spawn = [w for k in key for w in _words(k)]
    entropy_words = run + spawn + [np.arange(start, stop, dtype=np.uint64)]

    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_scramble(w, next(consts)) for w in entropy_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _scramble(pool[src], next(consts)))
    for word in entropy_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _scramble(word, next(consts)))

    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_scramble(pool[i % _POOL_SIZE], next(consts)) for i in range(8)]
    seeds = np.empty((stop - start, 4), dtype=np.uint64)
    for j in range(4):
        seeds[:, j] = state[2 * j] | (state[2 * j + 1] << np.uint64(32))
    return seeds


class _PrecomputedSeed(ISeedSequence):
    """Hands PCG64 one row of ``seed_words``; it cannot spawn."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed replica seed holds 4 uint64 words only")
        return self.state


@dataclass(frozen=True)
class RandomStream:
    """Addressable source of reproducible generators.

    Parameters
    ----------
    entropy : int
        Root seed (any nonnegative integer, typically u64).
    key : tuple of int
        Spawn path below the root. The empty path is the root itself.
    """

    entropy: int
    key: tuple[int, ...] = field(default_factory=tuple)

    def substream(self, *key: int) -> "RandomStream":
        """Child stream at the given path segment(s)."""
        return RandomStream(self.entropy, self.key + tuple(key))

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator owned by the caller.

        Repeated calls return generators with identical output, so a
        stream must feed exactly one logical simulation.
        """
        seq = np.random.SeedSequence(self.entropy, spawn_key=self.key)
        return np.random.default_rng(seq)

    def replica_generators(self, start: int, stop: int) -> Iterator[np.random.Generator]:
        """Generators of ``substream(r)`` for r in [start, stop), one hash pass.

        Each yields the same numbers as ``substream(r).generator()``, but its
        ``bit_generator.seed_seq`` is not a SeedSequence and cannot spawn.
        """
        for row in seed_words(self.entropy, self.key, start, stop):
            yield np.random.Generator(np.random.PCG64(_PrecomputedSeed(row)))


class Uniforms:
    """The uniforms of one generator, drawn in blocks and handed out one by one.

    Each call of :meth:`random` returns the value ``gen.random()`` would
    return next, bit for bit: a block from ``gen.random(size)`` holds the
    values of ``size`` scalar calls in order. Blocks start at 64 values
    and double up to 4096, so a short run draws little ahead. Only the
    owner of a generator may wrap it, and it must not draw from the
    generator afterwards, since the block has already taken the next
    values. The wrapper stands in for the generator wherever one uniform
    at a time is drawn through ``random()``.
    """

    __slots__ = ("_gen", "_block", "_next", "_size")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._block: list[float] = []
        self._next = 0
        self._size = 64

    def random(self) -> float:
        i = self._next
        try:
            value = self._block[i]
        except IndexError:
            size = self._size
            self._block = self._gen.random(size).tolist()
            self._size = min(2 * size, 4096)
            value = self._block[0]
            i = 0
        self._next = i + 1
        return value


def _run_chunk(args: tuple) -> list:
    fn, stream, start, stop, items = args
    gens = stream.replica_generators(start, stop)
    if items is None:
        return [fn(gen) for gen in gens]
    return [fn(gen, item) for gen, item in zip(gens, items)]


def map_replicas(fn, n_replicas: int, stream: RandomStream, workers: int = 1,
                 chunk_size: int = 4096, items: Sequence | None = None) -> list:
    """Evaluate ``fn(generator)`` for replica substreams 0..n-1.

    Replicas run in chunks of ``chunk_size``, each seeded by one hash pass;
    the chunk size bounds the seed memory and is the unit of work sent to a
    worker. ``fn`` must be picklable when workers > 1 (a module-level
    function or functools.partial over one). Results are returned in
    replica order, so the merge is independent of worker count, chunk size
    and scheduling. With ``items``, one per replica, replica r evaluates
    ``fn(generator, items[r])``.
    """
    if n_replicas < 0:
        raise ValueError("n_replicas must be nonnegative")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if items is not None and len(items) != n_replicas:
        raise ValueError(f"need one item per replica, got {len(items)} for {n_replicas}")
    chunks = [(fn, stream, a, min(a + chunk_size, n_replicas),
               None if items is None else items[a:a + chunk_size])
              for a in range(0, n_replicas, chunk_size)]
    if workers <= 1 or len(chunks) <= 1:
        return [y for chunk in chunks for y in _run_chunk(chunk)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_run_chunk, chunks):
            out.extend(part)
    return out
