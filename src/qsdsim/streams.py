"""Deterministic random-stream addressing built on numpy SeedSequence.

All randomness in the package flows from one root seed. A RandomStream
names a node in the SeedSequence spawn tree, and everything runs in one
process. Ensembles run in chunks of replicas through :func:`map_replicas`,
and chunk c draws from one generator of the child stream
``root.substream(c)``: in ``simulator.mass_paths`` its mass paths first,
then three uniforms per urn step of its survivors, in step order; in
the validation's martingale check its mass paths alone. Yaglom's stage
k runs ``mass_paths`` on ``root.substream(k)``; how its survivors are
stored between stages and merged draws nothing.

Per-event loops take their uniforms one at a time from :class:`Uniforms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np


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


class Uniforms:
    """The uniforms of one generator, drawn in blocks and handed out one by one.

    Each call of :attr:`random` returns the value ``gen.random()`` would
    return next, bit for bit: a block from ``gen.random(size)`` holds the
    values of ``size`` scalar calls in order. Blocks start at 64 values
    and double up to 4096, so a short run draws little ahead; ``random``
    is a C-level iterator's ``__next__`` over them, with no Python frame
    per draw. Only the owner of a generator may wrap it, and it must not
    draw from the generator afterwards, since the block has already taken
    the next values. The wrapper stands in for the generator wherever one
    uniform at a time is drawn through ``random()``.
    """

    __slots__ = ("random",)

    def __init__(self, gen: np.random.Generator) -> None:
        sizes = chain((64 << k for k in range(6)), repeat(4096))
        self.random = chain.from_iterable(gen.random(size).tolist() for size in sizes).__next__


def map_replicas(fn, stream: RandomStream, items: Sequence) -> list:
    """``fn(generator, item)`` for each item, item c on ``stream.substream(c)``.

    The result holds one value per item, in item order.
    """
    return [fn(stream.substream(c).generator(), item) for c, item in enumerate(items)]
