"""Finite point measures on the trait space with integer weights.

A configuration is the state of the population: finitely many distinct
trait values, each carrying the number of individuals at that trait.
Configurations are immutable values; add and remove return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import TraitAbsent
from .trait_space import TraitPoint, validate_trait


@dataclass(frozen=True)
class Configuration:
    """Sorted flat sequence of (trait, weight) entries.

    Entries are strictly increasing in trait and every weight is a
    positive integer. The void configuration has no entries.
    ``total_mass`` is summed once, on construction, since every rate of
    a trait-blind model reads it.
    """

    entries: tuple[tuple[TraitPoint, int], ...] = field(default_factory=tuple)
    total_mass: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        last = None
        total = 0
        for trait, weight in self.entries:
            validate_trait(trait)
            if not (isinstance(weight, int) and weight >= 1):
                raise ValueError(f"weight {weight!r} at trait {trait!r} must be a positive integer")
            if last is not None and trait <= last:
                raise ValueError("entries must be strictly increasing in trait")
            last = trait
            total += weight
        object.__setattr__(self, "total_mass", total)

    @staticmethod
    def void() -> "Configuration":
        return Configuration(())

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[TraitPoint, int]]) -> "Configuration":
        """Build from (trait, weight) pairs, merging duplicate traits."""
        merged: dict[float, int] = {}
        for trait, weight in pairs:
            merged[trait] = merged.get(trait, 0) + int(weight)
        entries = tuple(sorted((t, w) for t, w in merged.items() if w != 0))
        return Configuration(entries)

    @staticmethod
    def singleton(trait: TraitPoint) -> "Configuration":
        return Configuration(((trait, 1),))

    # -- measure structure -------------------------------------------------

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def is_void(self) -> bool:
        return not self.entries

    def support(self) -> tuple[TraitPoint, ...]:
        return tuple(t for t, _ in self.entries)

    def weight_of(self, trait: TraitPoint) -> int:
        """Weight at the trait, 0 if absent."""
        for t, w in self.entries:
            if t == trait:
                return w
            if t > trait:
                break
        return 0

    def __iter__(self) -> Iterator[tuple[TraitPoint, int]]:
        return iter(self.entries)

    def individual_trait(self, index: int) -> TraitPoint:
        """Trait of the individual with the given 1-based index.

        Individuals are ranked by trait order with cumulative weights:
        index i belongs to the entry whose cumulative weight first
        reaches i. Raises IndexError if index exceeds the total mass.
        """
        if index < 1:
            raise IndexError(f"individual index {index} out of range")
        acc = 0
        for trait, weight in self.entries:
            acc += weight
            if index <= acc:
                return trait
        raise IndexError(f"individual index {index} exceeds total mass {acc}")

    # -- elementary transitions --------------------------------------------

    def add(self, trait: TraitPoint) -> "Configuration":
        """New configuration with one more individual at the trait."""
        validate_trait(trait)
        out = []
        placed = False
        for t, w in self.entries:
            if t == trait:
                out.append((t, w + 1))
                placed = True
            elif t > trait and not placed:
                out.append((trait, 1))
                out.append((t, w))
                placed = True
            else:
                out.append((t, w))
        if not placed:
            out.append((trait, 1))
        return Configuration(tuple(out))

    def remove(self, trait: TraitPoint) -> "Configuration":
        """New configuration with one individual at the trait removed.

        Raises TraitAbsent if the trait carries no weight.
        """
        out = []
        found = False
        for t, w in self.entries:
            if t == trait:
                found = True
                if w > 1:
                    out.append((t, w - 1))
            else:
                out.append((t, w))
        if not found:
            raise TraitAbsent(f"trait {trait!r} not present in configuration")
        return Configuration(tuple(out))

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Text form "w1@t1;w2@t2;..." with 17-significant-digit traits.

        The void configuration serializes to "0". Parsing the result
        recovers the configuration bit-exactly.
        """
        if not self.entries:
            return "0"
        return ";".join(f"{w}@{t:.17g}" for t, w in self.entries)


def parse_configuration(text: str) -> Configuration:
    """Inverse of Configuration.serialize."""
    text = text.strip()
    if text == "0":
        return Configuration.void()
    pairs = []
    for item in text.split(";"):
        weight_part, sep, trait_part = item.partition("@")
        if not sep:
            raise ValueError(f"malformed configuration entry {item!r}")
        pairs.append((float(trait_part), int(weight_part)))
    return Configuration.from_pairs(pairs)
