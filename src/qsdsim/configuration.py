"""Finite point measures on the trait space with integer weights.

A configuration is the state of the population: finitely many distinct
trait values, each carrying the number of individuals at that trait.
Configurations are immutable values; add and remove return new objects.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from .errors import TraitAbsent
from .trait_space import TraitPoint, validate_trait

_trait_of = itemgetter(0)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Sorted flat sequence of (trait, weight) entries.

    Entries are strictly increasing in trait and every weight is a
    positive integer, not a ``bool``. The void configuration has no
    entries. ``total_mass`` is summed once, on construction, since every
    rate of a trait-blind model reads it. Both fields live in slots.
    """

    entries: tuple[tuple[TraitPoint, int], ...] = field(default_factory=tuple)
    total_mass: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        last = None
        total = 0
        for trait, weight in self.entries:
            validate_trait(trait)
            if not (isinstance(weight, int) and not isinstance(weight, bool) and weight >= 1):
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
        """Build from (trait, weight) pairs, merging duplicate traits; weights must be integral."""
        merged: dict[float, int] = {}
        for trait, weight in pairs:
            if not float(weight).is_integer():
                raise ValueError(f"weight {weight!r} at trait {trait!r} is not an integer")
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
        """New configuration with one more individual at the trait.

        Only the new trait is checked; an entry keeps its stored trait object.
        """
        validate_trait(trait)
        entries = self.entries
        i = bisect_left(entries, trait, key=_trait_of)
        if i < len(entries) and entries[i][0] == trait:
            here, weight = entries[i]
            out = entries[:i] + ((here, weight + 1),) + entries[i + 1:]
        else:
            out = entries[:i] + ((trait, 1),) + entries[i:]
        return _successor(out, self.total_mass + 1)

    def remove(self, trait: TraitPoint) -> "Configuration":
        """New configuration with one individual at the trait removed.

        Raises TraitAbsent if the trait carries no weight.
        """
        entries = self.entries
        i = bisect_left(entries, trait, key=_trait_of)
        if i == len(entries) or entries[i][0] != trait:
            raise TraitAbsent(f"trait {trait!r} not present in configuration")
        here, weight = entries[i]
        kept = ((here, weight - 1),) if weight > 1 else ()
        return _successor(entries[:i] + kept + entries[i + 1:], self.total_mass - 1)

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Text form "w1@t1;w2@t2;..." with 17-significant-digit traits.

        The void configuration serializes to "0". Parsing the result
        recovers the configuration bit-exactly.
        """
        if not self.entries:
            return "0"
        return ";".join(f"{w}@{t:.17g}" for t, w in self.entries)


# the slot descriptors, which set a field past the frozen __setattr__
_set_entries = Configuration.entries.__set__
_set_total_mass = Configuration.total_mass.__set__


def _successor(entries: tuple[tuple[TraitPoint, int], ...], total_mass: int) -> Configuration:
    """A configuration from entries known to be valid and their total mass, unchecked."""
    config = object.__new__(Configuration)
    _set_entries(config, entries)
    _set_total_mass(config, total_mass)
    return config


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
