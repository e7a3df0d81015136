"""Finite point measures on the trait space with integer weights.

A configuration is the state of the population: finitely many distinct
trait values, each carrying the number of individuals at that trait.
Configurations are immutable values; add and remove return new objects,
or, for the last individual removed, one shared void configuration.
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

        Only a new trait is checked; an entry keeps its stored trait object.
        """
        entries = self.entries
        i = bisect_left(entries, trait, key=_trait_of)
        if i < len(entries) and entries[i][0] == trait:
            here, weight = entries[i]
            out = entries[:i] + ((here, weight + 1),) + entries[i + 1:]
        elif 0.0 <= trait <= 1.0:
            out = entries[:i] + ((trait, 1),) + entries[i:]
        else:
            raise ValueError(f"trait coordinate {trait!r} outside [0, 1]")
        config = object.__new__(Configuration)
        _set_entries(config, out)
        _set_total_mass(config, self.total_mass + 1)
        return config

    def remove(self, trait: TraitPoint) -> "Configuration":
        """New configuration with one individual at the trait removed.

        Removing the last individual gives the one shared void
        configuration. Raises TraitAbsent if the trait carries no weight.
        """
        entries = self.entries
        i = bisect_left(entries, trait, key=_trait_of)
        if i == len(entries) or entries[i][0] != trait:
            raise TraitAbsent(f"trait {trait!r} not present in configuration")
        here, weight = entries[i]
        if weight > 1:
            out = entries[:i] + ((here, weight - 1),) + entries[i + 1:]
        elif len(entries) > 1:
            out = entries[:i] + entries[i + 1:]
        else:
            return _VOID
        config = object.__new__(Configuration)
        _set_entries(config, out)
        _set_total_mass(config, self.total_mass - 1)
        return config


# the slot descriptors, which set a field past the frozen __setattr__
_set_entries = Configuration.entries.__set__
_set_total_mass = Configuration.total_mass.__set__
# what removing the last individual gives
_VOID = Configuration.void()


def _successor(entries: tuple[tuple[TraitPoint, int], ...], total_mass: int) -> Configuration:
    """A configuration from entries known to be valid and their total mass, unchecked."""
    config = object.__new__(Configuration)
    _set_entries(config, entries)
    _set_total_mass(config, total_mass)
    return config


def parse_configuration(text: str) -> Configuration:
    """Configuration of the text "w1@t1;w2@t2;...", "0" being the void one.

    A line of :func:`~qsdsim.qsd.write_sample_csv` carries that text after
    its weight, with 17-significant-digit traits, so it parses back bit-exactly.
    """
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
