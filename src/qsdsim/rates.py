"""Rate models: trait-blind birth, mutation and death rates.

Every individual reproduces at rate ``b`` and dies at the per-capita
death rate d(n), where n is the total mass; a birth mutates with
probability ``rho`` and otherwise clones the parent. The rates do not
depend on the traits, so the total mass is a birth-death chain on its
own, which makes the mass-first ensembles and the mass-chain oracle
exact. Uniform rates have d(n) = lam; logistic rates add a death
penalty growing linearly with the population size.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration
from .errors import InvalidRegime, NoMutationMass
from .trait_space import MutationKernel, TraitPoint


class RateModel(ABC):
    """Trait-blind rates from ``b``, ``rho``, ``kernel`` and d(n).

    A model supplies the reproduction rate ``b``, the mutation
    probability ``rho``, the mutation ``kernel`` and
    :meth:`per_capita_death`. Every rate, bound and mass-chain rate the
    engines, the coupling, the estimators and the oracle read is derived
    from these here. Rates are zero at the void configuration. No rate
    depends on a trait, so the exact steppers draw a jump's kind from the
    per-kind totals of :meth:`state_rates` and then a uniform individual
    (:func:`individual_at`). Every engine reads d(n) through
    :meth:`death_at`, which raises InvalidRegime where it is not positive.
    A model must not change: its one :meth:`rate_table` keeps its rates.
    """

    b: float
    rho: float
    kernel: MutationKernel

    @abstractmethod
    def per_capita_death(self, n):
        """Death rate of one individual among n >= 1, elementwise on arrays.

        It must be positive and nondecreasing in n, so its value at
        n = 1 is :attr:`death_inf`. A constant may come back as a scalar;
        it broadcasts.
        """

    def death_at(self, n):
        """d(n) at masses n >= 1 that a run reaches, checked positive as the contract requires."""
        d = self.per_capita_death(n)
        if not (d.min() if isinstance(d, np.ndarray) else d) > 0.0:
            masses, deaths = (np.ravel(x) for x in np.broadcast_arrays(n, d))
            i = deaths.argmin()
            raise InvalidRegime(f"per_capita_death({masses[i]}) = {deaths[i]} must be positive")
        return d

    # No code of the package calls the five per-individual methods below
    # (clonal, mutation, reproduction and death rate, and the death bound);
    # they stay because perfbench/tracer.py patches them by name.

    def clonal_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Clonal birth rate of one individual."""
        return 0.0 if config.is_void else self.b * (1.0 - self.rho)

    def mutation_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Mutation birth rate of one individual."""
        return 0.0 if config.is_void else self.b * self.rho

    def reproduction_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Total birth rate of one individual: ``b`` whole, not clonal + mutation."""
        return 0.0 if config.is_void else self.b

    def death_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Death rate of one individual."""
        n = config.total_mass
        return self.per_capita_death(n) if n else 0.0

    @property
    def birth_sup(self) -> float:
        """Upper bound for reproduction_rate over all states."""
        return self.b

    @property
    def death_inf(self) -> float:
        """Lower bound for death_rate over nonempty states, and its value at mass 1."""
        return self.per_capita_death(1)

    def check_regime(self) -> None:
        """Raise InvalidRegime unless b > 0 and 0 < rho < 1; :meth:`rate_table` calls it."""
        _check(self.rho, b=self.b)

    def _row(self, n, death):
        # the one formula of the mass rates at total mass n, where d(n) = death,
        # on ints or on arrays: the per-kind totals of state_rates, then n b
        birth, dying = n * self.b, n * death
        return (n * (self.b * (1.0 - self.rho)), dying, n * (self.b * self.rho),
                birth + dying, birth)

    def state_rates(self, config: Configuration) -> tuple[float, float, float, float]:
        """Clonal, death and mutation totals and the total rate, all 0 at the void state.

        The total is :meth:`total_jump_rate` bit for bit.
        """
        n = config.total_mass
        return self._row(n, self.death_at(n) if n else 0.0)[:4]

    # No code of the package calls total_jump_rate (the steppers read
    # rate_table); it stays because perfbench/tracer.py patches it by name.
    def total_jump_rate(self, config: Configuration) -> float:
        """Total rate Q of leaving the configuration; 0 at the void state."""
        return self.state_rates(config)[3]

    def rate_table(self) -> RateTable:
        """The model's one table of mass rates by total mass, built on first use.

        Every run on the model fills and reads it, so d(n) is evaluated once
        per mass. Building it raises InvalidRegime as :meth:`check_regime` does.
        """
        if "_rate_table" not in self.__dict__:
            self.check_regime()
            self.__dict__["_rate_table"] = RateTable(self)
        return self.__dict__["_rate_table"]

    def death_bound(self, config: Configuration) -> float:
        """Upper bound for the per-individual death rate at this state: the rate itself."""
        n = config.total_mass
        return self.per_capita_death(n) if n else 0.0

    def mass_birth_death_rates(self, k):
        """Mass-chain rates (k -> k+1, k -> k-1), elementwise on an array of masses."""
        return k * self.b, k * self.death_at(k)


class RateTable(dict):
    """A rate model's one table of rates by total mass, which every run on it fills and reads.

    ``table[n]`` is :meth:`RateModel.state_rates`' row in Python floats,
    ``table.death(n)`` is d(n), and ``table(masses)`` takes the columns of
    ``by_mass`` (n b, n d(n), total, d(n)) at masses >= 1. A read fills
    each mass it reaches first, through one :meth:`RateModel.death_at`
    call on it or on the array of them and ``RateModel._row``, so d(n)
    and its guard run once per mass. A total of 0 marks a mass not
    filled; the last column never is, so a first read past the width,
    clipped to it, sees a mass to fill.
    """

    __slots__ = ("_model", "by_mass")

    def __init__(self, model: RateModel) -> None:
        # the void row: a fill would evaluate d(0), which the contract leaves out
        super().__init__({0: (0.0, 0.0, 0.0, 0.0)})
        self._model = model
        self.by_mass = np.zeros((4, 64))  # the masses most runs reach; it grows

    def __call__(self, n: np.ndarray) -> np.ndarray:
        rates = self.by_mass.take(n, axis=1, mode="clip")
        if not _every(rates[2]):
            new = np.unique(n[rates[2] == 0])
            self._fill(new, int(new[-1]))
            rates = self.by_mass.take(n, axis=1, mode="clip")
        return rates

    def __missing__(self, n: int) -> tuple[float, float, float, float]:
        # a scalar fill: numpy's per-call cost would dominate an engine's short paths
        if not (n + 1 < self.by_mass.shape[1] and self.by_mass.item(2, n)):
            self._fill(n, n)
        row = self[n] = self._model._row(n, self.by_mass.item(3, n))[:4]
        return row

    def _fill(self, new, top: int) -> None:
        # new is one mass or an array of masses, top the largest
        size = self.by_mass.shape[1]
        if top + 2 > size:
            unfilled = np.zeros((4, 2 * top + 2 - size))
            self.by_mass = np.concatenate((self.by_mass, unfilled), axis=1)
        death = self._model.death_at(new)
        _, dying, _, total, birth = self._model._row(new, death)
        for i, column in enumerate((birth, dying, total, death)):
            self.by_mass[i, new] = column

    def death(self, n: int) -> float:
        """d(n), the d(n) the row at n is built from."""
        if n not in self:
            self[n]
        return self.by_mass.item(3, n)


def _every(x: np.ndarray) -> bool:
    # x.all() without the Python wrapper numpy puts around it; the lockstep
    # loops ask this every round
    return np.count_nonzero(x) == x.size


def _check(rho: float, **positive: float) -> None:
    for name, value in positive.items():
        if not (value > 0.0):
            raise InvalidRegime(f"{name} must be positive, got {value!r}")
    if not (0.0 < rho < 1.0):
        raise InvalidRegime(f"rho must lie in (0, 1), got {rho!r}")


@dataclass(frozen=True)
class UniformModel(RateModel):
    """State-independent rates: death lam, clonal b(1-rho), mutation b*rho.

    Parameters
    ----------
    lam : float
        Per-individual death rate, positive.
    b : float
        Per-individual total reproduction rate, positive.
    rho : float
        Fraction of reproductions that mutate, in (0, 1).
    kernel : MutationKernel
        Child-trait kernel for mutation births.
    """

    lam: float
    b: float
    rho: float
    kernel: MutationKernel

    def __post_init__(self) -> None:
        _check(self.rho, lam=self.lam, b=self.b)

    def per_capita_death(self, n):
        return self.lam


@dataclass(frozen=True)
class LogisticModel(RateModel):
    """Crowding-sensitive death: one individual dies at rate d + c(n - 1).

    Parameters
    ----------
    b : float
        Per-individual total reproduction rate, positive.
    rho : float
        Fraction of reproductions that mutate, in (0, 1).
    d : float
        Baseline death rate, positive.
    c : float
        Crowding coefficient, positive; n is the total population size.
    kernel : MutationKernel
        Child-trait kernel for mutation births.
    """

    b: float
    rho: float
    d: float
    c: float
    kernel: MutationKernel

    def __post_init__(self) -> None:
        _check(self.rho, b=self.b, d=self.d, c=self.c)

    def per_capita_death(self, n):
        return self.d + self.c * (n - 1)


def individual_at(config: Configuration, u: float) -> TraitPoint:
    """Trait of the individual at rank floor(u n) of the n in a nonvoid configuration.

    Ranks run from 0 in :meth:`Configuration.individual_trait` order, and
    u lies in [0, 1]. A uniform rescaled to [0, 1) can round u n up to n;
    that rank is clipped to n - 1.
    """
    n = config.total_mass
    rank = int(u * n)
    return config.individual_trait(rank + 1 if rank < n else n)


def holding_time(rng: np.random.Generator, rate: float) -> float:
    """Exponential holding time at a positive rate, by the inverse CDF of one uniform.

    One uniform per holding time keeps every engine's stream consumption flat.
    """
    return -math.log(1.0 - rng.random()) / rate


def sample_mutation_parent(config: Configuration, rng: np.random.Generator) -> TraitPoint:
    """Draw the parent of a mutation: a uniform individual, as all mutate at rate b rho."""
    if config.is_void:
        raise NoMutationMass("configuration carries no mutation rate")
    return individual_at(config, rng.random())
