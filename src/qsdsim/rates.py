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
    :meth:`death_at`, which raises InvalidRegime where it is not positive,
    and checks ``b`` and ``rho`` once per run through :meth:`check_regime`.
    """

    b: float
    rho: float
    kernel: MutationKernel

    @abstractmethod
    def per_capita_death(self, n):
        """Death rate of one individual among n >= 1, elementwise on arrays.

        It must be positive and nondecreasing in n, so its value at
        n = 1 is both :attr:`death_inf` and :attr:`singleton_death_sup`.
        A constant may come back as a scalar; it broadcasts.
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

    singleton_death_sup = death_inf

    def check_regime(self) -> None:
        """Raise InvalidRegime unless b > 0 and 0 < rho < 1; engines call it as a run starts."""
        _check(self.rho, b=self.b)

    def _row(self, n: int) -> tuple[float, float, float, float]:
        # the one formula of the per-kind totals at total mass n
        death = self.death_at(n) if n else 0.0
        return (n * (self.b * (1.0 - self.rho)), n * death, n * (self.b * self.rho),
                n * self.b + n * death)

    def state_rates(self, config: Configuration) -> tuple[float, float, float, float]:
        """Clonal, death and mutation totals and the total rate, all 0 at the void state.

        The total is :meth:`total_jump_rate` bit for bit.
        """
        return self._row(config.total_mass)

    # No code of the package calls total_jump_rate (the steppers read
    # rate_table); it stays because perfbench/tracer.py patches it by name.
    def total_jump_rate(self, config: Configuration) -> float:
        """Total rate Q of leaving the configuration; 0 at the void state."""
        return self._row(config.total_mass)[3]

    def rate_table(self) -> dict[int, tuple[float, float, float, float]]:
        """:meth:`state_rates` by total mass, each row computed on its first read.

        A run that reads its rates here evaluates d(n), and its
        :meth:`death_at` guard, once per mass it reaches. Raises
        InvalidRegime as :meth:`check_regime` does.
        """
        self.check_regime()
        return _RateTable(self._row)

    def death_bound(self, config: Configuration) -> float:
        """Upper bound for the per-individual death rate at this state: the rate itself."""
        n = config.total_mass
        return self.per_capita_death(n) if n else 0.0

    def mass_birth_death_rates(self, k):
        """Mass-chain rates (k -> k+1, k -> k-1), elementwise on an array of masses."""
        return k * self.b, k * self.death_at(k)


class _RateTable(dict):
    """Rows of a rate model by total mass, filled in on first read."""

    __slots__ = ("_row",)

    def __init__(self, row) -> None:
        super().__init__()
        self._row = row

    def __missing__(self, n: int) -> tuple[float, float, float, float]:
        row = self[n] = self._row(n)
        return row


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
