"""Rate models: per-individual clonal birth, mutation, and death rates.

A rate model assigns to every individual of a configuration a clonal
birth rate, a mutation rate, and a death rate, together with the global
bounds the coupling and thinning machinery needs. Two built-in kinds
are provided. Uniform rates do not depend on the state at all; Logistic
rates add a death penalty growing linearly with the population size.
Both are trait-blind, which is what makes the mass-chain oracle exact
for them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration
from .errors import InvalidRegime, NoMutationMass, UnsupportedModel
from .trait_space import MutationKernel, TraitPoint


class RateModel(ABC):
    """Per-individual rates plus the bounds they never exceed.

    Extension models must supply the three per-individual rates, the
    bounds ``birth_sup`` (for reproduction including mutation),
    ``death_inf`` and ``singleton_death_sup``, and a mutation kernel.
    Rates must be strictly positive on nonempty configurations and are
    zero at the void configuration by convention. That is all the full
    engines (``simulate_gillespie``, ``simulate_thinning``,
    ``fleming_viot_estimate``) read.

    The mass-first ensemble estimators (``survival_curve``,
    ``yaglom_estimate``, ``mass_moments``, ``hitting_tail``) need a
    trait-blind model: one that also overrides
    :meth:`mass_birth_death_rates`, evaluated elementwise on an array of
    masses, and carries ``rho``, the probability that a birth mutates.
    For any other model they raise :class:`UnsupportedModel`, from the
    base :meth:`mass_birth_death_rates`.
    """

    kernel: MutationKernel

    @abstractmethod
    def clonal_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Clonal birth rate of one individual at the trait."""

    @abstractmethod
    def mutation_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Mutation birth rate of one individual at the trait."""

    @abstractmethod
    def death_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Death rate of one individual at the trait."""

    def reproduction_rate(self, trait: TraitPoint, config: Configuration) -> float:
        """Total birth rate (clonal plus mutation) of one individual."""
        return self.clonal_rate(trait, config) + self.mutation_rate(trait, config)

    @property
    @abstractmethod
    def birth_sup(self) -> float:
        """Upper bound for reproduction_rate over all states."""

    @property
    @abstractmethod
    def death_inf(self) -> float:
        """Lower bound for death_rate over all nonempty states."""

    @property
    @abstractmethod
    def singleton_death_sup(self) -> float:
        """Upper bound for death_rate over configurations of mass 1."""

    def state_rates(self, config: Configuration) -> tuple[list[float], list[float], float, float]:
        """Per-entry clonal and death rates, total mutation rate, total rate.

        The total is the analytic jump mass of the state whenever the
        model can supply it in closed form; the generic fallback sums
        the parts.
        """
        clonal = []
        death = []
        mutation = 0.0
        for trait, weight in config.entries:
            clonal.append(weight * self.clonal_rate(trait, config))
            death.append(weight * self.death_rate(trait, config))
            mutation += weight * self.mutation_rate(trait, config)
        total = sum(clonal) + sum(death) + mutation
        return clonal, death, mutation, total

    def total_jump_rate(self, config: Configuration) -> float:
        """Total rate Q of leaving the configuration; 0 at the void state."""
        return self.state_rates(config)[3]

    def death_bound(self, config: Configuration) -> float:
        """Upper bound for the per-individual death rate at this state."""
        if config.is_void:
            return 0.0
        return max(self.death_rate(t, config) for t, _ in config.entries)

    def mass_birth_death_rates(self, k: int) -> tuple[float, float]:
        """Mass-chain rates (k -> k+1, k -> k-1) for trait-blind models."""
        raise UnsupportedModel(
            f"{type(self).__name__} rates are not a function of total mass alone")


def _check_rho(rho: float) -> None:
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
        if not (self.lam > 0.0):
            raise InvalidRegime(f"lam must be positive, got {self.lam!r}")
        if not (self.b > 0.0):
            raise InvalidRegime(f"b must be positive, got {self.b!r}")
        _check_rho(self.rho)

    def clonal_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.b * (1.0 - self.rho)

    def mutation_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.b * self.rho

    def death_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.lam

    def reproduction_rate(self, trait: TraitPoint, config: Configuration) -> float:
        # Returned whole rather than as the clonal + mutation sum so the
        # exact generator identities hold bit-for-bit.
        return 0.0 if config.is_void else self.b

    @property
    def birth_sup(self) -> float:
        return self.b

    @property
    def death_inf(self) -> float:
        return self.lam

    @property
    def singleton_death_sup(self) -> float:
        return self.lam

    def state_rates(self, config: Configuration) -> tuple[list[float], list[float], float, float]:
        clonal_per = self.b * (1.0 - self.rho)
        n = 0
        clonal = []
        death = []
        for _, weight in config.entries:
            n += weight
            clonal.append(weight * clonal_per)
            death.append(weight * self.lam)
        return clonal, death, n * (self.b * self.rho), n * (self.b + self.lam)

    def total_jump_rate(self, config: Configuration) -> float:
        return config.total_mass * (self.b + self.lam)

    def death_bound(self, config: Configuration) -> float:
        return 0.0 if config.is_void else self.lam

    def mass_birth_death_rates(self, k: int) -> tuple[float, float]:
        return k * self.b, k * self.lam


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
        if not (self.b > 0.0):
            raise InvalidRegime(f"b must be positive, got {self.b!r}")
        _check_rho(self.rho)
        if not (self.d > 0.0):
            raise InvalidRegime(f"d must be positive, got {self.d!r}")
        if not (self.c > 0.0):
            raise InvalidRegime(f"c must be positive, got {self.c!r}")

    def clonal_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.b * (1.0 - self.rho)

    def mutation_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.b * self.rho

    def death_rate(self, trait: TraitPoint, config: Configuration) -> float:
        if config.is_void:
            return 0.0
        return self.d + self.c * (config.total_mass - 1)

    def reproduction_rate(self, trait: TraitPoint, config: Configuration) -> float:
        return 0.0 if config.is_void else self.b

    @property
    def birth_sup(self) -> float:
        return self.b

    @property
    def death_inf(self) -> float:
        return self.d

    @property
    def singleton_death_sup(self) -> float:
        return self.d

    def state_rates(self, config: Configuration) -> tuple[list[float], list[float], float, float]:
        n = config.total_mass
        death_per = self.d + self.c * (n - 1) if n else 0.0
        clonal_per = self.b * (1.0 - self.rho)
        clonal = [weight * clonal_per for _, weight in config.entries]
        death = [weight * death_per for _, weight in config.entries]
        return clonal, death, n * (self.b * self.rho), n * self.b + n * death_per

    def total_jump_rate(self, config: Configuration) -> float:
        n = config.total_mass
        if n == 0:
            return 0.0
        return n * self.b + n * (self.d + self.c * (n - 1))

    def death_bound(self, config: Configuration) -> float:
        n = config.total_mass
        return 0.0 if n == 0 else self.d + self.c * (n - 1)

    def mass_birth_death_rates(self, k: int) -> tuple[float, float]:
        return k * self.b, k * (self.d + self.c * (k - 1))


def sample_mutation_parent(model: RateModel, config: Configuration,
                           rng: np.random.Generator) -> TraitPoint:
    """Draw the parent of a mutation, weighted by per-trait mutation rate."""
    rates = [weight * model.mutation_rate(trait, config) for trait, weight in config.entries]
    total = sum(rates)
    if total <= 0.0:
        raise NoMutationMass("configuration carries no mutation rate")
    x = rng.random() * total
    acc = 0.0
    for (trait, _), rate in zip(config.entries, rates):
        acc += rate
        if x <= acc:
            return trait
    return config.entries[-1][0]

