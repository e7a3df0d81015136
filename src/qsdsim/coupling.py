"""Joint construction of the process with a dominating counter.

The coupled chain lives on pairs (configuration, counter) with mass
never exceeding the counter. Births in the configuration always push
the counter up with them, counter deaths only fire on the excess, so
the counter marginally performs a linear birth-death chain with
per-capita rates (birth sup, death inf) while the first coordinate
keeps the exact population law. Stepping the literal joint rates and
watching the order survive every jump is the point of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .configuration import Configuration
from .errors import InvariantBreach
from .rates import RateModel, sample_mutation_parent


@dataclass(frozen=True)
class CoupledState:
    config: Configuration
    counter: int

    def __post_init__(self) -> None:
        if not isinstance(self.counter, int) or self.counter < 0:
            raise InvariantBreach(f"counter must be a nonnegative integer, got {self.counter!r}")
        if self.config.total_mass > self.counter:
            raise InvariantBreach(
                f"configuration mass {self.config.total_mass} exceeds counter {self.counter}"
            )


class CoupledRates(NamedTuple):
    """The six rate lines of the joint generator, exposed for tests.

    clonal_up and joint_down and config_down align with the
    configuration's entries. counter_up is the slack between the
    counter's birth rate and the configuration's total reproduction
    rate; counter_down fires only on the excess counter mass.
    """

    clonal_up: tuple[float, ...]
    mutation_up: float
    counter_up: float
    joint_down: tuple[float, ...]
    config_down: tuple[float, ...]
    counter_down: float

    @property
    def total(self) -> float:
        return (sum(self.clonal_up) + self.mutation_up + self.counter_up
                + sum(self.joint_down) + sum(self.config_down) + self.counter_down)


def coupled_rates(model: RateModel, s: CoupledState) -> CoupledRates:
    """Evaluate the joint generator's lines at the given state."""
    config, m = s.config, s.counter
    n = config.total_mass
    death_floor = model.death_inf
    clonal_up = []
    joint_down = []
    config_down = []
    reproduction = 0.0
    for trait, weight in config.entries:
        clonal_up.append(weight * model.clonal_rate(trait, config))
        reproduction += weight * model.reproduction_rate(trait, config)
        joint_down.append(weight * death_floor)
        config_down.append(weight * (model.death_rate(trait, config) - death_floor))
    mutation_up = sum(weight * model.mutation_rate(trait, config)
                      for trait, weight in config.entries)
    counter_up = m * model.birth_sup - reproduction
    counter_down = death_floor * (m - n)
    return CoupledRates(
        clonal_up=tuple(clonal_up), mutation_up=mutation_up, counter_up=counter_up,
        joint_down=tuple(joint_down), config_down=tuple(config_down),
        counter_down=counter_down,
    )


def step_coupled(model: RateModel, s: CoupledState,
                 rng: np.random.Generator) -> tuple[float, CoupledState]:
    """One jump of the joint chain; (math.inf, s) once fully absorbed.

    The scan order puts the counter-only birth last so float slack in
    the cumulative comparison can only land on a line that preserves
    the order between mass and counter.
    """
    rates = coupled_rates(model, s)
    total = (sum(rates.clonal_up) + rates.mutation_up + sum(rates.joint_down)
             + sum(rates.config_down) + rates.counter_down + rates.counter_up)
    if total <= 0.0:
        return math.inf, s
    hold = -math.log(1.0 - rng.random()) / total
    config, m = s.config, s.counter
    x = rng.random() * total
    acc = 0.0
    for (trait, _), rate in zip(config.entries, rates.clonal_up):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.add(trait), m + 1)
    acc += rates.mutation_up
    if x <= acc:
        parent = sample_mutation_parent(model, config, rng)
        child = model.kernel.sample(parent, rng)
        return hold, CoupledState(config.add(child), m + 1)
    for (trait, _), rate in zip(config.entries, rates.joint_down):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.remove(trait), m - 1)
    for (trait, _), rate in zip(config.entries, rates.config_down):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.remove(trait), m)
    acc += rates.counter_down
    if x <= acc:
        return hold, CoupledState(config, m - 1)
    return hold, CoupledState(config, m + 1)


def coupled_path(model: RateModel, start: CoupledState, horizon: float,
                 rng: np.random.Generator) -> list[tuple[float, CoupledState]]:
    """Jump times and states up to the horizon, starting entry included.

    Every constructed state revalidates mass <= counter, so a run of
    this function doubles as an order-invariance check.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    t = 0.0
    state = start
    path = [(0.0, state)]
    while True:
        hold, nxt = step_coupled(model, state, rng)
        if math.isinf(hold) or t + hold > horizon:
            break
        t += hold
        state = nxt
        path.append((t, state))
    return path


def bd_chain_state_at(birth: float, death: float, k0: int, t: float,
                      rng: np.random.Generator) -> int:
    """Linear birth-death chain simulated directly, for marginal checks."""
    k = k0
    now = 0.0
    while k > 0:
        total = k * (birth + death)
        now += -math.log(1.0 - rng.random()) / total
        if now > t:
            break
        k += 1 if rng.random() * (birth + death) < birth else -1
    return k
