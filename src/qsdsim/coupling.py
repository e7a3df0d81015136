"""Joint construction of the process with a dominating counter.

The coupled chain lives on pairs (configuration, counter) with mass
never exceeding the counter. Births in the configuration always push
the counter up with them, counter deaths only fire on the excess, so
the counter marginally performs a linear birth-death chain with
per-capita rates (birth sup, death inf) while the first coordinate
keeps the exact population law. Stepping the literal joint rates and
watching the order survive every jump is the point of this module.
Rates are trait-blind, so each line of the joint generator is one total
and a jump picks its line first, then the individual it moves by rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .configuration import Configuration
from .errors import InvariantBreach
from .rates import RateModel, holding_time, individual_at, sample_mutation_parent


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
    """The six rate lines of the joint generator, each a total rate.

    counter_up is the slack between the counter's birth rate and the
    configuration's total reproduction rate; counter_down fires only on
    the excess counter mass. Every individual carries the same rates,
    so a line that moves the configuration moves a uniform individual.
    """

    clonal_up: float
    mutation_up: float
    counter_up: float
    joint_down: float
    config_down: float
    counter_down: float


def coupled_rates(model: RateModel, s: CoupledState) -> CoupledRates:
    """Evaluate the joint generator's lines at the given state."""
    config, m = s.config, s.counter
    n = config.total_mass
    clonal, death, mutation, _ = model.state_rates(config)
    death_floor = model.death_inf
    return CoupledRates(
        clonal_up=clonal, mutation_up=mutation, counter_up=m * model.birth_sup - n * model.b,
        joint_down=n * death_floor, config_down=death - n * death_floor,
        counter_down=death_floor * (m - n),
    )


def step_coupled(model: RateModel, s: CoupledState,
                 rng: np.random.Generator) -> tuple[float, CoupledState]:
    """One jump of the joint chain; (math.inf, s) once fully absorbed.

    One uniform times the total rate falls into one of the six lines.
    The uniform rescaled within a line that moves an individual ranks
    that individual; a mutation draws its parent with a fresh uniform.
    The scan order puts the counter-only birth last so float slack in
    the scan can only land on a line that preserves the order between
    mass and counter.
    """
    clonal, mutation, counter_up, joint_down, config_down, counter_down = coupled_rates(model, s)
    total = clonal + mutation + joint_down + config_down + counter_down + counter_up
    if total <= 0.0:
        return math.inf, s
    hold = holding_time(rng, total)
    config, m = s.config, s.counter
    x = rng.random() * total
    if x < clonal:
        return hold, CoupledState(config.add(individual_at(config, x / clonal)), m + 1)
    x -= clonal
    if x < mutation:
        parent = sample_mutation_parent(config, rng)
        return hold, CoupledState(config.add(model.kernel.sample(parent, rng)), m + 1)
    x -= mutation
    if x < joint_down:
        return hold, CoupledState(config.remove(individual_at(config, x / joint_down)), m - 1)
    x -= joint_down
    if x < config_down:
        return hold, CoupledState(config.remove(individual_at(config, x / config_down)), m)
    x -= config_down
    if x < counter_down:
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
