"""Exact event-driven simulation of the population process.

Two engines produce the same law. The Gillespie engine is the
reference: exponential holding time at the total jump rate, then a
categorical branch over the per-entry rates. Every replica estimator
steps the same Gillespie kernel, ``_jumps``. The thinning engine
realizes the driving-Poisson-measure construction instead: candidate
points are generated at bounding intensity, individuals are addressed
through the cumulative-weight index functions, and candidates are
accepted exactly when they fall inside the rate bands of the
construction. Agreement of the two engines is one of the package's
strongest correctness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .configuration import Configuration
from .rates import RateModel, sample_mutation_parent
from .streams import RandomStream, map_replicas
from .trait_space import sample_base


class EventKind(Enum):
    CLONAL = "clonal"
    DEATH = "death"
    MUTATION = "mutation"


@dataclass(frozen=True)
class Event:
    """One jump: when it happened, what kind, and which traits it touched.

    ``child`` is the parent's trait for clonal births, the new trait for
    mutations, and None for deaths.
    """

    time: float
    kind: EventKind
    parent: float
    child: float | None


def apply_event(config: Configuration, event: Event) -> Configuration:
    """The configuration after the event."""
    if event.kind is EventKind.DEATH:
        return config.remove(event.parent)
    if event.kind is EventKind.CLONAL:
        return config.add(event.parent)
    return config.add(event.child)


@dataclass
class Trajectory:
    """One simulated path up to min(horizon, extinction).

    Unreached times are math.inf; see :func:`path_times` for the
    definitions of the three observable times.
    """

    initial: Configuration
    events: tuple[Event, ...]
    horizon: float
    final: Configuration
    extinction_time: float
    first_mutation_time: float
    replacement_time: float
    candidate_count: int | None = None
    accepted_count: int | None = None


def path_times(initial: Configuration,
               events: Iterable[Event]) -> tuple[float, float, float]:
    """(extinction, first mutation, replacement) times of a logged path.

    Extinction is the first time the mass is 0. First mutation is the
    first time the support leaves the initial support, which is the
    first mutation whose child is not an initial trait. Replacement is
    the first time no individual carries an initial trait. A void start
    is extinct and replaced at 0.0; unreached times are math.inf.
    """
    mass = initial.total_mass
    counts = dict(initial.entries)
    alive = len(counts)
    extinction = 0.0 if mass == 0 else math.inf
    chi = math.inf
    kappa = 0.0 if alive == 0 else math.inf
    for event in events:
        step = -1 if event.kind is EventKind.DEATH else 1
        trait = event.child if event.kind is EventKind.MUTATION else event.parent
        mass += step
        if trait in counts:
            before = counts[trait]
            counts[trait] = before + step
            alive += (counts[trait] > 0) - (before > 0)
        elif event.kind is EventKind.MUTATION and math.isinf(chi):
            chi = event.time
        if mass == 0 and math.isinf(extinction):
            extinction = event.time
        if alive == 0 and math.isinf(kappa):
            kappa = event.time
    return extinction, chi, kappa


def _inverse_cdf_exponential(rng: np.random.Generator, rate: float) -> float:
    # One uniform draw per holding time keeps stream consumption flat.
    return -math.log(1.0 - rng.random()) / rate


def _gillespie_branch(model: RateModel, config: Configuration,
                      rng: np.random.Generator) -> tuple[EventKind, float, float | None]:
    """Pick one jump out of the configuration with the exact probabilities."""
    clonal, death, mutation_total, total = model.state_rates(config)
    x = rng.random() * total
    acc = 0.0
    for (trait, _), rate in zip(config.entries, clonal):
        acc += rate
        if x <= acc:
            return EventKind.CLONAL, trait, trait
    for (trait, _), rate in zip(config.entries, death):
        acc += rate
        if x <= acc:
            return EventKind.DEATH, trait, None
    if mutation_total > 0.0:
        parent = sample_mutation_parent(model, config, rng)
        child = model.kernel.sample(parent, rng)
        return EventKind.MUTATION, parent, child
    # Float slack with no mutation mass to absorb it: attribute to the
    # last death entry.
    return EventKind.DEATH, config.entries[-1][0], None


def _jumps(model: RateModel, config: Configuration, t_end: float, rng: np.random.Generator
           ) -> Iterator[tuple[float, float, EventKind, float, float | None, Configuration]]:
    """The exact jumps from ``config`` up to t_end, extinction or a dead state.

    Yields (t, hold, kind, parent, child, after): the jump time, the
    holding time that ended there, the branch of
    :func:`_gillespie_branch` and the configuration after the jump.
    Holding times are drawn at the total jump rate. The run stops
    before branching once ``t + hold > t_end``, so its last draw is one
    holding time past the horizon; every consumer relies on that order.
    """
    t = 0.0
    while not config.is_void:
        total = model.total_jump_rate(config)
        if total <= 0.0:
            return
        hold = _inverse_cdf_exponential(rng, total)
        if t + hold > t_end:
            return
        t += hold
        kind, parent, child = _gillespie_branch(model, config, rng)
        if kind is EventKind.DEATH:
            config = config.remove(parent)
        else:
            config = config.add(parent if kind is EventKind.CLONAL else child)
        yield t, hold, kind, parent, child, config


def simulate_gillespie(model: RateModel, initial: Configuration, horizon: float,
                       rng: np.random.Generator) -> Trajectory:
    """Reference engine: exponential holding times at the total jump rate."""
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    final = initial
    events = []
    for t, _, kind, parent, child, final in _jumps(model, initial, horizon, rng):
        events.append(Event(t, kind, parent, child))
    return Trajectory(initial, tuple(events), horizon, final, *path_times(initial, events))


def simulate_thinning(model: RateModel, initial: Configuration, horizon: float,
                      rng: np.random.Generator) -> Trajectory:
    """Poisson-construction engine: bounded candidates, band acceptance.

    Candidates arrive at rate n*(B* g* + death bound): a birth candidate
    carries an individual index, a child mark drawn from the base
    measure, and a level under B* g*; a death candidate carries an index
    and a level under the state's death bound. The candidate becomes a
    clonal birth, a mutation, or a death exactly when its level falls in
    the corresponding band; otherwise nothing happens. Candidate clocks
    are regenerated after every point, which is distributionally
    equivalent to any other schedule by memorylessness.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    config = initial
    birth_level = model.birth_sup * model.kernel.sup_density()
    t = 0.0
    events: list[Event] = []
    candidates = 0
    while not config.is_void:
        n = config.total_mass
        death_level = model.death_bound(config)
        per_index = birth_level + death_level
        t_next = t + _inverse_cdf_exponential(rng, n * per_index)
        if t_next > horizon:
            break
        t = t_next
        candidates += 1
        which = rng.random() * per_index
        index = int(rng.random() * n) + 1
        trait = config.individual_trait(index)
        event: Event | None = None
        if which < birth_level:
            child = sample_base(rng)
            level = rng.random() * birth_level
            density = model.kernel.density(trait, child)
            if level <= model.clonal_rate(trait, config) * density:
                event = Event(t, EventKind.CLONAL, trait, trait)
            elif level <= model.reproduction_rate(trait, config) * density:
                event = Event(t, EventKind.MUTATION, trait, child)
        else:
            level = rng.random() * death_level
            if level <= model.death_rate(trait, config):
                event = Event(t, EventKind.DEATH, trait, None)
        if event is None:
            continue
        config = apply_event(config, event)
        events.append(event)
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events),
                      candidate_count=candidates, accepted_count=len(events))


ENGINES = {
    "gillespie": simulate_gillespie,
    "thinning": simulate_thinning,
}


def _resolve_initial(initial, rng: np.random.Generator) -> Configuration:
    # Ensembles may start each replica from a draw of an estimate
    # instead of a fixed configuration.
    if isinstance(initial, Configuration):
        return initial
    return initial.draw(rng)


def _evolve(model: RateModel, config: Configuration, t_end: float,
            rng: np.random.Generator,
            checkpoints: Sequence[float] = ()) -> tuple[Configuration, float, list[int]]:
    """Run without recording events; optionally capture mass at times.

    Returns (state at t_end, extinction time or inf, masses at the
    checkpoints). Checkpoints must be sorted and lie within [0, t_end].
    A checkpoint at a jump time sees the mass after the jump.
    """
    t = 0.0
    masses: list[int] = []
    for t, _, _, _, _, after in _jumps(model, config, t_end, rng):
        while len(masses) < len(checkpoints) and checkpoints[len(masses)] < t:
            masses.append(config.total_mass)
        config = after
    while len(masses) < len(checkpoints):
        masses.append(config.total_mass)
    return config, t if config.is_void else math.inf, masses


def _extinction_replica(model: RateModel, initial, t_max: float,
                        rng: np.random.Generator) -> float:
    config = _resolve_initial(initial, rng)
    _, extinction, _ = _evolve(model, config, t_max, rng)
    return extinction


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival fractions with binomial standard errors."""

    grid: tuple[float, ...]
    survival: tuple[float, ...]
    stderr: tuple[float, ...]
    replicas: int

    def __iter__(self):
        return iter(zip(self.grid, self.survival, self.stderr))

    def __len__(self) -> int:
        return len(self.grid)


def survival_curve(model: RateModel, initial, grid: Sequence[float],
                   replicas: int, rng: RandomStream, workers: int = 1) -> SurvivalCurve:
    """Fraction of replicas not yet extinct at each grid time."""
    grid = tuple(float(t) for t in grid)
    if any(t < 0.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonnegative and strictly increasing")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    fn = partial(_extinction_replica, model, initial, max(grid))
    extinctions = np.array(map_replicas(fn, replicas, rng, workers))
    survival = []
    stderr = []
    for t in grid:
        p = float(np.mean(extinctions > t))
        survival.append(p)
        stderr.append(math.sqrt(p * (1.0 - p) / replicas))
    return SurvivalCurve(grid=grid, survival=tuple(survival), stderr=tuple(stderr),
                         replicas=replicas)


def _max_mass_replica(model: RateModel, initial, t: float,
                      rng: np.random.Generator) -> int:
    config = _resolve_initial(initial, rng)
    best = config.total_mass
    for _, _, _, _, _, after in _jumps(model, config, t, rng):
        best = max(best, after.total_mass)
    return best


def hitting_tail(model: RateModel, initial, t: float, k_values: Sequence[int],
                 replicas: int, rng: RandomStream,
                 workers: int = 1) -> list[tuple[int, float]]:
    """Empirical P(total mass reaches K by time t) for each K.

    Computed from the running maximum of each replica, so the estimates
    are automatically nonincreasing in K on the shared replica set.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    fn = partial(_max_mass_replica, model, initial, t)
    maxima = np.array(map_replicas(fn, replicas, rng, workers))
    return [(int(k), float(np.mean(maxima >= k))) for k in k_values]


def _masses_replica(model: RateModel, initial, times: Sequence[float],
                    rng: np.random.Generator) -> np.ndarray:
    config = _resolve_initial(initial, rng)
    _, _, masses = _evolve(model, config, max(times), rng, checkpoints=times)
    return np.array(masses, dtype=float)


def mass_moments(model: RateModel, initial, times: Sequence[float], replicas: int,
                 rng: RandomStream, workers: int = 1) -> list[tuple[float, float, float]]:
    """Mean total mass at each time with Monte Carlo standard errors."""
    times = tuple(float(t) for t in times)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    fn = partial(_masses_replica, model, initial, times)
    rows = np.stack(map_replicas(fn, replicas, rng, workers))
    means = rows.mean(axis=0)
    errs = rows.std(axis=0, ddof=1) / math.sqrt(replicas)
    return [(t, float(m), float(e)) for t, m, e in zip(times, means, errs)]


def write_trajectory_csv(trajectory: Trajectory, out: IO[str],
                         metadata: dict[str, object] | None = None) -> None:
    """Event log as CSV, one row per jump, with provenance comments."""
    for key, value in (metadata or {}).items():
        out.write(f"# {key}={value}\n")
    out.write("time,event_kind,parent_trait,child_trait,total_mass_after\n")
    mass = trajectory.initial.total_mass
    for event in trajectory.events:
        mass += -1 if event.kind is EventKind.DEATH else 1
        child = "" if event.child is None else f"{event.child:.17g}"
        out.write(f"{event.time:.17g},{event.kind.value},{event.parent:.17g},{child},{mass}\n")
