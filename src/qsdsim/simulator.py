"""Exact event-driven simulation of the population process.

Two engines produce the same law. The Gillespie engine is the
reference: exponential holding time at the total jump rate, then a
branch that picks the jump's kind from the per-kind totals and the
individual it moves by rank; its kernel ``_jumps`` is also what the
validation battery steps. The thinning engine realizes the paper's
construction from three Poisson point measures per individual instead:
clonal births at rate b(1 - rho) and deaths at rate d(n), every point
accepted, and mutations at the bounding rate b rho g*, each point
carrying a base-measure child mark and accepted under b rho times the
kernel density. Agreement of the two engines is one of the package's
strongest correctness checks. Both draw one uniform at a time through
``rng.random()``, so ``rng`` may be a Generator or a
:class:`~qsdsim.streams.Uniforms` over one, with the same trajectory.

Ensembles take a third route, mass first. Every rate model is
trait-blind, so the total mass is a birth-death chain on its own:
``mass_paths`` advances a chunk of replicas in numpy lockstep on the
mass alone, and draws traits afterwards, by an urn along each mass path,
only for the replicas whose configuration is reported.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .configuration import Configuration
from .rates import RateModel, holding_time, individual_at, sample_mutation_parent
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


def _gillespie_branch(model: RateModel, config: Configuration, rng: np.random.Generator,
                      row: tuple[float, float, float, float] | None = None
                      ) -> tuple[EventKind, float, float | None, Configuration]:
    """Pick one jump out of the configuration with the exact probabilities.

    Returns (kind, parent, child, after), ``after`` being the
    configuration after the jump. ``row`` is ``model.state_rates(config)``
    where the caller has it already, read from ``model.rate_table()``;
    without it the branch reads it. One uniform times the total rate falls
    into the clonal, the death or the mutation band, in that order, so
    the mutation band absorbs float slack. Every individual carries the
    same rates, so the uniform rescaled within the clonal or death band
    ranks the individual that jumps; a mutation draws its parent with a
    fresh uniform.
    """
    clonal, death, _, total = model.state_rates(config) if row is None else row
    x = rng.random() * total
    if x < clonal:
        trait = individual_at(config, x / clonal)
        return EventKind.CLONAL, trait, trait, config.add(trait)
    x -= clonal
    if x < death:
        trait = individual_at(config, x / death)
        return EventKind.DEATH, trait, None, config.remove(trait)
    parent = sample_mutation_parent(config, rng)
    child = model.kernel.sample(parent, rng)
    return EventKind.MUTATION, parent, child, config.add(child)


def _jumps(model: RateModel, config: Configuration, t_end: float, rng: np.random.Generator
           ) -> Iterator[tuple[float, float, EventKind, float, float | None, Configuration]]:
    """The exact jumps from ``config`` up to t_end or extinction.

    Yields (t, hold, kind, parent, child, after): the jump time, the
    holding time that ended there, the branch of
    :func:`_gillespie_branch` and the configuration after the jump.
    Holding times are drawn at the total jump rate, and each step reads
    one row of ``model.rate_table()`` for both the holding time and the
    branch. The run stops before branching once ``t + hold > t_end``, so
    its last draw is one holding time past the horizon; every consumer
    relies on that order.
    """
    rows = model.rate_table()
    t = 0.0
    while not config.is_void:
        row = rows[config.total_mass]
        hold = holding_time(rng, row[3])
        if t + hold > t_end:
            return
        t += hold
        kind, parent, child, config = _gillespie_branch(model, config, rng, row)
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
    """Poisson-construction engine on three point measures per individual.

    Candidates arrive at rate n*(b(1 - rho) + b rho g* + d(n)), g* bounding
    the kernel density, each with an individual index. Clonal and death
    candidates are always accepted. A mutation candidate carries a
    base-measure child mark and a level under b rho g*, and is accepted
    when the level falls under b rho times the kernel density. Candidate
    clocks are regenerated after every point, which is equivalent in law
    to any other schedule by memorylessness. The candidate rate per
    individual is computed once per mass reached.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    model.check_regime()
    config = initial
    clonal, mutation = model.b * (1.0 - model.rho), model.b * model.rho
    mutation_level = mutation * model.kernel.sup_density()
    births = clonal + mutation_level
    levels: dict[int, float] = {}
    t = 0.0
    events: list[Event] = []
    candidates = 0
    while not config.is_void:
        n = config.total_mass
        per_index = levels.get(n)
        if per_index is None:
            per_index = levels[n] = births + model.death_at(n)
        t_next = t + holding_time(rng, n * per_index)
        if t_next > horizon:
            break
        t = t_next
        candidates += 1
        which = rng.random() * per_index
        trait = individual_at(config, rng.random())
        if which < clonal:
            events.append(Event(t, EventKind.CLONAL, trait, trait))
            config = config.add(trait)
        elif which < births:
            child = sample_base(rng)
            if rng.random() * mutation_level <= mutation * model.kernel.density(trait, child):
                events.append(Event(t, EventKind.MUTATION, trait, child))
                config = config.add(child)
        else:
            events.append(Event(t, EventKind.DEATH, trait, None))
            config = config.remove(trait)
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events),
                      candidate_count=candidates, accepted_count=len(events))


ENGINES = {
    "gillespie": simulate_gillespie,
    "thinning": simulate_thinning,
}


# Replicas per lockstep chunk of mass_paths; a constant, so that no result
# depends on the worker count.
CHUNK = 4096


class MassPaths(NamedTuple):
    """Mass-path observables of an ensemble, one entry per replica.

    ``extinction`` is the time the mass hits 0 (0.0 for a void start,
    inf while alive at the horizon). ``at`` has one column of masses per
    checkpoint; a checkpoint at a jump time sees the mass after the jump.
    ``maximum`` is the running maximum of the mass up to the horizon and
    ``events`` the number of jumps of all replicas together.
    ``survivors`` holds, only when asked for, the configurations of the
    replicas alive at the horizon, in replica order.
    """

    start: np.ndarray
    final: np.ndarray
    extinction: np.ndarray
    at: np.ndarray
    maximum: np.ndarray
    events: int
    survivors: tuple[Configuration, ...]


def _urn(model: RateModel, start: Configuration, steps: np.ndarray,
         rng: np.random.Generator) -> Configuration:
    """Traits along a mass path with ±1 ``steps``.

    At +1 a uniform individual is the parent, and the child is a kernel
    draw with probability rho, else a clone. At -1 a uniform individual
    dies. Given the mass path these are the exact conditional laws, since
    every individual carries the same rates.
    """
    traits = [trait for trait, weight in start.entries for _ in range(weight)]
    picks = rng.random(len(steps)).tolist()
    mutates = (rng.random(len(steps)) < model.rho).tolist()
    for step, pick, mutate in zip(steps.tolist(), picks, mutates):
        i = int(pick * len(traits))
        if step > 0:
            traits.append(model.kernel.sample(traits[i], rng) if mutate else traits[i])
        else:
            traits[i] = traits[-1]
            traits.pop()
    return Configuration(tuple(sorted(Counter(traits).items())))


def _mass_chunk(model: RateModel, t_end: float, checkpoints: tuple[float, ...],
                survivors: bool, rng: np.random.Generator, part: tuple) -> MassPaths:
    """One chunk of replicas advanced together on the mass chain alone.

    ``part`` is ``(size, initial)``, the chunk's replica count and its
    start as :func:`mass_paths` takes it. Each round, every live replica
    draws a holding time at b(n) + d(n) and stops once ``t + hold >
    t_end``, as :func:`_jumps` does; the others step +1 with probability
    b(n) / (b(n) + d(n)), else -1. With ``survivors`` the steps are kept
    and the replicas alive at t_end get their traits from :func:`_urn`.
    """
    size, initial = part
    if isinstance(initial, Configuration):
        starts = [initial] * size
        start = np.full(size, initial.total_mass, dtype=np.int64)
    else:
        starts = (list(initial) if isinstance(initial, tuple)
                  else [initial.draw(rng) for _ in range(size)])
        start = np.array([c.total_mass for c in starts], dtype=np.int64)
    mass = start.copy()
    maximum = start.copy()
    extinction = np.where(start == 0, 0.0, math.inf)
    at = np.full((size, len(checkpoints)), -1, dtype=np.int64)
    # narrow dtypes keep the step log of survivors small: 5 bytes a jump
    lane = np.flatnonzero(start).astype(np.int32)
    t = np.zeros(lane.size)
    events = 0
    log = [(lane[:0], np.zeros(0, dtype=np.int8))]
    while lane.size:
        n = mass[lane]
        birth, death = model.mass_birth_death_rates(n)
        total = birth + death
        after = t + rng.standard_exponential(lane.size) / total
        go = after <= t_end
        lane, n, t, after, birth, total = (x[go] for x in (lane, n, t, after, birth, total))
        for k, c in enumerate(checkpoints):
            cross = (t <= c) & (c < after)
            at[lane[cross], k] = n[cross]
        step = np.where(rng.random(lane.size) * total < birth, np.int8(1), np.int8(-1))
        n += step
        mass[lane] = n
        maximum[lane] = np.maximum(maximum[lane], n)
        events += lane.size
        if survivors:
            log.append((lane, step))
        alive = n > 0
        extinction[lane[~alive]] = after[~alive]
        lane, t = lane[alive], after[alive]
    # a checkpoint that no jump passed sees the mass the path ended with
    at = np.where(at < 0, mass[:, None], at)
    kept: tuple[Configuration, ...] = ()
    if survivors:
        ids = np.concatenate([x for x, _ in log])
        steps = np.concatenate([s for _, s in log])
        del log
        # a stable sort by replica keeps each replica's steps in time order
        order = np.argsort(ids, kind="stable")
        ids, steps = ids[order], steps[order]
        lanes = np.flatnonzero(mass)
        bounds = zip(np.searchsorted(ids, lanes, "left"), np.searchsorted(ids, lanes, "right"))
        kept = tuple(_urn(model, starts[i], steps[lo:hi], rng)
                     for i, (lo, hi) in zip(lanes, bounds))
    return MassPaths(start, mass, extinction, at, maximum, events, kept)


def mass_paths(model: RateModel, initial, t_end: float, replicas: int, rng: RandomStream,
               workers: int = 1, checkpoints: Sequence[float] = (),
               survivors: bool = False) -> MassPaths:
    """Mass paths of an ensemble to t_end, simulated in lockstep chunks.

    Every :class:`~qsdsim.rates.RateModel` is trait-blind, so the mass is
    a birth-death chain on its own with rates
    ``model.mass_birth_death_rates``. ``initial`` is a configuration, a
    tuple of ``replicas`` configurations (replica r starts from the
    r-th), or anything with a ``draw(rng) -> Configuration`` method,
    drawn once per replica.
    Replicas run in chunks of :data:`CHUNK`, all through
    :func:`~qsdsim.streams.map_replicas`, and chunk c draws from
    ``rng.substream(c)``. Checkpoints must be sorted and lie within
    [0, t_end]. With ``survivors`` the result also carries the
    configurations of the replicas alive at t_end, their traits drawn by
    the urn.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if isinstance(initial, tuple) and len(initial) != replicas:
        raise ValueError(f"need one start per replica, got {len(initial)} for {replicas}")
    model.check_regime()
    chunk = partial(_mass_chunk, model, float(t_end),
                    tuple(float(c) for c in checkpoints), survivors)
    work = [(min(CHUNK, replicas - a),
             initial[a:a + CHUNK] if isinstance(initial, tuple) else initial)
            for a in range(0, replicas, CHUNK)]
    parts = map_replicas(chunk, len(work), rng, workers, chunk_size=1, items=work)
    columns = zip(*(part[:5] for part in parts))
    return MassPaths(*(np.concatenate(column) for column in columns),
                     sum(part.events for part in parts),
                     tuple(c for part in parts for c in part.survivors))


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival fractions with binomial standard errors."""

    grid: tuple[float, ...]
    survival: tuple[float, ...]
    stderr: tuple[float, ...]
    replicas: int
    events: int

    def __iter__(self):
        return iter(zip(self.grid, self.survival, self.stderr))

    def __len__(self) -> int:
        return len(self.grid)


def survival_curve(model: RateModel, initial, grid: Sequence[float],
                   replicas: int, rng: RandomStream, workers: int = 1) -> SurvivalCurve:
    """Fraction of replicas not yet extinct at each grid time.

    Runs on :func:`mass_paths`.
    """
    grid = tuple(float(t) for t in grid)
    if any(t < 0.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonnegative and strictly increasing")
    paths = mass_paths(model, initial, max(grid), replicas, rng, workers)
    survival = []
    stderr = []
    for t in grid:
        p = float(np.mean(paths.extinction > t))
        survival.append(p)
        stderr.append(math.sqrt(p * (1.0 - p) / replicas))
    return SurvivalCurve(grid=grid, survival=tuple(survival), stderr=tuple(stderr),
                         replicas=replicas, events=paths.events)


def hitting_tail(model: RateModel, initial, t: float, k_values: Sequence[int],
                 replicas: int, rng: RandomStream,
                 workers: int = 1) -> list[tuple[int, float]]:
    """Empirical P(total mass reaches K by time t) for each K.

    Computed from the running maximum of each replica, so the estimates
    are automatically nonincreasing in K on the shared replica set. Runs
    on :func:`mass_paths`.
    """
    maxima = mass_paths(model, initial, t, replicas, rng, workers).maximum
    return [(int(k), float(np.mean(maxima >= k))) for k in k_values]


def mass_moments(model: RateModel, initial, times: Sequence[float], replicas: int,
                 rng: RandomStream, workers: int = 1) -> list[tuple[float, float, float]]:
    """Mean total mass at each time with Monte Carlo standard errors.

    Runs on :func:`mass_paths`.
    """
    times = tuple(float(t) for t in times)
    if any(t < 0.0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and strictly increasing")
    rows = mass_paths(model, initial, max(times), replicas, rng, workers, checkpoints=times).at
    means = rows.mean(axis=0)
    errs = rows.std(axis=0, ddof=1) / math.sqrt(replicas)
    return [(t, float(m), float(e)) for t, m, e in zip(times, means, errs)]


def write_trajectory_csv(trajectory: Trajectory, out: IO[str]) -> None:
    """Event log as CSV, one row per jump."""
    out.write("time,event_kind,parent_trait,child_trait,total_mass_after\n")
    mass = trajectory.initial.total_mass
    for event in trajectory.events:
        mass += -1 if event.kind is EventKind.DEATH else 1
        child = "" if event.child is None else f"{event.child:.17g}"
        out.write(f"{event.time:.17g},{event.kind.value},{event.parent:.17g},{child},{mass}\n")
