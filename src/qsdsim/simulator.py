"""Exact event-driven simulation of the population process.

Two engines produce the same law. The Gillespie engine is the
reference: exponential holding time at the total jump rate, then a
branch that picks the jump's kind from the per-kind totals and the
individual it moves by rank. The thinning engine realizes the paper's
construction from three Poisson point measures per individual instead:
clonal births at rate b(1 - rho) and deaths at rate d(n), every point
accepted, and mutations at the bounding rate b rho g*, each point
carrying a base-measure child mark and accepted under b rho times the
kernel density. Agreement of the two engines is one of the package's
strongest correctness checks. Both draw one uniform at a time through
``rng.random()``, so ``rng`` may be a Generator or a
:class:`~qsdsim.streams.Uniforms` over one, with the same trajectory.

Ensembles take a third route, mass first. Every rate model is
trait-blind, so the total mass is a birth-death chain on its own. One
stepper, ``_lockstep``, advances a chunk of replicas on it in numpy
lockstep on the columns of the model's ``rate_table()``, drawing from
the chunk's one generator. ``mass_paths`` runs it, with traits drawn
afterwards by an urn along each survivor's mass path, in lockstep too,
and so does the validation's martingale check. Survivors come out of
the urn as :class:`Runs`, run-length arrays with one row per
configuration, and ``mass_paths`` takes such rows as starts too, so
that an ensemble started from survivors builds no configuration per
replica.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .configuration import Configuration
from .rates import (RateModel, RateTable, _every, holding_time, individual_at,
                    sample_mutation_parent)
from .streams import RandomStream, map_replicas
from .trait_space import sample_base, validate_trait


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


def _lockstep(mass: np.ndarray, last: np.ndarray, t_end: float, rates: RateTable,
              rng: np.random.Generator) -> Iterator[tuple[np.ndarray, ...]]:
    """The mass chain of many replicas in numpy lockstep, up to t_end or extinction.

    Lane i starts at mass ``mass[i]``, read before the first round. Each
    round, every live lane reads its rates ``r`` (one row per rate) and
    draws its holding time, one ``rng.standard_exponential`` over its
    total rate, and stops once ``t + hold > t_end``, as
    :func:`simulate_gillespie` does; the others step +1 where one
    ``rng.random()`` each, times the total rate, falls below the birth
    rate, else -1. Each round yields (lane, t, hold, now, before, up) for
    the lanes that jump, ``up`` the mask of their +1 steps. Lanes that
    stop or die out leave; only in rounds where some lane does are the
    live lanes' masses and last jump times written to ``mass`` and
    ``last`` and the lanes filtered, so lane i ends with its final mass
    in ``mass[i]`` and in ``last[i]`` the time of its last jump, its
    extinction time if it died out.
    """
    lane = np.flatnonzero(mass)
    n = mass[lane]
    t = np.zeros(lane.size)
    while lane.size:
        r = rates(n)
        dt = rng.standard_exponential(lane.size) / r[2]
        now = t + dt
        go = now <= t_end
        if not _every(go):
            mass[lane], last[lane] = n, t
            lane, n, t, dt, now = (x[go] for x in (lane, n, t, dt, now))
            if not lane.size:
                return
            r = r.compress(go, axis=1)
        step = rng.random(lane.size) * r[2] < r[0]
        yield lane, t, dt, now, n, step
        after = np.where(step, n + 1, n - 1)
        if _every(after):
            n, t = after, now
        else:
            mass[lane], last[lane] = after, now
            alive = after > 0
            lane, n, t = lane[alive], after[alive], now[alive]


def _checkpoints(at: np.ndarray, times: Sequence[float], lane, t, now, before) -> None:
    # a lane holds ``before`` on [t, now), so a checkpoint at a jump time sees
    # the mass after it; at[i, k] stays -1 where no jump passes times[k]
    for k, c in enumerate(times):
        cross = (t <= c) & (c < now)
        at[lane[cross], k] = before[cross]


def simulate_gillespie(model: RateModel, initial: Configuration, horizon: float,
                       rng: np.random.Generator) -> Trajectory:
    """Reference engine: exponential holding times at the total jump rate.

    Each step reads one row of ``model.rate_table()`` for both the
    holding time and the branch, and the run stops once ``t + hold >
    horizon``, so its last draw is one holding time past the horizon.
    One uniform times the total rate then falls into the clonal, the
    death or the mutation band, in that order, so the mutation band
    absorbs float slack. Every individual carries the same rates, so the
    uniform rescaled within the clonal or death band ranks the individual
    that jumps; a mutation draws its parent with a fresh uniform, then
    its child from the kernel.
    """
    if not horizon >= 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    rows = model.rate_table()
    config = initial
    t = 0.0
    events = []
    while not config.is_void:
        clonal, death, _, total = rows[config.total_mass]
        t += holding_time(rng, total)
        if t > horizon:
            break
        x = rng.random() * total
        if x < clonal:
            kind, parent = EventKind.CLONAL, individual_at(config, x / clonal)
            child = parent
        elif (x := x - clonal) < death:
            kind, parent, child = EventKind.DEATH, individual_at(config, x / death), None
        else:
            kind, parent = EventKind.MUTATION, sample_mutation_parent(config, rng)
            child = model.kernel.sample(parent, rng)
        events.append(Event(t, kind, parent, child))
        config = config.remove(parent) if child is None else config.add(child)
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events))


def simulate_thinning(model: RateModel, initial: Configuration, horizon: float,
                      rng: np.random.Generator) -> Trajectory:
    """Poisson-construction engine on three point measures per individual.

    Candidates arrive at rate n*(b(1 - rho) + b rho g* + d(n)), g* bounding
    the kernel density, each with an individual index. Clonal and death
    candidates are always accepted. A mutation candidate carries a
    base-measure child mark and a level under b rho g*, and is accepted
    when the level falls under b rho times the kernel density. Candidate
    clocks are regenerated after every point, which is equivalent in law
    to any other schedule by memorylessness. d(n), read from
    ``model.rate_table()``, and the rate change only with an accepted
    event. The individuals form one sorted list, each trait repeated by
    its weight, so a candidate's individual is one index, ranked as
    :func:`~qsdsim.rates.individual_at` ranks it.
    """
    if not horizon >= 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    rows = model.rate_table()
    config = initial
    clonal, mutation = model.b * (1.0 - model.rho), model.b * model.rho
    mutation_level = mutation * model.kernel.sup_density()
    births = clonal + mutation_level
    random, density = rng.random, model.kernel.density
    flat = [trait for trait, weight in initial.entries for _ in range(weight)]
    t = 0.0
    events: list[Event] = []
    candidates = 0
    while flat:
        n = len(flat)
        per_index = births + rows.death(n)
        rate = n * per_index
        while True:  # candidates at mass n until one is accepted
            t -= math.log(1.0 - random()) / rate
            if t > horizon:
                break
            candidates += 1
            which = random() * per_index
            trait = flat[min(int(random() * n), n - 1)]
            if which < clonal:
                kind, child = EventKind.CLONAL, trait
            elif which >= births:
                kind, child = EventKind.DEATH, None
            else:
                child = sample_base(rng)
                if random() * mutation_level > mutation * density(trait, child):
                    continue
                kind = EventKind.MUTATION
            break
        if t > horizon:
            break
        events.append(Event(t, kind, trait, child))
        if child is None:
            config = config.remove(trait)
            del flat[bisect_left(flat, trait)]
        else:
            config = config.add(child)
            insort(flat, child)
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events),
                      candidate_count=candidates, accepted_count=len(events))


ENGINES = {
    "gillespie": simulate_gillespie,
    "thinning": simulate_thinning,
}


# Replicas per chunk of mass_paths, the unit of both the random stream and
# the lockstep; a constant, so that no result depends on how it is run.
# Enough lanes that a round's numpy work outweighs its Python overhead, and
# few enough that a round's arrays stay small.
CHUNK = 65536


class Runs(NamedTuple):
    """Configurations as run-length arrays, one row per configuration.

    Row i holds the ``support[i]`` entries that follow those of rows
    0..i-1: their traits, strictly increasing within the row, in
    ``traits`` and their positive weights in ``weights``. A row with no
    entries is the void configuration.
    """

    traits: np.ndarray
    weights: np.ndarray
    support: np.ndarray

    @staticmethod
    def of(configs: Iterable[Configuration]) -> "Runs":
        """The rows of the given configurations, in order."""
        configs = list(configs)
        entries = [entry for c in configs for entry in c.entries]
        return Runs(np.array([trait for trait, _ in entries], dtype=float),
                    np.array([weight for _, weight in entries], dtype=np.int64),
                    np.array([len(c.entries) for c in configs], dtype=np.int64))

    def rows(self, a: int, b: int) -> "Runs":
        """Rows a to b - 1, as views of these arrays."""
        i = int(self.support[:a].sum())
        j = i + int(self.support[a:b].sum())
        return Runs(self.traits[i:j], self.weights[i:j], self.support[a:b])

    def take(self, rows: np.ndarray) -> "Runs":
        """The given rows in the given order, repeats allowed."""
        support = self.support[rows]
        first = np.cumsum(self.support) - self.support
        at = np.arange(int(support.sum())) + np.repeat(
            first[rows] - (np.cumsum(support) - support), support)
        return Runs(self.traits[at], self.weights[at], support)

    def masses(self) -> np.ndarray:
        """The total mass of each row."""
        end = np.cumsum(self.support)
        total = np.concatenate(([0], np.cumsum(self.weights)))
        return total[end] - total[end - self.support]


def _joined(parts: Sequence[Runs]) -> Runs:
    return Runs(*(np.concatenate(column) for column in zip(Runs.of(()), *parts)))


class MassPaths(NamedTuple):
    """Mass-path observables of an ensemble, one entry per replica.

    ``extinction`` is the time the mass hits 0 (0.0 for a void start,
    inf while alive at the horizon). ``at`` has one column of masses per
    checkpoint; a checkpoint at a jump time sees the mass after the jump.
    ``events`` is the number of jumps of all replicas together.
    ``survivors`` holds, only when asked for, the configurations of the
    replicas alive at the horizon, one row each in replica order; it has
    no rows otherwise.
    """

    final: np.ndarray
    extinction: np.ndarray
    at: np.ndarray
    events: int
    survivors: Runs


# Steps the urn takes in one batch of survivors: a bound on what one
# chunk's urn holds at once.
_BATCH = 32768


def _urns(model: RateModel, starts: Runs, masses: np.ndarray, steps: np.ndarray,
          lengths: np.ndarray, finals: np.ndarray, rng: np.random.Generator) -> Runs:
    """Traits along the mass paths of a chunk's survivors, on its one generator, in lockstep urns.

    Survivor s starts from row s of ``starts`` at mass ``masses[s]``,
    takes the ``lengths[s]`` ±1 ``steps`` that follow those of survivors
    0..s-1 and ends at mass ``finals[s]``, which is row s of the result.
    Its individuals form a list in entry order. At +1 a uniform
    individual is the parent, and the child, put at the end, is a kernel
    draw with probability rho, else a clone. At -1 a uniform individual
    dies and the last one takes its place. Given the mass path these are
    the exact conditional laws, since every individual carries the same
    rates.

    The urn draws three uniforms a step from ``rng``, in step order
    (:func:`_urn_uniforms`), as running the survivors one after another
    would. It runs the survivors in batches of consecutive ones with
    about :data:`_BATCH` steps together (:func:`_urn_batch`), so that
    what it holds at once stays bounded however long the paths are; the
    batches do not change what is drawn.
    """
    edge = np.concatenate(([0], np.cumsum(lengths)))
    cuts = np.searchsorted(edge[1:], np.arange(_BATCH, edge[-1], _BATCH), "right")
    bounds = [0, *np.unique(cuts).tolist(), len(lengths)]
    return _joined([_urn_batch(model, starts.rows(a, b), masses[a:b],
                               steps[edge[a]:edge[b]], lengths[a:b], finals[a:b], rng)
                    for a, b in zip(bounds, bounds[1:]) if b > a])


def _urn_batch(model: RateModel, starts: Runs, masses: np.ndarray, steps: np.ndarray,
               lengths: np.ndarray, finals: np.ndarray, rng: np.random.Generator) -> Runs:
    """:func:`_urns` on a batch of survivors at once.

    Every mass along the paths is known beforehand, so every step's
    slots in the lists are too. All survivors take step k at once,
    longest path first so that those still stepping form a prefix,
    moving ids of trait nodes: one node per start entry and one per
    mutant child, each child valued from its parent's value afterwards,
    a generation at a time, through the kernel's ``inverse_cdf``. The
    trait lists are then sorted and run-length encoded together.
    """
    count = len(lengths)
    # step positions and positions in the rows of node ids fit this type
    bound = count * int(masses.max() + lengths.max())
    index = np.int32 if bound < 2**31 else np.int64
    masses, finals = masses.astype(index), finals.astype(index)
    up = steps > 0
    # the mass before each step
    mass = np.cumsum(steps, dtype=index)
    mass -= steps
    net = finals - masses
    mass += np.repeat(masses - (np.cumsum(net, dtype=index) - net), lengths)
    pick, mutates, kernel_u = _urn_uniforms(model.rho, up, mass, rng, index)

    # row r of node ids is the list of the survivor of rank r, longest
    # path first; a birth reads its parent and writes the child after the
    # last individual, a death moves the last individual onto the one
    # that dies
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(count, dtype=index)
    rank[order] = np.arange(count, dtype=index)
    width = int(max(masses.max(), mass.max(initial=0) + 1))
    row = np.repeat(rank * width, lengths)
    pick += row
    mass += row
    del row
    source = np.where(up, pick, mass - 1)
    np.copyto(pick, mass, where=up)
    target = pick
    del pick, mass, up
    # step k of the survivor of rank r goes to slot cum[k] + r
    longest = int(lengths[order[0]])
    live = count - np.cumsum(np.bincount(lengths, minlength=longest + 1))[:longest]
    cum = np.zeros(longest + 1, dtype=index)
    np.cumsum(live, out=cum[1:])
    slot = np.arange(len(steps), dtype=index)
    span = lengths.astype(index)
    slot -= np.repeat(np.cumsum(span, dtype=index) - span, lengths)
    slot = cum[slot]
    slot += np.repeat(rank, lengths)
    kernel_u = kernel_u[np.argsort(slot[mutates])]
    # the loop below gathers and scatters by these every step, faster by intp
    source = _scatter(source.astype(np.intp), slot)
    target = _scatter(target.astype(np.intp), slot)
    mutates = _scatter(mutates, slot)
    del slot

    nodes = len(starts.traits)
    firsts = np.repeat(np.arange(nodes, dtype=index), starts.weights)
    lists = np.empty((count, width), dtype=index)
    cols = np.arange(len(firsts)) - np.repeat(np.cumsum(masses) - masses, masses)
    lists[np.repeat(rank, masses), cols] = firsts
    del cols
    flat = lists.reshape(-1)
    parent_of = np.empty(len(kernel_u), dtype=index)
    cut = cum.tolist()
    mutant_cut = [0, *np.cumsum(np.add.reduceat(mutates, cut[:-1])).tolist()] if longest else [0]
    for a, b, ma, mb in zip(cut, cut[1:], mutant_cut, mutant_cut[1:]):
        value = flat[source[a:b]]
        if mb > ma:
            mutant = mutates[a:b]
            parent_of[ma:mb] = value[mutant]
            value[mutant] = np.arange(nodes + ma, nodes + mb, dtype=index)
        flat[target[a:b]] = value
    del source, target, mutates, flat

    # a child's node comes after its parent's, so each round values the
    # children of the nodes valued so far; one more node, at inf, pads
    # the rows past each survivor's final mass
    value = np.empty(nodes + len(parent_of) + 1)
    value[:nodes] = starts.traits
    value[-1] = np.inf
    known = np.zeros(len(value), dtype=bool)
    known[:nodes] = True
    pending = np.arange(len(parent_of))
    while pending.size:
        ready = known[parent_of[pending]]
        now = pending[ready]
        value[nodes + now] = model.kernel.inverse_cdf(value[parent_of[now]], kernel_u[now])
        known[nodes + now] = True
        pending = pending[~ready]
    lists[np.arange(width) >= finals[order][:, None]] = len(value) - 1
    # row s of the traits is survivor s's list
    traits = value[lists[rank]]
    del lists, value, known, parent_of, kernel_u

    # sort each row, then one run per distinct trait; validate_trait on the
    # extremes stands for the per-entry check of Configuration
    traits.sort(axis=1)
    traits = traits[np.arange(width) < finals[:, None]]
    row_first = np.cumsum(finals) - finals
    new = np.ones(len(traits), dtype=bool)
    np.not_equal(traits[1:], traits[:-1], out=new[1:])
    new[row_first] = True
    runs = np.flatnonzero(new)
    validate_trait(float(traits.min()))
    validate_trait(float(traits.max()))
    return Runs(traits[runs], np.diff(runs, append=len(new)),
                np.add.reduceat(new, row_first, dtype=np.int64))


def _urn_uniforms(rho: float, up: np.ndarray, mass: np.ndarray, rng: np.random.Generator,
                  index) -> tuple[np.ndarray, ...]:
    """The urn's uniforms, three a step in step order: its pick, its flag, its kernel uniform.

    ``up`` marks the births and ``mass`` is the mass before each step.
    The kernel uniform is drawn on every step and used only on a
    mutating birth, so a survivor's uniforms start at three times the
    steps before it, whatever those steps were. Returns, per step, the
    rank of the picked individual, truncated as int() does, and whether
    the step is a mutating birth, and the kernel uniforms of the
    mutating births in step order.
    """
    u = rng.random((len(up), 3))
    mutates = u[:, 1] < rho
    mutates &= up
    return (u[:, 0] * mass).astype(index), mutates, u[mutates, 2]


def _scatter(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[slot] = values
    return out


def _mass_chunk(model: RateModel, t_end: float, checkpoints: tuple[float, ...],
                survivors: bool, rng: np.random.Generator, part: tuple) -> MassPaths:
    """One chunk of replicas advanced together on the mass chain alone, in one lockstep.

    ``rng`` is the chunk's one generator and ``part`` its ``(size,
    initial)``: the replica count and either one configuration that
    every replica starts from, or :class:`Runs` with one start per
    replica, or a law whose ``draw(rng)`` gives each start. The chunk is
    the unit of both the stream and the lockstep: each round of its one
    :func:`_lockstep` run draws the live replicas' holding times, then a
    uniform each for the up steps, from ``rng``. With ``survivors`` the
    steps are kept, and the replicas alive at t_end get their traits
    from one :func:`_urns` call, which draws from ``rng`` after the mass
    chain, in the order of running the survivors one after another in
    replica order.
    """
    size, initial = part
    # replica i starts from row rows[i] of starts
    if isinstance(initial, Configuration):
        starts, rows = Runs.of((initial,)), np.zeros(size, dtype=np.intp)
    else:
        starts = (initial if isinstance(initial, Runs)
                  else Runs.of([initial.draw(rng) for _ in range(size)]))
        rows = np.arange(size)
    start = starts.masses()[rows]
    mass, last = start.copy(), np.zeros(size)
    at = np.full((size, len(checkpoints)), -1, dtype=np.int64)
    events = 0
    # narrow dtypes keep the step log of survivors small: 5 bytes a jump,
    # the lane and whether the step is up
    log = [(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool))]
    rounds = _lockstep(mass, last, t_end, model.rate_table(), rng)
    for lane, t, _, now, before, up in rounds:
        _checkpoints(at, checkpoints, lane, t, now, before)
        events += lane.size
        if survivors:
            log.append((lane.astype(np.int32), up))
    # a void start dies out at 0.0, which its last time holds
    extinction = np.where(mass == 0, last, math.inf)
    # a checkpoint that no jump passed sees the mass the path ended with
    at = np.where(at < 0, mass[:, None], at)
    kept = Runs.of(())
    if survivors:
        ids = np.concatenate([x for x, _ in log])
        ups = np.concatenate([u for _, u in log])
        del log
        keep = mass[ids] > 0
        ids, ups = ids[keep], ups[keep]
        del keep
        # a stable sort by replica keeps each replica's steps in time order
        steps = np.where(ups[np.argsort(ids, kind="stable")], np.int8(1), np.int8(-1))
        del ups
        lanes = np.flatnonzero(mass)
        lengths = np.bincount(ids, minlength=size)[lanes]
        del ids
        kept = _urns(model, starts.take(rows[lanes]), start[lanes], steps, lengths,
                     mass[lanes], rng)
    return MassPaths(mass, extinction, at, events, kept)


def mass_paths(model: RateModel, initial, t_end: float, replicas: int, rng: RandomStream,
               checkpoints: Sequence[float] = (), survivors: bool = False) -> MassPaths:
    """Mass paths of an ensemble to t_end, simulated in lockstep chunks.

    Every :class:`~qsdsim.rates.RateModel` is trait-blind, so the mass is
    a birth-death chain on its own, stepped on ``model.rate_table()``.
    ``initial`` is a configuration, :class:`Runs` with one row per
    replica (replica r starts from row r), or anything with a
    ``draw(rng) -> Configuration`` method, drawn once per replica.
    Replicas run in chunks of :data:`CHUNK`, one :func:`_mass_chunk`
    lockstep each, all through :func:`~qsdsim.streams.map_replicas`, and
    chunk c draws from ``rng.substream(c)``: a chunk is the unit of both
    the random stream and the lockstep. Checkpoints may come in any order but must lie
    within [0, t_end]. With ``survivors`` the result also carries the
    configurations of the replicas alive at t_end as :class:`Runs`, their
    traits drawn by the urn.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if not t_end >= 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end!r}")
    if isinstance(initial, Runs) and len(initial.support) != replicas:
        raise ValueError(f"need one start per replica, got {len(initial.support)} for {replicas}")
    checkpoints = tuple(float(c) for c in checkpoints)
    if not all(0.0 <= c <= t_end for c in checkpoints):
        raise ValueError(f"checkpoints must lie within [0, {t_end!r}], got {checkpoints!r}")
    chunk = partial(_mass_chunk, model, float(t_end), checkpoints, survivors)
    work = [(min(CHUNK, replicas - a),
             initial.rows(a, a + CHUNK) if isinstance(initial, Runs) else initial)
            for a in range(0, replicas, CHUNK)]
    parts = map_replicas(chunk, rng, work)
    columns = zip(*(part[:3] for part in parts))
    return MassPaths(*(np.concatenate(column) for column in columns),
                     sum(part.events for part in parts),
                     _joined([part.survivors for part in parts]))


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
                   replicas: int, rng: RandomStream) -> SurvivalCurve:
    """Fraction of replicas not yet extinct at each grid time.

    Runs on :func:`mass_paths`.
    """
    grid = tuple(float(t) for t in grid)
    if not all(t >= 0.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonnegative and strictly increasing")
    paths = mass_paths(model, initial, max(grid), replicas, rng)
    survival = []
    stderr = []
    for t in grid:
        p = float(np.mean(paths.extinction > t))
        survival.append(p)
        stderr.append(math.sqrt(p * (1.0 - p) / replicas))
    return SurvivalCurve(grid=grid, survival=tuple(survival), stderr=tuple(stderr),
                         replicas=replicas, events=paths.events)


def mass_moments(model: RateModel, initial, times: Sequence[float], replicas: int,
                 rng: RandomStream) -> list[tuple[float, float, float]]:
    """Mean total mass at each time with Monte Carlo standard errors.

    Runs on :func:`mass_paths`.
    """
    times = tuple(float(t) for t in times)
    if not all(t >= 0.0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and strictly increasing")
    if replicas < 2:
        raise ValueError(f"a standard error needs at least 2 replicas, got {replicas!r}")
    rows = mass_paths(model, initial, max(times), replicas, rng, checkpoints=times).at
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
