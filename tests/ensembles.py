"""Helpers the tests share: hitting tails, the per-entry Gillespie branch, the
lockstep routes' references, starts drawn from an estimated law, configurations
from run-length arrays, their text form and a rate model that logs its
death-rate evaluations.

``urn`` runs one survivor at a time; ``mass_chunk`` and
``martingale_chunk`` draw as a chunk of the package does but evaluate
every live lane's rates every round. The package's lockstep routes must
give what they give.
"""

import dataclasses
import math
from collections import Counter
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from qsdsim import simulator
from qsdsim.configuration import Configuration
from qsdsim.qsd import QsdEstimate
from qsdsim.rates import LogisticModel, RateModel
from qsdsim.simulator import EventKind, Runs, _urns
from qsdsim.streams import RandomStream, map_replicas
from qsdsim.validation import TestFunction, generator_apply


@dataclasses.dataclass(frozen=True)
class CountingDeaths(LogisticModel):
    """Logistic rates that log every mass at which d(n) is evaluated.

    ``masses`` gets one entry per mass, whether d(n) is called on one mass
    or on an array of them.
    """

    masses: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def per_capita_death(self, n):
        self.masses.extend(np.ravel(n).tolist())
        return super().per_capita_death(n)


def law_starts(est: QsdEstimate, replicas: int, rng: np.random.Generator) -> Runs:
    """``replicas`` starts drawn from the law of ``est``, one row each, in one draw.

    Start r is the first configuration whose cumulative weight passes
    uniform r of one ``rng.random(replicas)`` call; a uniform that float
    rounding puts past the last cumulative weight takes the last
    configuration.
    """
    cumulative = np.cumsum(est.weights)
    rows = np.searchsorted(cumulative, rng.random(replicas), side="right")
    return Runs.of(est.configurations).take(np.minimum(rows, len(cumulative) - 1))


def configurations(runs: Runs) -> tuple[Configuration, ...]:
    """One checked configuration per row of ``runs``, in row order."""
    pairs = list(zip(runs.traits.tolist(), runs.weights.tolist()))
    end = np.cumsum(runs.support).tolist()
    return tuple(Configuration(tuple(pairs[a:b])) for a, b in zip([0, *end], end))


def serialize(config: Configuration) -> str:
    """Text form "w1@t1;w2@t2;..." with 17-significant-digit traits, "0" if void.

    Built one configuration at a time, it is the reference for the lines
    of ``write_sample_csv``; ``parse_configuration`` recovers the
    configuration from it bit-exactly.
    """
    if not config.entries:
        return "0"
    return ";".join(f"{w}@{t:.17g}" for t, w in config.entries)


def per_entry_branch(model: RateModel, config: Configuration, rng):
    """One Gillespie branch by a scan over every entry's clonal, then death rate.

    Returns (kind, parent, child, after), ``after`` being the
    configuration after the jump. A mutation parent comes from a second
    per-entry scan over the mutation rates. The reference for the branch
    of both scalar Gillespie loops, ``simulate_gillespie`` and
    ``fleming_viot_estimate``.
    """
    x = rng.random() * model.total_jump_rate(config)
    acc = 0.0
    for trait, weight in config.entries:
        acc += weight * model.clonal_rate(trait, config)
        if x <= acc:
            return EventKind.CLONAL, trait, trait, config.add(trait)
    for trait, weight in config.entries:
        acc += weight * model.death_rate(trait, config)
        if x <= acc:
            return EventKind.DEATH, trait, None, config.remove(trait)
    rates = [weight * model.mutation_rate(trait, config) for trait, weight in config.entries]
    y = rng.random() * sum(rates)
    parent, acc = config.entries[-1][0], 0.0
    for (trait, _), rate in zip(config.entries, rates):
        acc += rate
        if y <= acc:
            parent = trait
            break
    child = model.kernel.sample(parent, rng)
    return EventKind.MUTATION, parent, child, config.add(child)


def hitting_tail(model: RateModel, initial, t: float, k_values: Sequence[int],
                 replicas: int, rng: RandomStream) -> list[tuple[int, float]]:
    """Empirical P(total mass reaches K by time t) for each K.

    Computed from the running maximum of each replica, so the estimates
    are automatically nonincreasing in K on the shared replica set. Runs
    :func:`mass_chunk`, which keeps that maximum, on the chunks of
    :func:`~qsdsim.simulator.mass_paths` (:func:`reference_chunks`).
    """
    chunks = reference_chunks(model, initial, t, replicas, rng)
    maxima = np.concatenate([chunk.maximum for chunk in chunks])
    return [(int(k), float(np.mean(maxima >= k))) for k in k_values]


def reference_chunks(model: RateModel, initial, t_end: float, replicas: int,
                     rng: RandomStream, checkpoints: tuple[float, ...] = (),
                     survivors: bool = False) -> list:
    """:func:`mass_chunk` on each chunk of ``mass_paths`` with the same arguments.

    The layout is ``mass_paths``' own: :data:`~qsdsim.simulator.CHUNK`
    replicas per chunk, read at call time so that a test may shrink it,
    and chunk c on ``rng.substream(c)``, so that the chunks' columns,
    events and survivors, in chunk order, are the package's bit for bit.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    model.check_regime()
    if isinstance(initial, Configuration):
        initial = Runs.of((initial,) * replicas)
    chunk = partial(mass_chunk, model, float(t_end), tuple(checkpoints), survivors)
    size = simulator.CHUNK
    work = [(min(size, replicas - a), initial.rows(a, a + size))
            for a in range(0, replicas, size)]
    return map_replicas(chunk, rng, work)


def urn(model: RateModel, start: Configuration, steps: np.ndarray,
        rng: np.random.Generator) -> Configuration:
    """Traits along a mass path with ±1 ``steps``, one survivor and one step at a time.

    At +1 a uniform individual is the parent, and the child is a kernel
    draw with probability rho, else a clone. At -1 a uniform individual
    dies. Given the mass path these are the exact conditional laws, since
    every individual carries the same rates. Each step takes three
    uniforms: the pick, the flag, and the kernel's, which a step that is
    no mutating birth draws and discards. Survivors run one after
    another on one generator give what ``simulator._urns`` gives.
    """
    traits = [trait for trait, weight in start.entries for _ in range(weight)]
    for step in steps.tolist():
        i = int(rng.random() * len(traits))
        mutate = rng.random() < model.rho
        if step > 0 and mutate:
            traits.append(model.kernel.sample(traits[i], rng))
            continue
        rng.random()
        if step > 0:
            traits.append(traits[i])
        else:
            traits[i] = traits[-1]
            traits.pop()
    return Configuration(tuple(sorted(Counter(traits).items())))


class ReferenceChunk(NamedTuple):
    """A chunk of :class:`~qsdsim.simulator.MassPaths` with each replica's running maximum
    and last jump time.

    The first five fields are those of ``MassPaths``, so that
    ``mass_paths`` can merge these chunks. ``start`` is each replica's
    start mass, and ``last`` is 0.0 for a replica that never jumps.
    """

    final: np.ndarray
    extinction: np.ndarray
    at: np.ndarray
    events: int
    survivors: Runs
    start: np.ndarray
    maximum: np.ndarray
    last: np.ndarray


def mass_chunk(model: RateModel, t_end: float, checkpoints: tuple[float, ...],
               survivors: bool, rng: np.random.Generator, part: tuple) -> ReferenceChunk:
    """``simulator._mass_chunk`` with the rates of every live lane evaluated every round.

    Each round calls ``model.mass_birth_death_rates`` on the masses of all
    live lanes, and filters the lanes that stop whether or not any does.
    The package reads the same rates from a table filled once per mass
    reached; the two must give the same chunk bit for bit. The chunk also
    keeps the running maximum of each replica's mass up to the horizon,
    and its last jump time.
    """
    size, starts = part
    start = starts.masses()
    mass = start.copy()
    maximum = start.copy()
    extinction = np.where(start == 0, 0.0, math.inf)
    last = np.zeros(size)
    at = np.full((size, len(checkpoints)), -1, dtype=np.int64)
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
        last[lane] = after
        maximum[lane] = np.maximum(maximum[lane], n)
        events += lane.size
        if survivors:
            log.append((lane, step))
        alive = n > 0
        extinction[lane[~alive]] = after[~alive]
        lane, t = lane[alive], after[alive]
    at = np.where(at < 0, mass[:, None], at)
    kept = Runs.of(())
    if survivors:
        ids = np.concatenate([x for x, _ in log])
        steps = np.concatenate([s for _, s in log])
        keep = mass[ids] > 0
        ids, steps = ids[keep], steps[keep]
        steps = steps[np.argsort(ids, kind="stable")]
        lanes = np.flatnonzero(mass)
        lengths = np.bincount(ids, minlength=size)[lanes]
        kept = _urns(model, starts.take(lanes), start[lanes], steps, lengths, mass[lanes], rng)
    return ReferenceChunk(mass, extinction, at, events, kept, start, maximum, last)


def martingale_chunk(model: RateModel, f: TestFunction, initial: Configuration, t: float,
                     rng: np.random.Generator, size: int) -> np.ndarray:
    """``validation._martingale_chunk`` with L f from ``generator_apply``, one jump at a time.

    The chunk draws as :func:`mass_chunk` does, evaluating every live
    lane's rates every round. Each replica's integral of L f takes its
    terms one jump at a time, in jump order: the time held at each mass
    times ``generator_apply`` on a one-entry configuration of that mass.
    The package reads L f by mass from its rate table instead; the two
    must give the same draws bit for bit.
    """
    def drift(n: int) -> float:
        return generator_apply(model, f, Configuration(((0.5, n),)))

    mass = np.full(size, initial.total_mass)
    now = np.zeros(size)
    integral = np.zeros(size)
    lane = np.flatnonzero(mass)
    while lane.size:
        n = mass[lane]
        birth, death = model.mass_birth_death_rates(n)
        total = birth + death
        hold = rng.standard_exponential(lane.size) / total
        go = now[lane] + hold <= t
        # a lane that stops holds its mass up to t
        for i, h, k, jumps in zip(lane.tolist(), hold.tolist(), n.tolist(), go.tolist()):
            integral[i] += (h if jumps else t - now[i]) * drift(k)
        lane, n, hold, birth, total = (x[go] for x in (lane, n, hold, birth, total))
        now[lane] += hold
        mass[lane] = np.where(rng.random(lane.size) * total < birth, n + 1, n - 1)
        lane = lane[mass[lane] > 0]
    return np.array([f.value_at_mass(k) for k in mass.tolist()]) - f(initial) - integral
