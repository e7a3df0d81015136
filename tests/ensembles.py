"""Ensemble helpers the tests share: hitting tails, the lockstep routes' references
and a rate model that logs its death-rate evaluations.

Most references run one replica or survivor at a time through the full
per-configuration engine; ``mass_chunk`` evaluates every live lane's
rates every round. The package's lockstep routes must give what they
give.
"""

import dataclasses
import math
from collections import Counter
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from qsdsim import simulator
from qsdsim.configuration import Configuration
from qsdsim.rates import LogisticModel, RateModel
from qsdsim.simulator import _jumps, _urns
from qsdsim.streams import RandomStream, Uniforms, map_replicas
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
        initial = (initial,) * replicas
    chunk = partial(mass_chunk, model, float(t_end), tuple(checkpoints), survivors)
    size = simulator.CHUNK
    work = [(min(size, replicas - a),
             initial[a:a + size] if isinstance(initial, tuple) else initial)
            for a in range(0, replicas, size)]
    return map_replicas(chunk, len(work), rng, chunk_size=1, items=work)


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
    """A chunk of :class:`~qsdsim.simulator.MassPaths` with each replica's running maximum.

    The first four fields and ``events`` and ``survivors`` are those of
    ``MassPaths``, so that ``mass_paths`` can merge these chunks.
    """

    start: np.ndarray
    final: np.ndarray
    extinction: np.ndarray
    at: np.ndarray
    events: int
    survivors: tuple[Configuration, ...]
    maximum: np.ndarray


def mass_chunk(model: RateModel, t_end: float, checkpoints: tuple[float, ...],
               survivors: bool, gens: list, parts: list) -> ReferenceChunk:
    """``simulator._mass_chunk`` with the rates of every live lane evaluated every round.

    Each round calls ``model.mass_birth_death_rates`` on the masses of all
    live lanes, and filters the lanes that stop whether or not any does.
    The package reads the same rates from a table filled once per mass
    reached; the two must give the same chunk bit for bit. The chunk also
    keeps the running maximum of each replica's mass up to the horizon.
    """
    (rng,), ((size, initial),) = gens, parts
    starts = (list(initial) if isinstance(initial, tuple)
              else [initial.draw(rng) for _ in range(size)])
    start = np.array([c.total_mass for c in starts], dtype=np.int64)
    mass = start.copy()
    maximum = start.copy()
    extinction = np.where(start == 0, 0.0, math.inf)
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
        maximum[lane] = np.maximum(maximum[lane], n)
        events += lane.size
        if survivors:
            log.append((lane, step))
        alive = n > 0
        extinction[lane[~alive]] = after[~alive]
        lane, t = lane[alive], after[alive]
    at = np.where(at < 0, mass[:, None], at)
    kept: tuple[Configuration, ...] = ()
    if survivors:
        ids = np.concatenate([x for x, _ in log])
        steps = np.concatenate([s for _, s in log])
        keep = mass[ids] > 0
        ids, steps = ids[keep], steps[keep]
        steps = steps[np.argsort(ids, kind="stable")]
        lanes = np.flatnonzero(mass)
        lengths = np.bincount(ids, minlength=size)[lanes]
        kept = _urns(model, [starts[i] for i in lanes.tolist()], start[lanes], steps,
                     lengths, mass[lanes], rng)
    return ReferenceChunk(start, mass, extinction, at, events, kept, maximum)


def martingale_replica(model: RateModel, f: TestFunction, initial: Configuration,
                       t: float, rows, rng: np.random.Generator) -> float:
    """One draw of f(Y_t) - f(initial) - int L f, stepping ``_jumps`` on the configuration.

    L f is constant between jumps, so the integral is exact; it is summed
    entry by entry over each configuration the path visits.
    """
    config = initial
    now = 0.0
    integral = 0.0
    for now, hold, _, _, _, after in _jumps(model, initial, t, Uniforms(rng), rows):
        integral += hold * generator_apply(model, f, config)
        config = after
    if not config.is_void:
        integral += (t - now) * generator_apply(model, f, config)
    return f(config) - f(initial) - integral


def lyapunov_replica(model: RateModel, initial: Configuration, grid: tuple[float, ...],
                     a_at: tuple[float, ...], lam_star: float, rows,
                     rng: np.random.Generator) -> np.ndarray:
    """One replica's e^{a(t) mass - lam_star t} on survival at each grid time, by ``_jumps``.

    A grid time at a jump sees the mass after it; extinct before a grid
    time, that time contributes 0.
    """
    masses: list[int] = []
    n = initial.total_mass
    for t, _, _, _, _, after in _jumps(model, initial, grid[-1], Uniforms(rng), rows):
        while len(masses) < len(grid) and grid[len(masses)] < t:
            masses.append(n)
        n = after.total_mass
    masses += [n] * (len(grid) - len(masses))
    return np.array([math.exp(a * n - lam_star * g) if n else 0.0
                     for a, n, g in zip(a_at, masses, grid)])
