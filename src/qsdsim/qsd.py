"""Estimators for the conditioned-on-survival limit law and its decay rate.

A quasi-stationary estimate is a weighted collection of configurations.
Two routes produce one: conditioning an ensemble on survival at a fixed
time (Yaglom, with the survivors split once on the way and kept as
run-length arrays until one configuration is built per distinct final
survivor), or running interacting particles that resurrect on absorption
(Fleming-Viot), each particle on its own exponential clock, the clocks
kept in a binary heap.
Decay-rate estimators come in two flavors too, a survival-curve slope
and the singleton-mass death-rate integral, so independent routes can be
cross-checked against the finite-state oracle.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import IO, Iterable, Sequence

import numpy as np

from .configuration import Configuration, _successor
from .errors import (AllExtinct, Degenerate, InvalidRegime, NoSingletonMass,
                     NotNormalized, WindowTooSmall)
from .rates import RateModel
from .simulator import Runs, mass_paths
# map_replicas is unused here but stays importable: perfbench/tracer.py patches it.
from .streams import RandomStream, Uniforms, map_replicas  # noqa: F401
from .trait_space import sample_base

_entries_of = attrgetter("entries")
_weight_of = itemgetter(1)


@dataclass(frozen=True, eq=False)
class QsdEstimate:
    """Weighted configurations approximating the conditioned limit law.

    ``particles`` is the number of independent survivors for conditioned
    ensembles (see :func:`yaglom_estimate`) and the particle count for
    interacting-particle runs; ``burn_in`` is 0 for the former.
    ``events`` counts the jumps the estimator simulated: of every
    replica's mass path, or of every particle. ``resurrections`` counts
    the absorbed particles an interacting-particle run resurrected, and
    is None for conditioned ensembles.
    """

    configurations: tuple[Configuration, ...]
    weights: np.ndarray
    burn_in: float
    particles: int
    events: int = 0
    resurrections: int | None = None
    _masses: np.ndarray = field(init=False, repr=False)
    _cumw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if len(weights) != len(self.configurations) or len(weights) == 0:
            raise ValueError("need one weight per configuration, at least one of each")
        if np.any(weights < 0.0):
            raise NotNormalized("negative weight in estimate")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise NotNormalized(f"weights sum to {float(weights.sum())!r}, not 1")
        masses = np.array([c.total_mass for c in self.configurations])
        # only the void configuration has mass 0
        if not masses.all():
            raise ValueError("estimate puts weight on the void configuration")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_masses", masses)
        object.__setattr__(self, "_cumw", np.cumsum(weights))

    @property
    def mass_marginal(self) -> np.ndarray:
        """Probability vector over total mass; index 0 is always 0."""
        out = np.zeros(int(self._masses.max()) + 1)
        np.add.at(out, self._masses, self.weights)
        return out

    @property
    def support_marginal(self) -> np.ndarray:
        """Probability vector over support size; index 0 is always 0."""
        sizes = np.array([c.support_size for c in self.configurations])
        out = np.zeros(int(sizes.max()) + 1)
        np.add.at(out, sizes, self.weights)
        return out

    @property
    def ess(self) -> float:
        """1/sum of squared weights over the merged configurations: an inverse
        Simpson index of the estimated law, not an effective sample size."""
        return float(1.0 / np.square(self.weights).sum())

    def draw(self, rng: np.random.Generator) -> Configuration:
        """One configuration sampled proportionally to weight."""
        idx = int(np.searchsorted(self._cumw, rng.random(), side="right"))
        return self.configurations[min(idx, len(self.configurations) - 1)]


def _estimate_from_counts(counts: dict[tuple, int], burn_in: float,
                          particles: int, events: int,
                          resurrections: int | None = None) -> QsdEstimate:
    """The estimate of configurations counted by their ``entries``, in their order."""
    keys = sorted(counts)
    total = float(sum(counts.values()))
    weights = np.array([counts[k] / total for k in keys])
    configs = [_successor(k, sum(map(_weight_of, k))) for k in keys]
    return QsdEstimate(configurations=tuple(configs), weights=weights,
                       burn_in=burn_in, particles=particles, events=events,
                       resurrections=resurrections)


def _estimate_from_runs(runs: Runs, particles: int, events: int) -> QsdEstimate:
    """:func:`_estimate_from_counts` of the ``entries`` that ``runs`` holds, bit for bit.

    The rows, none of them void, merge by one ``np.lexsort`` over the
    columns (t1, w1, t2, w2, ...) of their entries, missing entries read
    as (-inf, -inf): that is the tuple order of ``entries``, a row that is
    a prefix of another coming first. One configuration is built per
    distinct row, the first of its equals, in that order.
    """
    count = len(runs.support)
    first = np.cumsum(runs.support) - runs.support
    row = np.repeat(np.arange(count), runs.support)
    col = np.arange(len(row)) - first[row]
    keys = np.full((count, int(runs.support.max()), 2), -np.inf)
    keys[row, col, 0] = runs.traits
    keys[row, col, 1] = runs.weights
    keys = keys.reshape(count, -1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    heads = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    distinct = runs.take(order[heads])
    pairs = list(zip(distinct.traits.tolist(), distinct.weights.tolist()))
    end = np.cumsum(distinct.support).tolist()
    configs = [_successor(tuple(pairs[a:b]), n)
               for a, b, n in zip([0, *end], end, distinct.masses().tolist())]
    return QsdEstimate(configurations=tuple(configs),
                       weights=np.diff(heads, append=count) / float(count),
                       burn_in=0.0, particles=particles, events=events)


# The Yaglom horizon is cut into this many equal stages, and the survivors
# of each stage but the last are copied to refill the ensemble; a constant.
YAGLOM_STAGES = 2


def yaglom_estimate(model: RateModel, initial, t: float, replicas: int,
                    rng: RandomStream) -> QsdEstimate:
    """Empirical law at time t among surviving replicas, by fixed-factor splitting.

    The horizon is cut into :data:`YAGLOM_STAGES` equal stages, and stage
    k runs mass paths (:func:`~qsdsim.simulator.mass_paths`) on
    ``rng.substream(k)``; traits are drawn only for each stage's
    survivors. The first stage starts ``replicas`` replicas from
    ``initial``, a configuration or anything with a
    ``draw(rng) -> Configuration`` method. Each later stage starts from
    the S survivors of the one before, each copied ``replicas // S``
    times. Every survivor gets the same number of copies, so the final
    survivors keep equal weights and estimate the law conditioned on
    survival to t, as plain conditioning does, but with up to
    ``replicas // S`` times as many of them where many replicas die. No
    stage runs more than ``replicas`` replicas. Survivors stay
    run-length arrays (:class:`~qsdsim.simulator.Runs`) from stage to
    stage, and the final ones merge into one configuration per distinct
    survivor (:func:`_estimate_from_runs`).

    Copies of one survivor share its past, so ``particles`` counts
    independent survivors: the first-stage replicas with a descendant
    alive at t. Without splitting that is the survivor count. Runs on
    mass paths.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    starts, size, events = initial, replicas, 0
    # lineage[r]: the first-stage replica that replica r of this stage descends from
    lineage, copies = np.arange(replicas), 1
    for stage in range(YAGLOM_STAGES):
        if stage:
            copies = replicas // alive
            # survivor s fills slots s copies to (s + 1) copies - 1
            starts = paths.survivors.take(np.repeat(np.arange(alive), copies))
            size = copies * alive
        paths = mass_paths(model, starts, t / YAGLOM_STAGES, size, rng.substream(stage),
                           survivors=True)
        events += paths.events
        alive = len(paths.survivors.support)
        if not alive:
            raise AllExtinct(f"no replica of {size} survived stage {stage + 1} of"
                             f" {YAGLOM_STAGES} to t={t!r}")
        lineage = lineage[np.flatnonzero(paths.final) // copies]
    return _estimate_from_runs(paths.survivors, particles=len(np.unique(lineage)),
                               events=events)


def fleming_viot_estimate(model: RateModel, particles: int, burn_in: float,
                          horizon: float, rng: RandomStream,
                          snapshot_interval: float = 0.5) -> QsdEstimate:
    """Interacting copies with resurrection from a surviving copy.

    Every copy carries its own exponential clock at its total jump rate,
    and the clocks sit in a binary heap of ``(ring time, index)``. The
    earliest clock rings, its copy jumps by the exact dynamics, and an
    absorbed copy instantly adopts the state of a uniformly chosen
    other copy. Only the moving copy's rate changes, so only its clock
    is drawn anew; by memorylessness every other clock stays valid, and
    the earliest ring is the global race of the Fleming-Viot system
    (the next-reaction method of Gibson & Bruck 2000).

    Particles start as independent singletons at base-measure draws,
    then draw their first clocks in index order, all at the rate of mass
    1. Each event draws the branch of one step of
    :func:`~qsdsim.simulator.simulate_gillespie`, a donor uniform if the
    copy was absorbed, and the copy's next holding time, in that order,
    reading the rates from ``model.rate_table()``. The branch is taken
    bit for bit as that engine takes it, with one ``Configuration.add``
    or ``remove`` call per event; on a one-entry configuration the
    individual it would rank carries the one trait, which is read
    directly. The estimate is the empirical measure time-averaged over
    snapshots every ``snapshot_interval`` in [burn_in, horizon], each
    counting the copies by their ``entries`` just before the first ring
    past the snapshot time; its ``resurrections`` counts the absorptions.
    """
    if particles < 2:
        raise InvalidRegime(f"need at least 2 particles, got {particles!r}")
    if not (0.0 <= burn_in < horizon):
        raise InvalidRegime(f"need 0 <= burn_in < horizon, got {burn_in!r}, {horizon!r}")
    if snapshot_interval <= 0.0:
        raise InvalidRegime(f"snapshot interval must be positive, got {snapshot_interval!r}")
    gen = Uniforms(rng.generator())
    # a base-measure draw lies in [0, 1), so the singletons need no check
    configs = [_successor(((sample_base(gen), 1),), 1) for _ in range(particles)]
    rows = model.rate_table()
    random, log, replace, sample = gen.random, math.log, heapq.heapreplace, model.kernel.sample
    # holding_time(gen, rate) bit for bit, at the rate of mass 1
    rate = rows[1][3]
    clocks = [(-log(1.0 - random()) / rate, i) for i in range(particles)]
    heapq.heapify(clocks)
    counts: Counter[tuple] = Counter()
    events = 0
    resurrections = 0
    snaps = 0
    # the next snapshot time, inf once it would pass the horizon
    next_snap = burn_in
    while True:
        t, i = clocks[0]
        while next_snap < t:
            counts.update(map(_entries_of, configs))
            snaps += 1
            next_snap = burn_in + snaps * snapshot_interval
            if next_snap > horizon:
                next_snap = math.inf
        if t > horizon:
            break
        events += 1
        # simulate_gillespie's branch: the band, then a mutation's parent
        # and child; a rank is individual_at's, clipped to the mass n. Every
        # individual of a one-entry configuration carries its one trait.
        config = configs[i]
        entries = config.entries
        trait = entries[0][0]
        ranked = len(entries) > 1
        n = config.total_mass
        clonal, death, _, total = rows[n]
        x = random() * total
        if x < clonal:
            if ranked:
                k = int(x / clonal * n)
                trait = config.individual_trait(k + 1 if k < n else n)
            nxt = config.add(trait)
        elif (x := x - clonal) < death:
            if ranked:
                k = int(x / death * n)
                trait = config.individual_trait(k + 1 if k < n else n)
            nxt = config.remove(trait)
            if not nxt.entries:
                resurrections += 1
                j = int(random() * (particles - 1))
                if j >= i:
                    j += 1
                nxt = configs[j]
                if not nxt.entries:
                    raise Degenerate("resampling donor is extinct")
        else:
            k = int(random() * n)
            if ranked:
                trait = config.individual_trait(k + 1 if k < n else n)
            nxt = config.add(sample(trait, gen))
        configs[i] = nxt
        # t + holding_time(gen, ...) bit for bit
        replace(clocks, (t - log(1.0 - random()) / rows[nxt.total_mass][3], i))
    if not counts:
        raise InvalidRegime("no snapshot fell inside [burn_in, horizon]")
    return _estimate_from_counts(counts, burn_in=burn_in, particles=particles,
                                 events=events, resurrections=resurrections)


def decay_rate_from_survival(curve: Iterable[tuple[float, float, float]]) -> tuple[float, float]:
    """Slope of -log(survival) against time over the usable window.

    Points with survival outside [0.05, 0.95] are dropped: early points
    carry transient bias, late ones log-of-small-counts noise. Weighted
    least squares with delta-method variances; unweighted when the
    curve is noiseless. A curve without 3 points in the window raises
    WindowTooSmall, one at survival 1 or 0 everywhere included: nothing
    dying, or everything dead, says nothing about the rate.
    """
    points = [(float(t), float(p), float(se)) for t, p, se in curve]
    admissible = [(t, p, se) for t, p, se in points if 0.05 <= p <= 0.95]
    if len(admissible) < 3:
        raise WindowTooSmall(
            f"{len(admissible)} points with survival in [0.05, 0.95], need 3"
        )
    ts = np.array([t for t, _, _ in admissible])
    ys = -np.log(np.array([p for _, p, _ in admissible]))
    ses = np.array([se / p for _, p, se in admissible])
    if np.all(ses > 0.0):
        w = 1.0 / np.square(ses)
        tbar = float(np.sum(w * ts) / np.sum(w))
        ybar = float(np.sum(w * ys) / np.sum(w))
        sxx = float(np.sum(w * np.square(ts - tbar)))
        slope = float(np.sum(w * (ts - tbar) * (ys - ybar)) / sxx)
        return slope, math.sqrt(1.0 / sxx)
    tbar = float(ts.mean())
    sxx = float(np.square(ts - tbar).sum())
    slope = float(np.sum((ts - tbar) * (ys - ys.mean())) / sxx)
    resid = ys - ys.mean() - slope * (ts - tbar)
    sigma2 = float(np.square(resid).sum()) / (len(ts) - 2)
    return slope, math.sqrt(sigma2 / sxx)


def decay_rate_from_singletons(model: RateModel, est: QsdEstimate) -> float:
    """Death-rate integral over the mass-1 part of the estimate.

    A lone individual dies at d(1), ``model.death_inf``. The integral is
    unnormalized: weights are the estimate's own, which sum to 1 over
    all masses.
    """
    singletons = est.weights[est._masses == 1].tolist()
    if not singletons:
        raise NoSingletonMass("estimate has no weight on mass-1 configurations")
    death = model.death_inf
    acc = 0.0
    for weight in singletons:
        acc += weight * death
    return acc


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Half the l1 distance between probability vectors.

    Vectors may have different lengths; the shorter is zero-padded.
    Both must have nonnegative entries that sum to 1, or NotNormalized
    is raised; a NaN or infinite entry fails too.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # NaN fails the comparison, where it would pass the sum check below
    if not (np.all(p >= 0.0) and np.all(q >= 0.0)):
        raise NotNormalized("vectors must have nonnegative entries, NaN excluded")
    if abs(float(p.sum()) - 1.0) > 1e-9 or abs(float(q.sum()) - 1.0) > 1e-9:
        raise NotNormalized(
            f"vectors sum to {float(p.sum())!r} and {float(q.sum())!r}, expected 1"
        )
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def estimate_report(est: QsdEstimate) -> dict:
    """JSON-ready summary; marginal vectors start at mass / size 1.

    ``resurrections`` appears only for an estimate that counts them.
    """
    report = {
        "mass_marginal": [float(x) for x in est.mass_marginal[1:]],
        "support_marginal": [float(x) for x in est.support_marginal[1:]],
        "ess": est.ess,
        "burn_in": est.burn_in,
        "particles": est.particles,
        "events": est.events,
    }
    if est.resurrections is not None:
        report["resurrections"] = est.resurrections
    return report


def write_sample_csv(est: QsdEstimate, out: IO[str]) -> None:
    """Weighted configuration sample as CSV, one configuration a line.

    A line reads "weight,w1@t1;w2@t2;..." with the weight and the traits
    to 17 significant digits, so that it parses back bit-exactly. The
    lines come from one ``%`` over one format string: each line's weight
    text, formatted once per distinct weight (told apart by its bits) and
    free of ``%``, then the entry fields of its support size, built once
    per size, which take every entry's weight and trait in line order.
    """
    bits, which = np.unique(est.weights.view(np.int64), return_inverse=True)
    text = ["%.17g" % weight for weight in bits.view(np.float64).tolist()]
    entries = list(map(_entries_of, est.configurations))
    fields = ["," + ";".join(["%d@%.17g"] * size) + "\n"
              for size in range(max(map(len, entries)) + 1)]
    lines = "".join(map(str.__add__, map(text.__getitem__, which.tolist()),
                        map(fields.__getitem__, map(len, entries))))
    out.write("weight,configuration\n"
              + lines % tuple(chain.from_iterable(map(reversed, chain.from_iterable(entries)))))
