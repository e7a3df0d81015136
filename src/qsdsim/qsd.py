"""Estimators for the conditioned-on-survival limit law and its decay rate.

A quasi-stationary estimate is a weighted collection of configurations.
Two routes produce one: conditioning an ensemble on survival at a fixed
time (Yaglom, with the survivors split once on the way), or running
interacting particles that resurrect on absorption (Fleming-Viot).
Decay-rate estimators come in two flavors too, a survival-curve slope
and the singleton-mass death-rate integral, so independent routes can be
cross-checked against the finite-state oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .configuration import Configuration
from .errors import (AllExtinct, Degenerate, InvalidRegime, NoSingletonMass,
                     NotNormalized, WindowTooSmall)
from .rates import RateModel, holding_time
from .simulator import _gillespie_branch, mass_paths
# map_replicas is unused here but stays importable: perfbench/tracer.py patches it.
from .streams import RandomStream, Uniforms, map_replicas  # noqa: F401
from .trait_space import sample_base


@dataclass(frozen=True, eq=False)
class QsdEstimate:
    """Weighted configurations approximating the conditioned limit law.

    ``particles`` is the number of independent survivors for conditioned
    ensembles (see :func:`yaglom_estimate`) and the particle count for
    interacting-particle runs; ``burn_in`` is 0 for the former.
    ``events`` counts the jumps the estimator simulated: of every
    replica's mass path, or of every particle.
    """

    configurations: tuple[Configuration, ...]
    weights: np.ndarray
    burn_in: float
    particles: int
    events: int = 0
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
        if any(c.is_void for c in self.configurations):
            raise ValueError("estimate puts weight on the void configuration")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_masses",
                           np.array([c.total_mass for c in self.configurations]))
        object.__setattr__(self, "_cumw", np.cumsum(weights))

    @property
    def sample(self) -> tuple[tuple[Configuration, float], ...]:
        return tuple(zip(self.configurations, (float(w) for w in self.weights)))

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
        """Effective sample size 1/sum of squared weights."""
        return float(1.0 / np.square(self.weights).sum())

    def draw(self, rng: np.random.Generator) -> Configuration:
        """One configuration sampled proportionally to weight."""
        idx = int(np.searchsorted(self._cumw, rng.random(), side="right"))
        return self.configurations[min(idx, len(self.configurations) - 1)]


def _estimate_from_counts(counts: dict[Configuration, int], burn_in: float,
                          particles: int, events: int) -> QsdEstimate:
    configs = sorted(counts, key=lambda c: c.entries)
    total = float(sum(counts.values()))
    weights = np.array([counts[c] / total for c in configs])
    return QsdEstimate(configurations=tuple(configs), weights=weights,
                       burn_in=burn_in, particles=particles, events=events)


# The Yaglom horizon is cut into this many equal stages, and the survivors
# of each stage but the last are copied to refill the ensemble; a constant.
YAGLOM_STAGES = 2


def yaglom_estimate(model: RateModel, initial, t: float, replicas: int,
                    rng: RandomStream, workers: int = 1) -> QsdEstimate:
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
    stage runs more than ``replicas`` replicas.

    Copies of one survivor share its past, so ``particles`` counts
    independent survivors: the first-stage replicas with a descendant
    alive at t. Without splitting that is the survivor count. Runs on
    mass paths.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    starts, size, events = initial, replicas, 0
    # lineage[r]: the first-stage replica that replica r of this stage descends from
    lineage, copies = np.arange(replicas), 1
    for stage in range(YAGLOM_STAGES):
        paths = mass_paths(model, starts, t / YAGLOM_STAGES, size, rng.substream(stage),
                           workers, survivors=True)
        events += paths.events
        if not paths.survivors:
            raise AllExtinct(f"no replica of {size} survived stage {stage + 1} of"
                             f" {YAGLOM_STAGES} to t={t!r}")
        lineage = lineage[np.flatnonzero(paths.final) // copies]
        copies = replicas // len(paths.survivors)
        starts = tuple(c for c in paths.survivors for _ in range(copies))
        size = len(starts)
    return _estimate_from_counts(Counter(paths.survivors), burn_in=0.0,
                                 particles=len(np.unique(lineage)), events=events)


class SumTree:
    """Nonnegative rates with O(log n) total, prefix search and point update.

    A heap-ordered binary tree in one flat list of floats: the leaves
    sit at ``[size, size + n)`` with zeros padding them to a power of
    two, and every inner node holds the sum of its two children. An
    update carries the new sum of each node up to its parent, adding the
    sibling, rather than adding a difference; IEEE addition commutes, so
    every node stays the sum of its children, a function of the current
    rates, and no rounding error builds up over many updates. An update
    that leaves a rate as it was returns at once.
    Where all partial sums are exact, as with small dyadic rates,
    ``total`` and ``find`` agree exactly with a cumulative sum.
    """

    __slots__ = ("_n", "_size", "_tree")

    def __init__(self, rates: Sequence[float]) -> None:
        n = len(rates)
        size = 1 << (n - 1).bit_length()
        tree = [0.0] * (2 * size)
        tree[size:size + n] = map(float, rates)
        for k in range(size - 1, 0, -1):
            tree[k] = tree[2 * k] + tree[2 * k + 1]
        self._n, self._size, self._tree = n, size, tree

    @property
    def total(self) -> float:
        return self._tree[1]

    def update(self, i: int, rate: float) -> None:
        tree = self._tree
        k = i + self._size
        if tree[k] == rate:
            return
        tree[k] = rate = float(rate)
        while k > 1:
            rate += tree[k ^ 1]
            k >>= 1
            tree[k] = rate

    def find(self, x: float) -> int:
        """First index whose prefix sum exceeds x, clipped to the last.

        The same as ``min(searchsorted(cumsum(rates), x, "right"), n - 1)``.
        """
        tree = self._tree
        size = self._size
        k = 1
        while k < size:
            k <<= 1
            left = tree[k]
            if x >= left:
                x -= left
                k += 1
        i, n = k - size, self._n
        return i if i < n else n - 1


def fleming_viot_estimate(model: RateModel, particles: int, burn_in: float,
                          horizon: float, rng: RandomStream,
                          snapshot_interval: float = 0.5) -> QsdEstimate:
    """Interacting copies with resurrection from a surviving copy.

    Copies evolve by the exact dynamics under a single global race for
    the next event; an absorbed copy instantly adopts the state of a
    uniformly chosen survivor. The estimate is the empirical measure
    time-averaged over snapshots every ``snapshot_interval`` in
    [burn_in, horizon]. Particles start as independent singletons at
    base-measure draws. Each event reads the rates of two masses from
    ``model.rate_table()``: the moving copy's, for its branch, and its
    successor's, for its selection weight.
    """
    if particles < 2:
        raise InvalidRegime(f"need at least 2 particles, got {particles!r}")
    if not (0.0 <= burn_in < horizon):
        raise InvalidRegime(f"need 0 <= burn_in < horizon, got {burn_in!r}, {horizon!r}")
    if snapshot_interval <= 0.0:
        raise InvalidRegime(f"snapshot interval must be positive, got {snapshot_interval!r}")
    gen = Uniforms(rng.generator())
    configs = [Configuration.singleton(sample_base(gen)) for _ in range(particles)]
    rows = model.rate_table()
    rates = SumTree([rows[c.total_mass][3] for c in configs])
    counts: Counter[Configuration] = Counter()
    t = 0.0
    events = 0
    snaps = 0
    next_snap = burn_in
    while True:
        total = rates.total
        t_next = t + holding_time(gen, total)
        while next_snap <= horizon and next_snap < t_next:
            counts.update(configs)
            snaps += 1
            next_snap = burn_in + snaps * snapshot_interval
        if t_next > horizon:
            break
        t = t_next
        events += 1
        i = rates.find(gen.random() * total)
        config = configs[i]
        *_, nxt = _gillespie_branch(model, config, gen, rows[config.total_mass])
        if nxt.is_void:
            j = int(gen.random() * (particles - 1))
            if j >= i:
                j += 1
            nxt = configs[j]
            if nxt.is_void:
                raise Degenerate("resampling donor is extinct")
        configs[i] = nxt
        rates.update(i, rows[nxt.total_mass][3])
    if not counts:
        raise InvalidRegime("no snapshot fell inside [burn_in, horizon]")
    return _estimate_from_counts(counts, burn_in=burn_in, particles=particles,
                                 events=events)


def decay_rate_from_survival(curve: Iterable[tuple[float, float, float]]) -> tuple[float, float]:
    """Slope of -log(survival) against time over the usable window.

    Points with survival outside [0.05, 0.95] are dropped: early points
    carry transient bias, late ones log-of-small-counts noise. Weighted
    least squares with delta-method variances; unweighted when the
    curve is noiseless. A perfectly flat curve short-circuits to slope
    0 since no window exists to regress on.
    """
    points = [(float(t), float(p), float(se)) for t, p, se in curve]
    if points and all(p == points[0][1] for _, p, _ in points):
        return 0.0, 0.0
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
    acc = 0.0
    found = False
    for config, weight in zip(est.configurations, est.weights):
        if config.total_mass == 1:
            found = True
            acc += float(weight) * model.death_inf
    if not found:
        raise NoSingletonMass("estimate has no weight on mass-1 configurations")
    return acc


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Half the l1 distance between probability vectors.

    Vectors may have different lengths; the shorter is zero-padded.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if abs(float(p.sum()) - 1.0) > 1e-9 or abs(float(q.sum()) - 1.0) > 1e-9:
        raise NotNormalized(
            f"vectors sum to {float(p.sum())!r} and {float(q.sum())!r}, expected 1"
        )
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def estimate_report(est: QsdEstimate) -> dict:
    """JSON-ready summary; marginal vectors start at mass / size 1."""
    return {
        "mass_marginal": [float(x) for x in est.mass_marginal[1:]],
        "support_marginal": [float(x) for x in est.support_marginal[1:]],
        "ess": est.ess,
        "burn_in": est.burn_in,
        "particles": est.particles,
        "events": est.events,
    }


def write_sample_csv(est: QsdEstimate, out: IO[str]) -> None:
    """Weighted configuration sample as CSV."""
    out.write("weight,configuration\n")
    for config, weight in est.sample:
        out.write(f"{weight:.17g},{config.serialize()}\n")
