"""Numeric cross-checks tying simulated paths to the generator.

The test functions used here depend on the configuration only through
its total mass, which makes the generator application exact: the
mutation integral collapses because every mutation density integrates
to one against the base measure. On top of that sit three families of
checks: pointwise generator identities and bounds, martingale residuals
with the time integral computed exactly along piecewise-constant paths,
and the exponential-moment inequality driven by the comparison ODE.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np
from scipy.stats import chi2

from .configuration import Configuration
from .oracle import ode_trajectory
from .rates import LogisticModel, RateModel, UniformModel
from .simulator import _jumps, mass_moments
from .streams import RandomStream, Uniforms, map_replicas


class TestFunction(ABC):
    """Bounded-or-moment-controlled observable tabulated on total mass."""

    @abstractmethod
    def value_at_mass(self, k: int) -> float: ...

    def __call__(self, config: Configuration) -> float:
        return self.value_at_mass(config.total_mass)


@dataclass(frozen=True)
class Mass(TestFunction):
    def value_at_mass(self, k: int) -> float:
        return float(k)


@dataclass(frozen=True)
class ExpMass(TestFunction):
    """e^{a k} on nonempty configurations, 0 at the void state."""

    a: float

    def value_at_mass(self, k: int) -> float:
        return 0.0 if k == 0 else math.exp(self.a * k)


@dataclass(frozen=True)
class Indicator(TestFunction):
    """1 exactly at total mass k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("indicator mass must be at least 1; void must map to 0")

    def value_at_mass(self, k: int) -> float:
        return 1.0 if k == self.k else 0.0


@dataclass(frozen=True)
class BoundedCustom(TestFunction):
    """Values tabulated per mass, held at the last entry beyond the table.

    The first entry is the void value and must be 0.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != 0.0:
            raise ValueError("need a table starting with 0 at mass 0")

    def value_at_mass(self, k: int) -> float:
        return self.values[min(k, len(self.values) - 1)]


def generator_apply(model: RateModel, f: TestFunction, config: Configuration) -> float:
    """Exact generator action on a mass-only observable.

    Every individual reproduces at ``b`` and dies at d(n). Reproduction
    is taken whole rather than split into clonal and mutation parts: a
    birth of either kind moves the mass up by one, and keeping the sum
    unsplit preserves the closed-form identities bit for bit. The sums
    run entry by entry; a product with n would round differently in the
    last digits. The void value of f being 0 makes the absorption term
    at mass 1 come out automatically.
    """
    if config.is_void:
        return 0.0
    n = config.total_mass
    up = f.value_at_mass(n + 1) - f.value_at_mass(n)
    down = f.value_at_mass(n - 1) - f.value_at_mass(n)
    b, d = model.b, model.per_capita_death(n)
    birth = 0.0
    death = 0.0
    for _, weight in config.entries:
        birth += weight * b
        death += weight * d
    return birth * up + death * down


def exp_mass_drift_bound(model: RateModel, a: float) -> float:
    """Per-unit-mass drift coefficient bounding L on e^{a k}."""
    return model.birth_sup * (math.exp(a) - 1.0) + model.death_inf * (math.exp(-a) - 1.0)


def _martingale_replica(model: RateModel, f: TestFunction, initial: Configuration,
                        t: float, rng: np.random.Generator) -> float:
    # L f is constant between jumps, so the integral is exact
    config = initial
    now = 0.0
    integral = 0.0
    for now, hold, _, _, _, after in _jumps(model, initial, t, Uniforms(rng)):
        integral += hold * generator_apply(model, f, config)
        config = after
    if not config.is_void:
        integral += (t - now) * generator_apply(model, f, config)
    return f(config) - f(initial) - integral


def martingale_residual(model: RateModel, f: TestFunction, initial: Configuration,
                        t: float, replicas: int, rng: RandomStream,
                        workers: int = 1) -> tuple[float, float]:
    """Monte Carlo E[f(Y_t)] - f(initial) - E int L f, with exact integrals.

    The residual is zero in expectation; the return pairs the estimate
    with its standard error so callers can judge it as noise.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    fn = partial(_martingale_replica, model, f, initial, t)
    draws = np.array(map_replicas(fn, replicas, rng, workers))
    stderr = float(draws.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return float(draws.mean()), stderr


class LyapunovPoint(NamedTuple):
    t: float
    lhs: float
    bound: float
    stderr: float
    flagged: bool


def _lyapunov_replica(model: RateModel, initial: Configuration, grid: tuple[float, ...],
                      a_at: tuple[float, ...], lam_star: float,
                      rng: np.random.Generator) -> np.ndarray:
    # a grid time at a jump sees the mass after it; extinct before a grid
    # time, that time contributes 0
    masses: list[int] = []
    n = initial.total_mass
    for t, _, _, _, _, after in _jumps(model, initial, grid[-1], Uniforms(rng)):
        while len(masses) < len(grid) and grid[len(masses)] < t:
            masses.append(n)
        n = after.total_mass
    masses += [n] * (len(grid) - len(masses))
    return np.array([math.exp(a * n - lam_star * g) if n else 0.0
                     for a, n, g in zip(a_at, masses, grid)])


def lyapunov_check(model: RateModel, initial: Configuration, a0: float,
                   grid: Sequence[float], replicas: int, rng: RandomStream,
                   workers: int = 1, dt: float = 1e-3) -> list[LyapunovPoint]:
    """Monte Carlo test of the damped exponential-moment bound.

    Estimates E[e^{-death_inf t} e^{a(t) mass} on survival] at each grid
    time, with a(t) integrated from a0, and flags any point whose
    estimate exceeds e^{a0 mass(initial)} by more than 3 standard
    errors.
    """
    grid = tuple(float(t) for t in grid)
    if any(t <= 0.0 for t in grid) or any(y <= x for x, y in zip(grid, grid[1:])):
        raise ValueError("grid must be positive and strictly increasing")
    lam_star = model.death_inf
    b_star = model.birth_sup
    traj = ode_trajectory(lam_star, b_star, a0, max(grid), dt)
    ts = np.array([p[0] for p in traj])
    avals = np.array([p[1] for p in traj])
    a_at = tuple(float(x) for x in np.interp(grid, ts, avals))
    fn = partial(_lyapunov_replica, model, initial, grid, a_at, lam_star)
    rows = np.stack(map_replicas(fn, replicas, rng, workers))
    bound = math.exp(a0 * initial.total_mass)
    points = []
    for j, t in enumerate(grid):
        lhs = float(rows[:, j].mean())
        stderr = float(rows[:, j].std(ddof=1) / math.sqrt(replicas))
        points.append(LyapunovPoint(t=t, lhs=lhs, bound=bound, stderr=stderr,
                                    flagged=lhs - 3.0 * stderr > bound))
    return points


def mass_histogram(masses: Sequence[int], kmax: int = 15) -> np.ndarray:
    """Counts over masses 0..kmax with everything above clamped to kmax."""
    clipped = np.minimum(np.asarray(masses, dtype=int), kmax)
    return np.bincount(clipped, minlength=kmax + 1)


def two_sample_chi2(counts_a: Sequence[int], counts_b: Sequence[int]) -> tuple[float, int]:
    """Homogeneity statistic and degrees of freedom for two count vectors.

    Bins whose pooled expected count falls below 5 in either sample are
    merged into a shared spill bin to keep the chi-square approximation
    honest.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    n = max(len(a), len(b))
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    pooled = (a + b) / (na + nb)
    keep = (na * pooled >= 5.0) & (nb * pooled >= 5.0)
    rows = [(a[keep], b[keep])]
    if not keep.all():
        rows.append((np.array([a[~keep].sum()]), np.array([b[~keep].sum()])))
    a = np.concatenate([r[0] for r in rows])
    b = np.concatenate([r[1] for r in rows])
    if len(a) < 2:
        return 0.0, 1
    stat = 0.0
    for ak, bk in zip(a, b):
        pk = (ak + bk) / (na + nb)
        ea, eb = na * pk, nb * pk
        if ea > 0.0:
            stat += (ak - ea) ** 2 / ea
        if eb > 0.0:
            stat += (bk - eb) ** 2 / eb
    return float(stat), len(a) - 1


def chi2_threshold(df: int, quantile: float = 0.999) -> float:
    return float(chi2.ppf(quantile, df))


def _describe(model: RateModel) -> tuple[str, dict]:
    if isinstance(model, UniformModel):
        return "uniform", {"lambda": model.lam, "b": model.b, "rho": model.rho}
    if isinstance(model, LogisticModel):
        return "logistic", {"b": model.b, "rho": model.rho, "d": model.d, "c": model.c}
    return type(model).__name__, {}


def _random_configuration(rng: np.random.Generator, max_support: int = 4,
                          max_weight: int = 4) -> Configuration:
    size = int(rng.integers(1, max_support + 1))
    pairs = [(float(rng.random()), int(rng.integers(1, max_weight + 1)))
             for _ in range(size)]
    return Configuration.from_pairs(pairs)


def run_validation_checks(model: RateModel, rng: RandomStream, replicas: int = 10_000,
                          workers: int = 1) -> list[dict]:
    """The check battery behind the validate subcommand.

    Every entry reports {check, model, params, statistic, threshold,
    pass}; a check passes when statistic <= threshold.
    """
    kind, params = _describe(model)
    checks: list[dict] = []

    def record(check: str, statistic: float, threshold: float) -> None:
        checks.append({
            "check": check, "model": kind, "params": params,
            "statistic": statistic, "threshold": threshold,
            "pass": bool(statistic <= threshold),
        })

    gen = rng.substream(0).generator()
    configs = [_random_configuration(gen) for _ in range(1000)]

    # identity and inequality checks hold exactly in real arithmetic,
    # but the uniform model saturates the drift bound, so float noise
    # needs a relative epsilon
    if isinstance(model, UniformModel):
        theta = model.lam - model.b
        worst = max(abs(generator_apply(model, Mass(), c) + theta * c.total_mass)
                    / max(1.0, theta * c.total_mass) for c in configs)
        record("mass_generator_identity", worst, 1e-12)

    nonempty = BoundedCustom((0.0, 1.0))
    lo = -model.singleton_death_sup
    worst = 0.0
    for c in configs:
        val = generator_apply(model, nonempty, c)
        worst = max(worst, val, lo - val)
    record("nonempty_indicator_generator_bounds", worst, 0.0)

    if model.death_inf > model.birth_sup:
        a0 = 0.5 * math.log(model.death_inf / model.birth_sup)
        drift = exp_mass_drift_bound(model, a0)
        f = ExpMass(a0)
        worst = max((generator_apply(model, f, c) - drift * c.total_mass * f(c))
                    / (c.total_mass * f(c)) for c in configs)
        record("exp_mass_pointwise_drift", worst, 1e-12)

    five = Configuration.from_pairs(((0.5, 5),))
    for j, (label, f, initial) in enumerate((
        ("martingale_mass", Mass(), five),
        ("martingale_indicator_1", Indicator(1), Configuration.from_pairs(((0.5, 2),))),
    )):
        for i, t in enumerate((0.5, 1.0)):
            residual, stderr = martingale_residual(
                model, f, initial, t, replicas, rng.substream(1, j, i), workers)
            record(f"{label}_t{t}", abs(residual), 3.0 * stderr)

    if model.death_inf > model.birth_sup:
        points = lyapunov_check(model, Configuration.from_pairs(((0.5, 3),)), 0.3,
                                (0.5, 1.0, 2.0), replicas, rng.substream(2), workers)
        record("lyapunov_violations", float(sum(p.flagged for p in points)), 0.0)

    if isinstance(model, UniformModel):
        theta = model.lam - model.b
        times = (0.25, 0.5, 1.0)
        rows = mass_moments(model, five, times, replicas, rng.substream(3), workers)
        worst = max(abs(mean - math.exp(-theta * t) * 5.0) / (3.0 * se)
                    for t, mean, se in rows)
        record("mean_mass_decay", worst, 1.0)

    return checks
