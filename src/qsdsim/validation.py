"""Numeric cross-checks tying simulated paths to the generator.

The test functions used here depend on the configuration only through
its total mass, which makes the generator application exact: the
mutation integral collapses because every mutation density integrates
to one against the base measure. On top of that sit three families of
checks: pointwise generator identities and bounds, martingale residuals
with the time integral computed exactly along piecewise-constant paths,
and the exponential-moment inequality driven by the closed-form
exponent of the comparison chain.
Since the test functions read the mass alone, the martingale and
moment-bound replicas run on the mass chain alone, in the simulator's
chunks of replicas, each chunk on its own stream: the moment bound reads
the masses of ``mass_paths`` at its grid times, and the martingale check
runs the lockstep stepper itself, with L f per mass read from the
columns of its per-mass rate table.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from itertools import product
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np
from scipy.stats import chi2

from .configuration import Configuration
from .errors import InvalidRegime
from .rates import LogisticModel, RateModel, RateTable, UniformModel
from .simulator import CHUNK, _lockstep, mass_moments, mass_paths
from .streams import RandomStream, map_replicas


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

    Every individual reproduces at ``b`` and dies at d(n), read through
    ``death_at`` as the engines read it. Reproduction is taken whole, not
    split into clonal and mutation parts: a birth of either kind moves the
    mass up by one, and the unsplit sum keeps the closed-form identities
    bit for bit. The sums run entry by entry; a product with n would
    round differently in the last digits. The void value of f being 0
    makes the absorption term at mass 1 come out automatically.
    """
    if config.is_void:
        return 0.0
    n = config.total_mass
    up = f.value_at_mass(n + 1) - f.value_at_mass(n)
    down = f.value_at_mass(n - 1) - f.value_at_mass(n)
    b, d = model.b, model.death_at(n)
    birth = 0.0
    death = 0.0
    for _, weight in config.entries:
        birth += weight * b
        death += weight * d
    return birth * up + death * down


def exp_mass_drift_bound(model: RateModel, a: float) -> float:
    """Per-unit-mass drift coefficient bounding L on e^{a k}."""
    return model.birth_sup * (math.exp(a) - 1.0) + model.death_inf * (math.exp(-a) - 1.0)


def _by_mass(f: TestFunction, rates: RateTable, top: int) -> tuple[np.ndarray, np.ndarray]:
    """f and L f by mass up to ``top``, the largest mass the caller reached, f one further.

    L f at mass n is birth (f(n+1) - f(n)) + death (f(n-1) - f(n)) from
    the table's columns, which is :func:`generator_apply` on a one-entry
    configuration bit for bit. It reads 0 at mass 0 and at every mass not
    filled, where both rates are 0.
    """
    birth, death = rates.by_mass[:2]
    values = np.array([f.value_at_mass(k) for k in range(top + 2)])
    drift = np.zeros(top + 1)
    drift[1:] = (birth[1:top + 1] * (values[2:] - values[1:-1])
                 + death[1:top + 1] * (values[:-2] - values[1:-1]))
    return values, drift


def _martingale_chunk(model: RateModel, f: TestFunction, initial: Configuration,
                      t: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # L f is constant between jumps, so the integral is exact; it is summed
    # per replica in jump order once the masses reached are known
    mass, last = np.full(size, initial.total_mass), np.zeros(size)
    rates = model.rate_table()
    steps = [(lane, hold, before) for lane, _, hold, _, before, _
             in _lockstep(mass, last, t, rates, rng)]
    # the largest mass a replica held: before one of its jumps, or at the end
    top = max([int(mass.max()), *(int(before.max()) for _, _, before in steps)])
    values, drift = _by_mass(f, rates, top)
    integral = np.zeros(size)
    for lane, hold, before in steps:
        integral[lane] += hold * drift[before]
    alive = mass > 0
    integral[alive] += (t - last[alive]) * drift[mass[alive]]
    return values[mass] - f(initial) - integral


def martingale_residual(model: RateModel, f: TestFunction, initial: Configuration,
                        t: float, replicas: int, rng: RandomStream) -> tuple[float, float]:
    """Monte Carlo E[f(Y_t)] - f(initial) - E int L f, with exact integrals.

    The residual is zero in expectation; the return pairs the estimate
    with its standard error so callers can judge it as noise. The
    replicas run in chunks of :data:`~qsdsim.simulator.CHUNK`, chunk c
    one lockstep on one per-mass rate table, drawing from
    ``rng.substream(c)`` as a chunk of ``mass_paths`` does.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    if replicas < 2:
        raise ValueError(f"a standard error needs at least 2 replicas, got {replicas!r}")
    fn = partial(_martingale_chunk, model, f, initial, t)
    sizes = [min(CHUNK, replicas - a) for a in range(0, replicas, CHUNK)]
    draws = np.concatenate(map_replicas(fn, rng, sizes))
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(replicas))


class LyapunovPoint(NamedTuple):
    t: float
    lhs: float
    bound: float
    stderr: float
    flagged: bool


def comparison_exponent(lambda_star: float, b_star: float, a0: float, t: float) -> float:
    """The exponent a(t) of the moment bound, in closed form.

    a solves da/dt = lambda_star (1 - e^{-a}) + b_star (1 - e^{a}) from
    a(0) = a0, which is increasing on (0, log(lambda_star/b_star)) and
    fixes the right endpoint; a0 at the endpoint itself is accepted and
    stays put. With u = e^a the ODE is the Riccati equation
    du/dt = -b_star (u - 1)(u - r), r = lambda_star / b_star, so
    v = e^a - 1 grows logistically to g = r - 1 at rate lambda_star - b_star.
    """
    if lambda_star <= b_star:
        raise InvalidRegime(f"need lambda_star > b_star, got {lambda_star!r} <= {b_star!r}")
    if b_star <= 0.0:
        raise InvalidRegime(f"b_star must be positive, got {b_star!r}")
    ceiling = math.log(lambda_star / b_star)
    if not 0.0 < a0 <= ceiling:
        raise InvalidRegime(f"a0 must lie in (0, {ceiling!r}], got {a0!r}")
    if not t >= 0.0:
        raise InvalidRegime(f"need t >= 0, got {t!r}")
    g = lambda_star / b_star - 1.0
    return math.log1p(g / (1.0 + (g / math.expm1(a0) - 1.0)
                           * math.exp(-(lambda_star - b_star) * t)))


def lyapunov_check(model: RateModel, initial: Configuration, a0: float,
                   grid: Sequence[float], replicas: int,
                   rng: RandomStream) -> list[LyapunovPoint]:
    """Monte Carlo test of the damped exponential-moment bound.

    Estimates E[e^{-death_inf t} e^{a(t) mass} on survival] at each grid
    time, with a(t) from :func:`comparison_exponent`, and flags any point
    whose estimate exceeds e^{a0 mass(initial)} by more than 3 standard
    errors. The masses at the grid times are those of :func:`mass_paths`;
    extinct before a grid time, a replica contributes 0 there.
    """
    grid = tuple(float(t) for t in grid)
    if not all(t > 0.0 for t in grid) or any(y <= x for x, y in zip(grid, grid[1:])):
        raise ValueError("grid must be positive and strictly increasing")
    if replicas < 2:
        raise ValueError(f"a standard error needs at least 2 replicas, got {replicas!r}")
    lam_star = model.death_inf
    a_at = tuple(comparison_exponent(lam_star, model.birth_sup, a0, t) for t in grid)
    seen = mass_paths(model, initial, grid[-1], replicas, rng, checkpoints=grid).at
    values = np.array([[math.exp(a * n - lam_star * g) if n else 0.0 for a, g in zip(a_at, grid)]
                       for n in range(int(seen.max()) + 1)])
    rows = values[seen, np.arange(len(grid))]
    bound = math.exp(a0 * initial.total_mass)
    points = []
    for j, t in enumerate(grid):
        lhs = float(rows[:, j].mean())
        stderr = float(rows[:, j].std(ddof=1) / math.sqrt(replicas))
        points.append(LyapunovPoint(t=t, lhs=lhs, bound=bound, stderr=stderr,
                                    flagged=lhs - 3.0 * stderr > bound))
    return points


def chi2_threshold(df: int, quantile: float = 0.999) -> float:
    return float(chi2.ppf(quantile, df))


def _describe(model: RateModel) -> tuple[str, dict]:
    if isinstance(model, UniformModel):
        return "uniform", {"lambda": model.lam, "b": model.b, "rho": model.rho}
    if isinstance(model, LogisticModel):
        return "logistic", {"b": model.b, "rho": model.rho, "d": model.d, "c": model.c}
    return type(model).__name__, {}


# Largest support size and weight of the pointwise checks' configurations
_MAX_SUPPORT = 4
_MAX_WEIGHT = 4

# The battery's two-sided Monte Carlo comparisons together may fail a
# correct model as often as one 3-standard-error comparison does alone
_ALPHA = 2.0 * NormalDist().cdf(-3.0)


def run_validation_checks(model: RateModel, rng: RandomStream,
                          replicas: int = 10_000) -> list[dict]:
    """The check battery behind the validate subcommand.

    Every entry reports {check, model, params, statistic, threshold,
    pass}; a check passes when statistic <= threshold. The pointwise
    checks read no random stream. The Monte Carlo checks draw from
    substreams 1-3 of ``rng`` and judge their estimates by standard
    errors, which need at least 2 replicas; fewer raise InvalidRegime.
    The m two-sided comparisons (four martingale residuals, and on the
    uniform model the mean mass at three times) pass within z standard
    errors, z = Phi^{-1}(1 - alpha/(2m)) with alpha = 2 Phi(-3): by
    Bonferroni, a correct model fails one of them at most as often as
    it fails a single 3-SE comparison. The moment bound stays one-sided
    at 3 standard errors.
    """
    if replicas < 2:
        raise InvalidRegime(f"validate needs at least 2 replicas for its standard errors,"
                            f" got run.replicas = {replicas!r}")
    kind, params = _describe(model)
    checks: list[dict] = []

    def record(check: str, statistic: float, threshold: float) -> None:
        checks.append({
            "check": check, "model": kind, "params": params,
            "statistic": statistic, "threshold": threshold,
            "pass": bool(statistic <= threshold),
        })

    # these checks see a configuration only through its ordered weights, so
    # they run on each tuple once, on increasing traits that keep its order
    configs = [Configuration(tuple((j / _MAX_SUPPORT, w) for j, w in enumerate(weights)))
               for size in range(1, _MAX_SUPPORT + 1)
               for weights in product(range(1, _MAX_WEIGHT + 1), repeat=size)]

    # identity and inequality checks hold exactly in real arithmetic,
    # but the uniform model saturates the drift bound, so float noise
    # needs a relative epsilon
    if isinstance(model, UniformModel):
        theta = model.lam - model.b
        worst = max(abs(generator_apply(model, Mass(), c) + theta * c.total_mass)
                    / max(1.0, theta * c.total_mass) for c in configs)
        record("mass_generator_identity", worst, 1e-12)

    nonempty = BoundedCustom((0.0, 1.0))
    lo = -model.death_inf
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
    martingales = (("martingale_mass", Mass(), five),
                   ("martingale_indicator_1", Indicator(1), Configuration.from_pairs(((0.5, 2),))))
    martingale_times = (0.5, 1.0)
    decay_times = (0.25, 0.5, 1.0) if isinstance(model, UniformModel) else ()
    comparisons = len(martingales) * len(martingale_times) + len(decay_times)
    z = NormalDist().inv_cdf(1.0 - _ALPHA / (2 * comparisons))
    for j, (label, f, initial) in enumerate(martingales):
        for i, t in enumerate(martingale_times):
            residual, stderr = martingale_residual(
                model, f, initial, t, replicas, rng.substream(1, j, i))
            record(f"{label}_t{t}", abs(residual), z * stderr)

    if model.death_inf > model.birth_sup:
        points = lyapunov_check(model, Configuration.from_pairs(((0.5, 3),)), 0.3,
                                (0.5, 1.0, 2.0), replicas, rng.substream(2))
        record("lyapunov_violations", float(sum(p.flagged for p in points)), 0.0)

    if decay_times:
        theta = model.lam - model.b
        rows = mass_moments(model, five, decay_times, replicas, rng.substream(3))
        gaps = [(abs(mean - math.exp(-theta * t) * 5.0), se) for t, mean, se in rows]
        # a zero SE (two replicas that end alike) fails any gap; JSON has no inf
        worst = max(gap / (z * se) if se else (sys.float_info.max if gap else 0.0)
                    for gap, se in gaps)
        record("mean_mass_decay", worst, 1.0)

    return checks
