import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import simulator, validation
from qsdsim.configuration import Configuration
from qsdsim.errors import InvalidRegime
from qsdsim.rates import LogisticModel, RateTable, UniformModel
from qsdsim.simulator import Runs
from qsdsim.streams import RandomStream
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel
from qsdsim.validation import (BoundedCustom, ExpMass, Indicator, LyapunovPoint,
                               Mass, _by_mass, _martingale_chunk,
                               chi2_threshold, comparison_exponent, exp_mass_drift_bound,
                               generator_apply, lyapunov_check, martingale_residual,
                               run_validation_checks)

import strategies
from ensembles import CountingDeaths, martingale_chunk, mass_chunk, reference_chunks
from homogeneity import mass_histogram, two_sample_chi2

FIVE = Configuration.from_pairs(((0.5, 5),))
ONE = Configuration.singleton(0.5)


def _random_configs(count=1000, seed=0):
    rng = RandomStream(seed).generator()
    out = []
    for _ in range(count):
        size = int(rng.integers(1, 5))
        out.append(Configuration.from_pairs(
            [(float(t), int(w)) for t, w in
             zip(rng.random(size), rng.integers(1, 5, size))]))
    return out


def test_observable_values():
    assert Mass().value_at_mass(3) == 3.0
    assert Mass()(Configuration.void()) == 0.0
    f = ExpMass(0.3)
    assert f.value_at_mass(0) == 0.0
    assert f.value_at_mass(2) == math.exp(0.6)
    assert f(Configuration.void()) == 0.0
    g = Indicator(2)
    assert g.value_at_mass(2) == 1.0
    assert g.value_at_mass(1) == 0.0 and g.value_at_mass(3) == 0.0
    with pytest.raises(ValueError):
        Indicator(0)
    h = BoundedCustom((0.0, 1.0, 4.0))
    assert h.value_at_mass(0) == 0.0
    assert h.value_at_mass(1) == 1.0
    assert h.value_at_mass(2) == 4.0
    assert h.value_at_mass(9) == 4.0
    with pytest.raises(ValueError):
        BoundedCustom(())
    with pytest.raises(ValueError):
        BoundedCustom((0.5, 1.0))


def test_generator_on_void_is_zero(uniform_model):
    assert generator_apply(uniform_model, Mass(), Configuration.void()) == 0.0


def test_mass_generator_identity_is_exact(uniform_model):
    # integer weights and integer-valued rates keep the sums exact, so
    # L mass == -(lam - b) mass bit for bit at these parameters
    for config in _random_configs():
        got = generator_apply(uniform_model, Mass(), config)
        assert got == -float(config.total_mass)


def test_mass_generator_identity_at_awkward_parameters():
    model = UniformModel(lam=2.3, b=0.7, rho=0.3, kernel=UniformKernel())
    for config in _random_configs(200, seed=1):
        got = generator_apply(model, Mass(), config)
        want = -(2.3 - 0.7) * config.total_mass
        assert got == pytest.approx(want, rel=1e-12)


def test_exp_mass_generator_term_for_term(uniform_model):
    a = 0.3
    f = ExpMass(a)
    for config in (FIVE, Configuration.from_pairs(((0.2, 1), (0.7, 2)))):
        n = config.total_mass
        want = (n * uniform_model.b * (math.exp(a * (n + 1)) - math.exp(a * n))
                + n * uniform_model.lam * (math.exp(a * (n - 1)) - math.exp(a * n)))
        assert generator_apply(uniform_model, f, config) == pytest.approx(want, rel=1e-14)
    # the mass-1 down step lands on the void value 0, not on e^{0}
    want = (uniform_model.b * (math.exp(2 * a) - math.exp(a))
            + uniform_model.lam * (0.0 - math.exp(a)))
    assert generator_apply(uniform_model, f, ONE) == pytest.approx(want, rel=1e-14)


def test_exp_mass_drift_bound_value(uniform_model):
    a = 0.5 * math.log(2.0)
    want = (math.exp(a) - 1.0) + 2.0 * (math.exp(-a) - 1.0)
    assert exp_mass_drift_bound(uniform_model, a) == pytest.approx(want, rel=1e-15)
    assert want < 0.0


def test_exp_mass_pointwise_inequality(uniform_model, logistic_model):
    for model in (uniform_model, logistic_model):
        a0 = 0.5 * math.log(model.death_inf / model.birth_sup)
        drift = exp_mass_drift_bound(model, a0)
        f = ExpMass(a0)
        for config in _random_configs(300, seed=2):
            lhs = generator_apply(model, f, config)
            rhs = drift * config.total_mass * f(config)
            assert lhs <= rhs + 1e-12 * abs(rhs)


def test_nonempty_indicator_generator_is_exact(uniform_model, logistic_model):
    nonempty = BoundedCustom((0.0, 1.0))
    for model in (uniform_model, logistic_model):
        for config in _random_configs(300, seed=3):
            val = generator_apply(model, nonempty, config)
            if config.total_mass >= 2:
                assert val == 0.0
            else:
                trait = config.entries[0][0]
                assert val == -model.death_rate(trait, config)
                assert -model.death_inf <= val < 0.0


# ten entries of weight up to 5 reach every mass from 1 to 50
_UP_TO_50 = strategies.configurations(max_entries=10)


@settings(max_examples=200, deadline=None)
@given(model=strategies.MODELS, config=_UP_TO_50)
def test_mass_generator_is_births_less_deaths(model, config):
    n = config.total_mass
    birth, death = n * model.b, n * model.per_capita_death(n)
    assert generator_apply(model, Mass(), config) == pytest.approx(
        birth - death, rel=1e-12, abs=1e-12 * (birth + death))


@settings(max_examples=200, deadline=None)
@given(model=strategies.MODELS, config=_UP_TO_50)
def test_nonempty_indicator_generator_is_the_singleton_death_rate(model, config):
    val = generator_apply(model, BoundedCustom((0.0, 1.0)), config)
    assert val == (-model.per_capita_death(1) if config.total_mass == 1 else 0.0)


@settings(max_examples=200, deadline=None)
@given(model=strategies.MODELS, config=_UP_TO_50, k=st.integers(1, 52))
def test_indicator_generator_lives_next_to_its_mass(model, config, k):
    val = generator_apply(model, Indicator(k), config)
    assert (val != 0.0) == (abs(config.total_mass - k) <= 1)


@settings(max_examples=100, deadline=None)
@given(model=strategies.MODELS, top=st.integers(1, 50), trait=st.floats(0.0, 1.0),
       f=st.one_of(st.just(Mass()), st.builds(Indicator, st.integers(1, 52)),
                   st.builds(ExpMass, st.floats(0.01, 2.0)),
                   st.builds(BoundedCustom, st.lists(st.floats(-5.0, 5.0), min_size=1,
                                                     max_size=8).map(lambda v: (0.0, *v)))))
def test_table_generator_is_the_one_entry_generator_bit_for_bit(model, top, trait, f):
    rates = model.rate_table()
    rates(np.arange(1, top + 1))
    values, drift = _by_mass(f, rates)
    assert drift[0] == 0.0
    assert drift[1:].tolist() == [generator_apply(model, f, Configuration(((trait, k),)))
                                  for k in range(1, top + 1)]
    assert values.tolist() == [f.value_at_mass(k) for k in range(top + 2)]


class _DeadAtThree(UniformModel):
    """Uniform rates but for d(3) = 0, against the contract."""

    def per_capita_death(self, n):
        return self.lam * (n != 3)


def test_generator_apply_refuses_a_death_rate_that_is_not_positive():
    # it reads d(n) through the guard every engine and the oracle read it through
    model = _DeadAtThree(lam=2.0, b=1.0, rho=0.3, kernel=UniformKernel())
    assert generator_apply(model, Mass(), Configuration.from_pairs(((0.5, 2),))) == -2.0
    with pytest.raises(InvalidRegime, match=r"per_capita_death\(3\) = 0\.0 must be positive"):
        generator_apply(model, Mass(), Configuration.from_pairs(((0.5, 3),)))


def test_martingale_residual_at_time_zero(uniform_model):
    assert martingale_residual(uniform_model, Mass(), FIVE, 0.0, 100,
                               RandomStream(5)) == (0.0, 0.0)


def test_martingale_residual_is_noise(uniform_model, logistic_model):
    mean, stderr = martingale_residual(uniform_model, Mass(), FIVE, 0.5, 4000,
                                       RandomStream(7))
    assert abs(mean) <= 3.0 * stderr
    mean, stderr = martingale_residual(logistic_model, Indicator(1), FIVE, 0.5,
                                       4000, RandomStream(8))
    assert abs(mean) <= 3.0 * stderr


def test_martingale_argument_checks(uniform_model):
    with pytest.raises(ValueError):
        martingale_residual(uniform_model, Mass(), FIVE, -1.0, 10, RandomStream(1))
    with pytest.raises(ValueError):
        martingale_residual(uniform_model, Mass(), FIVE, math.nan, 10, RandomStream(1))
    with pytest.raises(ValueError):
        martingale_residual(uniform_model, Mass(), FIVE, 1.0, 0, RandomStream(1))


def test_lyapunov_grid_validation(uniform_model):
    with pytest.raises(ValueError):
        lyapunov_check(uniform_model, FIVE, 0.3, (0.0, 1.0), 10, RandomStream(1))
    with pytest.raises(ValueError):
        lyapunov_check(uniform_model, FIVE, 0.3, (1.0, 1.0), 10, RandomStream(1))
    # a NaN time gave a NaN point, which no bound flags
    with pytest.raises(ValueError):
        lyapunov_check(uniform_model, FIVE, 0.3, (math.nan, 1.0), 10, RandomStream(1))


def test_comparison_exponent_fixed_point_stays_put():
    ceiling = math.log(2.0)
    assert all(abs(comparison_exponent(2.0, 1.0, ceiling, i * 0.01) - ceiling) <= 1e-12
               for i in range(1001))


def test_comparison_exponent_converges_to_log_ratio():
    times = [i * 0.01 for i in range(5001)]
    values = [comparison_exponent(2.0, 1.0, 0.1, t) for t in times]
    assert values[0] == 0.1
    assert abs(values[-1] - math.log(2.0)) <= 1e-6
    assert all(b >= a for a, b in zip(values, values[1:]))
    early = [a for t, a in zip(times, values) if t <= 20.0]
    assert all(b > a for a, b in zip(early, early[1:]))


@pytest.mark.parametrize("lam_star, b_star, a0", [
    (2.0, 1.0, 0.1), (2.0, 1.0, 0.3), (5.0, 1.3, 0.01), (3.0, 1.0, 1e-6),
    # near-critical: lambda_star / b_star close to 1
    (1.05, 1.0, 0.04), (1.001, 1.0, 0.0005),
])
def test_comparison_exponent_solves_the_ode(lam_star, b_star, a0):
    def a(t):
        return comparison_exponent(lam_star, b_star, a0, t)

    assert abs(a(0.0) - a0) <= 1e-15 * a0
    h = 1e-4
    slopes, rhs = [], []
    for i in range(1, 1001):
        t = i * 0.01
        slopes.append((a(t + h) - a(t - h)) / (2.0 * h))
        rhs.append(lam_star * (1.0 - math.exp(-a(t))) + b_star * (1.0 - math.exp(a(t))))
    # a central difference errs by h^2/6 times the third derivative, far
    # below 1e-6 of the largest slope on these cases
    scale = max(abs(r) for r in rhs)
    assert max(abs(s - r) for s, r in zip(slopes, rhs)) <= 1e-6 * scale


def test_comparison_exponent_regime_checks():
    with pytest.raises(InvalidRegime):
        comparison_exponent(1.0, 1.0, 0.1, 1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(1.0, 2.0, 0.1, 1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(2.0, -1.0, 0.1, 1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(2.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(2.0, 1.0, math.log(2.0) + 0.01, 1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(2.0, 1.0, 0.1, -1.0)
    with pytest.raises(InvalidRegime):
        comparison_exponent(2.0, 1.0, 0.1, math.nan)


@pytest.mark.parametrize("check", [
    lambda model, n: martingale_residual(model, Mass(), FIVE, 0.5, n, RandomStream(1)),
    lambda model, n: lyapunov_check(model, FIVE, 0.3, (0.5, 1.0), n, RandomStream(1)),
    lambda model, n: simulator.mass_moments(model, FIVE, (0.5, 1.0), n, RandomStream(1)),
], ids=["martingale_residual", "lyapunov_check", "mass_moments"])
def test_a_standard_error_needs_two_replicas(uniform_model, check):
    for replicas in (0, 1):
        with pytest.raises(ValueError, match="at least 2 replicas"):
            check(uniform_model, replicas)
    check(uniform_model, 2)


def test_the_battery_needs_two_replicas(uniform_model):
    with pytest.raises(InvalidRegime, match="at least 2 replicas"):
        run_validation_checks(uniform_model, RandomStream(1), replicas=1)


def test_lyapunov_bound_holds(uniform_model):
    initial = Configuration.from_pairs(((0.5, 3),))
    points = lyapunov_check(uniform_model, initial, 0.3, (0.5, 1.0, 2.0), 4000,
                            RandomStream(9))
    assert [p.t for p in points] == [0.5, 1.0, 2.0]
    for p in points:
        assert isinstance(p, LyapunovPoint)
        assert p.bound == math.exp(0.3 * 3)
        assert p.lhs >= 0.0 and p.stderr >= 0.0
        assert p.flagged == (p.lhs - 3.0 * p.stderr > p.bound)
        assert not p.flagged


def test_mass_histogram_clamps():
    counts = mass_histogram([0, 1, 2, 2, 20])
    assert len(counts) == 16
    assert counts[15] == 1 and counts[2] == 2 and counts.sum() == 5
    tight = mass_histogram([0, 1, 7, 9], kmax=3)
    assert tight.tolist() == [1, 1, 0, 2]


def test_two_sample_chi2_identical_is_zero():
    stat, df = two_sample_chi2([40, 30, 30], [40, 30, 30])
    assert stat == 0.0 and df == 2


def test_two_sample_chi2_merges_sparse_bins():
    stat, df = two_sample_chi2([50, 30, 2, 1], [45, 35, 3, 0])
    assert df == 2
    assert stat >= 0.0


def test_two_sample_chi2_degenerate_and_empty():
    assert two_sample_chi2([10], [12]) == (0.0, 1)
    with pytest.raises(ValueError):
        two_sample_chi2([0, 0], [3, 4])


def test_two_sample_chi2_detects_disjoint_laws():
    stat, df = two_sample_chi2([1000, 0], [0, 1000])
    assert stat > chi2_threshold(df)


def test_chi2_threshold_is_upper_tail():
    assert 10.0 < chi2_threshold(1) < 11.0
    assert 20.0 < chi2_threshold(5) < 21.0
    assert chi2_threshold(5, 0.99) < chi2_threshold(5)


def test_validation_battery_passes(uniform_model, logistic_model):
    uniform_checks = run_validation_checks(uniform_model, RandomStream(11),
                                           replicas=2000)
    names = {c["check"] for c in uniform_checks}
    assert {"mass_generator_identity", "nonempty_indicator_generator_bounds",
            "exp_mass_pointwise_drift", "martingale_mass_t0.5",
            "martingale_mass_t1.0", "martingale_indicator_1_t0.5",
            "martingale_indicator_1_t1.0", "lyapunov_violations",
            "mean_mass_decay"} == names
    for check in uniform_checks:
        assert set(check) == {"check", "model", "params", "statistic",
                              "threshold", "pass"}
        assert check["model"] == "uniform"
        assert check["pass"], check

    logistic_checks = run_validation_checks(logistic_model, RandomStream(12),
                                            replicas=2000)
    names = {c["check"] for c in logistic_checks}
    assert "mass_generator_identity" not in names
    assert "mean_mass_decay" not in names
    assert {"nonempty_indicator_generator_bounds", "exp_mass_pointwise_drift",
            "lyapunov_violations"} <= names
    for check in logistic_checks:
        assert check["model"] == "logistic"
        assert check["pass"], check


def test_the_battery_fails_a_stepper_whose_death_rates_are_too_high(uniform_model,
                                                                     logistic_model, monkeypatch):
    # the stepper reads d(n) x 1.2 while L f reads the true table, so the
    # paths are not those of the generator the martingale checks apply
    true_rates = RateTable.__call__

    def faulty(self, n):
        r = true_rates(self, n).copy()
        r[1] *= 1.2
        r[2] = r[0] + r[1]
        return r

    monkeypatch.setattr(RateTable, "__call__", faulty)
    for model in (uniform_model, logistic_model):
        for seed in (21, 22, 23):
            checks = run_validation_checks(model, RandomStream(seed), replicas=1000)
            martingales = [c for c in checks if c["check"].startswith("martingale")]
            assert len(martingales) == 4
            assert not all(c["pass"] for c in martingales), (model, seed)


def test_pointwise_checks_see_every_ordered_weight_tuple_once(uniform_model, monkeypatch):
    seen = []

    def logged(model, f, config):
        seen.append((type(f), tuple(weight for _, weight in config.entries)))
        return generator_apply(model, f, config)

    monkeypatch.setattr(validation, "generator_apply", logged)
    checks = run_validation_checks(uniform_model, RandomStream(3), replicas=20)
    assert [c["check"] for c in checks][:3] == [
        "mass_generator_identity", "nonempty_indicator_generator_bounds",
        "exp_mass_pointwise_drift"]
    every = sorted(w for size in range(1, 5) for w in itertools.product(range(1, 5), repeat=size))
    assert len(every) == 340
    # the Monte Carlo checks read L f from the rate table, not generator_apply
    for f in (Mass, BoundedCustom, ExpMass):
        weights = [w for kind, w in seen if kind is f]
        assert sorted(weights) == every
        assert {sum(w) for w in weights} == set(range(1, 17))
    assert len(seen) == 3 * 340


class _OffAtSixteen(UniformModel):
    """Uniform rates but for d(16), off by 1e-6."""

    def per_capita_death(self, n):
        return self.lam + 1e-6 * (n == 16)


def test_the_mass_identity_fails_a_death_rate_wrong_only_at_mass_sixteen():
    # only the weights (4, 4, 4, 4) reach mass 16, and at every seed
    model = _OffAtSixteen(lam=2.0, b=1.0, rho=0.3, kernel=UniformKernel())
    assert model.per_capita_death(15) == 2.0 and model.per_capita_death(16) != 2.0
    for seed in range(1, 11):
        identity = run_validation_checks(model, RandomStream(seed), replicas=20)[0]
        assert identity["check"] == "mass_generator_identity"
        assert identity["statistic"] == pytest.approx(1e-6, rel=1e-6)
        assert not identity["pass"]


def _counting_model():
    return CountingDeaths(b=1.0, rho=0.3, d=2.0, c=0.1, kernel=UniformKernel())


@pytest.mark.parametrize("f", [Mass(), Indicator(1)])
def test_a_martingale_check_evaluates_the_death_rate_once_per_mass(f):
    model = _counting_model()
    martingale_residual(model, f, FIVE, 1.0, 300, RandomStream(8))
    # 300 replicas of a few jumps each, all on one rate table
    assert len(set(model.masses)) > 3
    assert len(model.masses) == len(set(model.masses))


def test_a_moment_bound_check_evaluates_the_death_rate_once_per_mass():
    model = _counting_model()
    lyapunov_check(model, Configuration.from_pairs(((0.5, 3),)), 0.3, (0.5, 1.0), 300,
                   RandomStream(9))
    assert len(set(model.masses)) > 3
    # death_inf reads d(1) once more before the replicas run
    assert len(model.masses) <= len(set(model.masses)) + 1


# AWKWARD's rates are not dyadic, so its L f rounds; both routes take it once
# per mass, so the draws still agree bit for bit
GAUSSIAN = LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.5, kernel=TruncatedGaussianKernel(0.1))
AWKWARD = LogisticModel(b=1.3, rho=0.3, d=1.7, c=0.13, kernel=TruncatedGaussianKernel(0.1))
SPREAD = Configuration.from_pairs(((0.2, 2), (0.5, 2), (0.8, 1)))
GRID = (0.5, 1.0, 3.0)


def _lockstep_models(uniform_model, logistic_model):
    return {"uniform": uniform_model, "logistic": logistic_model, "gaussian": GAUSSIAN,
            "awkward": AWKWARD}


@pytest.mark.parametrize("name", ["uniform", "logistic", "gaussian", "awkward"])
@pytest.mark.parametrize("f", [Mass(), Indicator(1), ExpMass(0.3)])
@pytest.mark.parametrize("t", [0.5, 3.0])
def test_lockstep_martingale_draws_are_the_one_at_a_time_draws(uniform_model, logistic_model,
                                                               name, f, t):
    # the reference builds each replica's draw one jump at a time
    model = _lockstep_models(uniform_model, logistic_model)[name]
    ref = martingale_chunk(model, f, SPREAD, t, RandomStream(31).generator(), 300)
    got = _martingale_chunk(model, f, SPREAD, t, RandomStream(31).generator(), 300)
    assert got.tolist() == ref.tolist()


def _rows(model, a0, grid, at):
    """Each replica's e^{a(t) mass - death_inf t} on survival at the grid times, one at a time."""
    lam_star = model.death_inf
    a_at = [comparison_exponent(lam_star, model.birth_sup, a0, t) for t in grid]
    return np.array([[math.exp(a * n - lam_star * g) if n else 0.0
                      for a, n, g in zip(a_at, masses, grid)] for masses in at.tolist()])


def _points(rows):
    return [(float(column.mean()), float(column.std(ddof=1) / math.sqrt(len(column))))
            for column in rows.T]


@pytest.mark.parametrize("name", ["uniform", "logistic", "gaussian", "awkward"])
def test_lockstep_moment_bound_rows_are_the_one_at_a_time_rows(uniform_model, logistic_model,
                                                               name):
    model = _lockstep_models(uniform_model, logistic_model)[name]
    # below log(d(1)/b) on every model, AWKWARD's 0.268 the least
    a0 = 0.25
    chunk, = reference_chunks(model, SPREAD, GRID[-1], 300, RandomStream(32), checkpoints=GRID)
    points = lyapunov_check(model, SPREAD, a0, GRID, 300, RandomStream(32))
    assert [(p.lhs, p.stderr) for p in points] == _points(_rows(model, a0, GRID, chunk.at))


def _reading(model, read):
    """``model``, logging to ``read`` every mass its mass-chain rates are evaluated at."""
    class Reading(type(model)):
        def mass_birth_death_rates(self, k):
            read.update(k.tolist())
            return super().mass_birth_death_rates(k)

    return Reading(**{field.name: getattr(model, field.name)
                      for field in dataclasses.fields(model)})


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["uniform", "logistic", "gaussian", "awkward"]),
       start=st.integers(0, 12), t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_lockstep_from_any_start_mass_ends_as_the_reference_chunk(
        uniform_model, logistic_model, name, start, t, seed):
    model = _lockstep_models(uniform_model, logistic_model)[name]
    initial = Configuration.from_pairs(((0.5, start),)) if start else Configuration.void()
    read = set()
    want = mass_chunk(_reading(model, read), t, (), False, RandomStream(seed).generator(),
                      (50, Runs.of((initial,) * 50)))
    mass, last = np.full(50, start), np.zeros(50)
    rates = model.rate_table()
    rounds = simulator._lockstep(mass, last, t, rates, RandomStream(seed).generator())
    assert sum(lane.size for lane, *_ in rounds) == want.events
    # each lane leaves with the mass after its last jump, and that jump's time
    assert mass.tolist() == want.final.tolist()
    assert last.tolist() == want.last.tolist()
    # the table's filled masses are the masses the reference read
    assert np.flatnonzero(rates.by_mass[2]).tolist() == sorted(read)


def test_lockstep_checks_over_several_chunks_give_the_reference_chunks(logistic_model,
                                                                       monkeypatch):
    # chunks of 2,000, so each check runs three
    monkeypatch.setattr(simulator, "CHUNK", 2000)
    monkeypatch.setattr(validation, "CHUNK", 2000)
    replicas, model, stream = 5000, logistic_model, RandomStream(35)
    draws = np.concatenate([
        martingale_chunk(model, Indicator(1), SPREAD, 0.5, stream.substream(c).generator(), size)
        for c, size in enumerate((2000, 2000, 1000))])
    assert martingale_residual(model, Indicator(1), SPREAD, 0.5, replicas,
                               stream) == (float(draws.mean()),
                                           float(draws.std(ddof=1) / math.sqrt(replicas)))

    grid = (0.5, 1.0)
    chunks = reference_chunks(model, SPREAD, grid[-1], replicas, RandomStream(36),
                              checkpoints=grid)
    assert len(chunks) == 3
    rows = _rows(model, 0.3, grid, np.concatenate([chunk.at for chunk in chunks]))
    points = lyapunov_check(model, SPREAD, 0.3, grid, replicas, RandomStream(36))
    assert [(p.lhs, p.stderr) for p in points] == _points(rows)
