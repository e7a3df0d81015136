import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import simulator, validation
from qsdsim.configuration import Configuration
from qsdsim.errors import InvalidRegime
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.streams import RandomStream, Uniforms
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel
from qsdsim.validation import (BoundedCustom, ExpMass, Indicator, LyapunovPoint,
                               Mass, _by_mass, _lyapunov_chunk, _martingale_chunk,
                               chi2_threshold, comparison_exponent, exp_mass_drift_bound,
                               generator_apply, lyapunov_check, martingale_residual,
                               run_validation_checks)

import strategies
from ensembles import CountingDeaths, lyapunov_replica, martingale_replica
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
    rates = simulator._MassRates(model, top)
    rates(np.arange(1, top + 1))
    values, drift = _by_mass(f, rates)
    assert drift[0] == 0.0
    assert drift[1:].tolist() == [generator_apply(model, f, Configuration(((trait, k),)))
                                  for k in range(1, top + 1)]
    assert values.tolist() == [f.value_at_mass(k) for k in range(top + 2)]


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


# dyadic rates keep L f exact on both routes; the non-dyadic model sums it
# entry by entry on one route and once per mass on the other
GAUSSIAN = LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.5, kernel=TruncatedGaussianKernel(0.1))
AWKWARD = LogisticModel(b=1.3, rho=0.3, d=1.7, c=0.13, kernel=TruncatedGaussianKernel(0.1))
SPREAD = Configuration.from_pairs(((0.2, 2), (0.5, 2), (0.8, 1)))
GRID = (0.5, 1.0, 3.0)
A_AT = (0.3, 0.29, 0.27)


def _lockstep_models(uniform_model, logistic_model):
    return {"uniform": uniform_model, "logistic": logistic_model, "gaussian": GAUSSIAN}


def _generators(seed, replicas=300):
    return list(RandomStream(seed).replica_generators(0, replicas))


@pytest.mark.parametrize("name", ["uniform", "logistic", "gaussian"])
@pytest.mark.parametrize("f", [Mass(), Indicator(1), ExpMass(0.3)])
@pytest.mark.parametrize("t", [0.5, 3.0])
def test_lockstep_martingale_draws_are_the_one_at_a_time_draws(uniform_model, logistic_model,
                                                               name, f, t):
    model = _lockstep_models(uniform_model, logistic_model)[name]
    ref = [martingale_replica(model, f, SPREAD, t, model.rate_table(), gen)
           for gen in _generators(31)]
    got = _martingale_chunk(model, f, SPREAD, t, _generators(31))
    assert got.tolist() == ref


@pytest.mark.parametrize("name", ["uniform", "logistic", "gaussian"])
def test_lockstep_moment_bound_rows_are_the_one_at_a_time_rows(uniform_model, logistic_model,
                                                               name):
    model = _lockstep_models(uniform_model, logistic_model)[name]
    ref = np.stack([lyapunov_replica(model, SPREAD, GRID, A_AT, 2.0, model.rate_table(), gen)
                    for gen in _generators(32)])
    got = _lyapunov_chunk(model, SPREAD, GRID, A_AT, 2.0, _generators(32))
    assert np.array_equal(got, ref)


def _replayed_jumps(model, start, t, gens):
    """Per replica, the (start, end, holding time, mass after) of each jump the
    lockstep replay takes from mass ``start``; its rate table; and the final
    masses and last jump times the stepper writes."""
    rates = simulator._MassRates(model, start)
    replay = simulator._Replay(gens)
    got = [[] for _ in gens]
    mass, last = np.full(len(gens), start), np.zeros(len(gens))
    rounds = simulator._lockstep(mass, last, t, rates, replay.hold, replay.up)
    for lane, t0, hold, now, before, up in rounds:
        after = np.where(up, before + 1, before - 1)
        for i, *jump in zip(lane.tolist(), t0.tolist(), now.tolist(), hold.tolist(),
                            after.tolist()):
            got[i].append(tuple(jump))
    return got, rates, mass, last


def _full_jumps(model, initial, t, gen, rows):
    # (start, end, holding time, mass after) of each jump of the full engine
    out, prev = [], 0.0
    for now, hold, *_, after in simulator._jumps(model, initial, t, Uniforms(gen), rows):
        out.append((prev, now, hold, after.total_mass))
        prev = now
    return out


@pytest.mark.parametrize("name", ["uniform", "logistic", "gaussian", "awkward"])
def test_lockstep_mass_jumps_are_the_jumps_of_the_full_engine(uniform_model, logistic_model,
                                                              name):
    model = {**_lockstep_models(uniform_model, logistic_model), "awkward": AWKWARD}[name]
    ref = [_full_jumps(model, SPREAD, 3.0, gen, model.rate_table()) for gen in _generators(37)]
    assert _replayed_jumps(model, 5, 3.0, _generators(37))[0] == ref


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["uniform", "logistic", "gaussian", "awkward"]),
       start=st.integers(0, 12), t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_lockstep_mass_jumps_from_any_start_mass_are_the_jumps_of_the_full_engine(
        uniform_model, logistic_model, name, start, t, seed):
    model = {**_lockstep_models(uniform_model, logistic_model), "awkward": AWKWARD}[name]
    initial = Configuration.from_pairs(((0.5, start),)) if start else Configuration.void()
    rows = model.rate_table()
    ref = [_full_jumps(model, initial, t, gen, rows)
           for gen in RandomStream(seed).replica_generators(0, 50)]
    got, rates, mass, last = _replayed_jumps(model, start, t,
                                             list(RandomStream(seed).replica_generators(0, 50)))
    assert got == ref
    # each lane leaves with the mass after its last jump, and that jump's time
    assert mass.tolist() == [jumps[-1][3] if jumps else start for jumps in ref]
    assert last.tolist() == [jumps[-1][1] if jumps else 0.0 for jumps in ref]
    # the table's filled masses are the masses the full engine read
    assert np.flatnonzero(rates.by_mass[3]).tolist() == sorted(rows)


def test_lockstep_replicas_refill_their_blocks(uniform_model):
    # some replica draws past its first block of uniforms by t = 3 from mass 5
    jumps = _replayed_jumps(uniform_model, 5, 3.0, _generators(31))[0]
    assert 2 * max(map(len, jumps)) + 1 > simulator._BLOCK


def test_lockstep_checks_at_non_dyadic_rates_agree_to_rounding():
    for f in (Mass(), ExpMass(0.3)):
        ref = [martingale_replica(AWKWARD, f, SPREAD, 3.0, AWKWARD.rate_table(), gen)
               for gen in _generators(33)]
        got = _martingale_chunk(AWKWARD, f, SPREAD, 3.0, _generators(33))
        assert got.tolist() == pytest.approx(ref, rel=1e-12, abs=1e-12)
    ref = np.stack([lyapunov_replica(AWKWARD, SPREAD, GRID, A_AT, 1.7, AWKWARD.rate_table(), gen)
                    for gen in _generators(34)])
    got = _lyapunov_chunk(AWKWARD, SPREAD, GRID, A_AT, 1.7, _generators(34))
    assert np.array_equal(got, ref)


def test_lockstep_checks_over_two_chunks_give_the_one_at_a_time_results(logistic_model):
    # more replicas than one chunk of map_replicas, so each check runs two
    replicas, model = 5000, logistic_model
    rates = model.rate_table()
    draws = np.array([martingale_replica(model, Indicator(1), SPREAD, 0.5, rates, gen)
                      for gen in RandomStream(35).replica_generators(0, replicas)])
    assert martingale_residual(model, Indicator(1), SPREAD, 0.5, replicas,
                               RandomStream(35)) == (float(draws.mean()),
                                                     float(draws.std(ddof=1) / math.sqrt(replicas)))

    grid, lam_star = (0.5, 1.0), model.death_inf
    a_at = tuple(comparison_exponent(lam_star, model.birth_sup, 0.3, t) for t in grid)
    rows = np.stack([lyapunov_replica(model, SPREAD, grid, a_at, lam_star, rates, gen)
                     for gen in RandomStream(36).replica_generators(0, replicas)])
    points = lyapunov_check(model, SPREAD, 0.3, grid, replicas, RandomStream(36))
    assert [(p.lhs, p.stderr) for p in points] == [
        (float(rows[:, j].mean()), float(rows[:, j].std(ddof=1) / math.sqrt(replicas)))
        for j in range(len(grid))]
