import dataclasses
import math

import pytest

from qsdsim.configuration import Configuration
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.streams import RandomStream
from qsdsim.trait_space import UniformKernel
from qsdsim.validation import (BoundedCustom, ExpMass, Indicator, LyapunovPoint,
                               Mass, chi2_threshold, exp_mass_drift_bound,
                               generator_apply, lyapunov_check, mass_histogram,
                               martingale_residual, run_validation_checks,
                               two_sample_chi2)

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
                assert -model.singleton_death_sup <= val < 0.0


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
        martingale_residual(uniform_model, Mass(), FIVE, 1.0, 0, RandomStream(1))


def test_lyapunov_grid_validation(uniform_model):
    with pytest.raises(ValueError):
        lyapunov_check(uniform_model, FIVE, 0.3, (0.0, 1.0), 10, RandomStream(1))
    with pytest.raises(ValueError):
        lyapunov_check(uniform_model, FIVE, 0.3, (1.0, 1.0), 10, RandomStream(1))


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


@dataclasses.dataclass(frozen=True)
class _CountingDeaths(LogisticModel):
    """Logistic rates that log every mass at which d(n) is evaluated."""

    masses: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def per_capita_death(self, n):
        self.masses.append(n)
        return super().per_capita_death(n)


def _counting_model():
    return _CountingDeaths(b=1.0, rho=0.3, d=2.0, c=0.1, kernel=UniformKernel())


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
