import math

import numpy as np
import pytest

from qsdsim.configuration import Configuration
from qsdsim.errors import InvalidRegime, NoMutationMass, UnsupportedModel
from qsdsim.rates import LogisticModel, RateModel, UniformModel, sample_mutation_parent
from qsdsim.streams import RandomStream
from qsdsim.trait_space import TraitPoint, UniformKernel

ETA = Configuration.from_pairs(((0.25, 2), (0.75, 1)))


def test_uniform_total_rate_closed_form(uniform_model):
    # 3 individuals, per-capita b + lam = 3
    assert uniform_model.total_jump_rate(ETA) == 9.0
    assert uniform_model.total_jump_rate(Configuration.void()) == 0.0


def test_logistic_total_rate_closed_form(logistic_model):
    # birth 3*1, death 3*(2 + 0.5*2)
    assert logistic_model.total_jump_rate(ETA) == 12.0


def test_uniform_rates_per_individual(uniform_model):
    m = uniform_model
    assert m.clonal_rate(0.25, ETA) == pytest.approx(0.7)
    assert m.mutation_rate(0.25, ETA) == pytest.approx(0.3)
    assert m.death_rate(0.25, ETA) == 2.0
    assert m.reproduction_rate(0.25, ETA) == 1.0
    assert m.birth_sup == 1.0 and m.death_inf == 2.0 and m.singleton_death_sup == 2.0


def test_logistic_death_grows_with_mass(logistic_model):
    m = logistic_model
    assert m.death_rate(0.25, ETA) == 2.0 + 0.5 * 2
    assert m.death_rate(0.5, Configuration.singleton(0.5)) == 2.0
    assert m.death_inf == 2.0 and m.singleton_death_sup == 2.0


def test_rates_vanish_at_void(uniform_model, logistic_model):
    void = Configuration.void()
    for m in (uniform_model, logistic_model):
        assert m.clonal_rate(0.5, void) == 0.0
        assert m.mutation_rate(0.5, void) == 0.0
        assert m.death_rate(0.5, void) == 0.0
        assert m.total_jump_rate(void) == 0.0


def test_state_rates_match_generic_route(uniform_model, logistic_model):
    # the optimized per-model tables must agree with the abstract sums
    rng = np.random.default_rng(2)
    for m in (uniform_model, logistic_model):
        for _ in range(50):
            size = int(rng.integers(1, 5))
            config = Configuration.from_pairs(
                [(float(t), int(w)) for t, w in
                 zip(rng.random(size), rng.integers(1, 5, size))])
            clonal, death, mut, total = m.state_rates(config)
            assert clonal == pytest.approx(
                [w * m.clonal_rate(t, config) for t, w in config.entries])
            assert death == pytest.approx(
                [w * m.death_rate(t, config) for t, w in config.entries])
            assert mut == pytest.approx(
                sum(w * m.mutation_rate(t, config) for t, w in config.entries))
            assert total == pytest.approx(sum(clonal) + sum(death) + mut)
            assert m.total_jump_rate(config) == pytest.approx(total)


def test_reproduction_rate_is_exact_sum_of_parts(uniform_model):
    # acceptance parameters were chosen so the split is float-exact
    m = uniform_model
    assert m.clonal_rate(0.5, ETA) + m.mutation_rate(0.5, ETA) == \
        m.reproduction_rate(0.5, ETA)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_rho_must_be_interior(bad):
    with pytest.raises(InvalidRegime):
        UniformModel(lam=2.0, b=1.0, rho=bad, kernel=UniformKernel())
    with pytest.raises(InvalidRegime):
        LogisticModel(b=1.0, rho=bad, d=2.0, c=0.5, kernel=UniformKernel())


def test_rate_parameters_must_be_positive():
    k = UniformKernel()
    with pytest.raises(InvalidRegime):
        UniformModel(lam=0.0, b=1.0, rho=0.3, kernel=k)
    with pytest.raises(InvalidRegime):
        UniformModel(lam=2.0, b=-1.0, rho=0.3, kernel=k)
    with pytest.raises(InvalidRegime):
        LogisticModel(b=1.0, rho=0.3, d=0.0, c=0.5, kernel=k)
    with pytest.raises(InvalidRegime):
        LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.0, kernel=k)


def test_sample_mutation_parent_weights(uniform_model):
    rng = RandomStream(3).generator()
    draws = [sample_mutation_parent(uniform_model, ETA, rng) for _ in range(30_000)]
    frac = sum(1 for d in draws if d == 0.25) / len(draws)
    assert frac == pytest.approx(2.0 / 3.0, abs=0.01)


def test_sample_mutation_parent_requires_mutation_mass(uniform_model):
    rng = RandomStream(4).generator()
    with pytest.raises(NoMutationMass):
        sample_mutation_parent(uniform_model, Configuration.void(), rng)


def test_mass_birth_death_rates(uniform_model, logistic_model):
    assert uniform_model.mass_birth_death_rates(3) == (3.0, 6.0)
    assert logistic_model.mass_birth_death_rates(3) == (3.0, 3 * 3.0)


def test_base_rate_model_requires_mass_dependence_for_chain():
    class TraitDependent(RateModel):
        kernel = UniformKernel()

        def clonal_rate(self, trait: TraitPoint, config: Configuration) -> float:
            return 0.7 * (1.0 + trait)

        def mutation_rate(self, trait: TraitPoint, config: Configuration) -> float:
            return 0.3

        def death_rate(self, trait: TraitPoint, config: Configuration) -> float:
            return 2.0

        @property
        def birth_sup(self) -> float:
            return 2.0

        @property
        def death_inf(self) -> float:
            return 2.0

        @property
        def singleton_death_sup(self) -> float:
            return 2.0

    with pytest.raises(UnsupportedModel):
        TraitDependent().mass_birth_death_rates(3)
