import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.configuration import Configuration
from qsdsim.errors import InvalidRegime, NoMutationMass
from qsdsim.rates import (LogisticModel, RateModel, UniformModel, individual_at,
                          sample_mutation_parent)
from qsdsim.streams import RandomStream
from qsdsim.trait_space import UniformKernel

from strategies import MODELS, configurations

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


def test_sample_mutation_parent_weights():
    rng = RandomStream(3).generator()
    draws = [sample_mutation_parent(ETA, rng) for _ in range(30_000)]
    frac = sum(1 for d in draws if d == 0.25) / len(draws)
    assert frac == pytest.approx(2.0 / 3.0, abs=0.01)


def test_sample_mutation_parent_requires_mutation_mass():
    rng = RandomStream(4).generator()
    with pytest.raises(NoMutationMass):
        sample_mutation_parent(Configuration.void(), rng)


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_individual_at_ranks_by_floor_and_clips_the_top(config):
    n = config.total_mass
    for rank in range(n):
        assert individual_at(config, (rank + 0.5) / n) == config.individual_trait(rank + 1)
    assert individual_at(config, 1.0) == config.entries[-1][0]


def test_mass_birth_death_rates(uniform_model, logistic_model):
    assert uniform_model.mass_birth_death_rates(3) == (3.0, 6.0)
    assert logistic_model.mass_birth_death_rates(3) == (3.0, 3 * 3.0)


@settings(max_examples=200, deadline=None)
@given(MODELS, configurations())
def test_state_rates_sum_to_the_total_jump_rate(m, config):
    clonal, death, mutation, total = m.state_rates(config)
    assert total == m.total_jump_rate(config)
    assert math.fsum([clonal, death, mutation]) == pytest.approx(total, rel=1e-12)
    # each kind's total is the sum of the per-individual rates
    entries = config.entries
    assert clonal == pytest.approx(math.fsum(w * m.clonal_rate(t, config) for t, w in entries),
                                   rel=1e-12)
    assert death == pytest.approx(math.fsum(w * m.death_rate(t, config) for t, w in entries),
                                  rel=1e-12)
    assert mutation == pytest.approx(
        math.fsum(w * m.mutation_rate(t, config) for t, w in entries), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(MODELS, configurations())
def test_mass_rates_are_b_and_per_capita_death(m, config):
    k = config.total_mass
    assert m.mass_birth_death_rates(k) == (k * m.b, k * m.per_capita_death(k))
    ks = np.arange(1, k + 1)
    births, deaths = m.mass_birth_death_rates(ks)
    assert births.tolist() == [j * m.b for j in range(1, k + 1)]
    assert deaths.tolist() == [j * m.per_capita_death(j) for j in range(1, k + 1)]


@settings(max_examples=200, deadline=None)
@given(MODELS, configurations())
def test_rates_lie_within_their_bounds(m, config):
    for trait, _ in config.entries:
        death = m.death_rate(trait, config)
        assert m.death_inf <= death == m.death_bound(config)
        assert m.reproduction_rate(trait, config) <= m.birth_sup
        single = Configuration.singleton(trait)
        assert m.death_rate(trait, single) <= m.singleton_death_sup


@settings(max_examples=50, deadline=None)
@given(MODELS, st.floats(0.0, 1.0))
def test_rates_vanish_at_void(m, trait):
    void = Configuration.void()
    for rate in (m.clonal_rate, m.mutation_rate, m.reproduction_rate, m.death_rate):
        assert rate(trait, void) == 0.0
    assert m.total_jump_rate(void) == 0.0 and m.death_bound(void) == 0.0
    assert m.state_rates(void) == (0.0, 0.0, 0.0, 0.0)


def _bits(row):
    return struct.pack("4d", *row)


@settings(max_examples=200, deadline=None)
@given(MODELS, configurations(), configurations())
def test_rate_table_rows_are_state_rates_bit_for_bit(m, config, other):
    table = m.rate_table()
    void = Configuration.void()
    for c in (config, other, void, config):
        assert _bits(table[c.total_mass]) == _bits(m.state_rates(c))
        assert table[c.total_mass][3] == m.total_jump_rate(c)


@dataclasses.dataclass(frozen=True)
class _Unchecked(RateModel):
    """Constant death rate 1, built without the shipped constructors' checks."""

    b: float
    rho: float
    kernel: UniformKernel = UniformKernel()

    def per_capita_death(self, n):
        return 1.0


@pytest.mark.parametrize("b, rho", [(0.0, 0.3), (-1.0, 0.3), (math.nan, 0.3),
                                    (1.0, 0.0), (1.0, 1.0), (1.0, 1.5), (1.0, math.nan)])
def test_rate_table_refuses_a_model_outside_the_regime(b, rho):
    with pytest.raises(InvalidRegime):
        _Unchecked(b, rho).rate_table()
    _Unchecked(1.0, 0.3).rate_table()
