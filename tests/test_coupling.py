import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.configuration import Configuration
from qsdsim.coupling import CoupledState, coupled_path, coupled_rates, step_coupled
from qsdsim.errors import InvalidRegime, InvariantBreach
from qsdsim.simulator import simulate_gillespie
from qsdsim.streams import RandomStream, Uniforms
from qsdsim.validation import chi2_threshold

from closed_forms import bd_chain_state_at, bd_qsd
from homogeneity import mass_histogram, two_sample_chi2
from strategies import MODELS, configurations

PAIR = Configuration.from_pairs(((0.25, 1), (0.75, 1)))
TRIO = Configuration.from_pairs(((0.25, 2), (0.75, 1)))


def test_rate_lines_uniform_at_tight_counter(uniform_model):
    rates = coupled_rates(uniform_model, CoupledState(PAIR, 2))
    assert rates.clonal_up == 1.4
    assert rates.mutation_up == pytest.approx(0.6)
    # counter births at b per head exactly cancel total reproduction
    assert rates.counter_up == 0.0
    assert rates.joint_down == 4.0
    assert rates.config_down == 0.0
    assert rates.counter_down == 0.0
    assert sum(rates) == pytest.approx(uniform_model.total_jump_rate(PAIR))


def test_rate_lines_logistic_with_excess(logistic_model):
    rates = coupled_rates(logistic_model, CoupledState(TRIO, 5))
    assert rates.clonal_up == pytest.approx(2.1)
    assert rates.mutation_up == pytest.approx(0.9)
    assert rates.counter_up == pytest.approx(2.0)
    assert rates.joint_down == 6.0
    assert rates.config_down == 3.0
    assert rates.counter_down == pytest.approx(4.0)
    # both marginals must add up: the configuration to its jump rate,
    # the counter to the linear chain's rate at m
    config_total = (rates.clonal_up + rates.mutation_up
                    + rates.joint_down + rates.config_down)
    assert config_total == pytest.approx(logistic_model.total_jump_rate(TRIO))
    assert rates.counter_up + 3 * logistic_model.b == pytest.approx(5 * logistic_model.b)
    assert rates.joint_down + rates.counter_down == \
        pytest.approx(5 * logistic_model.death_inf)


def _per_entry_step(model, s, rng):
    """One coupled jump by a scan over every entry's rate on every line.

    The reference for step_coupled: each line is a list of per-entry
    rates, and a mutation parent comes from a second per-entry scan.
    """
    config, m = s.config, s.counter
    n = config.total_mass
    floor = model.death_inf
    clonal = [w * model.clonal_rate(t, config) for t, w in config.entries]
    joint = [w * floor for _, w in config.entries]
    extra = [w * (model.death_rate(t, config) - floor) for t, w in config.entries]
    mutation = [w * model.mutation_rate(t, config) for t, w in config.entries]
    mutation_up = sum(mutation)
    counter_up = m * model.birth_sup - sum(w * model.reproduction_rate(t, config)
                                          for t, w in config.entries)
    counter_down = floor * (m - n)
    total = (sum(clonal) + mutation_up + sum(joint) + sum(extra) + counter_down
             + counter_up)
    if total <= 0.0:
        return math.inf, s
    hold = -math.log(1.0 - rng.random()) / total
    x = rng.random() * total
    acc = 0.0
    for (trait, _), rate in zip(config.entries, clonal):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.add(trait), m + 1)
    acc += mutation_up
    if x <= acc:
        y = rng.random() * mutation_up
        parent, below = config.entries[-1][0], 0.0
        for (trait, _), rate in zip(config.entries, mutation):
            below += rate
            if y <= below:
                parent = trait
                break
        return hold, CoupledState(config.add(model.kernel.sample(parent, rng)), m + 1)
    for (trait, _), rate in zip(config.entries, joint):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.remove(trait), m - 1)
    for (trait, _), rate in zip(config.entries, extra):
        acc += rate
        if x <= acc:
            return hold, CoupledState(config.remove(trait), m)
    acc += counter_down
    if x <= acc:
        return hold, CoupledState(config, m - 1)
    return hold, CoupledState(config, m + 1)


@settings(max_examples=200, deadline=None)
@given(MODELS, configurations(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_step_picks_what_a_per_entry_scan_picks(model, config, excess, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    state = CoupledState(config, config.total_mass + excess)
    for _ in range(20):
        hold, nxt = step_coupled(model, state, ours)
        want_hold, want = _per_entry_step(model, state, theirs)
        assert nxt == want
        # the per-entry total is summed in another order, so holds agree to rounding
        assert hold == pytest.approx(want_hold, rel=1e-12)
        assert ours.random() == theirs.random()
        if math.isinf(hold):
            break
        state = nxt


def test_state_rejects_broken_order():
    with pytest.raises(InvariantBreach):
        CoupledState(TRIO, 2)
    with pytest.raises(InvariantBreach):
        CoupledState(Configuration.void(), -1)
    with pytest.raises(InvariantBreach):
        CoupledState(PAIR, 2.5)


def test_step_from_fully_absorbed_state(uniform_model):
    dead = CoupledState(Configuration.void(), 0)
    hold, nxt = step_coupled(uniform_model, dead, RandomStream(1).generator())
    assert math.isinf(hold)
    assert nxt is dead


def test_counter_runs_alone_after_extinction(uniform_model):
    rng = RandomStream(2).generator()
    state = CoupledState(Configuration.void(), 3)
    while True:
        hold, state = step_coupled(uniform_model, state, rng)
        if math.isinf(hold):
            break
        assert state.config.is_void
    assert state.counter == 0


@pytest.mark.parametrize("fixture", ["uniform_model", "logistic_model"])
def test_paths_preserve_order_and_jump_structure(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = Uniforms(RandomStream(5, (hash_free_tag(fixture),)).generator())
    for _ in range(50):
        path = coupled_path(model, CoupledState(TRIO, 4), 2.0, rng)
        assert path[0] == (0.0, CoupledState(TRIO, 4))
        times = [t for t, _ in path]
        assert all(a < b for a, b in zip(times, times[1:]))
        for (_, a), (_, b) in zip(path, path[1:]):
            jump = (b.config.total_mass - a.config.total_mass,
                    b.counter - a.counter)
            assert jump in {(1, 1), (-1, -1), (-1, 0), (0, -1), (0, 1)}


def hash_free_tag(name: str) -> int:
    # stable across processes, unlike hash() on strings
    return sum(name.encode())


def test_negative_horizon_rejected(uniform_model):
    with pytest.raises(ValueError):
        coupled_path(uniform_model, CoupledState(TRIO, 3), -1.0,
                     RandomStream(1).generator())
    with pytest.raises(ValueError, match="got nan"):
        coupled_path(uniform_model, CoupledState(TRIO, 3), math.nan,
                     RandomStream(1).generator())


def test_config_marginal_matches_plain_engine(uniform_model):
    stream = RandomStream(7)
    rng = Uniforms(stream.substream(0).generator())
    coupled = [coupled_path(uniform_model, CoupledState(TRIO, 3), 1.0, rng)[-1][1].config
               for _ in range(4000)]
    coupled = [config.total_mass for config in coupled]
    rng = Uniforms(stream.substream(1).generator())
    plain = [simulate_gillespie(uniform_model, TRIO, 1.0, rng).final.total_mass
             for _ in range(4000)]
    stat, df = two_sample_chi2(mass_histogram(coupled), mass_histogram(plain))
    assert stat <= chi2_threshold(df)


def test_counter_marginal_is_linear_birth_death(logistic_model):
    stream = RandomStream(8)
    rng = Uniforms(stream.substream(0).generator())
    coupled = [coupled_path(logistic_model, CoupledState(TRIO, 3), 1.0, rng)[-1][1].counter
               for _ in range(4000)]
    rng = Uniforms(stream.substream(1).generator())
    direct = [bd_chain_state_at(logistic_model.birth_sup, logistic_model.death_inf, 3, 1.0, rng)
              for _ in range(4000)]
    stat, df = two_sample_chi2(mass_histogram(coupled), mass_histogram(direct))
    assert stat <= chi2_threshold(df)


def test_bd_qsd_geometric_values():
    probs, tail = bd_qsd(2.0, 1.0, 60)
    assert probs[0] == 0.0
    assert probs[1] == 0.5
    assert probs[2] == 0.25
    assert probs[3] == 0.125
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(probs[k] > probs[k + 1] for k in range(1, 60))


def test_bd_qsd_reports_cut_tail():
    _, tail = bd_qsd(2.0, 1.0, 30)
    assert tail == 0.5 ** 30


def test_bd_qsd_regime_checks():
    with pytest.raises(InvalidRegime):
        bd_qsd(1.0, 1.0, 10)
    with pytest.raises(InvalidRegime):
        bd_qsd(0.5, 1.0, 10)
    with pytest.raises(InvalidRegime):
        bd_qsd(0.0, 1.0, 10)
    with pytest.raises(InvalidRegime):
        bd_qsd(2.0, -1.0, 10)
    with pytest.raises(InvalidRegime):
        bd_qsd(2.0, 1.0, 0)


def test_bd_qsd_normalization_absorbs_truncation():
    ratio = 0.9 / 1.7
    probs, tail = bd_qsd(1.7, 0.9, 12)
    geometric = (1.0 - ratio) * ratio ** np.arange(12)
    assert probs[1:] == pytest.approx(geometric / geometric.sum())
    assert tail == pytest.approx(ratio ** 12)
