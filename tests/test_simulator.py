import dataclasses
import io
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qsdsim import simulator
from qsdsim.configuration import Configuration
from qsdsim.coupling import CoupledState, coupled_path
from qsdsim.errors import InvalidRegime
from qsdsim.oracle import build_mass_chain
from qsdsim.qsd import QsdEstimate, fleming_viot_estimate, yaglom_estimate
from qsdsim.rates import LogisticModel, RateModel, UniformModel, individual_at
from qsdsim.simulator import (ENGINES, Event, EventKind, Runs, Trajectory, _urns,
                              mass_moments, mass_paths, path_times, simulate_gillespie,
                              simulate_thinning, survival_curve, write_trajectory_csv)
from qsdsim.streams import RandomStream, Uniforms
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel, sample_base
from qsdsim.validation import Mass, chi2_threshold, lyapunov_check, martingale_residual

import strategies
from ensembles import (CountingDeaths, configurations, hitting_tail, law_starts,
                       per_entry_branch, reference_chunks, serialize, urn)
from homogeneity import mass_histogram, two_sample_chi2

START = Configuration.from_pairs(((0.2, 2), (0.6, 1)))
MODELS = (
    UniformModel(lam=2.0, b=1.0, rho=0.3, kernel=UniformKernel()),
    LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.5, kernel=UniformKernel()),
    LogisticModel(b=2.0, rho=0.5, d=1.0, c=0.2, kernel=TruncatedGaussianKernel(scale=0.1)),
)


def _exact_survival(lam, b, t):
    # linear birth-death from one individual, subcritical
    theta = lam - b
    return theta * math.exp(-theta * t) / (lam - b * math.exp(-theta * t))


def apply_event(config, event):
    """The configuration after the event: the replay reference for every engine's log."""
    if event.kind is EventKind.DEATH:
        return config.remove(event.parent)
    if event.kind is EventKind.CLONAL:
        return config.add(event.parent)
    return config.add(event.child)


def _scan_times(initial, events):
    """The three path times by walking the configurations themselves."""
    support = {trait for trait, _ in initial.entries}
    found = [math.inf, math.inf, math.inf]

    def visit(t, config):
        traits = {trait for trait, _ in config.entries}
        reached = (config.is_void, not traits <= support, not traits & support)
        for i, hit in enumerate(reached):
            if hit and math.isinf(found[i]):
                found[i] = t

    config = initial
    visit(0.0, config)
    for event in events:
        config = apply_event(config, event)
        visit(event.time, config)
    return tuple(found)


def test_apply_event_by_kind():
    c = apply_event(START, Event(0.1, EventKind.CLONAL, 0.2, 0.2))
    assert c.entries == ((0.2, 3), (0.6, 1))
    c = apply_event(START, Event(0.1, EventKind.MUTATION, 0.2, 0.4))
    assert c.entries == ((0.2, 2), (0.4, 1), (0.6, 1))
    c = apply_event(START, Event(0.1, EventKind.DEATH, 0.6, None))
    assert c.entries == ((0.2, 2),)


def _per_entry_gillespie(model, initial, horizon, rng):
    """Gillespie steps on ``per_entry_branch``: the reference for simulate_gillespie.

    Holding times are drawn at ``model.total_jump_rate``, and the run
    stops once the next jump would fall past the horizon.
    """
    config = initial
    t = 0.0
    events = []
    while not config.is_void:
        t_next = t + -math.log(1.0 - rng.random()) / model.total_jump_rate(config)
        if t_next > horizon:
            break
        t = t_next
        kind, parent, child, config = per_entry_branch(model, config, rng)
        events.append(Event(t, kind, parent, child))
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events))


@settings(max_examples=200, deadline=None)
@given(strategies.MODELS, strategies.configurations(), st.floats(0.5, 4.0),
       st.integers(0, 2**32 - 1))
def test_gillespie_draws_what_a_per_entry_engine_draws(model, initial, horizon, seed):
    # the mean mass grows at rate b - d(1) at most; keep it below 64
    growth = model.b - model.death_inf
    if growth > 0.0:
        horizon = min(horizon, math.log(64 / initial.total_mass) / growth)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert simulate_gillespie(model, initial, horizon, ours) \
        == _per_entry_gillespie(model, initial, horizon, theirs)
    assert ours.random() == theirs.random()


def _per_candidate_thinning(model, initial, horizon, rng):
    """Thinning on three point measures that reads per-individual rates on every candidate.

    The reference for simulate_thinning. Candidates arrive at the largest
    per-individual candidate rate, clonal plus death plus mutation times
    g*, each a ``(trait, config)`` rate. A candidate's band is read from
    its own individual's rates: clonal and death candidates are jumps, and
    a mutation candidate is accepted under the mutation rate times the
    kernel density. Each accepted jump is applied by :func:`apply_event`.
    """
    config = initial
    g_star = model.kernel.sup_density()
    t = 0.0
    events = []
    candidates = 0
    while not config.is_void:
        n = config.total_mass
        per_index = max(model.clonal_rate(x, config) + model.mutation_rate(x, config) * g_star
                        + model.death_rate(x, config) for x, _ in config.entries)
        t_next = t + -math.log(1.0 - rng.random()) / (n * per_index)
        if t_next > horizon:
            break
        t = t_next
        candidates += 1
        which = rng.random() * per_index
        trait = individual_at(config, rng.random())
        clonal = model.clonal_rate(trait, config)
        mutation_level = model.mutation_rate(trait, config) * g_star
        if which < clonal:
            event = Event(t, EventKind.CLONAL, trait, trait)
        elif which < clonal + mutation_level:
            child = sample_base(rng)
            level = rng.random() * mutation_level
            if level > model.mutation_rate(trait, config) * model.kernel.density(trait, child):
                continue
            event = Event(t, EventKind.MUTATION, trait, child)
        else:
            # the death band is the death rate itself
            event = Event(t, EventKind.DEATH, trait, None)
        config = apply_event(config, event)
        events.append(event)
    return Trajectory(initial, tuple(events), horizon, config, *path_times(initial, events),
                      candidate_count=candidates, accepted_count=len(events))


KERNELS = (UniformKernel(), TruncatedGaussianKernel(scale=0.2))


@settings(max_examples=150, deadline=None)
@given(strategies.MODELS, st.sampled_from(KERNELS), strategies.configurations(),
       st.floats(0.5, 4.0), st.integers(0, 2**32 - 1))
def test_thinning_draws_what_a_per_candidate_engine_draws(model, kernel, initial, horizon,
                                                          seed):
    model = dataclasses.replace(model, kernel=kernel)
    # the mean mass grows at rate b - d(1) at most; keep it below 64
    growth = model.b - model.death_inf
    if growth > 0.0:
        horizon = min(horizon, math.log(64 / initial.total_mass) / growth)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert simulate_thinning(model, initial, horizon, ours) \
        == _per_candidate_thinning(model, initial, horizon, theirs)
    assert ours.random() == theirs.random()


# Crowded's logistic rates (K about 100) on starts of 30-60 entries of weight
# 1-5 under a narrow Gaussian kernel, the sizes at which thinning keeps its
# individuals as one sorted list. The examples come from a fixed hypothesis
# seed, chosen before the first run.
@seed(21)
@settings(max_examples=12, deadline=None)
@given(traits=st.lists(st.floats(0.0, 1.0), min_size=30, max_size=60, unique=True),
       weights=st.lists(st.integers(1, 5), min_size=60, max_size=60),
       scale=st.floats(0.02, 0.05), horizon=st.floats(0.05, 0.3),
       rng_seed=st.integers(0, 2**32 - 1))
def test_thinning_draws_what_a_per_candidate_engine_draws_at_crowded_sizes(
        traits, weights, scale, horizon, rng_seed):
    model = LogisticModel(b=2.0, rho=0.3, d=1.0, c=0.01, kernel=TruncatedGaussianKernel(scale))
    start = Configuration.from_pairs(zip(traits, weights))
    theirs, ours = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    want = _per_candidate_thinning(model, start, horizon, theirs)
    assert simulate_thinning(model, start, horizon, ours) == want
    assert ours.random() == theirs.random()
    assert simulate_thinning(model, start, horizon,
                             Uniforms(np.random.default_rng(rng_seed))) == want


def test_thinning_makes_one_add_or_remove_call_per_event_and_no_rank_scan(monkeypatch):
    # the benchmark's tracer counts simulator events by the add and remove calls
    model = LogisticModel(b=2.0, rho=0.3, d=1.0, c=0.01,
                          kernel=TruncatedGaussianKernel(scale=0.02))
    start = Configuration.from_pairs((k / 40, 1 + k % 5) for k in range(40))
    calls = {"add": 0, "remove": 0, "individual_trait": 0}
    for name in calls:
        def counted(self, arg, _name=name, _original=getattr(Configuration, name)):
            calls[_name] += 1
            return _original(self, arg)
        monkeypatch.setattr(Configuration, name, counted)
    trajectory = simulate_thinning(model, start, 1.0, RandomStream(5).generator())
    kinds = [event.kind for event in trajectory.events]
    assert calls["add"] == kinds.count(EventKind.CLONAL) + kinds.count(EventKind.MUTATION)
    assert calls["remove"] == kinds.count(EventKind.DEATH)
    assert calls["individual_trait"] == 0
    assert all(kinds.count(kind) > 0 for kind in EventKind)
    assert trajectory.candidate_count > trajectory.accepted_count == len(kinds)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_is_deterministic_per_stream(engine, uniform_model):
    runs = []
    for _ in range(2):
        rng = RandomStream(7).substream(0).generator()
        runs.append(ENGINES[engine](uniform_model, START, 3.0, rng))
    assert runs[0].events == runs[1].events
    assert runs[0].final == runs[1].final
    assert runs[0].extinction_time == runs[1].extinction_time


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_replay_matches_inline_observables(engine, uniform_model, logistic_model):
    stream = RandomStream(11, (ord(engine[0]),))
    for model in (uniform_model, logistic_model):
        for r in range(100):
            traj = ENGINES[engine](model, START, 2.0, stream.substream(r).generator())
            assert (traj.extinction_time, traj.first_mutation_time, traj.replacement_time) \
                == _scan_times(START, traj.events)


@settings(max_examples=120, deadline=None)
@given(engine=st.sampled_from(sorted(ENGINES)), model=st.sampled_from(MODELS),
       seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.0, 4.0),
       pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 3)), max_size=3))
def test_engine_paths_are_consistent(engine, model, seed, horizon, pairs):
    initial = Configuration.from_pairs(pairs)
    traj = ENGINES[engine](model, initial, horizon, RandomStream(seed).generator())
    config = initial
    last = 0.0
    for event in traj.events:
        assert last < event.time <= horizon
        after = apply_event(config, event)
        assert after.total_mass - config.total_mass == (-1 if event.kind is EventKind.DEATH
                                                        else 1)
        assert after.total_mass >= 0
        config, last = after, event.time
    assert config == traj.final
    assert (traj.extinction_time, traj.first_mutation_time, traj.replacement_time) \
        == _scan_times(initial, traj.events)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_mass_trace_steps_by_one(engine, logistic_model):
    traj = ENGINES[engine](logistic_model, START, 4.0,
                           RandomStream(13).generator())
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    masses = [START.total_mass] + [int(row.rsplit(",", 1)[1])
                                   for row in buffer.getvalue().splitlines()[1:]]
    for before, after in zip(masses, masses[1:]):
        assert abs(after - before) == 1
    assert masses[-1] == traj.final.total_mass


def test_unreached_observables_are_inf(uniform_model):
    traj = simulate_gillespie(uniform_model, START, 0.0,
                              RandomStream(17).generator())
    assert traj.events == ()
    assert traj.final == START
    assert math.isinf(traj.extinction_time)
    assert math.isinf(traj.first_mutation_time)
    assert math.isinf(traj.replacement_time)


def test_run_to_extinction(uniform_model):
    traj = simulate_gillespie(uniform_model, START, 400.0,
                              RandomStream(19).generator())
    assert traj.final.is_void
    assert traj.extinction_time == traj.events[-1].time
    assert traj.replacement_time <= traj.extinction_time


def test_replay_on_hand_built_log():
    initial = Configuration.from_pairs(((0.5, 2),))
    events = (
        Event(1.0, EventKind.MUTATION, 0.5, 0.3),
        Event(2.0, EventKind.DEATH, 0.5, None),
        Event(3.0, EventKind.DEATH, 0.5, None),
    )
    final = initial
    for event in events:
        final = apply_event(final, event)
    assert final == Configuration.singleton(0.3)
    assert path_times(initial, events) == (math.inf, 1.0, 3.0)


@pytest.mark.parametrize("initial, events, expected", [
    # a void start is extinct and replaced from the outset
    (Configuration.void(), (), (0.0, math.inf, 0.0)),
    # extinction at the last death, which also removes the last initial trait
    (Configuration.singleton(0.5), (
        Event(1.0, EventKind.CLONAL, 0.5, 0.5),
        Event(2.0, EventKind.DEATH, 0.5, None),
        Event(3.0, EventKind.DEATH, 0.5, None),
    ), (3.0, math.inf, 3.0)),
    # a death clears the last initial trait while a mutant lives on
    (Configuration.from_pairs(((0.2, 1), (0.6, 1))), (
        Event(1.0, EventKind.MUTATION, 0.2, 0.9),
        Event(2.0, EventKind.DEATH, 0.2, None),
        Event(2.5, EventKind.CLONAL, 0.9, 0.9),
        Event(3.0, EventKind.DEATH, 0.6, None),
    ), (math.inf, 1.0, 3.0)),
    # a mutation back onto an initial trait is not a first mutation
    (Configuration.from_pairs(((0.2, 1), (0.6, 1))), (
        Event(1.0, EventKind.MUTATION, 0.2, 0.6),
        Event(2.0, EventKind.MUTATION, 0.6, 0.7),
    ), (math.inf, 2.0, math.inf)),
])
def test_path_times_on_hand_built_logs(initial, events, expected):
    assert path_times(initial, events) == expected
    assert _scan_times(initial, events) == expected


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_negative_horizon_rejected(engine, uniform_model):
    with pytest.raises(ValueError):
        ENGINES[engine](uniform_model, START, -1.0, RandomStream(1).generator())
    with pytest.raises(ValueError, match="horizon must be nonnegative, got nan"):
        ENGINES[engine](uniform_model, START, math.nan, RandomStream(1).generator())


def test_survival_curve_matches_closed_form(uniform_model):
    grid = (0.5, 1.0, 2.0)
    curve = survival_curve(uniform_model, Configuration.singleton(0.5), grid,
                           20_000, RandomStream(29))
    assert len(curve) == 3
    for t, p, se in curve:
        exact = _exact_survival(uniform_model.lam, uniform_model.b, t)
        assert abs(p - exact) <= 4.0 * se


def test_survival_curve_validation(uniform_model):
    with pytest.raises(ValueError):
        survival_curve(uniform_model, START, (1.0, 0.5), 10, RandomStream(1))
    with pytest.raises(ValueError):
        survival_curve(uniform_model, START, (-1.0, 0.5), 10, RandomStream(1))
    with pytest.raises(ValueError):
        survival_curve(uniform_model, START, (0.5, 1.0), 0, RandomStream(1))


def test_hitting_tail_monotone_and_trivial_levels(uniform_model):
    tails = hitting_tail(uniform_model, START, 1.0, range(1, 9), 4000,
                         RandomStream(31))
    probs = [p for _, p in tails]
    assert probs[0] == 1.0 and probs[1] == 1.0 and probs[2] == 1.0
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] < 0.05
    with pytest.raises(ValueError):
        hitting_tail(uniform_model, START, 1.0, (4,), 0, RandomStream(1))


def test_mass_moments_track_exponential_decay(uniform_model):
    initial = Configuration.from_pairs(((0.1, 2), (0.5, 2), (0.9, 1)))
    rows = mass_moments(uniform_model, initial, (0.25, 0.75), 20_000,
                        RandomStream(37))
    theta = uniform_model.lam - uniform_model.b
    for t, mean, se in rows:
        assert abs(mean - 5.0 * math.exp(-theta * t)) <= 4.0 * se
    with pytest.raises(ValueError):
        mass_moments(uniform_model, initial, (0.75, 0.25), 10, RandomStream(1))
    with pytest.raises(ValueError):
        mass_moments(uniform_model, initial, (-0.25, 0.25), 10, RandomStream(1))


def test_mass_moments_at_time_zero_are_exact(uniform_model):
    rows = mass_moments(uniform_model, START, (0.0,), 50, RandomStream(41))
    t, mean, se = rows[0]
    assert (t, mean, se) == (0.0, 3.0, 0.0)


def test_engines_agree_on_final_mass_law(uniform_model):
    masses = {}
    for lane, engine in enumerate(sorted(ENGINES)):
        stream = RandomStream(43, (lane,))
        masses[engine] = [
            ENGINES[engine](uniform_model, START, 1.0,
                            stream.substream(r).generator()).final.total_mass
            for r in range(4000)]
    stat, df = two_sample_chi2(mass_histogram(masses["gillespie"]),
                               mass_histogram(masses["thinning"]))
    assert stat <= chi2_threshold(df)


def test_thinning_counts_candidates(uniform_model, logistic_model):
    for model in (uniform_model, logistic_model):
        traj = simulate_thinning(model, START, 2.0, RandomStream(47).generator())
        assert traj.accepted_count == len(traj.events)
        assert traj.candidate_count >= traj.accepted_count
    gill = simulate_gillespie(uniform_model, START, 2.0, RandomStream(47).generator())
    assert gill.candidate_count is None and gill.accepted_count is None


def test_trajectory_csv_layout(uniform_model):
    traj = simulate_gillespie(uniform_model, START, 2.0, RandomStream(53).generator())
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "time,event_kind,parent_trait,child_trait,total_mass_after"
    rows = lines[1:]
    assert len(rows) == len(traj.events)
    for row, event in zip(rows, traj.events):
        time, kind, parent, child, mass = row.split(",")
        assert kind == event.kind.value
        if event.kind is EventKind.CLONAL:
            assert child == parent
        if event.kind is EventKind.DEATH:
            assert child == ""
        assert int(mass) >= 0


ESTIMATE = QsdEstimate(
    configurations=(Configuration.singleton(0.2), Configuration.from_pairs(((0.4, 2), (0.6, 1)))),
    weights=np.array([0.5, 0.5]), burn_in=0.0, particles=2)


# The chunk size the tests of the chunk layout patch in, so that several
# chunks of mass_paths stay cheap.
_CHUNK = 64


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1),
       replicas=st.one_of(st.sampled_from([1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3]),
                          st.integers(1, 300)),
       horizon=st.floats(0.0, 2.0), start=st.sampled_from([START, Configuration.void(), ESTIMATE]),
       survivors=st.booleans())
def test_mass_paths_invariants(model, seed, replicas, horizon, start, survivors):
    if start is ESTIMATE:
        start = law_starts(ESTIMATE, replicas, RandomStream(seed).generator())
    checkpoints = (0.0, horizon / 2, horizon)
    with mock.patch.object(simulator, "CHUNK", _CHUNK):
        paths = mass_paths(model, start, horizon, replicas, RandomStream(seed),
                           checkpoints=checkpoints, survivors=survivors)
        # the running maximum comes from the reference chunks of the same replicas
        chunks = reference_chunks(model, start, horizon, replicas, RandomStream(seed))
    assert np.array_equal(np.concatenate([c.final for c in chunks]), paths.final)
    start_mass = np.concatenate([c.start for c in chunks])
    maximum = np.concatenate([c.maximum for c in chunks])
    for column in (start_mass, paths.final, paths.extinction, paths.at, maximum):
        assert len(column) == replicas
    assert (paths.at >= 0).all() and (paths.final >= 0).all()
    assert (paths.at[:, 0] == start_mass).all()
    assert (paths.at[:, -1] == paths.final).all()
    assert (maximum >= start_mass).all() and (maximum >= paths.at.max(axis=1)).all()
    extinct = np.isfinite(paths.extinction)
    assert (paths.extinction[extinct] <= horizon).all()
    assert (paths.final[extinct] == 0).all() and (paths.final[~extinct] > 0).all()
    assert (paths.extinction[start_mass == 0] == 0.0).all()
    for k, c in enumerate(checkpoints):
        assert (paths.at[extinct & (paths.extinction <= c), k] == 0).all()
    # each jump moves one replica by one, so the count bounds and matches the net move
    moved = paths.final - start_mass
    assert np.abs(moved).sum() <= paths.events and (paths.events - moved.sum()) % 2 == 0
    kept = configurations(paths.survivors)
    if survivors:
        assert [c.total_mass for c in kept] == paths.final[paths.final > 0].tolist()
    else:
        assert kept == ()


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replicas=st.integers(2 * _CHUNK + 1, 3 * _CHUNK))
def test_mass_paths_keep_their_first_chunk_whatever_follows_it(seed, replicas, uniform_model):
    with mock.patch.object(simulator, "CHUNK", _CHUNK):
        runs = [mass_paths(uniform_model, START, 1.0, n, RandomStream(seed),
                           checkpoints=(0.5,), survivors=True) for n in (replicas, _CHUNK)]
    for many, first in zip(runs[0][:3], runs[1][:3]):
        assert np.array_equal(many[:_CHUNK], first)
    alive = int(np.count_nonzero(runs[1].final))
    assert configurations(runs[0].survivors)[:alive] == configurations(runs[1].survivors)


@mock.patch.object(simulator, "CHUNK", _CHUNK)
def test_mass_paths_start_each_replica_from_its_own_configuration(uniform_model):
    replicas = 2 * _CHUNK + 5
    configs = tuple(Configuration.from_pairs(((0.5, 1 + r % 3),)) for r in range(replicas))
    starts = Runs.of(configs)
    still = mass_paths(uniform_model, starts, 0.0, replicas, RandomStream(3), survivors=True)
    assert still.final.tolist() == [1 + r % 3 for r in range(replicas)]
    assert configurations(still.survivors) == configs
    run = mass_paths(uniform_model, starts, 1.0, replicas, RandomStream(3), survivors=True)
    want = reference_chunks(uniform_model, starts, 1.0, replicas, RandomStream(3),
                            survivors=True)
    assert np.array_equal(starts.masses(), np.concatenate([chunk.start for chunk in want]))
    assert np.array_equal(run.final, np.concatenate([chunk.final for chunk in want]))
    assert configurations(run.survivors) == tuple(c for chunk in want
                                                  for c in configurations(chunk.survivors))
    with pytest.raises(ValueError, match="one start per replica"):
        mass_paths(uniform_model, Runs.of(configs[:-1]), 1.0, replicas, RandomStream(3))


@pytest.mark.parametrize("start", [ESTIMATE, [START, START]], ids=["estimate", "list"])
def test_mass_paths_and_the_ensembles_on_them_refuse_any_other_start(uniform_model, start):
    # a list used to fail deep in a chunk, for want of a draw method
    runs = (partial(mass_paths, uniform_model, start, 1.0, 2, RandomStream(3)),
            partial(survival_curve, uniform_model, start, (0.5, 1.0), 2, RandomStream(3)),
            partial(yaglom_estimate, uniform_model, start, 1.0, 2, RandomStream(3)))
    for run in runs:
        with pytest.raises(TypeError, match="a Configuration or Runs with one row per replica"):
            run()


def test_mass_paths_take_void_rows_among_array_starts(uniform_model):
    # a void row has no entries: its replica starts at mass 0 and is extinct at 0.0
    pool = (Configuration.void(), START, Configuration.void(), Configuration.singleton(0.9))
    configs = tuple(pool[r % 4] for r in range(41))
    paths = mass_paths(uniform_model, Runs.of(configs), 1.0, 41, RandomStream(8),
                       survivors=True)
    void = Runs.of(configs).masses() == 0
    assert void.tolist() == [c.is_void for c in configs]
    assert (paths.extinction[void] == 0.0).all() and (paths.final[void] == 0).all()
    want, = reference_chunks(uniform_model, Runs.of(configs), 1.0, 41, RandomStream(8),
                             survivors=True)
    assert np.array_equal(paths.final, want.final) and paths.final[~void].any()
    assert configurations(paths.survivors) == configurations(want.survivors)


def test_array_starts_of_more_replicas_than_a_chunk_run_as_their_configuration(uniform_model):
    # one row per replica, split over two chunks, draws what the one
    # configuration they all repeat draws
    replicas = simulator.CHUNK + 3
    one = mass_paths(uniform_model, START, 0.2, replicas, RandomStream(9), survivors=True)
    with mock.patch.object(simulator, "_lockstep", wraps=simulator._lockstep) as lockstep:
        rows = mass_paths(uniform_model, Runs.of((START,) * replicas), 0.2, replicas,
                          RandomStream(9), survivors=True)
    assert [call.args[0].size for call in lockstep.call_args_list] == [simulator.CHUNK, 3]
    for got, want in zip(rows[:3], one[:3]):
        assert np.array_equal(got, want)
    assert rows.events == one.events
    for got, want in zip(rows.survivors, one.survivors):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.count_nonzero(one.final[simulator.CHUNK:]) > 0


def test_no_lockstep_of_mass_paths_holds_more_than_a_chunk(uniform_model):
    # a round's arrays hold at most CHUNK lanes, whatever the replica count
    replicas = 2 * simulator.CHUNK + 5
    with mock.patch.object(simulator, "_lockstep", wraps=simulator._lockstep) as lockstep:
        paths = mass_paths(uniform_model, START, 0.1, replicas, RandomStream(4), survivors=True)
    lanes = [call.args[0].size for call in lockstep.call_args_list]
    assert lanes == [simulator.CHUNK, simulator.CHUNK, 5]
    assert len(paths.final) == replicas and paths.events > 0


@pytest.mark.parametrize("horizon", [-1.0, math.nan])
def test_mass_paths_and_their_statistics_refuse_a_horizon_before_zero_or_nan(uniform_model,
                                                                            horizon):
    # a NaN horizon stopped every lane at once and returned the starts
    with pytest.raises(ValueError, match="t_end must be nonnegative"):
        mass_paths(uniform_model, START, horizon, 10, RandomStream(3))
    with pytest.raises(ValueError, match="grid must be nonnegative"):
        survival_curve(uniform_model, START, (horizon, 1.0), 10, RandomStream(3))
    with pytest.raises(ValueError, match="times must be nonnegative"):
        mass_moments(uniform_model, START, (horizon, 1.0), 10, RandomStream(3))


@pytest.mark.parametrize("checkpoints", [(-1.0, 0.5), (0.5, 5.0), (math.nan,)])
def test_mass_paths_refuse_checkpoints_outside_the_horizon(uniform_model, checkpoints):
    with pytest.raises(ValueError, match="checkpoints must lie within"):
        mass_paths(uniform_model, START, 1.0, 10, RandomStream(3), checkpoints=checkpoints)


def test_mass_paths_take_checkpoints_in_any_order(uniform_model):
    def at(checkpoints):
        return mass_paths(uniform_model, START, 1.0, 300, RandomStream(3),
                          checkpoints=checkpoints).at

    assert np.array_equal(at((1.0, 0.0, 0.5)), at((0.0, 0.5, 1.0))[:, [2, 0, 1]])


_POOL = (Configuration.void(), START, Configuration.singleton(0.9),
         Configuration.from_pairs(((0.4, 7), (0.8, 2))))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1),
       replicas=st.one_of(st.sampled_from([1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
                          st.integers(1, 300)),
       horizon=st.floats(0.0, 3.0), form=st.sampled_from(["one", "mixed", "law"]),
       picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=12),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=3), survivors=st.booleans(),
       chunk=st.sampled_from([simulator.CHUNK, _CHUNK, 7]))
def test_mass_paths_give_the_per_lane_rate_rounds_bit_for_bit(model, seed, replicas, horizon,
                                                              form, picks, cuts, survivors,
                                                              chunk):
    # a mixed start puts masses 0, 1, 3 and 9 side by side, so the masses a
    # chunk reaches need not form one range
    initial = {"one": START,
               "law": law_starts(ESTIMATE, replicas, RandomStream(seed).generator()),
               "mixed": Runs.of(_POOL[picks[r % len(picks)]] for r in range(replicas))}[form]
    checkpoints = tuple(sorted(c * horizon for c in cuts))
    # small chunks split the replicas among several lockstep runs; the
    # reference runs each chunk with the rates of every live lane
    # evaluated every round
    with mock.patch.object(simulator, "CHUNK", chunk):
        got = mass_paths(model, initial, horizon, replicas, RandomStream(seed),
                         checkpoints=checkpoints, survivors=survivors)
        want = reference_chunks(model, initial, horizon, replicas, RandomStream(seed),
                                checkpoints=checkpoints, survivors=survivors)
    for k, one in enumerate(got[:3]):
        two = np.concatenate([part[k] for part in want])
        assert one.dtype == two.dtype and np.array_equal(one, two)
    assert got.events == sum(part.events for part in want)
    assert [c.entries for c in configurations(got.survivors)] == [
        c.entries for part in want for c in configurations(part.survivors)]


def _joint_law(configs, kmax=15):
    """Counts over (mass, support size), both clamped at kmax, one flat bin each."""
    counts = np.zeros((kmax + 1) ** 2, dtype=int)
    for c in configs:
        counts[min(c.total_mass, kmax) * (kmax + 1) + min(c.support_size, kmax)] += 1
    return counts


@pytest.mark.parametrize("model", [MODELS[0], MODELS[2]], ids=["uniform", "logistic"])
def test_mass_first_matches_the_full_engine_jointly(model):
    # unequal families, so the urn's choice of parent shows in the support law
    start = Configuration.from_pairs(((0.3, 6), (0.5, 1), (0.51, 1)))
    replicas = 10_000
    rng = Uniforms(RandomStream(67, (0,)).generator())
    full = [simulate_gillespie(model, start, 1.0, rng).final for _ in range(replicas)]
    paths = mass_paths(model, start, 1.0, replicas, RandomStream(67, (1,)), survivors=True)
    kept = configurations(paths.survivors)
    void = [Configuration.void()] * (replicas - len(kept))
    stat, df = two_sample_chi2(_joint_law(full), _joint_law([*kept, *void]))
    assert stat <= chi2_threshold(df, 0.999)


def test_thinning_matches_gillespie_jointly_on_a_narrow_gaussian_kernel():
    # g* is about 8 at scale 0.05: most mutation candidates are rejected,
    # and no clonal or death candidate is. Criterion 06 runs the uniform
    # kernel only, where g* = 1.
    model = LogisticModel(b=2.0, rho=0.5, d=1.0, c=0.2,
                          kernel=TruncatedGaussianKernel(scale=0.05))
    start = Configuration.from_pairs(((0.3, 3), (0.7, 2)))
    replicas = 4000
    laws = []
    for k, engine in enumerate(("gillespie", "thinning")):
        rng = Uniforms(RandomStream(71, (k,)).generator())
        laws.append(_joint_law([ENGINES[engine](model, start, 1.5, rng).final
                                for _ in range(replicas)]))
    stat, df = two_sample_chi2(*laws)
    assert stat <= chi2_threshold(df, 0.999)


@dataclasses.dataclass(frozen=True)
class _Collapsing(RateModel):
    """Breaks the rate contract: d(n) = 3 - n/2 is 0 at mass 6 and negative above."""

    b: float = 2.0
    rho: float = 0.3
    kernel: UniformKernel = UniformKernel()

    def per_capita_death(self, n):
        return 3.0 - 0.5 * n


def test_every_engine_raises_once_it_reaches_a_mass_with_no_positive_death_rate():
    model = _Collapsing()
    start = Configuration.from_pairs(((0.5, 5),))
    bad = r"per_capita_death\(6\) = 0\.0 must be positive"
    for engine in sorted(ENGINES):
        with pytest.raises(InvalidRegime, match=bad):
            ENGINES[engine](model, start, 100.0, RandomStream(5).generator())
    with pytest.raises(InvalidRegime, match=bad):
        mass_paths(model, start, 100.0, 50, RandomStream(5))
    with pytest.raises(InvalidRegime, match=bad):
        fleming_viot_estimate(model, 20, 1.0, 100.0, RandomStream(5))
    # masses a run never reaches are not checked
    assert build_mass_chain(model, 5).N == 5
    with pytest.raises(InvalidRegime, match=bad):
        build_mass_chain(model, 6)


@pytest.mark.parametrize("broken", [{"b": 0.0}, {"b": -1.0}, {"rho": 0.0}, {"rho": 1.0},
                                    {"rho": math.nan}])
def test_every_run_refuses_a_model_outside_the_regime_before_drawing(broken):
    # built without a constructor that checks b and rho
    model = dataclasses.replace(_Collapsing(), **broken)
    start = Configuration.from_pairs(((0.5, 2),))
    for engine in sorted(ENGINES):
        with pytest.raises(InvalidRegime):
            ENGINES[engine](model, start, 1.0, RandomStream(5).generator())
    with pytest.raises(InvalidRegime):
        mass_paths(model, start, 1.0, 10, RandomStream(5))
    with pytest.raises(InvalidRegime):
        fleming_viot_estimate(model, 20, 0.5, 1.0, RandomStream(5))
    with pytest.raises(InvalidRegime):
        martingale_residual(model, Mass(), start, 1.0, 3, RandomStream(5))
    with pytest.raises(InvalidRegime):
        lyapunov_check(model, start, 0.3, (0.5, 1.0), 3, RandomStream(5))
    with pytest.raises(InvalidRegime):
        coupled_path(model, CoupledState(start, 3), 1.0, RandomStream(5).generator())
    with pytest.raises(InvalidRegime):
        build_mass_chain(model, 5)


def _counting_model():
    return CountingDeaths(b=1.5, rho=0.3, d=1.0, c=0.05, kernel=UniformKernel())


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_run_evaluates_the_death_rate_once_per_mass_it_reaches(engine):
    model = _counting_model()
    start = Configuration.from_pairs(((0.3, 4), (0.7, 3)))
    trajectory = ENGINES[engine](model, start, 5.0, RandomStream(3).generator())
    mass = start.total_mass
    reached = {mass}
    for event in trajectory.events:
        mass += -1 if event.kind is EventKind.DEATH else 1
        reached.add(mass)
    assert len(trajectory.events) > 50
    assert len(model.masses) == len(set(model.masses))
    assert set(model.masses) <= reached


def test_a_mass_chain_evaluates_the_death_rate_once_per_mass_it_reaches():
    model = _counting_model()
    start = Configuration.from_pairs(((0.3, 2), (0.7, 1)))
    paths = mass_paths(model, start, 5.0, 500, RandomStream(3), checkpoints=(1.0,),
                       survivors=True)
    # every replica starts at 3 and moves by one, and some die out, so
    # together they reach every mass from 1 to the highest maximum, which
    # the reference chunk of the same replicas keeps; it runs on a model
    # of its own, so that its own evaluations stay out of the log
    chunk, = reference_chunks(_counting_model(), start, 5.0, 500, RandomStream(3))
    assert np.array_equal(chunk.final, paths.final)
    assert np.isfinite(paths.extinction).any() and paths.events > 5000
    assert sorted(model.masses) == list(range(1, int(chunk.maximum.max()) + 1))


def test_runs_on_one_model_evaluate_each_mass_once_in_all():
    # the model's one rate table serves two engine runs and a lockstep chunk
    start = Configuration.from_pairs(((0.3, 4), (0.7, 3)))
    runs = (lambda model: simulate_gillespie(model, start, 5.0, RandomStream(3).generator()),
            lambda model: simulate_thinning(model, start, 5.0, RandomStream(4).generator()),
            lambda model: mass_paths(model, start, 5.0, 500, RandomStream(5)))
    shared = _counting_model()
    got = [run(shared) for run in runs]
    fresh = [_counting_model() for _ in runs]
    want = [run(model) for run, model in zip(runs, fresh)]
    assert got[:2] == want[:2]
    for one, two in zip(got[2][:3], want[2][:3]):
        assert np.array_equal(one, two)
    assert got[2].events == want[2].events
    assert sorted(shared.masses) == sorted(set().union(*(m.masses for m in fresh)))
    # the runs reach common masses, each evaluated once on the shared model
    assert sum(len(m.masses) for m in fresh) > len(shared.masses)


def test_fleming_viot_evaluates_the_death_rate_once_per_mass_it_reaches():
    model = _counting_model()
    est = fleming_viot_estimate(model, 50, 1.0, 4.0, RandomStream(3))
    assert est.events > 500
    assert len(model.masses) == len(set(model.masses))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("model", MODELS)
def test_engines_draw_the_same_path_from_uniforms_as_from_the_generator(engine, model):
    # every event takes at least two uniforms, so each run refills the first block
    start = Configuration.from_pairs(((0.2, 25), (0.6, 15)))
    for seed in range(4):
        raw = ENGINES[engine](model, start, 3.0, RandomStream(seed).generator())
        assert len(raw.events) > 32
        assert ENGINES[engine](model, start, 3.0,
                               Uniforms(RandomStream(seed).generator())) == raw


_TRAITS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# starts with repeated traits (weights above 1) and traits at 0 and 1
_STARTS = st.lists(st.tuples(_TRAITS, st.integers(1, 4)), min_size=1, max_size=4).map(
    Configuration.from_pairs)


def _survivor_path(start: Configuration, ups: list[bool]) -> list[int]:
    # a survivor's path never reaches mass 0: a death at mass 1 becomes a birth
    path, mass = [], start.total_mass
    for up in ups:
        step = 1 if up or mass == 1 else -1
        path.append(step)
        mass += step
    return path


@settings(max_examples=200, deadline=None)
@given(kernel=st.one_of(st.just(UniformKernel()),
                        st.floats(0.005, 0.5).map(TruncatedGaussianKernel)),
       rho=st.floats(0.01, 0.99), shared=st.booleans(),
       chunk=st.lists(st.tuples(_STARTS, st.lists(st.booleans(), max_size=40)), max_size=8),
       seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([simulator._BATCH, 1, 7, 30]))
def test_lockstep_urns_give_the_one_at_a_time_urn_bit_for_bit(kernel, rho, shared, chunk,
                                                               seed, batch):
    # small batches split the survivors, and paths longer than a batch run alone
    model = UniformModel(lam=2.0, b=1.0, rho=rho, kernel=kernel)
    if shared and chunk:
        chunk = [(chunk[0][0], ups) for _, ups in chunk]
    starts = [start for start, _ in chunk]
    paths = [np.array(_survivor_path(start, ups), dtype=np.int8) for start, ups in chunk]
    masses = np.array([c.total_mass for c in starts], dtype=np.int64)
    finals = masses + np.array([p.sum() for p in paths], dtype=np.int64)
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    steps = np.concatenate([np.zeros(0, dtype=np.int8), *paths])
    lockstep = np.random.default_rng(seed)
    with mock.patch.object(simulator, "_BATCH", batch):
        got = configurations(_urns(model, Runs.of(starts), masses, steps, lengths, finals,
                                   lockstep))
    rng = np.random.default_rng(seed)
    want = [urn(model, start, path, rng) for start, path in zip(starts, paths)]
    assert [serialize(c) for c in got] == [serialize(c) for c in want]
    assert [c.total_mass for c in got] == finals.tolist()
    # the lockstep urn leaves the generator where the one-at-a-time urn does
    assert lockstep.random() == rng.random()


@pytest.mark.parametrize("seed", range(5))
def test_an_urn_survivor_draws_the_same_whatever_the_paths_before_it(seed):
    # earlier survivors with as many steps but other births and deaths
    # leave the last survivor's uniforms where they were
    model = UniformModel(lam=2.0, b=1.0, rho=0.9, kernel=TruncatedGaussianKernel(0.1))
    starts = [Configuration.from_pairs(((0.3, 2),)), Configuration.from_pairs(((0.7, 1),))]
    masses = np.array([2, 1], dtype=np.int64)
    last = [1, 1, -1, 1, 1, 1]
    lasts = []
    for before in ([1, 1, 1, 1], [-1, 1, -1, 1]):
        steps = np.array(before + last, dtype=np.int8)
        finals = masses + np.array([sum(before), sum(last)], dtype=np.int64)
        *_, final = configurations(_urns(model, Runs.of(starts), masses, steps,
                                         np.array([4, 6]), finals, np.random.default_rng(seed)))
        lasts.append(serialize(final))
    assert lasts[0] == lasts[1]
