import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.configuration import Configuration
from qsdsim.errors import InvalidRegime
from qsdsim.oracle import build_mass_chain
from qsdsim.qsd import QsdEstimate, fleming_viot_estimate
from qsdsim.rates import LogisticModel, RateModel, UniformModel, individual_at
from qsdsim.simulator import (CHUNK, ENGINES, Event, EventKind, Trajectory,
                              _gillespie_branch, hitting_tail, mass_moments, mass_paths,
                              path_times, simulate_gillespie, simulate_thinning,
                              survival_curve, write_trajectory_csv)
from qsdsim.streams import RandomStream, Uniforms
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel, sample_base
from qsdsim.validation import (Mass, chi2_threshold, martingale_residual, mass_histogram,
                               two_sample_chi2)

import strategies

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


def _per_entry_branch(model, config, rng):
    """One Gillespie branch by a scan over every entry's clonal, then death rate.

    The reference for _gillespie_branch: a mutation parent comes from a
    second per-entry scan over the mutation rates.
    """
    x = rng.random() * model.total_jump_rate(config)
    acc = 0.0
    for trait, weight in config.entries:
        acc += weight * model.clonal_rate(trait, config)
        if x <= acc:
            return EventKind.CLONAL, trait, trait
    for trait, weight in config.entries:
        acc += weight * model.death_rate(trait, config)
        if x <= acc:
            return EventKind.DEATH, trait, None
    rates = [weight * model.mutation_rate(trait, config) for trait, weight in config.entries]
    y = rng.random() * sum(rates)
    parent, acc = config.entries[-1][0], 0.0
    for (trait, _), rate in zip(config.entries, rates):
        acc += rate
        if y <= acc:
            parent = trait
            break
    return EventKind.MUTATION, parent, model.kernel.sample(parent, rng)


@settings(max_examples=200, deadline=None)
@given(strategies.MODELS, strategies.configurations(), st.integers(0, 2**32 - 1))
def test_branch_picks_what_a_per_entry_scan_picks(model, config, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        kind, parent, child, after = _gillespie_branch(model, config, ours)
        assert (kind, parent, child) == _per_entry_branch(model, config, theirs)
        assert ours.random() == theirs.random()
        config = apply_event(config, Event(0.0, kind, parent, child))
        assert after == config
        if config.is_void:
            break


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


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), seed=st.integers(0, 2**32 - 1),
       replicas=st.one_of(st.sampled_from([1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3]),
                          st.integers(1, 300)),
       horizon=st.floats(0.0, 2.0), start=st.sampled_from([START, Configuration.void(), ESTIMATE]),
       survivors=st.booleans())
def test_mass_paths_invariants(model, seed, replicas, horizon, start, survivors):
    checkpoints = (0.0, horizon / 2, horizon)
    paths = mass_paths(model, start, horizon, replicas, RandomStream(seed),
                       checkpoints=checkpoints, survivors=survivors)
    for column in (paths.start, paths.final, paths.extinction, paths.at, paths.maximum):
        assert len(column) == replicas
    assert (paths.at >= 0).all() and (paths.final >= 0).all()
    assert (paths.at[:, 0] == paths.start).all()
    assert (paths.at[:, -1] == paths.final).all()
    assert (paths.maximum >= paths.start).all() and (paths.maximum >= paths.at.max(axis=1)).all()
    extinct = np.isfinite(paths.extinction)
    assert (paths.extinction[extinct] <= horizon).all()
    assert (paths.final[extinct] == 0).all() and (paths.final[~extinct] > 0).all()
    assert (paths.extinction[paths.start == 0] == 0.0).all()
    for k, c in enumerate(checkpoints):
        assert (paths.at[extinct & (paths.extinction <= c), k] == 0).all()
    # each jump moves one replica by one, so the count bounds and matches the net move
    moved = paths.final - paths.start
    assert np.abs(moved).sum() <= paths.events and (paths.events - moved.sum()) % 2 == 0
    if survivors:
        assert [c.total_mass for c in paths.survivors] == paths.final[paths.final > 0].tolist()
    else:
        assert paths.survivors == ()


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replicas=st.integers(2 * CHUNK + 1, 3 * CHUNK))
def test_mass_paths_do_not_depend_on_workers(seed, replicas, uniform_model):
    runs = [mass_paths(uniform_model, START, 1.0, n, RandomStream(seed), workers=workers,
                       checkpoints=(0.5,), survivors=True)
            for n, workers in ((replicas, 1), (replicas, 2), (CHUNK, 1))]
    for one, two, first in zip(*runs):
        if isinstance(one, np.ndarray):
            assert np.array_equal(one, two)
            # chunk 0 is the same whatever follows it
            assert np.array_equal(one[:CHUNK], first)
        else:
            assert one == two


def test_mass_paths_start_each_replica_from_its_own_configuration(uniform_model):
    replicas = 2 * CHUNK + 5
    starts = tuple(Configuration.from_pairs(((0.5, 1 + r % 3),)) for r in range(replicas))
    still = mass_paths(uniform_model, starts, 0.0, replicas, RandomStream(3), survivors=True)
    assert still.start.tolist() == [1 + r % 3 for r in range(replicas)]
    assert still.survivors == starts
    runs = [mass_paths(uniform_model, starts, 1.0, replicas, RandomStream(3), workers=workers,
                       survivors=True) for workers in (1, 2)]
    assert np.array_equal(runs[0].final, runs[1].final)
    assert runs[0].survivors == runs[1].survivors
    with pytest.raises(ValueError, match="one start per replica"):
        mass_paths(uniform_model, starts[:-1], 1.0, replicas, RandomStream(3))


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
    full = [simulate_gillespie(model, start, 1.0, gen).final
            for gen in RandomStream(67, (0,)).replica_generators(0, replicas)]
    paths = mass_paths(model, start, 1.0, replicas, RandomStream(67, (1,)), survivors=True)
    void = [Configuration.void()] * (replicas - len(paths.survivors))
    stat, df = two_sample_chi2(_joint_law(full), _joint_law([*paths.survivors, *void]))
    assert stat <= chi2_threshold(df, 0.999)


def test_thinning_matches_gillespie_jointly_on_a_narrow_gaussian_kernel():
    # g* is about 8 at scale 0.05: most mutation candidates are rejected,
    # and no clonal or death candidate is. Criterion 06 runs the uniform
    # kernel only, where g* = 1.
    model = LogisticModel(b=2.0, rho=0.5, d=1.0, c=0.2,
                          kernel=TruncatedGaussianKernel(scale=0.05))
    start = Configuration.from_pairs(((0.3, 3), (0.7, 2)))
    replicas = 4000
    laws = [_joint_law([ENGINES[engine](model, start, 1.5, gen).final
                        for gen in RandomStream(71, (k,)).replica_generators(0, replicas)])
            for k, engine in enumerate(("gillespie", "thinning"))]
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


@dataclasses.dataclass(frozen=True)
class _CountingDeaths(LogisticModel):
    """Logistic rates that log every mass at which d(n) is evaluated."""

    masses: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def per_capita_death(self, n):
        self.masses.append(n)
        return super().per_capita_death(n)


def _counting_model():
    return _CountingDeaths(b=1.5, rho=0.3, d=1.0, c=0.05, kernel=UniformKernel())


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
