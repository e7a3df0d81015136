import hashlib
import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qsdsim import qsd, simulator
from qsdsim.configuration import Configuration, parse_configuration
from qsdsim.errors import (AllExtinct, InvalidRegime,
                           NoSingletonMass, NotNormalized, WindowTooSmall)
from qsdsim.oracle import build_mass_chain, principal_left_eigenpair
from qsdsim.qsd import (YAGLOM_STAGES, QsdEstimate, _estimate_from_counts,
                        _estimate_from_runs, decay_rate_from_singletons, decay_rate_from_survival,
                        estimate_report, fleming_viot_estimate, tv_distance,
                        write_sample_csv, yaglom_estimate)
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.simulator import Runs, mass_paths
from qsdsim.streams import RandomStream
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel, make_kernel, sample_base

from closed_forms import bd_qsd
from ensembles import configurations, per_entry_branch, reference_chunks, serialize

ONE = Configuration.singleton(0.2)
TWO = Configuration.from_pairs(((0.4, 2),))
THREE = Configuration.from_pairs(((0.1, 1), (0.9, 2)))


def _hand_estimate(weights=(0.5, 0.3, 0.2)):
    return QsdEstimate(configurations=(ONE, TWO, THREE),
                       weights=np.array(weights), burn_in=0.0, particles=10)


def test_estimate_checks_weights():
    with pytest.raises(ValueError):
        QsdEstimate(configurations=(ONE, TWO), weights=np.array([1.0]),
                    burn_in=0.0, particles=1)
    with pytest.raises(ValueError):
        QsdEstimate(configurations=(), weights=np.array([]), burn_in=0.0,
                    particles=0)
    with pytest.raises(NotNormalized):
        _hand_estimate((0.7, -0.1, 0.4))
    with pytest.raises(NotNormalized):
        _hand_estimate((0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        QsdEstimate(configurations=(ONE, Configuration.void()),
                    weights=np.array([0.5, 0.5]), burn_in=0.0, particles=2)


def test_estimate_marginals_and_ess():
    est = _hand_estimate()
    assert est.mass_marginal == pytest.approx([0.0, 0.5, 0.3, 0.2])
    assert est.support_marginal == pytest.approx([0.0, 0.8, 0.2])
    assert est.ess == pytest.approx(1.0 / 0.38)
    assert list(zip(est.configurations, est.weights.tolist())) == [(ONE, 0.5), (TWO, 0.3),
                                                                   (THREE, 0.2)]


def test_estimate_draw_follows_weights():
    est = _hand_estimate()
    rng = RandomStream(3).generator()
    hits = {c: 0 for c in est.configurations}
    for _ in range(30_000):
        hits[est.draw(rng)] += 1
    assert hits[ONE] / 30_000 == pytest.approx(0.5, abs=0.01)
    assert hits[THREE] / 30_000 == pytest.approx(0.2, abs=0.01)


def test_yaglom_at_time_zero_is_point_mass(uniform_model):
    est = yaglom_estimate(uniform_model, THREE, 0.0, 50, RandomStream(5))
    assert est.configurations == (THREE,)
    assert est.weights == pytest.approx([1.0])
    assert est.particles == 50 and est.burn_in == 0.0


def test_yaglom_rejects_bad_arguments(uniform_model):
    with pytest.raises(ValueError):
        yaglom_estimate(uniform_model, ONE, -1.0, 10, RandomStream(1))
    with pytest.raises(ValueError, match="t must be nonnegative, got nan"):
        yaglom_estimate(uniform_model, ONE, math.nan, 10, RandomStream(1))
    with pytest.raises(ValueError):
        yaglom_estimate(uniform_model, ONE, 1.0, 0, RandomStream(1))


def test_yaglom_raises_when_nothing_survives(uniform_model):
    with pytest.raises(AllExtinct):
        yaglom_estimate(uniform_model, ONE, 30.0, 3, RandomStream(7))


def test_yaglom_mass_marginal_near_geometric(uniform_model):
    est = yaglom_estimate(uniform_model, ONE, 3.0, 40_000, RandomStream(11))
    probs, _ = bd_qsd(uniform_model.lam, uniform_model.b, 40)
    assert tv_distance(est.mass_marginal, probs) <= 0.05


def test_yaglom_splitting_keeps_equal_weights_and_the_conditioned_law(uniform_model):
    t, replicas = 3.0, 20_000
    est = yaglom_estimate(uniform_model, ONE, t, replicas, RandomStream(13))
    assert est.particles <= replicas
    # from a singleton the linear chain at t, given survival, is geometric
    lam, b = uniform_model.lam, uniform_model.b
    decay = math.exp(-(lam - b) * t)
    ratio = b * (1.0 - decay) / (lam - b * decay)
    exact = np.zeros(61)
    exact[1:] = ratio ** np.arange(60)
    assert tv_distance(est.mass_marginal, exact / exact.sum()) <= 0.04
    # plain conditioning keeps about replicas * P(alive at t) = 511 survivors,
    # all independent; splitting keeps about 3.6 times as many independent ones
    alive = decay / (lam / b - decay)
    assert est.particles >= 3 * replicas * alive


def test_yaglom_stages_copy_every_survivor_alike(uniform_model, monkeypatch):
    calls = []

    def recording(model, initial, t_end, replicas, rng, survivors):
        paths = mass_paths(model, initial, t_end, replicas, rng, survivors=survivors)
        calls.append((initial, t_end, replicas, rng, paths))
        return paths

    monkeypatch.setattr(qsd, "mass_paths", recording)
    est = yaglom_estimate(uniform_model, ONE, 3.0, 1000, RandomStream(4))
    assert len(calls) == YAGLOM_STAGES
    assert sum(call[1] for call in calls) == pytest.approx(3.0)
    assert [call[3] for call in calls] == [RandomStream(4).substream(k)
                                           for k in range(YAGLOM_STAGES)]
    # ancestor[i]: the first-stage replica behind survivor i of the stage
    ancestor = np.flatnonzero(calls[0][4].final)
    for (*_, before), (starts, _, size, _, after) in zip(calls, calls[1:]):
        kept = configurations(before.survivors)
        copies = 1000 // len(kept)
        starts = configurations(starts)
        assert size == len(starts) == copies * len(kept) <= 1000
        assert starts == tuple(c for c in kept for _ in range(copies))
        ancestor = ancestor[np.flatnonzero(after.final) // copies]
    final = configurations(calls[-1][4].survivors)
    counts = est.weights * len(final)
    assert np.allclose(counts, np.round(counts))
    assert est.particles == len(set(ancestor.tolist())) < len(final)


def test_yaglom_copies_no_survivor_after_its_last_stage(uniform_model, monkeypatch):
    # the last stage's survivors are only merged; a refill there would build
    # copies * alive start rows for a stage that never runs
    survivors, takes = [], []
    take = Runs.take

    def recording_paths(*args, **kwargs):
        paths = mass_paths(*args, **kwargs)
        survivors.append(paths.survivors)
        return paths

    def recording_take(self, rows):
        takes.append((self, len(rows)))
        return take(self, rows)

    monkeypatch.setattr(qsd, "mass_paths", recording_paths)
    monkeypatch.setattr(Runs, "take", recording_take)
    est = yaglom_estimate(uniform_model, ONE, 3.0, 1000, RandomStream(4))
    assert len(survivors) == YAGLOM_STAGES
    assert [sum(runs is kept for runs, _ in takes) for kept in survivors[:-1]] == \
        [1] * (YAGLOM_STAGES - 1)
    assert [size for runs, size in takes if runs is survivors[-1]] == [
        len(est.configurations)]


def _same_estimate(got, want):
    assert [serialize(c) for c in got.configurations] == [
        serialize(c) for c in want.configurations]
    assert [c.total_mass for c in got.configurations] == [
        c.total_mass for c in want.configurations]
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.mass_marginal.tobytes() == want.mass_marginal.tobytes()
    assert (got.burn_in, got.particles, got.events, got.resurrections) == (
        want.burn_in, want.particles, want.events, want.resurrections)


def test_yaglom_from_a_law_gives_the_stagewise_reference_bit_for_bit(uniform_model):
    # criterion 05 starts Yaglom from an estimate, whose draw gives each start;
    # the reference copies the survivors as configurations and counts them
    law, replicas, rng = _hand_estimate(), 3000, RandomStream(5)
    est = yaglom_estimate(uniform_model, law, 2.0, replicas, rng)
    first, = reference_chunks(uniform_model, law, 1.0, replicas, rng.substream(0),
                              survivors=True)
    kept = configurations(first.survivors)
    copies = replicas // len(kept)
    second, = reference_chunks(uniform_model, Runs.of(c for c in kept for _ in range(copies)),
                               1.0, copies * len(kept), rng.substream(1), survivors=True)
    final = configurations(second.survivors)
    assert len(final) > len(set(final)) > 100
    _same_estimate(est, _estimate_from_counts(Counter(c.entries for c in final), burn_in=0.0,
                                              particles=est.particles,
                                              events=first.events + second.events))


_MERGE_TRAITS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
_MERGE_CONFIGS = st.lists(st.tuples(_MERGE_TRAITS, st.integers(1, 3)), min_size=1,
                          max_size=4).map(Configuration.from_pairs)


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(_MERGE_CONFIGS, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 100), min_size=1, max_size=40))
def test_the_yaglom_merge_gives_the_counted_estimate_bit_for_bit(drawn, picks):
    # duplicates, prefixes of one configuration, and (t, 2) against
    # (t, 1), (v, 1): tuple order puts the first after the second
    pool = [*drawn, *(Configuration(c.entries[:k]) for c in drawn
                      for k in range(1, len(c.entries))),
            Configuration(((0.25, 2),)), Configuration(((0.25, 1), (0.5, 1))),
            Configuration(((0.25, 1), (0.75, 1))), Configuration(((0.25, 1),))]
    configs = [pool[k % len(pool)] for k in picks]
    got = _estimate_from_runs(Runs.of(configs), particles=7, events=11)
    want = _estimate_from_counts(Counter(c.entries for c in configs), burn_in=0.0,
                                 particles=7, events=11)
    _same_estimate(got, want)


def test_fleming_viot_rejects_bad_arguments(uniform_model):
    with pytest.raises(InvalidRegime):
        fleming_viot_estimate(uniform_model, 1, 0.0, 1.0, RandomStream(1))
    with pytest.raises(InvalidRegime):
        fleming_viot_estimate(uniform_model, 4, 2.0, 1.0, RandomStream(1))
    with pytest.raises(InvalidRegime):
        fleming_viot_estimate(uniform_model, 4, -0.5, 1.0, RandomStream(1))
    with pytest.raises(InvalidRegime):
        fleming_viot_estimate(uniform_model, 4, 0.0, 1.0, RandomStream(1),
                              snapshot_interval=0.0)


def test_fleming_viot_two_particles_runs(uniform_model):
    est = fleming_viot_estimate(uniform_model, 2, 0.5, 8.0, RandomStream(13))
    assert est.particles == 2 and est.burn_in == 0.5
    assert float(est.weights.sum()) == pytest.approx(1.0)
    assert all(not c.is_void for c in est.configurations)


def test_fleming_viot_matches_geometric_marginal(uniform_model, fv_estimate):
    probs, _ = bd_qsd(uniform_model.lam, uniform_model.b, 60)
    assert tv_distance(fv_estimate.mass_marginal, probs) <= 0.03
    assert fv_estimate.ess > 100


def test_fleming_viot_matches_mass_chain_oracle(logistic_model):
    est = fleming_viot_estimate(logistic_model, 1000, 15.0, 60.0,
                                RandomStream(17))
    chain = build_mass_chain(logistic_model, 60)
    pair = principal_left_eigenpair(chain)
    assert tv_distance(est.mass_marginal, pair.nu) <= 0.05


def _cumsum_fleming_viot(model, particles, burn_in, horizon, rng,
                         snapshot_interval=0.5):
    """Fleming-Viot selection by a cumulative sum over all particles per event."""
    gen = rng.generator()
    configs = [Configuration.singleton(sample_base(gen)) for _ in range(particles)]
    rates = np.array([model.total_jump_rate(c) for c in configs])
    counts = {}
    t = 0.0
    events = 0
    snaps = 0
    next_snap = burn_in
    while True:
        cum = np.cumsum(rates)
        total = float(cum[-1])
        t_next = t + -math.log(1.0 - gen.random()) / total
        while next_snap <= horizon and next_snap < t_next:
            for c in configs:
                counts[c.entries] = counts.get(c.entries, 0) + 1
            snaps += 1
            next_snap = burn_in + snaps * snapshot_interval
        if t_next > horizon:
            break
        t = t_next
        events += 1
        i = min(int(np.searchsorted(cum, gen.random() * total, side="right")),
                particles - 1)
        *_, nxt = per_entry_branch(model, configs[i], gen)
        if nxt.is_void:
            j = int(gen.random() * (particles - 1))
            if j >= i:
                j += 1
            nxt = configs[j]
        configs[i] = nxt
        rates[i] = model.total_jump_rate(nxt)
    return _estimate_from_counts(counts, burn_in=burn_in, particles=particles,
                                 events=events)


def _scan_fleming_viot(model, particles, burn_in, horizon, rng,
                       snapshot_interval=0.5):
    """Fleming-Viot on one clock per particle, the earliest found by a linear scan."""
    gen = rng.generator()
    configs = [Configuration.singleton(sample_base(gen)) for _ in range(particles)]
    rings = [-math.log(1.0 - gen.random()) / model.state_rates(c)[3] for c in configs]
    counts = {}
    events = 0
    resurrections = 0
    snaps = 0
    next_snap = burn_in
    while True:
        # the first index among equal ring times, as (time, index) order gives
        i = min(range(particles), key=rings.__getitem__)
        t = rings[i]
        while next_snap <= horizon and next_snap < t:
            for c in configs:
                counts[c.entries] = counts.get(c.entries, 0) + 1
            snaps += 1
            next_snap = burn_in + snaps * snapshot_interval
        if t > horizon:
            break
        events += 1
        *_, nxt = per_entry_branch(model, configs[i], gen)
        if nxt.is_void:
            resurrections += 1
            j = int(gen.random() * (particles - 1))
            if j >= i:
                j += 1
            nxt = configs[j]
        configs[i] = nxt
        rings[i] = t + -math.log(1.0 - gen.random()) / model.state_rates(nxt)[3]
    return _estimate_from_counts(counts, burn_in=burn_in, particles=particles,
                                 events=events, resurrections=resurrections)


def _fv_model(family, kind="logistic"):
    kernel = make_kernel(family, 0.05)
    if kind == "constant":
        return UniformModel(lam=2.0, b=1.0, rho=0.3, kernel=kernel)
    # with rare mutations most particles are one-entry configurations, many of mass > 1
    rho = 0.05 if kind == "low_rho" else 0.3
    return LogisticModel(b=1.0, rho=rho, d=2.0, c=0.5, kernel=kernel)


def _assert_same_fleming_viot(est, ref):
    assert est.configurations == ref.configurations
    assert np.array_equal(est.weights, ref.weights)
    assert (est.events, est.resurrections) == (ref.events, ref.resurrections)


# Logistic cases keep their bare ids; the constant-rate UniformModel ones add
# "-constant", and the logistic ones with rho = 0.05 "-low_rho". All run the
# same seeds and size, fixed before their first run.
@pytest.mark.parametrize("family, seed, kind", [
    pytest.param(family, seed, kind,
                 id=f"{family}-{seed}" + ("" if kind == "logistic" else f"-{kind}"))
    for kind in ("logistic", "constant", "low_rho") for family in ("uniform", "truncated_gaussian")
    for seed in (1, 2, 3)])
def test_fleming_viot_heap_matches_a_linear_scan_of_the_clocks(family, seed, kind):
    model = _fv_model(family, kind)
    est = fleming_viot_estimate(model, 300, 1.0, 3.0, RandomStream(seed))
    ref = _scan_fleming_viot(model, 300, 1.0, 3.0, RandomStream(seed))
    _assert_same_fleming_viot(est, ref)
    assert est.events > 0 and est.resurrections > 0
    # the one-entry reads see configurations of mass > 1
    assert any(c.support_size == 1 and c.total_mass > 1 for c in est.configurations)


def test_fleming_viot_makes_one_add_or_remove_call_per_event(monkeypatch):
    # the benchmark's tracer counts Fleming-Viot events by these calls
    calls = {"add": 0, "remove": 0}
    for name in calls:
        def counted(self, trait, _name=name, _original=getattr(Configuration, name)):
            calls[_name] += 1
            return _original(self, trait)
        monkeypatch.setattr(Configuration, name, counted)
    est = fleming_viot_estimate(_fv_model("truncated_gaussian"), 200, 0.5, 2.0, RandomStream(5))
    assert calls["add"] + calls["remove"] == est.events
    assert calls["remove"] >= est.resurrections > 0 and calls["add"] > 0


@st.composite
def _fv_models(draw):
    """Admissible constant-rate or logistic models small enough for the scan."""
    kernel = draw(st.one_of(st.just(UniformKernel()),
                            st.builds(TruncatedGaussianKernel, scale=st.floats(0.02, 0.3))))
    b, rho = draw(st.floats(0.2, 2.0)), draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        return UniformModel(lam=b + draw(st.floats(0.1, 2.0)), b=b, rho=rho, kernel=kernel)
    return LogisticModel(b=b, rho=rho, d=draw(st.floats(0.2, 2.0)), c=draw(st.floats(0.2, 2.0)),
                         kernel=kernel)


# The examples come from a fixed hypothesis seed, chosen before the first run.
@seed(20)
@settings(max_examples=60, deadline=None)
@given(model=_fv_models(), particles=st.integers(2, 40), burn_in=st.floats(0.0, 2.0),
       span=st.floats(0.1, 2.0), interval=st.floats(0.05, 1.0),
       stream=st.integers(0, 2**32 - 1))
def test_fleming_viot_matches_the_scan_on_random_models(model, particles, burn_in, span,
                                                        interval, stream):
    horizon = burn_in + span
    est = fleming_viot_estimate(model, particles, burn_in, horizon, RandomStream(stream),
                                snapshot_interval=interval)
    ref = _scan_fleming_viot(model, particles, burn_in, horizon, RandomStream(stream),
                             snapshot_interval=interval)
    _assert_same_fleming_viot(est, ref)


# FV_ROUTE_TV bounds the TV between the marginals of the per-particle
# clocks and of the global cumulative-sum race, each at 600 particles
# over [2, 12] on the logistic model. Over seeds 1-30 the mass TV was
# 0.0078 +- 0.0041 (max 0.0188) and the support TV 0.0050 +- 0.0026
# (max 0.0119); each bound sits more than 4 SD above its mean. The test
# runs seed 31, fixed before the sweep.
FV_ROUTE_TV = {"mass": 0.025, "support": 0.016}


def test_fleming_viot_clocks_and_the_global_race_share_their_marginals():
    model = _fv_model("uniform")
    est = fleming_viot_estimate(model, 600, 2.0, 12.0, RandomStream(31))
    ref = _cumsum_fleming_viot(model, 600, 2.0, 12.0, RandomStream(31))
    assert tv_distance(est.mass_marginal, ref.mass_marginal) <= FV_ROUTE_TV["mass"]
    assert tv_distance(est.support_marginal,
                       ref.support_marginal) <= FV_ROUTE_TV["support"]


# sha256 of a small Fleming-Viot sample with its event and resurrection
# counts, pinned when the per-particle clocks came in. A refactor must
# keep every bit; only a deliberate change of the random stream may
# move them.
FV_DIGESTS = {
    "uniform": "424832da6e18d372fa06826875da00466345b83aad8c0f4745571966970121fa",
    "truncated_gaussian": "cc8d9fe82195b78e0cd3b59a716724d5065dbc48169227890c6afa7cfb614d78",
}


def _sample_lines(est):
    return [f"{w!r} {serialize(c)}" for c, w in zip(est.configurations, est.weights.tolist())]


def _fv_text(est):
    return "\n".join([f"{est.events} {est.resurrections}", *_sample_lines(est)])


@pytest.mark.parametrize("family", sorted(FV_DIGESTS))
def test_fleming_viot_sample_keeps_its_bits(family):
    est = fleming_viot_estimate(_fv_model(family), 60, 0.5, 2.0, RandomStream(2024))
    assert hashlib.sha256(_fv_text(est).encode()).hexdigest() == FV_DIGESTS[family]


def test_fleming_viot_takes_every_snapshot_of_a_non_dyadic_interval(logistic_model):
    # 16 snapshots at 0.0, 0.1, ..., 1.5; adding 0.1 fifteen times overshoots 1.5
    est = fleming_viot_estimate(logistic_model, 5, 0.0, 1.5, RandomStream(4),
                                snapshot_interval=0.1)
    counts = est.weights * (5 * 16)
    assert np.allclose(counts, np.rint(counts), rtol=0.0, atol=1e-9)
    assert np.rint(counts).sum() == 5 * 16 and est.events > 0


def test_decay_rate_on_noiseless_curve():
    ts = np.arange(0.1, 3.0, 0.2)
    curve = [(t, math.exp(-t), 0.0) for t in ts]
    slope, stderr = decay_rate_from_survival(curve)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_weighted_fit_recovers_rate():
    rng = RandomStream(19).generator()
    theta = 1.3
    curve = []
    for t in np.arange(0.2, 2.2, 0.25):
        p = math.exp(-theta * t)
        if not (0.05 <= p <= 0.95):
            continue
        curve.append((t, p * (1.0 + 0.005 * rng.standard_normal()), 0.005 * p))
    slope, stderr = decay_rate_from_survival(curve)
    assert stderr > 0.0
    assert abs(slope - theta) <= 4.0 * stderr


def test_decay_rate_exact_points_with_errors():
    curve = [(t, math.exp(-t), 0.01) for t in (0.5, 1.0, 1.5, 2.0, 2.5)]
    slope, stderr = decay_rate_from_survival(curve)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr > 0.0


def test_decay_rate_of_a_curve_with_no_deaths_has_no_window():
    # a curve flat at 1 says nothing about the rate; it is not a slope of 0 +- 0
    with pytest.raises(WindowTooSmall):
        decay_rate_from_survival([(t, 1.0, 0.0) for t in (1, 2, 3)])


def test_decay_rate_of_an_all_extinct_curve_has_no_window():
    # a curve flat at 0 says nothing about the rate; it is not a zero slope
    with pytest.raises(WindowTooSmall):
        decay_rate_from_survival([(t, 0.0, 0.0) for t in (0.5, 1.0, 1.5)])


def test_decay_rate_window_too_small():
    with pytest.raises(WindowTooSmall):
        decay_rate_from_survival([(0.5, 0.99, 0.01), (1.0, 0.5, 0.01),
                                  (8.0, 0.01, 0.005)])


def test_singleton_decay_rate(uniform_model, logistic_model):
    est = QsdEstimate(
        configurations=(Configuration.singleton(0.3), TWO, THREE,
                        Configuration.from_pairs(((0.6, 4),))),
        weights=np.array([0.5, 0.25, 0.125, 0.125]), burn_in=0.0, particles=8)
    assert decay_rate_from_singletons(uniform_model, est) == 1.0
    assert decay_rate_from_singletons(logistic_model, est) == 1.0
    no_single = QsdEstimate(configurations=(TWO, THREE),
                            weights=np.array([0.5, 0.5]), burn_in=0.0,
                            particles=2)
    with pytest.raises(NoSingletonMass):
        decay_rate_from_singletons(uniform_model, no_single)


def test_tv_distance_values():
    assert tv_distance((0.5, 0.5), (0.5, 0.5)) == 0.0
    assert tv_distance((0.5, 0.5), (0.75, 0.25)) == 0.25
    assert tv_distance((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert tv_distance((1.0,), (0.0, 1.0)) == 1.0
    assert tv_distance((0.5, 0.5), (0.5, 0.5, 0.0)) == 0.0
    with pytest.raises(NotNormalized):
        tv_distance((0.5, 0.4), (0.5, 0.5))
    with pytest.raises(NotNormalized):
        tv_distance((0.5, 0.5), (1.5, -0.4))


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (1.5, -0.5),
                                 (math.inf, 1.0), (-math.inf, 1.0)],
                         ids=["nan-first", "nan-last", "negative", "inf", "minus-inf"])
def test_tv_distance_refuses_a_negative_or_non_finite_entry(bad):
    # a NaN gets past a sum check, since abs(nan - 1) > 1e-9 is False,
    # and (1.5, -0.5) sums to 1
    for p, q in ((bad, (0.5, 0.5)), ((0.5, 0.5), bad)):
        with pytest.raises(NotNormalized):
            tv_distance(p, q)


def test_estimate_report_starts_vectors_at_one():
    report = estimate_report(_hand_estimate())
    assert report["mass_marginal"] == pytest.approx([0.5, 0.3, 0.2])
    assert report["support_marginal"] == pytest.approx([0.8, 0.2])
    assert report["particles"] == 10 and report["burn_in"] == 0.0
    assert report["ess"] == pytest.approx(1.0 / 0.38)


def test_sample_csv_layout(tmp_path):
    est = _hand_estimate()
    path = tmp_path / "sample.csv"
    with open(path, "w") as out:
        write_sample_csv(est, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "weight,configuration"
    assert lines[1] == "0.5,1@0.20000000000000001"
    assert len(lines) == 1 + 3


def test_sample_csv_formats_each_weight_as_its_own_row_would():
    # repeated weights, and -0.0 beside 0.0: equal, but not the same bits
    weights = (0.25, 0.5, 0.25, -0.0, 0.0)
    configs = tuple(Configuration.singleton(0.1 * k) for k in range(1, 6))
    est = QsdEstimate(configurations=configs, weights=np.array(weights), burn_in=0.0,
                      particles=5)
    out = io.StringIO()
    write_sample_csv(est, out)
    assert out.getvalue().splitlines()[1:] == [
        f"{w:.17g},{serialize(c)}" for w, c in zip(weights, configs)]
    assert out.getvalue().splitlines()[4].startswith("-0,")


# Traits 0, 1, the least subnormal and 1/3 among arbitrary ones, in up to
# 6 entries; a weight of 1-3 per configuration makes tied weights common.
_CSV_TRAITS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1 / 3]), st.floats(0.0, 1.0))
_CSV_CONFIGS = st.lists(st.tuples(_CSV_TRAITS, st.integers(1, 1000)), min_size=1, max_size=6,
                        unique_by=lambda entry: entry[0]).map(Configuration.from_pairs)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_CSV_CONFIGS, st.integers(1, 3)), min_size=1, max_size=12))
def test_sample_csv_is_the_per_configuration_join_byte_for_byte(rows):
    configs = tuple(config for config, _ in rows)
    counts = np.array([count for _, count in rows], dtype=float)
    est = QsdEstimate(configurations=configs, weights=counts / counts.sum(), burn_in=0.0,
                      particles=len(rows))
    out = io.StringIO()
    write_sample_csv(est, out)
    assert out.getvalue() == "weight,configuration\n" + "".join(
        f"{w:.17g},{serialize(c)}\n" for w, c in zip(est.weights.tolist(), configs))
    for line, w, c in zip(out.getvalue().splitlines()[1:], est.weights.tolist(), configs):
        weight, text = line.split(",")
        assert float(weight) == w
        assert repr(parse_configuration(text).entries) == repr(c.entries)


# sha256 of the serialized survivors of a small Yaglom estimate, pinned
# from the urn that draws three uniforms a step (pick, mutation flag,
# kernel uniform), with mass_paths run in chunks of 4,096 replicas, two of
# them here. The lockstep urn must keep every bit; only a deliberate
# change of the random stream may move them.
YAGLOM_DIGESTS = {
    "uniform": "b5e46bf216ad27d1c3688812aa82bcf3b4e89b23435adf52d0d5a98b67f9d4a3",
    "truncated_gaussian": "6be027e5df8a212213f2c97d4d2e2c8a1c92fbf45fb65bbac5e1e99b76198eb3",
}
# The same estimates at the package's chunk of 65,536 replicas, one here.
YAGLOM_CHUNK_DIGESTS = {
    "uniform": "31906a8e1138535fca4f2a071ca9ee4df66c3abdfd103e8a1741f11c27a5384c",
    "truncated_gaussian": "5ad6f58ee6ecd243997a3d01692dfcf02062896b6f1f5226363d130f63e947c1",
}


def _yaglom_digest(family):
    model = UniformModel(lam=2.0, b=1.0, rho=0.3, kernel=make_kernel(family, 0.05))
    start = Configuration.from_pairs(((0.0, 2), (0.5, 1), (1.0, 1)))
    est = yaglom_estimate(model, start, 2.0, 5000, RandomStream(2024))
    return hashlib.sha256("\n".join(_sample_lines(est)).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(YAGLOM_DIGESTS))
def test_yaglom_survivors_keep_their_bits(family):
    with mock.patch.object(simulator, "CHUNK", 4096):
        assert _yaglom_digest(family) == YAGLOM_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(YAGLOM_CHUNK_DIGESTS))
def test_yaglom_survivors_keep_their_bits_in_one_chunk(family):
    assert simulator.CHUNK == 65536
    assert _yaglom_digest(family) == YAGLOM_CHUNK_DIGESTS[family]
