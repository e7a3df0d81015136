import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim import qsd
from qsdsim.configuration import Configuration
from qsdsim.errors import (AllExtinct, InvalidRegime,
                           NoSingletonMass, NotNormalized, WindowTooSmall)
from qsdsim.oracle import build_mass_chain, principal_left_eigenpair
from qsdsim.qsd import (YAGLOM_STAGES, QsdEstimate, SumTree, _estimate_from_counts,
                        decay_rate_from_singletons, decay_rate_from_survival,
                        estimate_report, fleming_viot_estimate, tv_distance,
                        write_sample_csv, yaglom_estimate)
from qsdsim.rates import LogisticModel
from qsdsim.simulator import _gillespie_branch, mass_paths
from qsdsim.streams import RandomStream
from qsdsim.trait_space import UniformKernel, sample_base

from closed_forms import bd_qsd

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
    assert est.sample == ((ONE, 0.5), (TWO, 0.3), (THREE, 0.2))


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

    def recording(model, initial, t_end, replicas, rng, workers, survivors):
        paths = mass_paths(model, initial, t_end, replicas, rng, workers, survivors=survivors)
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
        copies = 1000 // len(before.survivors)
        assert size == len(starts) == copies * len(before.survivors) <= 1000
        assert starts == tuple(c for c in before.survivors for _ in range(copies))
        ancestor = ancestor[np.flatnonzero(after.final) // copies]
    final = calls[-1][4].survivors
    counts = est.weights * len(final)
    assert np.allclose(counts, np.round(counts))
    assert est.particles == len(set(ancestor.tolist())) < len(final)


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


def _tree_cases(rate):
    """Rate vectors of length 2-300 with point updates drawn from ``rate``."""
    return st.lists(rate, min_size=2, max_size=300).flatmap(
        lambda rates: st.tuples(
            st.just(rates),
            st.lists(st.tuples(st.integers(0, len(rates) - 1), rate), max_size=40)))


def _updated(case):
    rates, updates = case
    tree = SumTree(rates)
    plain = list(rates)
    for i, rate in updates:
        tree.update(i, rate)
        plain[i] = rate
    return tree, plain


def _searchsorted(cum, x):
    return min(int(np.searchsorted(cum, x, side="right")), len(cum) - 1)


@settings(max_examples=150, deadline=None)
@given(_tree_cases(st.integers(1, 4000).map(lambda k: k / 2)))
def test_sum_tree_is_exact_on_half_integer_rates(case):
    tree, plain = _updated(case)
    cum = np.cumsum(plain)
    assert tree.total == math.fsum(plain) == cum[-1]
    edges = [0.0, *cum]
    probes = edges + [(a + b) / 2 for a, b in zip(edges, edges[1:])] + [cum[-1] + 1.0]
    for x in probes:
        assert tree.find(x) == _searchsorted(cum, x), x


@settings(max_examples=150, deadline=None)
@given(_tree_cases(st.floats(1e-3, 1e3)))
def test_sum_tree_total_and_find_on_arbitrary_rates(case):
    tree, plain = _updated(case)
    exact = math.fsum(plain)
    depth = (len(plain) - 1).bit_length()
    assert abs(tree.total - exact) <= (depth + 1) * math.ulp(exact)
    # between prefix boundaries rounding cannot move the answer
    cum = np.cumsum(plain)
    edges = [0.0, *cum]
    for a, b in zip(edges, edges[1:]):
        x = (a + b) / 2
        assert tree.find(x) == _searchsorted(cum, x), x


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
                counts[c] = counts.get(c, 0) + 1
            snaps += 1
            next_snap = burn_in + snaps * snapshot_interval
        if t_next > horizon:
            break
        t = t_next
        events += 1
        i = min(int(np.searchsorted(cum, gen.random() * total, side="right")),
                particles - 1)
        *_, nxt = _gillespie_branch(model, configs[i], gen)
        if nxt.is_void:
            j = int(gen.random() * (particles - 1))
            if j >= i:
                j += 1
            nxt = configs[j]
        configs[i] = nxt
        rates[i] = model.total_jump_rate(nxt)
    return _estimate_from_counts(counts, burn_in=burn_in, particles=particles,
                                 events=events)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fleming_viot_selection_matches_a_cumulative_sum(seed):
    model = LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.5, kernel=UniformKernel())
    est = fleming_viot_estimate(model, 300, 1.0, 3.0, RandomStream(seed))
    ref = _cumsum_fleming_viot(model, 300, 1.0, 3.0, RandomStream(seed))
    assert est.configurations == ref.configurations
    assert np.array_equal(est.weights, ref.weights)
    assert est.events == ref.events > 0


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


def test_decay_rate_flat_curve_short_circuits():
    assert decay_rate_from_survival([(t, 1.0, 0.0) for t in (1, 2, 3)]) == (0.0, 0.0)


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
