"""End-to-end acceptance battery.

Each test exercises one headline claim at full scale and emits a
single verdict line through the terminal reporter, so the lines show
up in a plain ``pytest -v`` run. The statistical criteria use fixed
seeds, so a pass here is reproducible rather than merely probable.
"""

import json
import math
import time

import numpy as np
import pytest

from qsdsim.cli import main
from qsdsim.configuration import Configuration
from qsdsim.coupling import CoupledState, coupled_path
from qsdsim.errors import InvariantBreach
from qsdsim.oracle import (build_mass_chain, ode_trajectory,
                           principal_left_eigenpair)
from qsdsim.qsd import (decay_rate_from_singletons, decay_rate_from_survival,
                        tv_distance, yaglom_estimate)
from qsdsim.simulator import (ENGINES, hitting_tail, mass_moments,
                              survival_curve)
from qsdsim.streams import RandomStream
from qsdsim.validation import (Indicator, Mass, chi2_threshold, lyapunov_check,
                               mass_histogram, martingale_residual,
                               two_sample_chi2)

from closed_forms import bd_qsd


@pytest.fixture(scope="session")
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
        if reporter is None:
            print(line)
        else:
            reporter.write_line(line)
        assert ok, f"criterion {num}: {detail}"

    return emit


def test_criterion_01_oracle_matches_geometric_closed_form(uniform_model, verdict):
    start = time.perf_counter()
    chain = build_mass_chain(uniform_model, 60)
    result = principal_left_eigenpair(chain, tol=1e-10)
    elapsed = time.perf_counter() - start
    probs, _ = bd_qsd(uniform_model.lam, uniform_model.b, 60)
    tv = tv_distance(result.nu, probs)
    theta_err = abs(result.theta - 1.0)
    ok = tv <= 1e-6 and theta_err <= 1e-6 and elapsed < 1.0
    verdict(1, "oracle eigenpair vs closed form", ok,
             f"tv={tv:.2e}, theta err={theta_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_decay_rate_from_survival_slope(uniform_model, fv_estimate,
                                                      verdict):
    grid = tuple(np.arange(0.25, 3.0, 0.25))
    curve = survival_curve(uniform_model, fv_estimate, grid, 200_000,
                           RandomStream(201))
    slope, stderr = decay_rate_from_survival(curve)
    ok = abs(slope - 1.0) <= 0.05
    verdict(2, "survival slope from stationary start", ok,
             f"slope={slope:.4f} +- {stderr:.4f}, want 1.00 +- 0.05")


def test_criterion_03_singleton_weight_identity(uniform_model, fv_estimate,
                                                verdict):
    theta = decay_rate_from_singletons(uniform_model, fv_estimate)
    ok = abs(theta - 1.0) <= 0.1
    verdict(3, "singleton death-rate integral", ok,
             f"lambda*weight(1)={theta:.4f}, want within 10% of 1")


def test_criterion_04_estimators_agree_with_each_other_and_truth(
        uniform_model, fv_estimate, verdict):
    yag = yaglom_estimate(uniform_model, Configuration.singleton(0.5), 6.0,
                          1_000_000, RandomStream(401))
    probs, _ = bd_qsd(uniform_model.lam, uniform_model.b, 60)
    cross = tv_distance(yag.mass_marginal, fv_estimate.mass_marginal)
    yag_truth = tv_distance(yag.mass_marginal, probs)
    fv_truth = tv_distance(fv_estimate.mass_marginal, probs)
    ok = cross <= 0.05 and yag_truth <= 0.05 and fv_truth <= 0.05
    verdict(4, "conditioned vs interacting estimates", ok,
             f"cross tv={cross:.4f}, vs truth {yag_truth:.4f}/{fv_truth:.4f},"
             f" {yag.particles} independent survivors")


def test_criterion_05_conditioned_evolution_is_a_fixed_point(uniform_model,
                                                             fv_estimate, verdict):
    evolved = yaglom_estimate(uniform_model, fv_estimate, 1.0, 200_000,
                              RandomStream(501))
    tv = tv_distance(evolved.mass_marginal, fv_estimate.mass_marginal)
    ok = tv <= 0.05
    verdict(5, "evolve-and-condition stability", ok,
             f"tv={tv:.4f} after t=1, {evolved.particles} independent survivors")


def test_criterion_06_engines_share_the_time_one_law(uniform_model,
                                                     logistic_model, verdict):
    initial = Configuration.from_pairs(((0.3, 1), (0.7, 1)))
    details = []
    ok = True
    for tag, model in (("uniform", uniform_model), ("logistic", logistic_model)):
        hists = {}
        for lane, engine in enumerate(sorted(ENGINES)):
            stream = RandomStream(601, (lane,))
            masses = [ENGINES[engine](model, initial, 1.0, gen).final.total_mass
                      for gen in stream.replica_generators(0, 100_000)]
            hists[engine] = mass_histogram(masses)
        stat, df = two_sample_chi2(hists["gillespie"], hists["thinning"])
        cut = chi2_threshold(df)
        ok = ok and stat <= cut
        details.append(f"{tag} chi2={stat:.1f}<{cut:.1f} (df={df})")
    verdict(6, "engine equivalence at t=1", ok, ", ".join(details))


def test_criterion_07_counter_dominates_mass(uniform_model, logistic_model,
                                             verdict):
    initial = Configuration.from_pairs(((0.25, 2), (0.75, 1)))
    violations = 0
    paths = 0
    for lane, model in enumerate((uniform_model, logistic_model)):
        stream = RandomStream(701, (lane,))
        for gen in stream.replica_generators(0, 10_000):
            try:
                path = coupled_path(model, CoupledState(initial, 3), 2.0, gen)
            except InvariantBreach:
                violations += 1
                continue
            paths += 1
            if any(s.config.total_mass > s.counter for _, s in path):
                violations += 1
    ok = violations == 0 and paths == 20_000
    verdict(7, "pathwise domination", ok,
             f"{violations} violations over {paths} coupled paths")


def test_criterion_08_martingale_residuals_are_noise(uniform_model,
                                                     logistic_model,
                                                     mass_five, verdict):
    two = Configuration.from_pairs(((0.5, 2),))
    cases = (
        ("uniform/mass", uniform_model, Mass(), mass_five),
        ("logistic/indicator", logistic_model, Indicator(1), two),
    )
    ok = True
    details = []
    for j, (tag, model, f, initial) in enumerate(cases):
        for i, t in enumerate((0.5, 1.0)):
            mean, stderr = martingale_residual(model, f, initial, t, 100_000,
                                               RandomStream(801, (j, i)))
            ok = ok and abs(mean) <= 3.0 * stderr
            details.append(f"{tag}@t={t}: {mean:+.2e} (se {stderr:.1e})")
    verdict(8, "martingale residuals", ok, "; ".join(details))


def test_criterion_09_mean_mass_decays_exactly(uniform_model, mass_five,
                                               verdict):
    rows = mass_moments(uniform_model, mass_five, (0.25, 0.5, 1.0), 100_000,
                        RandomStream(901))
    worst = max(abs(mean - 5.0 * math.exp(-t)) / (3.0 * se)
                for t, mean, se in rows)
    ok = worst <= 1.0
    verdict(9, "mean mass follows exp(-t)", ok,
             f"worst |dev|/3se={worst:.3f} over t=0.25,0.5,1.0")


def test_criterion_10_hitting_tails_fall_at_least_linearly(uniform_model,
                                                           mass_five, verdict):
    tails = hitting_tail(uniform_model, mass_five, 1.0, range(7, 16), 100_000,
                         RandomStream(1001))
    probs = [p for _, p in tails]
    positive = all(p > 0.0 for p in probs)
    monotone = all(a >= b for a, b in zip(probs, probs[1:]))
    slope = float(np.polyfit([k for k, _ in tails], np.log(probs), 1)[0])
    ok = positive and monotone and slope <= -0.2
    verdict(10, "log hitting tail decreases linearly", ok,
             f"slope={slope:.3f} per unit mass, tails"
             f" {probs[0]:.3f}..{probs[-1]:.2e}")


def test_criterion_11_exponential_moment_bound(uniform_model, logistic_model,
                                               verdict):
    path = ode_trajectory(2.0, 1.0, 0.1, 50.0, 0.01)
    values = [a for _, a in path]
    ode_ok = (abs(values[-1] - math.log(2.0)) <= 1e-6
              and all(b >= a for a, b in zip(values, values[1:])))
    initial = Configuration.from_pairs(((0.5, 3),))
    flagged = 0
    for lane, model in enumerate((uniform_model, logistic_model)):
        points = lyapunov_check(model, initial, 0.3, (0.5, 1.0, 2.0), 100_000,
                                RandomStream(1101, (lane,)))
        flagged += sum(p.flagged for p in points)
    ok = ode_ok and flagged == 0
    verdict(11, "comparison ODE and moment bound", ok,
             f"a(50) err={abs(values[-1] - math.log(2.0)):.1e},"
             f" {flagged} flagged grid points")


def test_criterion_12_reruns_are_byte_identical(tmp_path, verdict):
    flags = ["--kind", "uniform", "--lambda", "2.0", "--b", "1.0",
             "--rho", "0.3"]
    fv_cfg = tmp_path / "fv.cfg"
    fv_cfg.write_text(
        "model.kind = uniform\nmodel.lambda = 2.0\nmodel.b = 1.0\n"
        "model.rho = 0.3\nrun.burn_in = 1.0\n")
    ref_a = tmp_path / "ref_a"
    ref_b = tmp_path / "ref_b"
    assert main(["oracle", *flags, "--truncation", "30", "--out", str(ref_a)]) == 0
    assert main(["oracle", *flags, "--truncation", "40", "--out", str(ref_b)]) == 0

    def run_all(out):
        assert main(["oracle", *flags, "--out", str(out)]) == 0
        assert main(["simulate", *flags, "--engine", "thinning",
                     "--t-max", "2.0", "--out", str(out)]) == 0
        assert main(["survival", *flags, "--replicas", "2000",
                     "--t-max", "3.0", "--out", str(out)]) == 0
        assert main(["qsd-yaglom", *flags, "--replicas", "2000",
                     "--t-max", "1.0", "--out", str(out)]) == 0
        assert main(["qsd-fv", "--config", str(fv_cfg), "--particles", "100",
                     "--t-max", "6.0", "--out", str(out)]) == 0
        assert main(["validate", *flags, "--replicas", "300",
                     "--out", str(out)]) == 0
        assert main(["compare", str(ref_a / "oracle.json"),
                     str(ref_b / "oracle.json"), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    same = first == second
    verdict(12, "byte-identical reruns", same,
             f"{len(first)} artifacts compared across two runs")
    payload = json.loads((tmp_path / "one" / "oracle.json").read_text())
    assert {"config_hash", "seed", "tool_version"} <= set(payload)
