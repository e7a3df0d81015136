import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qsdsim.errors import (InvalidRegime, NoConvergence, SingularSystem,
                           UnsupportedModel)
from qsdsim.oracle import (MassChainOracle, build_mass_chain,
                           check_truncation, eigenpair_report,
                           mean_extinction_time, ode_trajectory,
                           principal_left_eigenpair)
from qsdsim.qsd import tv_distance
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.trait_space import UniformKernel

from closed_forms import bd_qsd


def _sub_generator(chain):
    """The truncated chain's sub-generator as a dense matrix."""
    b, d = chain.births[1:], chain.deaths[1:]
    return np.diag(-(b + d)) + np.diag(b[:-1], 1) + np.diag(d[1:], -1)


def test_build_uniform_chain_by_hand(uniform_model):
    chain = build_mass_chain(uniform_model, 3)
    assert chain.births[1:].tolist() == [1.0, 2.0, 3.0]
    assert chain.deaths[1:].tolist() == [2.0, 4.0, 6.0]
    expected = np.array([
        [-3.0, 1.0, 0.0],
        [4.0, -6.0, 2.0],
        [0.0, 6.0, -9.0],
    ])
    assert np.array_equal(_sub_generator(chain), expected)


def test_build_logistic_death_rate():
    model = LogisticModel(b=1.0, rho=0.3, d=0.5, c=0.5, kernel=UniformKernel())
    chain = build_mass_chain(model, 3)
    assert chain.deaths[3] == 4.5


def test_build_rejects_degenerate_truncation(uniform_model):
    with pytest.raises(UnsupportedModel):
        build_mass_chain(uniform_model, 1)
    with pytest.raises(UnsupportedModel):
        build_mass_chain(uniform_model, 0)


def test_two_state_eigenpair_solved_by_hand(uniform_model):
    # Q = [[-3, 1], [4, -6]] has principal eigenvalue -2 with left
    # vector proportional to (4, 1)
    result = principal_left_eigenpair(build_mass_chain(uniform_model, 2))
    assert result.theta == pytest.approx(2.0, abs=1e-9)
    assert result.nu == pytest.approx([0.0, 0.8, 0.2], abs=1e-9)


def test_truncated_chain_reaches_closed_form(uniform_model, oracle60):
    chain, result = oracle60
    assert abs(result.theta - 1.0) <= 1e-6
    probs, _ = bd_qsd(uniform_model.lam, uniform_model.b, 60)
    assert tv_distance(result.nu, probs) <= 1e-6
    assert result.nu[0] == 0.0
    assert result.iterations >= 1


def test_residual_contract_holds_for_returned_vector(oracle60):
    chain, result = oracle60
    recomputed = float(np.abs(result.nu[1:] @ _sub_generator(chain)
                              + result.theta * result.nu[1:]).sum())
    assert recomputed <= 1e-10
    assert result.residual <= 1e-10


def test_theta_stable_under_deeper_truncation(uniform_model, oracle60):
    _, result = oracle60
    deeper = principal_left_eigenpair(build_mass_chain(uniform_model, 80))
    assert abs(result.theta - deeper.theta) <= 1e-6


def test_direct_solve_matches_dense_eigensolve(logistic_model):
    chain = build_mass_chain(logistic_model, 40)
    values, vectors = np.linalg.eig(_sub_generator(chain).T)
    top = int(np.argmax(values.real))
    dense = np.abs(vectors[:, top].real)
    dense /= dense.sum()
    result = principal_left_eigenpair(chain)
    assert abs(result.theta + values[top].real) <= 1e-9
    assert tv_distance(result.nu, np.concatenate(([0.0], dense))) <= 1e-9
    assert result.iterations == 1


def test_direct_solve_meets_tight_residual_at_deep_truncation(logistic_model):
    # power iteration needed about 185k sweeps here
    chain = build_mass_chain(logistic_model, 200)
    result = principal_left_eigenpair(chain, tol=1e-10)
    recomputed = float(np.abs(result.nu[1:] @ _sub_generator(chain)
                              + result.theta * result.nu[1:]).sum())
    assert result.residual <= 1e-10
    assert recomputed <= 1e-10


def test_crowded_chain_keeps_a_nonnegative_eigenpair():
    # near carrying capacity the decay rate is ~1e-13, below the
    # accuracy of the eigenvalue itself; the row-sum identity keeps it
    # nonnegative and the log-space weights keep nu from overflowing
    model = LogisticModel(b=2.0, rho=0.3, d=1.0, c=0.01, kernel=UniformKernel())
    result = principal_left_eigenpair(build_mass_chain(model, 250))
    assert result.theta >= 0.0
    assert np.all(result.nu >= 0.0)
    assert abs(float(result.nu.sum()) - 1.0) <= 1e-12


def test_eigenpair_error_paths(uniform_model):
    chain = build_mass_chain(uniform_model, 10)
    with pytest.raises(InvalidRegime):
        principal_left_eigenpair(chain, tol=0.0)
    with pytest.raises(NoConvergence):
        principal_left_eigenpair(chain, tol=1e-300)


def test_zero_interior_rate_is_rejected(uniform_model):
    chain = build_mass_chain(uniform_model, 5)
    no_birth, no_death = chain.births.copy(), chain.deaths.copy()
    no_birth[3] = no_death[3] = 0.0
    for births, deaths in ((no_birth, chain.deaths), (chain.births, no_death)):
        with pytest.raises(InvalidRegime):
            principal_left_eigenpair(replace(chain, births=births, deaths=deaths))


def test_truncation_check_flags_a_moving_decay_rate():
    # near criticality theta is 0.074 at N = 60 but 0.053 at N = 120
    model = UniformModel(lam=1.05, b=1.0, rho=0.3, kernel=UniformKernel())
    chain = build_mass_chain(model, 60)
    result = principal_left_eigenpair(chain)
    check = check_truncation(model, chain, result, 1e-10)
    assert abs(check.theta_2N - 0.0533) <= 1e-3
    assert any("at 2N" in warning for warning in check.warnings)


def test_truncation_check_passes_an_adequate_chain(uniform_model, oracle60):
    chain, result = oracle60
    check = check_truncation(uniform_model, chain, result, 1e-10)
    assert check.tail_mass == result.nu[60] and check.tail_mass < 1e-12
    assert abs(check.theta_2N - result.theta) <= 1e-12
    assert check.warnings == ()


def test_mean_extinction_single_state_by_hand():
    # state 1 exits at rate 3 and is absorbed or truncated either way
    oracle = MassChainOracle(N=1, births=np.array([0.0, 1.0]),
                             deaths=np.array([0.0, 2.0]))
    assert mean_extinction_time(oracle, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_mean_extinction_monotone_and_stable(uniform_model):
    chain = build_mass_chain(uniform_model, 60)
    times = [mean_extinction_time(chain, k) for k in range(1, 11)]
    assert all(a < b for a, b in zip(times, times[1:]))
    deeper = build_mass_chain(uniform_model, 80)
    assert abs(times[0] - mean_extinction_time(deeper, 1)) <= 1e-8
    # one-individual start has a closed-form mean lifetime
    assert abs(times[0] - math.log(2.0)) <= 1e-6


def test_mean_extinction_matches_dense_solve(uniform_model, logistic_model):
    for model, N in ((uniform_model, 60), (logistic_model, 120)):
        chain = build_mass_chain(model, N)
        dense = np.linalg.solve(_sub_generator(chain), -np.ones(N))
        summed = np.array([mean_extinction_time(chain, k) for k in range(1, N + 1)])
        assert np.max(np.abs(summed - dense) / dense) <= 1e-13


def _exact_mean_extinction(chain):
    """Q u = -1 solved in exact rationals from the chain's float rates."""
    b = [Fraction(float(x)) for x in chain.births[1:]]
    d = [Fraction(float(x)) for x in chain.deaths[1:]]
    # Thomas elimination of row k: d_k u_{k-1} - (b_k + d_k) u_k + b_k u_{k+1} = -1
    upper, rhs = [], []
    for k in range(chain.N):
        pivot = -(b[k] + d[k])
        right = Fraction(-1)
        if k > 0:
            pivot -= d[k] * upper[-1]
            right -= d[k] * rhs[-1]
        upper.append((b[k] if k < chain.N - 1 else 0) / pivot)
        rhs.append(right / pivot)
    u = [rhs[-1]]
    for k in range(chain.N - 2, -1, -1):
        u.append(rhs[k] - upper[k] * u[-1])
    return [float(x) for x in reversed(u)]


def test_mean_extinction_matches_exact_rational_solve(logistic_model):
    # near carrying capacity the system is so ill-conditioned (times ~1e13)
    # that float linear solves miss by percents
    crowded = LogisticModel(b=2.0, rho=0.3, d=1.0, c=0.01, kernel=UniformKernel())
    for model, N in ((crowded, 250), (logistic_model, 120)):
        chain = build_mass_chain(model, N)
        exact = np.array(_exact_mean_extinction(chain))
        summed = np.array([mean_extinction_time(chain, k) for k in range(1, N + 1)])
        assert np.max(np.abs(summed - exact) / exact) <= 1e-12


def test_mean_extinction_argument_range(uniform_model):
    chain = build_mass_chain(uniform_model, 5)
    with pytest.raises(ValueError):
        mean_extinction_time(chain, 0)
    with pytest.raises(ValueError):
        mean_extinction_time(chain, 6)


def test_singular_first_passage_system():
    oracle = MassChainOracle(N=2, births=np.zeros(3), deaths=np.zeros(3))
    with pytest.raises(SingularSystem):
        mean_extinction_time(oracle, 1)


def test_eigenpair_report_shape(oracle60):
    chain, result = oracle60
    report = eigenpair_report(chain, result)
    assert report["N"] == 60
    assert len(report["nu"]) == 60
    assert report["nu"][0] == pytest.approx(0.5, abs=1e-7)
    assert report["theta"] == result.theta
    assert report["residual"] <= 1e-10
    assert report["iters"] == result.iterations


def test_ode_fixed_point_stays_put():
    ceiling = math.log(2.0)
    path = ode_trajectory(2.0, 1.0, ceiling, 10.0, 0.01)
    assert all(abs(a - ceiling) <= 1e-12 for _, a in path)


def test_ode_converges_to_log_ratio():
    path = ode_trajectory(2.0, 1.0, 0.1, 50.0, 0.01)
    assert path[0] == (0.0, 0.1)
    assert abs(path[-1][1] - math.log(2.0)) <= 1e-6
    values = [a for _, a in path]
    assert all(b >= a for a, b in zip(values, values[1:]))
    early = [a for t, a in path if t <= 20.0]
    assert all(b > a for a, b in zip(early, early[1:]))


def test_ode_partial_final_step():
    path = ode_trajectory(2.0, 1.0, 0.1, 1.05, 0.1)
    times = [t for t, _ in path]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                   0.8, 0.9, 1.0, 1.05])


def test_ode_fourth_order_step_scaling():
    def endpoint(dt):
        return ode_trajectory(2.0, 1.0, 0.1, 2.0, dt)[-1][1]

    coarse = abs(endpoint(0.1) - endpoint(0.05))
    fine = abs(endpoint(0.05) - endpoint(0.025))
    assert 10.0 <= coarse / fine <= 20.0


def test_ode_regime_checks():
    with pytest.raises(InvalidRegime):
        ode_trajectory(1.0, 1.0, 0.1, 1.0, 0.1)
    with pytest.raises(InvalidRegime):
        ode_trajectory(1.0, 2.0, 0.1, 1.0, 0.1)
    with pytest.raises(InvalidRegime):
        ode_trajectory(2.0, -1.0, 0.1, 1.0, 0.1)
    with pytest.raises(InvalidRegime):
        ode_trajectory(2.0, 1.0, 0.0, 1.0, 0.1)
    with pytest.raises(InvalidRegime):
        ode_trajectory(2.0, 1.0, math.log(2.0) + 0.01, 1.0, 0.1)
    with pytest.raises(InvalidRegime):
        ode_trajectory(2.0, 1.0, 0.1, 1.0, 0.0)
    with pytest.raises(InvalidRegime):
        ode_trajectory(2.0, 1.0, 0.1, -1.0, 0.1)
