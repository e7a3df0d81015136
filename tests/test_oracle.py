from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qsdsim.errors import InvalidRegime, NoConvergence
from qsdsim.oracle import (_mass_rates, build_mass_chain, check_truncation, eigenpair_report,
                           principal_left_eigenpair)
from qsdsim.qsd import tv_distance
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.trait_space import UniformKernel

from closed_forms import bd_qsd
from ensembles import CountingDeaths


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


@pytest.mark.parametrize("model", [
    UniformModel(lam=2.3, b=0.7, rho=0.3, kernel=UniformKernel()),
    LogisticModel(b=1.3, rho=0.3, d=1.7, c=0.13, kernel=UniformKernel()),
    # d < c makes d(0) = d - c negative, so evaluating mass 0 would raise
    CountingDeaths(b=1.0, rho=0.3, d=0.2, c=0.5, kernel=UniformKernel()),
])
def test_array_built_rates_are_the_scalar_mass_rates_bit_for_bit(model):
    N = 40
    chain = build_mass_chain(model, N)
    check_truncation(model, chain, principal_left_eigenpair(chain), 1e-10)
    births, deaths = _mass_rates(model, 2 * N)
    assert births[0] == deaths[0] == 0.0
    assert np.array_equal(chain.births, births[:N + 1])
    assert np.array_equal(chain.deaths, deaths[:N + 1])
    want = [model.mass_birth_death_rates(k) for k in range(1, 2 * N + 1)]
    assert list(zip(births[1:].tolist(), deaths[1:].tolist())) == want
    if isinstance(model, CountingDeaths):
        assert min(model.masses) == 1


def test_build_rejects_degenerate_truncation(uniform_model):
    with pytest.raises(InvalidRegime):
        build_mass_chain(uniform_model, 1)
    with pytest.raises(InvalidRegime):
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


def test_a_residual_out_of_reach_names_the_truncation_and_the_regime():
    # deaths of 1e-300 against births of 3n leave a residual of 6.0 at any
    # truncation; no tolerance worth the name would accept it
    model = LogisticModel(b=3.0, rho=0.3, d=1e-300, c=1e-300, kernel=UniformKernel())
    with pytest.raises(NoConvergence) as info:
        principal_left_eigenpair(build_mass_chain(model, 50))
    message = str(info.value)
    assert "N = 50" in message and "run.truncation" in message
    assert "regime" in message and "loosen" not in message


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


def test_eigenpair_report_shape(oracle60):
    chain, result = oracle60
    report = eigenpair_report(chain, result)
    assert report["N"] == 60
    assert len(report["nu"]) == 60
    assert report["nu"][0] == pytest.approx(0.5, abs=1e-7)
    assert report["theta"] == result.theta
    assert report["residual"] <= 1e-10
    assert report["iters"] == result.iterations


def _theta_at_60_digits(chain) -> mpmath.mpf:
    """theta of the truncated chain by inverse iteration at shift 0, in 60-digit arithmetic.

    Each step solves x (-Q) = v for the tridiagonal sub-generator Q, whose
    top row loses its births as the oracle's does, by elimination on the
    transposed bands, and normalises x to sum 1; theta is then the rate
    at which mass leaves, nu_1 d_1 + nu_N b_N. The rates are the chain's
    floats, so only the solve differs from the oracle's.
    """
    with mpmath.workdps(60):
        b = [mpmath.mpf(float(x)) for x in chain.births[1:]]
        d = [mpmath.mpf(float(x)) for x in chain.deaths[1:]]
        n = len(b)
        # (-Q)^T: diagonal b_k + d_k, d_{k+1} above it and b_k below it, both negated
        diag = [b[k] + d[k] for k in range(n)]
        nu, theta = [mpmath.mpf(1) / n] * n, mpmath.mpf(0)
        for _ in range(5000):
            pivot, rhs = diag[:], nu[:]
            for k in range(1, n):
                ratio = -b[k - 1] / pivot[k - 1]
                pivot[k] += ratio * d[k]
                rhs[k] -= ratio * rhs[k - 1]
            x = [mpmath.mpf(0)] * n
            x[-1] = rhs[-1] / pivot[-1]
            for k in range(n - 2, -1, -1):
                x[k] = (rhs[k] + d[k + 1] * x[k + 1]) / pivot[k]
            total = mpmath.fsum(x)
            nu = [v / total for v in x]
            last, theta = theta, nu[0] * d[0] + nu[-1] * b[-1]
            if abs(theta - last) <= mpmath.mpf(10) ** -55 * theta:
                return theta
    raise AssertionError("inverse iteration did not settle in 5000 steps")


# the three benchmark workloads' models at their oracle truncations
WORKLOAD_CHAINS = {
    "ensemble": (UniformModel(lam=2.0, b=1.0, rho=0.3, kernel=UniformKernel()), 60),
    "particles": (LogisticModel(b=1.0, rho=0.3, d=2.0, c=0.5, kernel=UniformKernel()), 120),
    "crowded": (LogisticModel(b=2.0, rho=0.3, d=1.0, c=0.01, kernel=UniformKernel()), 250),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CHAINS))
def test_oracle_theta_matches_a_60_digit_solve(workload):
    # crowded's theta is about 1e-13, below the l1 residual that certifies
    # nu, so theta gets a reference of its own
    model, N = WORKLOAD_CHAINS[workload]
    chain = build_mass_chain(model, N)
    exact = _theta_at_60_digits(chain)
    theta = principal_left_eigenpair(chain).theta
    assert abs(mpmath.mpf(theta) - exact) <= mpmath.mpf(1e-12) * exact
