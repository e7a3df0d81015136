"""Finite-state ground truth for trait-blind models.

When every rate depends on the configuration only through its total
mass, the mass process is itself Markov on the nonnegative integers
with 0 absorbing. Truncating at N and dropping births from the top
state leaves a strict sub-generator whose principal left eigenpair
gives the decay rate and the mass marginal of the limit law to any
accuracy the truncation supports. The matrix is tridiagonal, so this
module keeps only its two rate bands, read from the model's mass-chain
rates in one array call on the states 1..N: it solves for the
eigenpair directly through the symmetric tridiagonal form and checks
the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidRegime, NoConvergence
from .rates import RateModel


@dataclass(frozen=True)
class MassChainOracle:
    """Truncated mass chain on states 1..N.

    ``births`` and ``deaths`` are indexed by state with entry 0 unused.
    Row k of the sub-generator has -(b_k + d_k) on the diagonal, b_k
    right of it for k < N and d_k left of it for k > 1.
    """

    N: int
    births: np.ndarray
    deaths: np.ndarray


def _mass_rates(model: RateModel, N: int) -> tuple[np.ndarray, np.ndarray]:
    # one array call on the states 1..N; mass 0 is never evaluated
    births, deaths = model.mass_birth_death_rates(np.arange(1, N + 1))
    return np.pad(births, (1, 0)), np.pad(deaths, (1, 0))


def build_mass_chain(model: RateModel, N: int) -> MassChainOracle:
    """Tabulate the truncated chain's rates from the model's mass rates.

    Raises InvalidRegime as :meth:`~qsdsim.rates.RateModel.check_regime` does.
    """
    if N < 2:
        raise InvalidRegime(f"truncation must be at least 2, got {N!r}")
    model.check_regime()
    return MassChainOracle(N, *_mass_rates(model, N))


class EigenpairResult(NamedTuple):
    theta: float
    nu: np.ndarray
    residual: float
    iterations: int


def _band_eigenpair(births: np.ndarray, deaths: np.ndarray) -> EigenpairResult:
    """Principal left eigenpair of the chain with these rates; no residual bound.

    Detailed balance pi_{k+1} = pi_k b_k / d_{k+1} makes the
    sub-generator similar to the symmetric tridiagonal matrix with
    diagonal -(b_k + d_k) and off-diagonal sqrt(b_k d_{k+1}), whose top
    eigenvector u gives nu_k proportional to u_k sqrt(pi_k) (van Doorn
    1991). Both pi and nu are formed in log space so neither overflows.
    The Perron vector is positive, so entries that round to the wrong
    sign far in the tail are taken in absolute value. theta comes from
    the row sums, nu_1 d_1 + nu_N b_N, and is nonnegative by
    construction.
    """
    b, d = births[1:], deaths[1:]
    up, down = b[:-1], d[1:]
    if not (np.all(up > 0.0) and np.all(down > 0.0)):
        raise InvalidRegime(
            "interior rates must be positive: b_k for k < N and d_k for k >= 2")
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
    _, u = eigh_tridiagonal(-(b + d), np.sqrt(up * down), select="i",
                            select_range=(len(b) - 1, len(b) - 1))
    with np.errstate(divide="ignore"):
        log_nu = np.log(np.abs(u[:, 0])) + 0.5 * log_pi
    nu = np.exp(log_nu - log_nu.max())
    nu /= nu.sum()
    theta = float(nu[0] * d[0] + nu[-1] * b[-1])
    # l1 residual of nu Q + theta nu, one band at a time
    flow = (theta - b - d) * nu
    flow[1:] += nu[:-1] * up
    flow[:-1] += nu[1:] * down
    full = np.zeros(len(b) + 1)
    full[1:] = nu
    return EigenpairResult(theta=theta, nu=full, residual=float(np.abs(flow).sum()),
                           iterations=1)


def principal_left_eigenpair(oracle: MassChainOracle,
                             tol: float = 1e-10) -> EigenpairResult:
    """Decay rate and limit mass law of the truncated chain.

    One direct symmetric tridiagonal eigensolve. The l1 residual of
    nu Q = -theta nu is recomputed from the rates and must be within
    tol. ``nu`` is returned over masses 0..N with index 0 zero.
    """
    if tol <= 0.0:
        raise InvalidRegime(f"tol must be positive, got {tol!r}")
    result = _band_eigenpair(oracle.births, oracle.deaths)
    if not result.residual <= tol:
        raise NoConvergence(
            f"eigenpair residual {result.residual!r} above {tol!r} at truncation"
            f" N = {oracle.N}: the solve loses its accuracy where birth and death rates"
            " lie many orders of magnitude apart; try another run.truncation, or check"
            " the model's regime")
    return result


class TruncationCheck(NamedTuple):
    tail_mass: float
    theta_2N: float
    warnings: tuple[str, ...]


def check_truncation(model: RateModel, oracle: MassChainOracle,
                     result: EigenpairResult, tol: float) -> TruncationCheck:
    """Whether truncating at N distorts the eigenpair.

    Flags a limit law with more than 1e-12 of its mass on the top state,
    and a decay rate that moves by more than max(1e-6 theta, tol) when
    the truncation is doubled. The doubled chain is solved from its
    rates alone.
    """
    tail = float(result.nu[-1])
    theta_2N = _band_eigenpair(*_mass_rates(model, 2 * oracle.N)).theta
    warnings = []
    if tail > 1e-12:
        warnings.append(f"nu[N] = {tail:.3g} is above 1e-12; raise the truncation")
    if abs(result.theta - theta_2N) > max(1e-6 * result.theta, tol):
        warnings.append(f"theta = {result.theta:.10g} at N = {oracle.N} but"
                        f" {theta_2N:.10g} at 2N; raise the truncation")
    return TruncationCheck(tail_mass=tail, theta_2N=theta_2N, warnings=tuple(warnings))


def eigenpair_report(oracle: MassChainOracle, result: EigenpairResult) -> dict:
    """JSON-ready oracle summary; nu starts at mass 1."""
    return {
        "N": oracle.N,
        "theta": result.theta,
        "nu": [float(x) for x in result.nu[1:]],
        "residual": result.residual,
        "iters": result.iterations,
    }
