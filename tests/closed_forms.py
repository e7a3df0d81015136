"""Closed forms the tests compare simulated and solved laws against."""

import numpy as np

from qsdsim.errors import InvalidRegime


def bd_qsd(lam: float, b: float, kmax: int) -> tuple[np.ndarray, float]:
    """Geometric quasi-stationary law of the linear birth-death chain.

    Returns the probability vector over masses 0..kmax (index 0 always
    zero), renormalized over the truncation, together with the
    geometric tail mass beyond kmax that was cut off.
    """
    if lam <= 0.0 or b <= 0.0:
        raise InvalidRegime(f"rates must be positive, got lam={lam!r}, b={b!r}")
    if lam <= b:
        raise InvalidRegime(
            f"no quasi-stationary law for lam={lam!r} <= b={b!r}: the chain is not"
            " subcritical"
        )
    if kmax < 1:
        raise InvalidRegime(f"kmax must be a positive integer, got {kmax!r}")
    ratio = b / lam
    probs = np.zeros(kmax + 1)
    probs[1:] = (1.0 - ratio) * ratio ** np.arange(kmax)
    tail = ratio ** kmax
    probs /= probs[1:].sum()
    return probs, tail
