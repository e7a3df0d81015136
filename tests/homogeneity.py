"""Count-vector helpers the statistical tests share: a clamped mass histogram
and a two-sample chi-square homogeneity statistic."""

from typing import Sequence

import numpy as np


def mass_histogram(masses: Sequence[int], kmax: int = 15) -> np.ndarray:
    """Counts over masses 0..kmax with everything above clamped to kmax."""
    clipped = np.minimum(np.asarray(masses, dtype=int), kmax)
    return np.bincount(clipped, minlength=kmax + 1)


def two_sample_chi2(counts_a: Sequence[int], counts_b: Sequence[int]) -> tuple[float, int]:
    """Homogeneity statistic and degrees of freedom for two count vectors.

    Bins whose pooled expected count falls below 5 in either sample are
    merged into a shared spill bin to keep the chi-square approximation
    honest.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    n = max(len(a), len(b))
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    pooled = (a + b) / (na + nb)
    keep = (na * pooled >= 5.0) & (nb * pooled >= 5.0)
    rows = [(a[keep], b[keep])]
    if not keep.all():
        rows.append((np.array([a[~keep].sum()]), np.array([b[~keep].sum()])))
    a = np.concatenate([r[0] for r in rows])
    b = np.concatenate([r[1] for r in rows])
    if len(a) < 2:
        return 0.0, 1
    stat = 0.0
    for ak, bk in zip(a, b):
        pk = (ak + bk) / (na + nb)
        ea, eb = na * pk, nb * pk
        if ea > 0.0:
            stat += (ak - ea) ** 2 / ea
        if eb > 0.0:
            stat += (bk - eb) ** 2 / eb
    return float(stat), len(a) - 1
