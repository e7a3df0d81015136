"""Compact trait space [0, 1], its base measure, and mutation kernels.

The trait space is the unit interval with the uniform base measure.
A mutation kernel gives, for each parent trait, a probability density
for the child trait with respect to the base measure. Every kernel here
is strictly positive on the whole square, so mutation can reach any
region of the space from any parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidRegime

TraitPoint = float

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def validate_trait(x: float) -> float:
    """Return x unchanged if it lies in [0, 1], else raise ValueError."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"trait coordinate {x!r} outside [0, 1]")
    return x


def sample_base(rng: np.random.Generator) -> TraitPoint:
    """One draw from the base measure (uniform on [0, 1])."""
    return float(rng.random())


class MutationKernel:
    """Family of child-trait densities indexed by the parent trait.

    Subclasses implement ``density``, ``cdf``, ``sample`` and
    ``sup_density``. Densities are with respect to the base measure and
    integrate to one over [0, 1] for every parent. ``sample`` draws only
    through ``rng.random()``, one uniform at a time, so that ``rng`` may
    be a Generator or a :class:`~qsdsim.streams.Uniforms` over one.
    """

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        raise NotImplementedError

    def cdf(self, parent: TraitPoint, x: float) -> float:
        raise NotImplementedError

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        raise NotImplementedError

    def sup_density(self) -> float:
        """Finite upper bound for the density over parents and children."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformKernel(MutationKernel):
    """Child trait independent of the parent, uniform on [0, 1]."""

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        return 1.0

    def cdf(self, parent: TraitPoint, x: float) -> float:
        return min(max(x, 0.0), 1.0)

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        return float(rng.random())

    def sup_density(self) -> float:
        return 1.0


@dataclass(frozen=True)
class TruncatedGaussianKernel(MutationKernel):
    """Gaussian step around the parent, truncated and renormalized to [0, 1].

    Parameters
    ----------
    scale : float
        Standard deviation of the untruncated Gaussian step. Must be
        positive.
    """

    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0.0):
            raise InvalidRegime(f"kernel scale must be positive, got {self.scale!r}")

    def _normalization(self, parent: float) -> float:
        s = self.scale
        return float(ndtr((1.0 - parent) / s) - ndtr(-parent / s))

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        s = self.scale
        z = (child - parent) / s
        return math.exp(-0.5 * z * z) / (_SQRT_2PI * s * self._normalization(parent))

    def cdf(self, parent: TraitPoint, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        s = self.scale
        lo = ndtr(-parent / s)
        return float((ndtr((x - parent) / s) - lo) / self._normalization(parent))

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        # Inverse-CDF transform of a single uniform draw; clipping guards
        # against the last-ulp excursions of ndtri near the endpoints.
        s = self.scale
        lo = ndtr(-parent / s)
        u = lo + rng.random() * self._normalization(parent)
        z = parent + s * float(ndtri(u))
        return min(max(z, 0.0), 1.0)

    def sup_density(self) -> float:
        # The mode sits at child = parent and the normalization is
        # smallest at the endpoints, where it equals ndtr(1/s) - 1/2.
        z_min = float(ndtr(1.0 / self.scale)) - 0.5
        return 1.0 / (_SQRT_2PI * self.scale * z_min)


def make_kernel(family: str, scale: float | None = None) -> MutationKernel:
    """Build a kernel from its config name.

    ``family`` is "uniform" or "truncated_gaussian"; the latter requires
    ``scale``.
    """
    if family == "uniform":
        return UniformKernel()
    if family == "truncated_gaussian":
        if scale is None:
            raise InvalidRegime("truncated_gaussian kernel requires a scale")
        return TruncatedGaussianKernel(scale=scale)
    raise InvalidRegime(f"unknown kernel family {family!r}")
