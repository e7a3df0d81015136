"""Compact trait space [0, 1], its base measure, and mutation kernels.

The trait space is the unit interval with the uniform base measure.
A mutation kernel gives, for each parent trait, a probability density
for the child trait with respect to the base measure. Every kernel here
is strictly positive on the whole square, so mutation can reach any
region of the space from any parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidRegime

TraitPoint = float

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Parents a Gaussian kernel keeps its normalisation for in density; the
# memo starts over when full, so a long run with many distinct traits
# stays small.
_WINDOWS = 256


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

    Subclasses implement ``density``, ``sample``, ``inverse_cdf`` and
    ``sup_density``. Densities are with respect to
    the base measure and integrate to one over [0, 1] for every parent.
    ``sample`` draws only through ``rng.random()``, one uniform at a
    time, so that ``rng`` may be a Generator or a
    :class:`~qsdsim.streams.Uniforms` over one; ``inverse_cdf`` gives on
    arrays, bit for bit, what ``sample`` returns for each uniform.
    """

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        raise NotImplementedError

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        raise NotImplementedError

    def inverse_cdf(self, parents: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The children ``sample`` draws from ``parents`` when ``rng.random()`` gives ``u``."""
        raise NotImplementedError

    def sup_density(self) -> float:
        """Finite upper bound for the density over parents and children."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformKernel(MutationKernel):
    """Child trait independent of the parent, uniform on [0, 1]."""

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        return 1.0

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        return float(rng.random())

    def inverse_cdf(self, parents: np.ndarray, u: np.ndarray) -> np.ndarray:
        return u

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
    # (Phi(-parent/scale), window mass) by parent, up to _WINDOWS entries,
    # for density; a memo only, left out of equality, hashing and repr
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.scale > 0.0):
            raise InvalidRegime(f"kernel scale must be positive, got {self.scale!r}")

    def _window(self, parent):
        # the standard normal CDF at the lower end of [0, 1] and the mass
        # of [0, 1], both seen from the parent; floats or arrays
        s = self.scale
        lo = ndtr(-parent / s)
        return lo, ndtr((1.0 - parent) / s) - lo

    def _window_at(self, parent: float) -> tuple[float, float]:
        window = self._windows.get(parent)
        if window is None:
            if len(self._windows) >= _WINDOWS:
                self._windows.clear()
            lo, mass = self._window(parent)
            window = self._windows[parent] = (float(lo), float(mass))
        return window

    def _quantile(self, parent, u, lo, mass):
        # the inverse CDF before clipping, on floats or arrays alike
        return parent + self.scale * ndtri(lo + u * mass)

    def density(self, parent: TraitPoint, child: TraitPoint) -> float:
        s = self.scale
        z = (child - parent) / s
        return math.exp(-0.5 * z * z) / (_SQRT_2PI * s * self._window_at(parent)[1])

    def sample(self, parent: TraitPoint, rng: np.random.Generator) -> TraitPoint:
        # Inverse-CDF transform of a single uniform draw; clipping guards
        # against the last-ulp excursions of ndtri near the endpoints.
        # The window is computed afresh: draws rarely repeat a parent, while
        # thinning's density reads do, so only density memoises it.
        z = float(self._quantile(parent, rng.random(), *self._window(parent)))
        return min(max(z, 0.0), 1.0)

    def inverse_cdf(self, parents: np.ndarray, u: np.ndarray) -> np.ndarray:
        z = self._quantile(parents, u, *self._window(parents))
        return np.minimum(np.maximum(z, 0.0), 1.0)

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
