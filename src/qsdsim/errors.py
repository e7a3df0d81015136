"""Exception types shared across the package."""

from __future__ import annotations


class QsdsimError(Exception):
    """Base class for all package-specific errors."""


class TraitAbsent(QsdsimError):
    """Removal of a trait that carries no weight in the configuration."""


class NoMutationMass(QsdsimError):
    """Mutation parent requested but the total mutation rate is zero."""


class InvariantBreach(QsdsimError):
    """A structural invariant was violated at runtime (should not happen)."""


class InvalidRegime(QsdsimError):
    """Parameters outside the regime an operation is defined for."""


class AllExtinct(QsdsimError):
    """Every replica of a conditioned ensemble was extinct at the target time."""


class Degenerate(QsdsimError):
    """Particle system lost all survivors; resampling is impossible."""


class WindowTooSmall(QsdsimError):
    """Too few admissible points for a survival-slope fit."""


class NoSingletonMass(QsdsimError):
    """Estimate puts zero weight on total mass 1; singleton formula undefined."""


class NotNormalized(QsdsimError):
    """A probability vector does not sum to one within tolerance."""


class NoConvergence(QsdsimError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class ConfigError(QsdsimError):
    """Experiment configuration is missing, malformed, or inconsistent."""
