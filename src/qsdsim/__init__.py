"""Simulation and estimation toolkit for absorbed measure-valued
birth-death-mutation population processes on the unit interval.

The population is a finite point measure over trait space; individuals
clone, mutate through a kernel, and die, and the empty state absorbs.
The package pairs exact event-driven simulation with quasi-stationary
estimators and a finite-state oracle so every headline quantity is
checkable by at least two independent routes.
"""

__version__ = "0.1.0"

from .configuration import Configuration, parse_configuration
from .coupling import CoupledState, coupled_path, step_coupled
from .errors import (AllExtinct, ConfigError, Degenerate, InvalidRegime,
                     InvariantBreach, NoConvergence, NoMutationMass,
                     NoSingletonMass, NotNormalized, QsdsimError, SingularSystem,
                     TraitAbsent, UnsupportedModel, WindowTooSmall)
from .oracle import (MassChainOracle, build_mass_chain, mean_extinction_time,
                     ode_trajectory, principal_left_eigenpair)
from .qsd import (QsdEstimate, decay_rate_from_singletons,
                  decay_rate_from_survival, fleming_viot_estimate, tv_distance,
                  yaglom_estimate)
from .rates import LogisticModel, RateModel, UniformModel, sample_mutation_parent
from .simulator import (Event, EventKind, Trajectory, hitting_tail,
                        simulate_gillespie, simulate_thinning, survival_curve)
from .streams import RandomStream
from .trait_space import (MutationKernel, TruncatedGaussianKernel, UniformKernel,
                          distance, make_kernel, sample_base)
from .validation import (BoundedCustom, ExpMass, Indicator, Mass, TestFunction,
                         generator_apply, lyapunov_check, martingale_residual)

__all__ = [name for name in dir() if not name.startswith("_")]
