"""Two-fluid binary mixture toolkit.

A library for homogeneous two-component mixtures whose thermodynamics is
carried by a single potential W(rho1, rho2, s1, s2, w) depending on the
relative velocity w = u2 - u1:

* :mod:`twofluid.potential`   potential models and derivative evaluation;
* :mod:`twofluid.state`       primitive/evolved state conversion and
  velocity recovery;
* :mod:`twofluid.closures`    drag and heat-exchange laws with sign-definite
  entropy production;
* :mod:`twofluid.hyperbolicity`  Legendre transform to a symmetric system,
  characteristic speeds, hyperbolic-region mapping;
* :mod:`twofluid.solver`      1D finite-volume integrator;
* :mod:`twofluid.verify`      numerical checks of the exact identities
  (dynamic Gibbs identity, conservation, entropy growth, diffusion limit,
  single-fluid reduction);
* :mod:`twofluid.cli`         command-line front end.
"""

__version__ = "0.1.0"

from .closures import (ClosureParams, DissipationForces, drag_and_heat,
                       entropy_production, entropy_sources)
from .hyperbolicity import (assemble_symmetric_system, characteristic_speeds,
                            check_legendre_identities,
                            check_stability_inequalities,
                            critical_relative_velocity, legendre_transform,
                            map_hyperbolic_region, wave_speeds_batch)
from .potential import (AdmissibilityError, PotentialModel,
                        SeparableAddedMass, SeparableAddedMassParams,
                        ThermoEval, evaluate, fd_check_derivatives)
from .solver import (Grid1D, NonHyperbolicError, SimulationConfig, StepError,
                     TimeStepReport, evolved_from_primitive_profiles,
                     integrate, step)
from .state import (ConvergenceError, EvolvedState, PrimitiveState,
                    evolved_to_primitive, mixture_aggregates,
                    primitive_to_evolved, solve_relative_velocity)
from .verify import (ManufacturedField, balance_subidentities,
                     conservation_drift, fick_residual, gibbs_residual,
                     random_trig_fields, single_fluid_reduction)

__all__ = [
    "__version__",
    "AdmissibilityError", "PotentialModel", "SeparableAddedMass",
    "SeparableAddedMassParams", "ThermoEval", "evaluate",
    "fd_check_derivatives",
    "ConvergenceError", "EvolvedState", "PrimitiveState",
    "evolved_to_primitive", "mixture_aggregates", "primitive_to_evolved",
    "solve_relative_velocity",
    "ClosureParams", "DissipationForces", "drag_and_heat",
    "entropy_production", "entropy_sources",
    "assemble_symmetric_system", "characteristic_speeds",
    "check_legendre_identities", "check_stability_inequalities",
    "critical_relative_velocity", "legendre_transform",
    "map_hyperbolic_region", "wave_speeds_batch",
    "Grid1D", "NonHyperbolicError", "SimulationConfig",
    "StepError", "TimeStepReport", "evolved_from_primitive_profiles",
    "integrate", "step",
    "ManufacturedField", "balance_subidentities", "conservation_drift",
    "fick_residual", "gibbs_residual", "random_trig_fields",
    "single_fluid_reduction",
]
