"""Dissipative closures: Stokes-like drag and internal heat exchange.

The drag force on component 1 is
    f1 = k * ((u2 - u)/theta2 - (u1 - u)/theta1),      f2 = -f1,
with u the mixture velocity, and the internal heat exchange is
    q1 = kappa * (1/theta2 - 1/theta1),                q2 = -q1.
The inverse temperatures (coldness) in these laws are exactly what makes the
entropy production sign-definite: production = f1^2/k + q1^2/kappa >= 0.
Setting k = kappa = 0 recovers the conservative model.

Since u2 - u = rho1 w / rho and u1 - u = -rho2 w / rho, the drag is linear
in the relative velocity w = u2 - u1 at fixed densities and temperatures:
f1 = zeta w with zeta = k (rho1/theta2 + rho2/theta1) / rho
(:func:`stage_sources`), which is what lets the solver integrate it
exactly in time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import ArrayLike
from .state import PrimitiveState, mixture_aggregates


@dataclass(frozen=True)
class ClosureParams:
    k: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.k < 0.0:
            raise ValueError("k must be nonnegative")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")


@dataclass(frozen=True, eq=False)
class DissipationForces:
    f1: ArrayLike
    f2: ArrayLike
    q1: ArrayLike
    q2: ArrayLike


def _require_positive_temperatures(theta1, theta2):
    for name, th in (("theta1", theta1), ("theta2", theta2)):
        if np.any(np.asarray(th) <= 0.0):
            raise ValueError(f"{name} must be positive")


def _coefficients(params: ClosureParams, p: PrimitiveState, theta1, theta2):
    """(zeta, q1) after one check of the temperatures: the drag coefficient
    zeta = k (rho1/theta2 + rho2/theta1) / rho, f1 = zeta w, and q1."""
    _require_positive_temperatures(theta1, theta2)
    return (params.k * (p.rho1 / theta2 + p.rho2 / theta1) / (p.rho1 + p.rho2),
            params.kappa * (1.0 / theta2 - 1.0 / theta1))


def drag_and_heat(params: ClosureParams, p: PrimitiveState,
                  theta1, theta2) -> DissipationForces:
    """Antisymmetric drag/heat pair; f1 + f2 = 0 and q1 + q2 = 0 exactly."""
    zeta, q1 = _coefficients(params, p, theta1, theta2)
    f1 = zeta * p.w
    return DissipationForces(f1=f1, f2=-f1, q1=q1, q2=-q1)


def stage_sources(params: ClosureParams, p: PrimitiveState, theta1, theta2):
    """(zeta, (src1, src2)) of a solver stage from one temperature check:
    the drag coefficient and the entropy rates of the heat exchange alone,
    :func:`entropy_sources` of :func:`drag_and_heat` at k = 0."""
    zeta, q1 = _coefficients(params, p, theta1, theta2)
    return zeta, (-q1 / (p.rho1 * theta1), q1 / (p.rho2 * theta2))


def entropy_sources(forces: DissipationForces, p: PrimitiveState,
                    theta1, theta2):
    """Right-hand sides of the entropy equations.

    Per component: rho theta d s/dt + f (u_alpha - u) + q = 0, so the rate of
    s_alpha is -(f_alpha (u_alpha - u) + q_alpha) / (rho_alpha theta_alpha).
    """
    _require_positive_temperatures(theta1, theta2)
    u = mixture_aggregates(p).u
    src1 = -(forces.f1 * (p.u1 - u) + forces.q1) / (p.rho1 * theta1)
    src2 = -(forces.f2 * (p.u2 - u) + forces.q2) / (p.rho2 * theta2)
    return src1, src2


def entropy_production(forces: DissipationForces, p: PrimitiveState,
                       theta1, theta2):
    """Total entropy production -sum_a [ (f_a/theta_a)(u_a - u) + q_a/theta_a ].

    Nonnegative with the built-in closures for any k, kappa >= 0.
    """
    _require_positive_temperatures(theta1, theta2)
    u = mixture_aggregates(p).u
    return -(forces.f1 * (p.u1 - u) / theta1 + forces.q1 / theta1
             + forces.f2 * (p.u2 - u) / theta2 + forces.q2 / theta2)
