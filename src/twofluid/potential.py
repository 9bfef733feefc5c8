"""Constitutive potential W(rho1, rho2, s1, s2, w) and quantities derived from it.

The mixture is described per unit volume by a single potential W depending on
the component densities, the specific entropies and the relative velocity
w = u2 - u1 (the only velocity combination allowed by Galilean invariance).
Everything downstream -- temperatures, internal energy, generalized momenta,
hyperbolicity matrices -- is built from W and its first and second partials.

Each partial has one source: the law's own ``gradient`` and ``hessian``
where it writes them out, else one central-difference stencil of ``value``
(:func:`_central_diff`, which also differences a callable added mass).

All evaluation routines broadcast over numpy arrays.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Hard admissibility floor for densities.  Below this we refuse to evaluate
#: rather than clip: silent clipping would corrupt conservation checks.
RHO_FLOOR = 1e-12

#: Variable ordering used for gradients and Hessians.
VAR_NAMES = ("rho1", "rho2", "s1", "s2", "w")

_FD_REL_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
_FD2_REL_STEP = float(np.finfo(float).eps) ** (1.0 / 4.0)


class AdmissibilityError(ValueError):
    """Raised when a state leaves the admissible set rho_alpha > 0."""


def require_admissible(rho1: ArrayLike, rho2: ArrayLike) -> None:
    """Raise :class:`AdmissibilityError` naming the offending component."""
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        arr = np.asarray(rho, dtype=float)
        lo, hi = arr.min(), arr.max()
        # a NaN makes both NaN, which fails the comparisons
        if not (lo >= RHO_FLOOR and hi < np.inf):
            got = f"min {lo:g}" if not lo >= RHO_FLOOR else f"max {hi:g}"
            raise AdmissibilityError(
                f"{name} must be finite and above {RHO_FLOOR:g}; got {got}")


def _fd_step(x: np.ndarray) -> np.ndarray:
    return _FD_REL_STEP * np.maximum(1.0, np.abs(x))


def _fd2_step(x: np.ndarray) -> np.ndarray:
    """Step of the second-difference stencils (balances truncation and
    round-off for a second derivative)."""
    return _FD2_REL_STEP * np.maximum(1.0, np.abs(x))


def _central_diff(f, args, axes, steps, order=1):
    """Central differences of ``f(*args)`` along the arguments ``axes``,
    with step ``steps[k]`` along ``axes[k]``.  Order 1: the first
    derivatives, one per axis, from the +-h shifts (2 n calls of ``f`` for
    n axes).  Order 2: (f, the first derivatives, D), D[k][l] the second
    derivative along axes k and l, from the centre, the same shifts and
    four cross shifts per pair (1 + 2 n^2 calls), ``axes[k]`` outermost for
    k > l."""
    n = len(axes)

    def at(*shifts):
        moved = list(args)
        for k, sign in shifts:
            moved[axes[k]] = args[axes[k]] + sign * steps[k]
        return np.asarray(f(*moved), dtype=float)

    plus = [at((k, 1)) for k in range(n)]
    minus = [at((k, -1)) for k in range(n)]
    first = [(fp - fm) / (2.0 * h) for fp, fm, h in zip(plus, minus, steps)]
    if order == 1:
        return first
    centre = at()
    D = [[None] * n for _ in range(n)]
    for k in range(n):
        D[k][k] = (plus[k] - 2.0 * centre + minus[k]) / steps[k] ** 2
        for l in range(k):
            D[k][l] = D[l][k] = (
                at((k, 1), (l, 1)) - at((k, 1), (l, -1))
                - at((k, -1), (l, 1)) + at((k, -1), (l, -1))
            ) / (4.0 * steps[k] * steps[l])
    return centre, first, D


class PotentialModel(ABC):
    """Abstract constitutive law.

    A law implements :meth:`value` and may override :meth:`gradient` and
    :meth:`hessian`; else differences of ``value`` supply them, with a
    step eps**(1/3) * max(1, |x|) (10 calls) and eps**(1/4) * max(1, |x|)
    (51 calls).  A solver stage and the certificates read
    :meth:`derivatives`.  :meth:`dW_dw` and :meth:`d2W_dw2` are derived
    from an overridden ``gradient`` and ``hessian``, else from differences
    of ``value`` in w alone (2 and 3 calls); they only steer the Newton
    velocity recovery.  So a subclass of :class:`SeparableAddedMass` that
    changes W overrides ``value`` and either writes out ``gradient`` and
    ``hessian`` or sets them to ``PotentialModel``'s.

    Models are immutable after construction; all evaluations are pure.
    """

    @abstractmethod
    def value(self, rho1, rho2, s1, s2, w):
        """W per unit volume of the mixture."""

    def gradient(self, rho1, rho2, s1, s2, w):
        """First partials of W, stacked in :data:`VAR_NAMES` order."""
        args = [np.asarray(a, dtype=float) for a in (rho1, rho2, s1, s2, w)]
        return np.stack(np.broadcast_arrays(*_central_diff(
            self.value, args, range(5), [_fd_step(x) for x in args])))

    def hessian(self, rho1, rho2, s1, s2, w):
        """Second partials, ``H[i, j] = d2 W / dx_i dx_j`` in VAR_NAMES order."""
        args = [np.asarray(a, dtype=float) for a in (rho1, rho2, s1, s2, w)]
        H = _central_diff(self.value, args, range(5),
                          [_fd2_step(x) for x in args], order=2)[2]
        return np.stack([np.stack(np.broadcast_arrays(*row)) for row in H])

    def derivatives(self, rho1, rho2, s1, s2, w):
        """(W, gradient, Hessian), what a solver stage reads: here one call
        of each method above."""
        return (self.value(rho1, rho2, s1, s2, w),
                self.gradient(rho1, rho2, s1, s2, w),
                self.hessian(rho1, rho2, s1, s2, w))

    def dW_dw(self, rho1, rho2, s1, s2, w):
        if type(self).gradient is not PotentialModel.gradient:
            return self.gradient(rho1, rho2, s1, s2, w)[4]
        w = np.asarray(w, dtype=float)
        return _central_diff(self.value, (rho1, rho2, s1, s2, w), (4,),
                             (_fd_step(w),))[0]

    def d2W_dw2(self, rho1, rho2, s1, s2, w):
        if type(self).hessian is not PotentialModel.hessian:
            return self.hessian(rho1, rho2, s1, s2, w)[4, 4]
        w = np.asarray(w, dtype=float)
        return _central_diff(self.value, (rho1, rho2, s1, s2, w), (4,),
                             (_fd2_step(w),), order=2)[2][0][0]


@dataclass(frozen=True, eq=False)
class ThermoEval:
    """Point-evaluated thermodynamic bundle at one state.

    ``grad`` follows the :data:`VAR_NAMES` ordering; ``i_star`` is -dW/dw,
    the momentum-exchange covector of the added-mass coupling.  Second
    partials come from :meth:`PotentialModel.hessian`.
    """

    W: ArrayLike
    U: ArrayLike
    theta1: ArrayLike
    theta2: ArrayLike
    i_star: ArrayLike
    grad: np.ndarray

    @property
    def W_rho1(self):
        return self.grad[0]

    @property
    def W_rho2(self):
        return self.grad[1]

    @property
    def W_w(self):
        return self.grad[4]


def _thermo_eval(W, grad, rho1, rho2, w) -> ThermoEval:
    """The :class:`ThermoEval` of W and its gradient at admissible states."""
    Ww = grad[4]
    return ThermoEval(
        W=W,
        U=W - Ww * w,
        theta1=grad[2] / rho1,
        theta2=grad[3] / rho2,
        i_star=-Ww,
        grad=grad,
    )


def evaluate(model: PotentialModel, rho1, rho2, s1, s2, w) -> ThermoEval:
    """Evaluate W, its gradient and the derived quantities at raw components."""
    require_admissible(rho1, rho2)
    return _thermo_eval(model.value(rho1, rho2, s1, s2, w),
                        model.gradient(rho1, rho2, s1, s2, w), rho1, rho2, w)


def fd_check_derivatives(model: PotentialModel, state, h: float = 1e-5) -> float:
    """Compare analytic partials against central differences of step ``h``.

    Returns the worst relative discrepancy over all first and second partials.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    args = [np.asarray(a, dtype=float)
            for a in (state.rho1, state.rho2, state.s1, state.s2, state.w)]
    if np.min(args[0]) - 2 * h <= RHO_FLOOR or np.min(args[1]) - 2 * h <= RHO_FLOOR:
        raise AdmissibilityError(
            f"state too close to the density floor for an h={h:g} stencil")
    require_admissible(args[0], args[1])

    worst = 0.0
    for ana, fn in ((model.gradient(*args), model.value),
                    (model.hessian(*args), model.gradient)):
        for i, num in enumerate(_central_diff(fn, args, range(5), [h] * 5)):
            err = np.abs(ana[i] - num) / np.maximum(
                1.0, np.maximum(np.abs(ana[i]), np.abs(num)))
            worst = max(worst, float(np.max(err)))
    return worst


@dataclass(frozen=True)
class SeparableAddedMassParams:
    """Parameters of the built-in law W = W1(rho1,s1) + W2(rho2,s2) - a w^2 / 2.

    Each phase is polytropic: W_a = rho_a * e_a with
    e_a = (K_a / (gamma_a - 1)) rho_a^(gamma_a - 1) exp((s_a - s0_a)/cv_a).
    The added-mass coefficient ``a`` is a nonnegative constant or an optional
    callable a(rho1, rho2) (its density derivatives are then taken by finite
    differences).
    """

    gamma1: float
    gamma2: float
    cv1: float = 1.0
    cv2: float = 1.0
    K1: float = 1.0
    K2: float = 1.0
    s01: float = 0.0
    s02: float = 0.0
    a: Union[float, Callable] = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            if getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must exceed 1")
        for name in ("cv1", "cv2", "K1", "K2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not callable(self.a) and self.a < 0.0:
            raise ValueError("a must be nonnegative")


class SeparableAddedMass(PotentialModel):
    """Built-in separable polytropic law with quadratic added-mass coupling.

    W = W0(rho1, rho2, s1, s2) - a(rho1, rho2) w^2 / 2, so its critical
    relative velocity has a closed form
    (:func:`hyperbolicity.critical_relative_velocity`) and its velocity
    recovery is one division; a subclass gets the certificate scan and the
    Newton recovery of any other law.
    """

    def __init__(self, params: SeparableAddedMassParams):
        self.params = params

    def _phase(self, idx: int, rho, s):
        p = self.params
        if idx == 1:
            gamma, cv, K0, s0 = p.gamma1, p.cv1, p.K1, p.s01
        else:
            gamma, cv, K0, s0 = p.gamma2, p.cv2, p.K2, p.s02
        e = (K0 / (gamma - 1.0)) * np.asarray(rho, dtype=float) ** (gamma - 1.0) \
            * np.exp((np.asarray(s, dtype=float) - s0) / cv)
        return e, gamma, cv

    def _a(self, rho1, rho2):
        """a at the densities' broadcast shape: one call of a callable a."""
        a = self.params.a
        r1 = np.asarray(rho1, dtype=float)
        r2 = np.asarray(rho2, dtype=float)
        z = np.zeros(np.broadcast(r1, r2).shape)
        return (a(r1, r2) if callable(a) else float(a)) + z

    def _a_derivs(self, rho1, rho2, order):
        """a, then a_r1, a_r2 (order 1), then a_r1r1, a_r1r2, a_r2r2 (order
        2); a callable a is called 1, 5 or 9 times, for differences."""
        a = self.params.a
        if order == 0 or not callable(a):
            a0 = self._a(rho1, rho2)
            return (a0,) + (np.zeros_like(a0),) * (0, 2, 5)[order]
        r = [np.asarray(rho1, dtype=float), np.asarray(rho2, dtype=float)]
        # axes (rho2, rho1): the cross stencil then shifts rho1 outermost,
        # the summation order of a_r1r2 that the tests pin bit for bit
        d = _central_diff(a, r, (1, 0), (_fd_step(r[1]), _fd_step(r[0])),
                          order)
        if order == 1:
            return tuple(np.broadcast_arrays(self._a(rho1, rho2), d[1], d[0]))
        a0, (d2, d1), D = d
        return tuple(np.broadcast_arrays(a0, d1, d2, D[1][1], D[1][0],
                                         D[0][0]))

    def _law(self, rho1, rho2, s1, s2, w, *outputs):
        """W (output 0), its gradient (1) and its Hessian (2), those asked
        for in increasing order, from one evaluation of the phases and of a;
        a constant a leaves out the a-derivative terms, exact zeros."""
        e1, g1, cv1 = self._phase(1, rho1, s1)
        e2, g2, cv2 = self._phase(2, rho2, s2)
        varies = callable(self.params.a)
        a, *da = self._a_derivs(rho1, rho2, outputs[-1] if varies else 0)
        w = np.asarray(w, dtype=float)
        ww, re1, re2, ge1, ge2 = w ** 2, rho1 * e1, rho2 * e2, g1 * e1, g2 * e2
        out = []
        if 0 in outputs:
            out.append(re1 + re2 - 0.5 * a * ww)
        if 1 in outputs:
            out.append(np.stack(np.broadcast_arrays(
                ge1 - 0.5 * da[0] * ww if varies else ge1,
                ge2 - 0.5 * da[1] * ww if varies else ge2,
                re1 / cv1, re2 / cv2, -a * w)))
        if 2 in outputs:
            H = np.zeros((5, 5) + np.broadcast(rho1, rho2, s1, s2, w).shape)
            H[0, 0] = g1 * (g1 - 1.0) * e1 / rho1
            H[1, 1] = g2 * (g2 - 1.0) * e2 / rho2
            if varies:
                a1, a2, a11, a12, a22 = da
                H[0, 0] -= 0.5 * a11 * ww
                H[1, 1] -= 0.5 * a22 * ww
                H[0, 1] = H[1, 0] = -0.5 * a12 * ww
                H[0, 4] = H[4, 0] = -a1 * w
                H[1, 4] = H[4, 1] = -a2 * w
            H[0, 2] = H[2, 0] = ge1 / cv1
            H[1, 3] = H[3, 1] = ge2 / cv2
            H[2, 2] = re1 / cv1 ** 2
            H[3, 3] = re2 / cv2 ** 2
            H[4, 4] = -a
            out.append(H)
        return out

    def value(self, rho1, rho2, s1, s2, w):
        return self._law(rho1, rho2, s1, s2, w, 0)[0]

    def gradient(self, rho1, rho2, s1, s2, w):
        return self._law(rho1, rho2, s1, s2, w, 1)[0]

    def hessian(self, rho1, rho2, s1, s2, w):
        return self._law(rho1, rho2, s1, s2, w, 2)[0]

    def derivatives(self, rho1, rho2, s1, s2, w):
        """One pass of the law; a subclass, which may override any of the
        three, gets the base class's three calls."""
        if type(self) is not SeparableAddedMass:
            return super().derivatives(rho1, rho2, s1, s2, w)
        return tuple(self._law(rho1, rho2, s1, s2, w, 0, 1, 2))

    def sound_speed_sq(self, idx: int, rho, s):
        """Single-phase sound speed squared rho * d2W_a/drho_a^2."""
        e, gamma, _ = self._phase(idx, rho, s)
        return gamma * (gamma - 1.0) * e
