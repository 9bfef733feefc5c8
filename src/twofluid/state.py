"""State representations and the conversion between them.

Two equivalent descriptions of a point state are used:

* primitive: (rho1, rho2, u1, u2, s1, s2), with w = u2 - u1 derived;
* evolved:   (rho1, rho2, K1, K2, s1, s2), the variables the 1D solver
  integrates.  K_alpha = u_alpha - (-1)^alpha (1/rho_alpha) dW/dw is the
  generalized velocity; rho_alpha K_alpha (not rho_alpha u_alpha) is the
  impulse of the component.

Converting evolved -> primitive requires a scalar solve for the relative
velocity w: one division for the built-in law, a safeguarded Newton
iteration with a bisection fallback for any other, vectorized over arrays
of states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import (ArrayLike, PotentialModel, SeparableAddedMass,
                        require_admissible)


class ConvergenceError(RuntimeError):
    """Velocity recovery failed (no bracket or no convergence).

    ``cell`` is the flat index of the first state that failed.
    """

    def __init__(self, message: str, cell: int | None = None):
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True, eq=False)
class PrimitiveState:
    rho1: ArrayLike
    rho2: ArrayLike
    u1: ArrayLike
    u2: ArrayLike
    s1: ArrayLike
    s2: ArrayLike

    def __post_init__(self):
        require_admissible(self.rho1, self.rho2)

    @property
    def w(self):
        return self.u2 - self.u1


@dataclass(frozen=True, eq=False)
class EvolvedState:
    rho1: ArrayLike
    rho2: ArrayLike
    K1: ArrayLike
    K2: ArrayLike
    s1: ArrayLike
    s2: ArrayLike

    def __post_init__(self):
        require_admissible(self.rho1, self.rho2)


@dataclass(frozen=True, eq=False)
class MixtureAggregates:
    rho: ArrayLike
    momentum: ArrayLike
    u: ArrayLike


def _from_checked_densities(cls, **fields):
    """A ``cls`` state built from ``fields`` whose densities have already
    passed :func:`require_admissible` (or an equal check): the
    constructor's re-check is skipped."""
    state = object.__new__(cls)
    state.__dict__.update(fields)
    return state


def primitive_to_evolved(model: PotentialModel, p: PrimitiveState) -> EvolvedState:
    """K1 = u1 + W_w / rho1, K2 = u2 - W_w / rho2, W_w from the gradient."""
    Ww = model.gradient(p.rho1, p.rho2, p.s1, p.s2, p.w)[4]
    return _from_checked_densities(
        EvolvedState, rho1=p.rho1, rho2=p.rho2, K1=p.u1 + Ww / p.rho1,
        K2=p.u2 - Ww / p.rho2, s1=p.s1, s2=p.s2)


def _bracket_w(model, rho1, rho2, s1, s2, invsum, dK):
    """Expand a symmetric bracket around dK until g changes sign."""

    def g(w):
        return w - invsum * model.dW_dw(rho1, rho2, s1, s2, w) - dK

    delta = np.abs(dK) + 1.0
    lo = dK - delta
    hi = dK + delta
    glo = g(lo)
    ghi = g(hi)
    for _ in range(40):
        need = glo * ghi > 0.0
        if not np.any(need):
            break
        delta = np.where(need, 2.0 * delta, delta)
        lo = dK - delta
        hi = dK + delta
        glo = g(lo)
        ghi = g(hi)
    bad = glo * ghi > 0.0
    if np.any(bad):
        cell = int(np.argmax(bad))
        raise ConvergenceError(
            "no sign change while bracketing the relative velocity "
            "(recovery map appears non-monotone: hyperbolicity loss territory) "
            f"at state {cell}: bracket half-width {delta.flat[cell]:g}, "
            f"g(lo)={glo.flat[cell]:g}, g(hi)={ghi.flat[cell]:g}", cell=cell)
    return g, lo, hi, glo, ghi


def solve_relative_velocity(model: PotentialModel, rho1, rho2, s1, s2, dK,
                            tol=None, max_iter: int = 100):
    """Solve w - (1/rho1 + 1/rho2) dW/dw(w) = dK for w.

    ``dK`` is K2 - K1.  Works elementwise on arrays.  The built-in law (the
    type :class:`SeparableAddedMass`, W_w = -a w) takes one division, where
    ``tol`` and ``max_iter`` do not apply; any other law a safeguarded
    Newton iteration on the law's ``dW_dw`` and ``d2W_dw2``.  Raises
    :class:`ConvergenceError` when that division's denominator is not
    positive and finite, the map cannot be bracketed or the iteration
    stalls.
    """
    rho1, rho2, s1, s2, dK = np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (rho1, rho2, s1, s2, dK)])
    invsum = 1.0 / rho1 + 1.0 / rho2
    if type(model) is SeparableAddedMass:
        den = 1.0 + model._a(rho1, rho2) * invsum
        bad = ~((den > 0.0) & (den < np.inf))
        if np.any(bad):
            cell = int(np.argmax(bad))
            raise ConvergenceError(
                "recovery denominator 1 + a (1/rho1 + 1/rho2) is not positive"
                f" and finite at state {cell}: {den.flat[cell]:g}", cell=cell)
        return dK / den
    if tol is None:
        tol = 1e-12 * np.maximum(1.0, np.abs(dK))
    g, lo, hi, glo, ghi = _bracket_w(model, rho1, rho2, s1, s2, invsum, dK)

    w = dK.copy()
    for _ in range(max_iter):
        gw = g(w)
        done = np.abs(gw) <= tol
        if np.all(done):
            return w
        # shrink the bracket around the current iterate
        side_lo = gw * glo > 0.0
        lo = np.where(side_lo, w, lo)
        glo = np.where(side_lo, gw, glo)
        hi = np.where(side_lo | (gw == 0.0), hi, w)
        ghi = np.where(side_lo | (gw == 0.0), ghi, gw)
        gp = 1.0 - invsum * np.asarray(
            model.d2W_dw2(rho1, rho2, s1, s2, w), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            wn = w - gw / gp
        inside = (np.isfinite(wn)
                  & (wn > np.minimum(lo, hi)) & (wn < np.maximum(lo, hi)))
        wn = np.where(inside, wn, 0.5 * (lo + hi))
        w = np.where(done, w, wn)
    resid = np.abs(g(w))
    if np.all(resid <= tol):  # the last update converged
        return w
    raise ConvergenceError(
        f"velocity recovery did not converge in {max_iter} iterations; "
        f"max residual {float(np.max(resid)):g}",
        cell=int(np.argmax(resid > tol)))


def solve_relative_velocity_bisection(model: PotentialModel, rho1, rho2, s1, s2,
                                      dK, tol=None, max_iter: int = 200):
    """Pure-bisection oracle for the relative-velocity solve."""
    rho1, rho2, s1, s2, dK = np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (rho1, rho2, s1, s2, dK)])
    if tol is None:
        tol = 1e-12 * np.maximum(1.0, np.abs(dK))
    invsum = 1.0 / rho1 + 1.0 / rho2
    g, lo, hi, glo, ghi = _bracket_w(model, rho1, rho2, s1, s2, invsum, dK)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if np.all(np.abs(gm) <= tol):
            return mid
        side_lo = gm * glo > 0.0
        lo = np.where(side_lo, mid, lo)
        glo = np.where(side_lo, gm, glo)
        hi = np.where(side_lo | (gm == 0.0), hi, mid)
        ghi = np.where(side_lo | (gm == 0.0), ghi, gm)
    raise ConvergenceError("bisection did not converge")


def evolved_to_primitive(model: PotentialModel, e: EvolvedState) -> PrimitiveState:
    """Invert the K_alpha definition for the velocities.

    Solves K2 - K1 = w - (1/rho1 + 1/rho2) dW/dw(w) for w
    (:func:`solve_relative_velocity`), then u1 = K1 - (1/rho1) dW/dw, with
    dW/dw = (w - K2 + K1) / (1/rho1 + 1/rho2) from that equation.  A Newton
    solve drives its residual below 1e-12 * max(1, |K1|, |K2|).
    """
    dK = np.asarray(e.K2, dtype=float) - np.asarray(e.K1, dtype=float)
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(e.K1), np.abs(e.K2)))
    w = solve_relative_velocity(model, e.rho1, e.rho2, e.s1, e.s2, dK, tol=tol)
    u1 = e.K1 - (w - dK) / (1.0 + e.rho1 / e.rho2)
    return _from_checked_densities(PrimitiveState, rho1=e.rho1,
                                   rho2=e.rho2, u1=u1, u2=u1 + w,
                                   s1=e.s1, s2=e.s2)


def mixture_aggregates(p: PrimitiveState) -> MixtureAggregates:
    rho = p.rho1 + p.rho2
    momentum = p.rho1 * p.u1 + p.rho2 * p.u2
    return MixtureAggregates(rho=rho, momentum=momentum, u=momentum / rho)
