"""Numerical verification of the model's exact algebraic structure.

The centerpiece is the dynamic Gibbs identity

    E - sum_a (M_a u_a + (K_a u_a - R_a) B_a) - S == 0,

an algebraic relation between the energy, momentum, mass, and entropy
equations that holds for ANY smooth fields, not only solutions.  It is
therefore checked on manufactured space-time fields: all derivatives are
replaced by central differences of step h, so the residual of the exact
identity must vanish at O(h^2).  The identity decomposes into six simpler
identities (a-f below), each checked individually.  One stencil serves both:
the field is evaluated at the five nodes (t, x), (t +- h, x), (t, x +- h)
for every step h at once, as arrays, in one thermodynamic and one closure
call, and every derivative is a difference of rows of those arrays.  Fields
stacked along a trailing axis (:func:`trig_fields_from_words`, drawn from
raw generator words) share that pass, bit for bit as one call per field.

Also here: conservation drift bookkeeping for solver trajectories, the
diffusion-law (Fick) residual for drag-dominated near-isothermal states
(balanced with the local temperatures), and the
single-fluid reduction check (two identical phases with no velocity coupling
against a plain one-component Euler reference), which runs the two-fluid
solver at every grid size asked for against one reference integration.  The
reference keeps its own Euler equations but shares the solver's ghost-cell
extension, Rusanov divergence and profile sampling; the two-fluid runs take
the external potential as a plain callable Omega(x) and the reference its
gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .closures import ClosureParams, drag_and_heat
from .potential import ArrayLike, PotentialModel, evaluate
from .solver import (Grid1D, SimulationConfig, TimeStepReport,
                     _central_diff, _extend, _rusanov_div, _sample,
                     evolved_from_primitive_profiles, integrate)
from .state import PrimitiveState, evolved_to_primitive, mixture_aggregates

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ManufacturedField:
    """Smooth closed-form space-time fields, each a callable of (t, x).

    The fields need not solve any equation; positivity of the densities is
    enforced at evaluation time (the thermodynamic evaluation raises on an
    inadmissible stencil point).
    """
    rho1: Field
    rho2: Field
    u1: Field
    u2: Field
    s1: Field
    s2: Field
    omega1: Field
    omega2: Field


def _trig(base, kx, kt, ph, ph2, c1, c2, t, x):
    """A trigonometric field at (t, x), for one field or a stack of them."""
    return (base + c1 * np.sin(kx * x + ph)
            + c2 * np.cos(kt * t + kx * x + ph2))


#: Raw 64-bit words per manufactured field: five per component.
TRIG_WORDS = 5 * len(fields(ManufacturedField))


def uniform_from_words(words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``default_rng().uniform(lo, hi)`` of each raw PCG64 word: numpy's
    next_double, the top 53 bits over 2**53."""
    return lo + (hi - lo) * ((words >> np.uint64(11)) * 2.0 ** -53)


def trig_fields_from_words(words: np.ndarray, rho_base: float = 1.0,
                           amp: float = 0.1) -> ManufacturedField:
    """Fields of :func:`random_trig_fields` stacked along a trailing axis,
    field i from row i of raw PCG64 words (uint64, shape (n, TRIG_WORDS)).

    Per component in field order, five words: kx and kt from the low and
    high 32-bit halves h of the first by Lemire's 1 + (3 h >> 32), as
    ``integers(1, 4)`` takes them, then ph, ph2, c1 and c2 as uniforms.
    Bit for bit the scalar draws on the same stream, but a zero half gives
    1 where numpy draws again (probability 2**-32), and a 32-bit half the
    caller left buffered in the bit generator is not read.
    """
    k, ph, ph2, c1, c2 = words.reshape(-1, TRIG_WORDS // 5, 5).T
    params = [1.0 + ((np.uint64(3) * h) >> np.uint64(32))
              for h in (k & np.uint64(0xFFFFFFFF), k >> np.uint64(32))]
    params += [uniform_from_words(w, 0.0, 2.0 * np.pi) for w in (ph, ph2)]
    params += [uniform_from_words(w, 0.3, 1.0) * amp for w in (c1, c2)]
    return ManufacturedField(**{
        f.name: partial(_trig, rho_base if f.name.startswith("rho") else 0.0,
                        *(q[j] for q in params))
        for j, f in enumerate(fields(ManufacturedField))})


def random_trig_fields(rng: np.random.Generator,
                       rho_base: float = 1.0,
                       amp: float = 0.1) -> ManufacturedField:
    """Generic smooth trigonometric fields with random phases and wavenumbers.

    Amplitudes are kept well below the density base so the whole evaluation
    box (plus any reasonable finite-difference halo) stays admissible.  Its
    floats are :func:`trig_fields_from_words` of raw words of a PCG64 ``rng``.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError("random_trig_fields needs a PCG64 (default_rng)")
    block = trig_fields_from_words(
        rng.bit_generator.random_raw((1, TRIG_WORDS)), rho_base, amp)
    return ManufacturedField(**{
        name: partial(_trig, *np.hstack(f.args).tolist())
        for name, f in vars(block).items()})


@dataclass(frozen=True, eq=False)
class GibbsResidual:
    """E, M_a, B_a, S, the identity combination and the six sub-identities.

    Floats for one step h; arrays over h for a sequence of steps.
    ``subidentities`` maps "a" to "f" as in :func:`balance_subidentities`.
    """
    E: ArrayLike
    M1: ArrayLike
    M2: ArrayLike
    B1: ArrayLike
    B2: ArrayLike
    S: ArrayLike
    combination: ArrayLike
    subidentities: Dict[str, ArrayLike]


#: Stencil nodes in units of h: centre, t + h, t - h, x + h, x - h.
_T_NODES = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
_X_NODES = np.array([0.0, 0.0, 0.0, 1.0, -1.0])


def gibbs_residual(model: PotentialModel, closures: ClosureParams,
                   field: ManufacturedField, point: Sequence[ArrayLike],
                   h: float | Sequence[float]) -> GibbsResidual:
    """Evaluate E, M_a, B_a, S, the combination and sub-identities at a point.

    ``h`` is one step (the fields are then floats) or a sequence of steps
    (arrays over h).  ``point`` (t, x) is two floats, or two arrays along a
    trailing axis of a stacked ``field`` (:func:`trig_fields_from_words`),
    which the outputs gain last.  All derivatives are central differences
    of step h in both t and x; the combination therefore measures only the
    finite-difference commutation error and must shrink at O(h^2).
    """
    h = np.asarray(h, dtype=float)
    h = h.reshape(h.shape + (1,) * np.ndim(point[0]))
    nodes = (5,) + (1,) * h.ndim
    t = point[0] + h * _T_NODES.reshape(nodes)
    x = point[1] + h * _X_NODES.reshape(nodes)
    rho1, rho2, u1, u2, s1, s2, om1, om2 = np.broadcast_arrays(
        t, *(f(t, x) for f in (field.rho1, field.rho2, field.u1, field.u2,
                               field.s1, field.s2, field.omega1,
                               field.omega2)))[1:]
    p = PrimitiveState(rho1=rho1, rho2=rho2, u1=u1, u2=u2, s1=s1, s2=s2)
    th = evaluate(model, rho1, rho2, s1, s2, p.w)
    forces = drag_and_heat(closures, p, th.theta1, th.theta2)
    K1, K2 = u1 + th.W_w / rho1, u2 - th.W_w / rho2
    R1 = 0.5 * u1 ** 2 - th.W_rho1 - om1
    R2 = 0.5 * u2 ** 2 - th.W_rho2 - om2
    i_star = th.i_star
    two_h = 2.0 * h

    def ddt(q):
        return (q[1] - q[2]) / two_h

    def ddx(q):
        return (q[3] - q[4]) / two_h

    def material(q, u):
        """d/dt following velocity u: time derivative plus advection."""
        return ddt(q) + u[0] * ddx(q)

    B, M, S, parts = [], [], [], {key: [] for key in "bcdef"}
    for rho, u, s, om, K, R, theta, W_rho, f, sign in (
            (rho1, u1, s1, om1, K1, R1, th.theta1, th.W_rho1, forces.f1, -1.0),
            (rho2, u2, s2, om2, K2, R2, th.theta2, th.W_rho2, forces.f2, 1.0)):
        rc, uc, i_rc = rho[0], u[0], i_star[0] / rho[0]
        Ba = ddt(rho) + ddx(rho * u)
        B.append(Ba)
        M.append(rc * material(K, u) + rc * K[0] * ddx(u) - rc * ddx(R)
                 - rc * theta[0] * ddx(s) - f[0])
        S.append(rc * theta[0] * material(s, u) + f[0] * uc)
        parts["b"].append(ddt(rho * om) + ddx(rho * om * u)
                          - rc * ddx(om) * uc - Ba * om[0] - rc * ddt(om))
        parts["c"].append(
            ddt(0.5 * rho * u ** 2) + ddx(rho * u * 0.5 * u ** 2)
            - Ba * 0.5 * uc ** 2
            - (rc * material(u, u) + rc * uc * ddx(u)
               - rc * ddx(0.5 * u ** 2)) * uc)
        parts["d"].append(W_rho[0] * ddt(rho) + ddx(W_rho * rho * u)
                          - rc * ddx(W_rho) * uc - W_rho[0] * Ba)
        parts["e"].append(rc * theta[0] * ddt(s)
                          + rc * theta[0] * ddx(s) * uc
                          - rc * theta[0] * material(s, u))
        parts["f"].append(
            ddx(sign * (i_star / rho) * u * rho * u)
            - (rc * material(sign * i_star / rho, u)
               + rc * sign * i_rc * ddx(u)) * uc
            - sign * i_rc * uc * Ba)

    S = sum(S)
    E = (ddt(rho1 * (0.5 * u1 ** 2 + om1) + rho2 * (0.5 * u2 ** 2 + om2)
             + th.U)
         + ddx(rho1 * u1 * (K1 * u1 - R1) + rho2 * u2 * (K2 * u2 - R2))
         - rho1[0] * ddt(om1) - rho2[0] * ddt(om2))
    combination = (E - (M[0] * u1[0] + (K1[0] * u1[0] - R1[0]) * B[0])
                   - (M[1] * u2[0] + (K2[0] * u2[0] - R2[0]) * B[1]) - S)
    # the drag power of the momentum equations against the drag term of
    # the entropy equations, sum f_a (u_a - u) (closures.entropy_sources)
    f1, f2, u = forces.f1[0], forces.f2[0], mixture_aggregates(p).u[0]
    uc1, uc2 = u1[0], u2[0]
    sub = {"a": f1 * uc1 + f2 * uc2 - (f1 * (uc1 - u) + f2 * (uc2 - u))}
    sub.update((key, sum(terms)) for key, terms in parts.items())
    sub["f"] = ddt(i_star) * p.w[0] + sub["f"]

    def out(q):
        return float(q) if t.ndim == 1 else q

    return GibbsResidual(
        E=out(E), M1=out(M[0]), M2=out(M[1]), B1=out(B[0]), B2=out(B[1]),
        S=out(S), combination=out(combination),
        subidentities={key: out(v) for key, v in sub.items()})


def balance_subidentities(model: PotentialModel, closures: ClosureParams,
                          field: ManufacturedField,
                          point: Tuple[float, float],
                          h: float | Sequence[float]) -> Dict[str, ArrayLike]:
    """The six algebraic identities whose sum is the Gibbs identity.

    a: drag work, sum f_a u_a against sum f_a (u_a - u) (no derivatives;
       zero to round-off for an antisymmetric pair f2 = -f1);
    b: external-potential bookkeeping;
    c: kinetic-energy bookkeeping;
    d: compression-work terms (dW/drho_a);
    e: entropy advection terms;
    f: relative-velocity coupling terms (i* = -dW/dw).
    Each residual vanishes at O(h^2) for smooth fields.
    """
    return gibbs_residual(model, closures, field, point, h).subidentities


def conservation_drift(trajectory: List[Tuple[float, object, TimeStepReport]]
                       ) -> Dict[str, Dict[str, float]]:
    """Max absolute and relative drift of the conserved totals over a run.

    Expects the (t, cells, report) list produced by the integrator on a
    periodic grid; quantities tracked are per-component mass, the total
    impulse sum rho_a K_a, and the total energy.
    """
    reports = [r for _, _, r in trajectory]
    out = {}
    for name in ("mass1", "mass2", "momentum_K", "energy"):
        series = np.array([getattr(r, name) for r in reports])
        drift = float(np.max(np.abs(series - series[0])))
        out[name] = {"abs": drift,
                     "rel": drift / max(1e-300, abs(series[0]))}
    return out


def fick_residual(model: PotentialModel, closures: ClosureParams,
                  p: PrimitiveState, dx: float, theta0: float,
                  theta_bound: float = 0.05, bc: str = "periodic"):
    """Residual of the diffusion law grad(mu) = rho f / (rho1 rho2).

    Valid for drag-dominated near-isothermal states; raises
    ``ValueError`` if theta0 is not positive and finite, or if any
    temperature strays from theta0 by more than theta_bound relative.  The
    balance uses the local temperatures, grad(mu) = d(W_rho2 - W_rho1)
    - (theta2 ds2 - theta1 ds1), with every difference central of spacing dx
    over the solver's ghost cells for the boundary mode ``bc``.  Returns
    (residual field, residual norm relative to |grad mu|).
    """
    if not 0.0 < theta0 < math.inf:
        raise ValueError(
            f"theta0 must be positive and finite; got {theta0!r}")
    th = evaluate(model, p.rho1, p.rho2, p.s1, p.s2, p.w)
    dev = max(float(np.max(np.abs(th.theta1 - theta0))),
              float(np.max(np.abs(th.theta2 - theta0)))) / theta0
    if dev > theta_bound:
        raise ValueError(
            f"state is not near-isothermal: max relative temperature "
            f"deviation {dev:g} exceeds {theta_bound:g}")
    d_W, d_s1, d_s2 = _central_diff(
        _extend(np.stack((th.W_rho2 - th.W_rho1, p.s1, p.s2)), bc), dx)
    grad_mu = d_W - (th.theta2 * d_s2 - th.theta1 * d_s1)
    forces = drag_and_heat(closures, p, th.theta1, th.theta2)
    f = -np.asarray(forces.f1, dtype=float)
    agg = mixture_aggregates(p)
    rhs = agg.rho * f / (p.rho1 * p.rho2)
    residual = grad_mu - rhs
    denom = float(np.linalg.norm(grad_mu))
    rel = float(np.linalg.norm(residual)) / max(denom, 1e-300)
    return residual, rel


def _single_fluid_rhs(model, grid: Grid1D, y, omega_grad):
    """Rates of the one-component Euler system in (rho, u, s) form, for the
    stack ``y`` of those rows, and the largest cell speed.

    u_t + (u^2/2 + h + Omega)_x = theta s_x with h the specific enthalpy;
    phase 1 of a separable two-phase potential (no velocity coupling)
    supplies h, theta, and the sound speed.
    """
    rho, u, s = y
    th = evaluate(model, rho, rho, s, s, np.zeros_like(rho))
    smax = np.abs(u) + np.sqrt(model.sound_speed_sq(1, rho, s))

    dx = grid.dx
    ext = _extend(np.stack((rho, u, rho * u, 0.5 * u ** 2 + th.W_rho1, s,
                            smax)), grid.bc)
    lam = np.maximum(ext[-1, :-1], ext[-1, 1:])
    d_rho, d_u = -_rusanov_div(ext[2:4], ext[:2], lam, dx)
    ds_dx = _central_diff(ext[4], dx)
    rates = np.stack((d_rho, d_u - omega_grad + th.theta1 * ds_dx,
                      -u * ds_dx))
    return rates, float(np.max(smax))


def single_fluid_reference(model, grid: Grid1D, rho0, u0, s0, t_end: float,
                           omega: Callable[[np.ndarray], np.ndarray] | None
                           = None, cfl: float = 0.45):
    """Integrate the one-component Euler reference to t_end (Heun in time);
    returns the rows rho, u, s."""
    x = grid.centers()
    y = np.stack([_sample(f, x) for f in (rho0, u0, s0)])
    omega_grad = _sample(0.0 if omega is None else omega, x)
    t = 0.0
    while t < t_end - 1e-14 * max(1.0, t_end):
        d1, smax = _single_fluid_rhs(model, grid, y, omega_grad)
        dt = min(cfl * grid.dx / max(smax, 1e-30), t_end - t)
        y1 = y + dt * d1
        d2, _ = _single_fluid_rhs(model, grid, y1, omega_grad)
        y = 0.5 * (y + y1 + dt * d2)
        t += dt
    return y


def _block_average(fine: np.ndarray, n_coarse: int) -> np.ndarray:
    ratio = fine.size // n_coarse
    return fine.reshape(n_coarse, ratio).mean(axis=1)


def single_fluid_reduction(model, n_values: Sequence[int], t_end: float,
                           rho0, u0, s0,
                           x_lo: float = 0.0, x_hi: float = 1.0,
                           ref_n: int | None = None,
                           omega_value=None, omega_grad=None,
                           cfl: float = 0.45) -> List[Dict[str, float]]:
    """L1 distances of the two-fluid solution from a one-component reference,
    one row (n, l1_rho, l1_u, order_rho) per grid size in ``n_values``.

    Both phases get identical initial data (rho0/2 each) so, with no velocity
    coupling in the potential, each phase evolves as an independent single
    fluid of density rho0/2; the reference therefore runs at half density and
    its output is doubled.  The reference is integrated once, on a finer grid
    (ref_n, default 8 max(n_values), a multiple of every n; every grid is
    checked before any run), and restricted to each n by block averaging.
    ``order_rho`` is log2 of the previous row's l1_rho over this one (NaN on
    the first row).  An external potential is given as ``omega_value`` (the
    two-fluid runs) together with ``omega_grad`` (the reference); one
    without the other would compare two different problems and raises
    ``ValueError``.
    """
    if (omega_value is None) != (omega_grad is None):
        raise ValueError("an external potential needs both omega_value and "
                         "omega_grad, or neither")
    grids = [Grid1D(x_lo, x_hi, n) for n in n_values]
    if ref_n is None:
        ref_n = 8 * max(n_values)
    for n in n_values:
        if ref_n % n:
            raise ValueError(f"ref_n = {ref_n} is not a multiple of n = {n}")
    ref_grid = Grid1D(x_lo, x_hi, ref_n)

    def rho0_half(xx):
        return 0.5 * _sample(rho0, xx)

    rho_ref, u_ref, _ = single_fluid_reference(
        model, ref_grid, rho0_half, u0, s0, t_end, omega=omega_grad, cfl=cfl)
    rho_ref = 2.0 * rho_ref
    if omega_value is None:
        omega_value = np.zeros_like
    rows, prev = [], None
    for grid in grids:
        cfg = SimulationConfig(grid=grid, model=model, omega1=omega_value,
                               omega2=omega_value, cfl=cfl, t_end=t_end,
                               report_interval=t_end)
        init = evolved_from_primitive_profiles(
            model, grid, rho1=rho0_half, rho2=rho0_half,
            u1=u0, u2=u0, s1=s0, s2=s0)
        p = evolved_to_primitive(model, integrate(cfg, init)[-1][1])
        l1_rho, l1_u = (
            float(np.sum(np.abs(tf - _block_average(ref, grid.n))) * grid.dx)
            for tf, ref in ((p.rho1 + p.rho2, rho_ref),
                            (mixture_aggregates(p).u, u_ref)))
        rows.append({"n": grid.n, "l1_rho": l1_rho, "l1_u": l1_u,
                     "order_rho": (math.log2(prev / l1_rho) if prev
                                   else math.nan)})
        prev = l1_rho
    return rows
