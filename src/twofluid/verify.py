"""Numerical verification of the model's exact algebraic structure.

The centerpiece is the dynamic Gibbs identity

    E - sum_a (M_a u_a + (K_a u_a - R_a) B_a) - S == 0,

an algebraic relation between the energy, momentum, mass, and entropy
equations that holds for ANY smooth fields, not only solutions.  It is
therefore checked on manufactured space-time fields: all derivatives are
replaced by central differences of step h, so the residual of the exact
identity must vanish at O(h^2).  The identity decomposes into six simpler
identities (a-f below), each checked individually.

Also here: conservation drift bookkeeping for solver trajectories, the
diffusion-law (Fick) residual for drag-dominated isothermal states, and the
single-fluid reduction check (two identical phases with no velocity coupling
against a plain one-component Euler reference).  The reference keeps its own
Euler equations but shares the solver's ghost-cell extension, Rusanov
divergence and profile sampling; the two-fluid run takes the external
potential as a plain callable Omega(x) and the reference its gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .closures import ClosureParams, drag_and_heat
from .potential import PotentialModel, evaluate
from .solver import (Grid1D, SimulationConfig, TimeStepReport, _extend,
                     _rusanov_div, _sample, evolved_from_primitive_profiles,
                     integrate)
from .state import (PrimitiveState, dynamic_quantities, evolved_to_primitive,
                    mixture_aggregates)

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


def random_trig_fields(rng: np.random.Generator,
                       rho_base: float = 1.0,
                       amp: float = 0.1) -> ManufacturedField:
    """Generic smooth trigonometric fields with random phases and wavenumbers.

    Amplitudes are kept well below the density base so the whole evaluation
    box (plus any reasonable finite-difference halo) stays admissible.
    """
    def trig(base, scale):
        kx = float(rng.integers(1, 4))
        kt = float(rng.integers(1, 4))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        ph2 = float(rng.uniform(0.0, 2.0 * np.pi))
        c1 = float(rng.uniform(0.3, 1.0)) * scale
        c2 = float(rng.uniform(0.3, 1.0)) * scale
        return lambda t, x: (base + c1 * np.sin(kx * x + ph)
                             + c2 * np.cos(kt * t + kx * x + ph2))

    return ManufacturedField(
        rho1=trig(rho_base, amp), rho2=trig(rho_base, amp),
        u1=trig(0.0, amp), u2=trig(0.0, amp),
        s1=trig(0.0, amp), s2=trig(0.0, amp),
        omega1=trig(0.0, amp), omega2=trig(0.0, amp))


@dataclass(frozen=True, eq=False)
class GibbsResidual:
    E: float
    M1: float
    M2: float
    B1: float
    B2: float
    S: float
    combination: float


class _Stencil:
    """Pointwise quantities on the 5-point central stencil around (t, x).

    Any derived scalar is computed at each stencil node from the field
    values there; time and space derivatives of composites are then the
    usual second-order central differences.
    """

    def __init__(self, model: PotentialModel, closures: ClosureParams,
                 field: ManufacturedField, t: float, x: float, h: float):
        self.h = h
        self.model = model
        self.closures = closures
        nodes = {"c": (t, x), "tp": (t + h, x), "tm": (t - h, x),
                 "xp": (t, x + h), "xm": (t, x - h)}
        self.vals: Dict[str, Dict[str, float]] = {
            key: self._point(field, tt, xx) for key, (tt, xx) in nodes.items()}

    def _point(self, field: ManufacturedField, t, x) -> Dict[str, float]:
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        p = PrimitiveState(rho1=field.rho1(t, x), rho2=field.rho2(t, x),
                           u1=field.u1(t, x), u2=field.u2(t, x),
                           s1=field.s1(t, x), s2=field.s2(t, x))
        om1 = field.omega1(t, x)
        om2 = field.omega2(t, x)
        th = evaluate(self.model, p.rho1, p.rho2, p.s1, p.s2, p.w)
        forces = drag_and_heat(self.closures, p, th.theta1, th.theta2)
        out = {
            "rho1": p.rho1, "rho2": p.rho2, "u1": p.u1, "u2": p.u2,
            "s1": p.s1, "s2": p.s2, "om1": om1, "om2": om2,
            "W_rho1": th.W_rho1, "W_rho2": th.W_rho2,
            "theta1": th.theta1, "theta2": th.theta2,
            "U": th.U, "i_star": th.i_star, "w": p.w,
            "f1": forces.f1, "f2": forces.f2,
            "K1": p.u1 + th.W_w / p.rho1,
            "K2": p.u2 - th.W_w / p.rho2,
            "R1": 0.5 * p.u1 ** 2 - th.W_rho1 - om1,
            "R2": 0.5 * p.u2 ** 2 - th.W_rho2 - om2,
        }
        return {k: float(v) for k, v in out.items()}

    def at(self, expr: Callable[[Dict[str, float]], float],
           node: str = "c") -> float:
        return expr(self.vals[node])

    def ddt(self, expr) -> float:
        return (self.at(expr, "tp") - self.at(expr, "tm")) / (2.0 * self.h)

    def ddx(self, expr) -> float:
        return (self.at(expr, "xp") - self.at(expr, "xm")) / (2.0 * self.h)

    def material(self, expr, u_name: str) -> float:
        """d/dt following component u_name: time derivative plus advection."""
        return self.ddt(expr) + self.at(lambda v: v[u_name]) * self.ddx(expr)


def gibbs_residual(model: PotentialModel, closures: ClosureParams,
                   field: ManufacturedField, point: Tuple[float, float],
                   h: float) -> GibbsResidual:
    """Evaluate E, M_a, B_a, S and the identity combination at one point.

    All derivatives are central differences of step h in both t and x; the
    combination therefore measures only the finite-difference commutation
    error and must shrink at O(h^2).
    """
    t, x = point
    st = _Stencil(model, closures, field, t, x, h)
    c = st.vals["c"]

    B = {}
    M = {}
    for a in ("1", "2"):
        u = f"u{a}"
        B[a] = (st.ddt(lambda v: v[f"rho{a}"])
                + st.ddx(lambda v: v[f"rho{a}"] * v[u]))
        M[a] = (c[f"rho{a}"] * st.material(lambda v: v[f"K{a}"], u)
                + c[f"rho{a}"] * c[f"K{a}"] * st.ddx(lambda v: v[u])
                - c[f"rho{a}"] * st.ddx(lambda v: v[f"R{a}"])
                - c[f"rho{a}"] * c[f"theta{a}"] * st.ddx(lambda v: v[f"s{a}"])
                - c[f"f{a}"])

    S = sum(c[f"rho{a}"] * c[f"theta{a}"]
            * st.material(lambda v, a=a: v[f"s{a}"], f"u{a}")
            + c[f"f{a}"] * c[f"u{a}"] for a in ("1", "2"))

    E = (st.ddt(lambda v: v["rho1"] * (0.5 * v["u1"] ** 2 + v["om1"])
                + v["rho2"] * (0.5 * v["u2"] ** 2 + v["om2"]) + v["U"])
         + st.ddx(lambda v: v["rho1"] * v["u1"] * (v["K1"] * v["u1"] - v["R1"])
                  + v["rho2"] * v["u2"] * (v["K2"] * v["u2"] - v["R2"]))
         - c["rho1"] * st.ddt(lambda v: v["om1"])
         - c["rho2"] * st.ddt(lambda v: v["om2"]))

    combination = (E
                   - (M["1"] * c["u1"] + (c["K1"] * c["u1"] - c["R1"]) * B["1"])
                   - (M["2"] * c["u2"] + (c["K2"] * c["u2"] - c["R2"]) * B["2"])
                   - S)
    return GibbsResidual(E=E, M1=M["1"], M2=M["2"], B1=B["1"], B2=B["2"],
                         S=S, combination=combination)


def balance_subidentities(model: PotentialModel, closures: ClosureParams,
                        field: ManufacturedField, point: Tuple[float, float],
                        h: float) -> Dict[str, float]:
    """The six algebraic identities whose sum is the Gibbs identity.

    a: drag-work cancellation (no derivatives; exact to round-off);
    b: external-potential bookkeeping;
    c: kinetic-energy bookkeeping;
    d: compression-work terms (dW/drho_a);
    e: entropy advection terms;
    f: relative-velocity coupling terms (i* = -dW/dw).
    Each residual vanishes at O(h^2) for smooth fields.
    """
    t, x = point
    st = _Stencil(model, closures, field, t, x, h)
    c = st.vals["c"]
    out: Dict[str, float] = {}

    work = c["f1"] * c["u1"] + c["f2"] * c["u2"]
    out["a"] = work - (c["f1"] * c["u1"] + c["f2"] * c["u2"])

    B = {a: st.ddt(lambda v, a=a: v[f"rho{a}"])
         + st.ddx(lambda v, a=a: v[f"rho{a}"] * v[f"u{a}"])
         for a in ("1", "2")}

    out["b"] = sum(
        st.ddt(lambda v, a=a: v[f"rho{a}"] * v[f"om{a}"])
        + st.ddx(lambda v, a=a: v[f"rho{a}"] * v[f"om{a}"] * v[f"u{a}"])
        - c[f"rho{a}"] * st.ddx(lambda v, a=a: v[f"om{a}"]) * c[f"u{a}"]
        - B[a] * c[f"om{a}"]
        - c[f"rho{a}"] * st.ddt(lambda v, a=a: v[f"om{a}"])
        for a in ("1", "2"))

    out["c"] = sum(
        st.ddt(lambda v, a=a: 0.5 * v[f"rho{a}"] * v[f"u{a}"] ** 2)
        + st.ddx(lambda v, a=a:
                 v[f"rho{a}"] * v[f"u{a}"] * 0.5 * v[f"u{a}"] ** 2)
        - B[a] * 0.5 * c[f"u{a}"] ** 2
        - (c[f"rho{a}"] * st.material(lambda v, a=a: v[f"u{a}"], f"u{a}")
           + c[f"rho{a}"] * c[f"u{a}"] * st.ddx(lambda v, a=a: v[f"u{a}"])
           - c[f"rho{a}"] * st.ddx(lambda v, a=a: 0.5 * v[f"u{a}"] ** 2)
           ) * c[f"u{a}"]
        for a in ("1", "2"))

    out["d"] = sum(
        c[f"W_rho{a}"] * st.ddt(lambda v, a=a: v[f"rho{a}"])
        + st.ddx(lambda v, a=a:
                 v[f"W_rho{a}"] * v[f"rho{a}"] * v[f"u{a}"])
        - c[f"rho{a}"] * st.ddx(lambda v, a=a: v[f"W_rho{a}"]) * c[f"u{a}"]
        - c[f"W_rho{a}"] * B[a]
        for a in ("1", "2"))

    out["e"] = sum(
        c[f"rho{a}"] * c[f"theta{a}"] * st.ddt(lambda v, a=a: v[f"s{a}"])
        + c[f"rho{a}"] * c[f"theta{a}"]
        * st.ddx(lambda v, a=a: v[f"s{a}"]) * c[f"u{a}"]
        - c[f"rho{a}"] * c[f"theta{a}"]
        * st.material(lambda v, a=a: v[f"s{a}"], f"u{a}")
        for a in ("1", "2"))

    sign = {"1": -1.0, "2": 1.0}
    out["f"] = st.ddt(lambda v: v["i_star"]) * c["w"] + sum(
        st.ddx(lambda v, a=a: sign[a] * (v["i_star"] / v[f"rho{a}"])
               * v[f"u{a}"] * v[f"rho{a}"] * v[f"u{a}"])
        - (c[f"rho{a}"] * st.material(
            lambda v, a=a: sign[a] * v["i_star"] / v[f"rho{a}"], f"u{a}")
           + c[f"rho{a}"] * sign[a] * (c["i_star"] / c[f"rho{a}"])
           * st.ddx(lambda v, a=a: v[f"u{a}"])) * c[f"u{a}"]
        - sign[a] * (c["i_star"] / c[f"rho{a}"]) * c[f"u{a}"] * B[a]
        for a in ("1", "2"))
    return out


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

    Valid for drag-dominated near-isothermal states; raises if any
    temperature strays from theta0 by more than theta_bound relative.
    Returns (residual field, residual norm relative to |grad mu|), with the
    gradient taken by central differences of spacing dx over the solver's
    ghost cells for the boundary mode ``bc``.
    """
    th = evaluate(model, p.rho1, p.rho2, p.s1, p.s2, p.w)
    dev = max(float(np.max(np.abs(th.theta1 - theta0))),
              float(np.max(np.abs(th.theta2 - theta0)))) / theta0
    if dev > theta_bound:
        raise ValueError(
            f"state is not near-isothermal: max relative temperature "
            f"deviation {dev:g} exceeds {theta_bound:g}")
    dyn = dynamic_quantities(model, p, theta0=theta0)
    mu = np.asarray(dyn.mu, dtype=float)
    mue = _extend(mu, bc)
    grad_mu = (mue[2:] - mue[:-2]) / (2.0 * dx)
    forces = drag_and_heat(closures, p, th.theta1, th.theta2)
    f = -np.asarray(forces.f1, dtype=float)
    agg = mixture_aggregates(p)
    rhs = agg.rho * f / (p.rho1 * p.rho2)
    residual = grad_mu - rhs
    denom = float(np.linalg.norm(grad_mu))
    rel = float(np.linalg.norm(residual)) / max(denom, 1e-300)
    return residual, rel


def _single_fluid_rhs(model, grid: Grid1D, rho, u, s, omega_grad):
    """RHS of the one-component Euler system in (rho, u, s) form.

    u_t + (u^2/2 + h + Omega)_x = theta s_x with h the specific enthalpy;
    phase 1 of a separable two-phase potential (no velocity coupling)
    supplies h, theta, and the sound speed.
    """
    th = evaluate(model, rho, rho, s, s, np.zeros_like(rho))
    hspec = th.W_rho1
    theta = th.theta1
    c2 = model.sound_speed_sq(1, rho, s)
    smax = np.abs(u) + np.sqrt(c2)

    dx = grid.dx
    rhoe, ue, se, he, smaxe = (_extend(a, grid.bc)
                               for a in (rho, u, s, hspec, smax))
    lam = np.maximum(smaxe[:-1], smaxe[1:])

    d_rho = -_rusanov_div(rhoe * ue, rhoe, lam, dx)
    ds_dx = (se[2:] - se[:-2]) / (2.0 * dx)
    d_u = (-_rusanov_div(0.5 * ue ** 2 + he, ue, lam, dx) - omega_grad
           + theta * ds_dx)
    d_s = -u * ds_dx
    return d_rho, d_u, d_s, float(np.max(smax))


def single_fluid_reference(model, grid: Grid1D, rho0, u0, s0, t_end: float,
                           omega: Callable[[np.ndarray], np.ndarray] | None
                           = None, cfl: float = 0.45):
    """Integrate the one-component Euler reference to t_end (Heun in time)."""
    x = grid.centers()
    rho, u, s = _sample(rho0, x), _sample(u0, x), _sample(s0, x)
    omega_grad = _sample(0.0 if omega is None else omega, x)
    t = 0.0
    while t < t_end - 1e-14 * max(1.0, t_end):
        d1 = _single_fluid_rhs(model, grid, rho, u, s, omega_grad)
        dt = min(cfl * grid.dx / max(d1[3], 1e-30), t_end - t)
        r1, u1, s1 = rho + dt * d1[0], u + dt * d1[1], s + dt * d1[2]
        d2 = _single_fluid_rhs(model, grid, r1, u1, s1, omega_grad)
        rho = 0.5 * (rho + r1 + dt * d2[0])
        u = 0.5 * (u + u1 + dt * d2[1])
        s = 0.5 * (s + s1 + dt * d2[2])
        t += dt
    return rho, u, s


def _block_average(fine: np.ndarray, n_coarse: int) -> np.ndarray:
    ratio = fine.size // n_coarse
    return fine.reshape(n_coarse, ratio).mean(axis=1)


def single_fluid_reduction(model, n: int, t_end: float,
                           rho0, u0, s0,
                           x_lo: float = 0.0, x_hi: float = 1.0,
                           ref_n: int | None = None,
                           omega_value=None, omega_grad=None,
                           cfl: float = 0.45) -> Dict[str, float]:
    """L1 distance of the two-fluid solution from a one-component reference.

    Both phases get identical initial data (rho0/2 each) so, with no velocity
    coupling in the potential, each phase evolves as an independent single
    fluid of density rho0/2; the reference therefore runs at half density and
    its output is doubled.  The reference runs on a finer grid (ref_n,
    default 8n) and is restricted by block averaging before comparison.
    An external potential is given as ``omega_value`` (the two-fluid run)
    together with ``omega_grad`` (the reference).
    """
    grid = Grid1D(x_lo, x_hi, n)

    def rho0_half(xx):
        return 0.5 * _sample(rho0, xx)

    if omega_value is None:
        omega_value, omega_grad = np.zeros_like, None
    cfg = SimulationConfig(grid=grid, model=model, omega1=omega_value,
                           omega2=omega_value, cfl=cfl, t_end=t_end,
                           report_interval=t_end)
    init = evolved_from_primitive_profiles(
        model, grid, rho1=rho0_half, rho2=rho0_half,
        u1=u0, u2=u0, s1=s0, s2=s0)
    _, cells, _ = integrate(cfg, init)[-1]
    p = evolved_to_primitive(model, cells)
    rho_tf = np.asarray(p.rho1 + p.rho2, dtype=float)
    u_tf = np.asarray(mixture_aggregates(p).u, dtype=float)

    if ref_n is None:
        ref_n = 8 * n
    ref_grid = Grid1D(x_lo, x_hi, ref_n)
    rho_ref, u_ref, _ = single_fluid_reference(
        model, ref_grid, rho0_half, u0, s0, t_end, omega=omega_grad, cfl=cfl)
    rho_ref = 2.0 * rho_ref
    rho_ref_c = _block_average(rho_ref, n)
    u_ref_c = _block_average(u_ref, n)

    dxc = grid.dx
    return {"l1_rho": float(np.sum(np.abs(rho_tf - rho_ref_c)) * dxc),
            "l1_u": float(np.sum(np.abs(u_tf - u_ref_c)) * dxc)}
