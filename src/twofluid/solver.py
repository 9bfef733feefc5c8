"""1D method-of-lines finite-volume integrator for the dissipative system.

Evolved variables per cell are (rho1, rho2, K1, K2, s1, s2); in 1D the
K-equation has the near-conservative form

    dK_a/dt + d(K_a u_a - R_a)/dx = theta_a ds_a/dx + f_a / rho_a,

so only the entropy gradient and the entropy advection are nonconservative
products (discretized by central differences of cell values; acceptance-level
runs are smooth).  Conservative terms use the Rusanov (local Lax-Friedrichs)
flux with the local max characteristic speed supplied by the hyperbolicity
module; algebraic drag/heat sources are pointwise.  Time stepping is SSP-RK2
(Heun) with a CFL limit and an extra cap for stiff drag/heat rates; steps are
clipped so that reports land exactly on multiples of the report interval.

Each stage recovers the velocities once (:func:`state.evolved_to_primitive`;
a failure becomes a :class:`StepError` naming the first failing cell),
evaluates the potential once (the report and the drag/heat cap reuse that
evaluation) and certifies hyperbolicity per cell with the wave speeds; the
min-eig(A) of the report is computed at report times only.  A stage value
that is not finite, or a density below the floor, raises a
:class:`StepError` naming the field and the first bad cell.  External
potentials Omega_a(x) are plain callables of x.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from . import hyperbolicity
from .closures import ClosureParams, drag_and_heat, entropy_sources
from .potential import RHO_FLOOR, PotentialModel, ThermoEval, evaluate
from .state import (ConvergenceError, EvolvedState, PrimitiveState,
                    evolved_to_primitive, primitive_to_evolved)


class StepError(RuntimeError):
    """Time step failed; carries the time and offending cell index."""

    def __init__(self, message: str, t: float | None = None,
                 cell: int | None = None):
        super().__init__(message)
        self.t = t
        self.cell = cell


class NonHyperbolicError(StepError):
    """A cell left the hyperbolicity region (its certificate failed)."""


@dataclass(frozen=True)
class Grid1D:
    x_lo: float
    x_hi: float
    n: int
    bc: str = "periodic"

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid needs at least 4 cells")
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        if self.bc not in ("periodic", "transmissive"):
            raise ValueError(f"unknown boundary mode {self.bc!r}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n

    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n) + 0.5) * self.dx


@dataclass(frozen=True)
class SimulationConfig:
    grid: Grid1D
    model: PotentialModel
    closures: ClosureParams = field(default_factory=ClosureParams)
    omega1: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    omega2: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    cfl: float = 0.45
    t_end: float = 1.0
    report_interval: float | None = None
    theta0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.9):
            raise ValueError("cfl must lie in (0, 0.9]")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")


@dataclass(frozen=True, eq=False)
class TimeStepReport:
    t: float
    dt: float
    max_speed: float
    mass1: float
    mass2: float
    momentum_K: float
    momentum_u: float
    energy: float
    entropy: float
    min_eig_A: float


def _sample(f, x: np.ndarray) -> np.ndarray:
    """A profile callable of x, or a constant, as an array shaped like x."""
    return np.broadcast_to(np.asarray(f(x) if callable(f) else f,
                                      dtype=float), x.shape).copy()


def _extend(arr, bc: str) -> np.ndarray:
    """Cell values with one ghost cell on each side."""
    arr = np.asarray(arr, dtype=float)
    if bc == "periodic":
        return np.concatenate(([arr[-1]], arr, [arr[0]]))
    return np.concatenate(([arr[0]], arr, [arr[-1]]))


def _cell_speeds(model, p: PrimitiveState, t: float | None = None):
    """Max |lambda| per cell; errors on hyperbolicity loss."""
    speeds, ok, margin = hyperbolicity.wave_speeds_batch(
        model, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
    if not np.all(ok):
        cell = int(np.argmin(ok))
        raise NonHyperbolicError(
            f"cell {cell} left the hyperbolicity region "
            f"(certificate margin {float(margin[cell]):g})", t=t, cell=cell)
    return np.max(np.abs(speeds), axis=-1)


@dataclass(frozen=True, eq=False)
class RHSResult:
    d_rho1: np.ndarray
    d_rho2: np.ndarray
    d_K1: np.ndarray
    d_K2: np.ndarray
    d_s1: np.ndarray
    d_s2: np.ndarray
    smax: np.ndarray
    primitive: PrimitiveState
    thermo: ThermoEval


def _rusanov_div(f: np.ndarray, q: np.ndarray, lam: np.ndarray,
                 dx: float) -> np.ndarray:
    """d/dx of the Rusanov flux for cell values with one ghost on each side."""
    flux = 0.5 * (f[:-1] + f[1:]) - 0.5 * lam * (q[1:] - q[:-1])
    return (flux[1:] - flux[:-1]) / dx


def assemble_rhs(config: SimulationConfig, cells: EvolvedState,
                 t: float | None = None) -> RHSResult:
    model = config.model
    grid = config.grid
    dx = grid.dx
    x = grid.centers()

    try:
        p = evolved_to_primitive(model, cells)
    except ConvergenceError as exc:
        raise StepError(f"velocity recovery failed: {exc}", t=t,
                        cell=exc.cell) from exc
    th = evaluate(model, p.rho1, p.rho2, p.s1, p.s2, p.w)
    smax = _cell_speeds(model, p, t=t)

    R1 = 0.5 * p.u1 ** 2 - th.W_rho1 - config.omega1(x)
    R2 = 0.5 * p.u2 ** 2 - th.W_rho2 - config.omega2(x)

    forces = drag_and_heat(config.closures, p, th.theta1, th.theta2)
    src1, src2 = entropy_sources(forces, p, th.theta1, th.theta2)

    bc = grid.bc
    ext = lambda a: _extend(a, bc)
    rho1e, rho2e = ext(p.rho1), ext(p.rho2)
    u1e, u2e = ext(p.u1), ext(p.u2)
    K1e, K2e = ext(cells.K1), ext(cells.K2)
    s1e, s2e = ext(cells.s1), ext(cells.s2)
    R1e, R2e = ext(R1), ext(R2)
    smaxe = ext(smax)
    lam = np.maximum(smaxe[:-1], smaxe[1:])

    d_rho1 = -_rusanov_div(rho1e * u1e, rho1e, lam, dx)
    d_rho2 = -_rusanov_div(rho2e * u2e, rho2e, lam, dx)

    ds1_dx = (s1e[2:] - s1e[:-2]) / (2.0 * dx)
    ds2_dx = (s2e[2:] - s2e[:-2]) / (2.0 * dx)

    d_K1 = (-_rusanov_div(K1e * u1e - R1e, K1e, lam, dx)
            + th.theta1 * ds1_dx + forces.f1 / p.rho1)
    d_K2 = (-_rusanov_div(K2e * u2e - R2e, K2e, lam, dx)
            + th.theta2 * ds2_dx + forces.f2 / p.rho2)

    d_s1 = -p.u1 * ds1_dx + src1
    d_s2 = -p.u2 * ds2_dx + src2

    return RHSResult(d_rho1=d_rho1, d_rho2=d_rho2, d_K1=d_K1, d_K2=d_K2,
                     d_s1=d_s1, d_s2=d_s2, smax=smax,
                     primitive=p, thermo=th)


_FIELDS = ("rho1", "rho2", "K1", "K2", "s1", "s2")


def _advance(cells: EvolvedState, rhs: RHSResult, dt: float,
             t: float | None = None) -> EvolvedState:
    """Forward-Euler stage; a non-finite value or a density below the floor
    raises :class:`StepError` naming the field and its first bad cell."""
    new = {f: getattr(cells, f) + dt * getattr(rhs, "d_" + f) for f in _FIELDS}
    for name, arr in new.items():
        finite = np.isfinite(arr)
        if not np.all(finite):
            cell = int(np.argmin(finite))
            raise StepError(f"{name} is not finite in cell {cell} after a "
                            "stage", t=t, cell=cell)
    for name in ("rho1", "rho2"):
        if np.min(new[name]) < RHO_FLOOR:
            cell = int(np.argmin(new[name]))
            raise StepError(
                f"{name} went nonpositive in cell {cell} after a stage; "
                "reduce the CFL number", t=t, cell=cell)
    return EvolvedState(**new)


def step(config: SimulationConfig, cells: EvolvedState, dt: float,
         t: float | None = None,
         rhs0: RHSResult | None = None) -> EvolvedState:
    """One SSP-RK2 (Heun) step; admissibility rechecked after each stage."""
    if rhs0 is None:
        rhs0 = assemble_rhs(config, cells, t=t)
    stage1 = _advance(cells, rhs0, dt, t=t)
    rhs1 = assemble_rhs(config, stage1, t=t)
    stage2 = _advance(stage1, rhs1, dt, t=t)
    return EvolvedState(
        rho1=0.5 * (cells.rho1 + stage2.rho1),
        rho2=0.5 * (cells.rho2 + stage2.rho2),
        K1=0.5 * (cells.K1 + stage2.K1),
        K2=0.5 * (cells.K2 + stage2.K2),
        s1=0.5 * (cells.s1 + stage2.s1),
        s2=0.5 * (cells.s2 + stage2.s2))


def _source_rate_cap(config: SimulationConfig, rhs: RHSResult) -> float:
    """Stiffness bound for the algebraic drag/heat sources."""
    k, kappa = config.closures.k, config.closures.kappa
    p, theta1, theta2 = rhs.primitive, rhs.thermo.theta1, rhs.thermo.theta2
    rate = 0.0
    if k > 0.0:
        rate += k * float(np.max((1.0 / p.rho1 + 1.0 / p.rho2)
                                 * np.maximum(1.0 / theta1, 1.0 / theta2)))
    if kappa > 0.0:
        rate += kappa * float(np.max(np.maximum(
            1.0 / (p.rho1 * theta1 ** 2), 1.0 / (p.rho2 * theta2 ** 2))))
    return rate


def make_report(config: SimulationConfig, cells: EvolvedState, t: float,
                dt: float, rhs: RHSResult) -> TimeStepReport:
    grid = config.grid
    dx = grid.dx
    x = grid.centers()
    p = rhs.primitive
    min_eig = hyperbolicity.min_eig_A_batch(config.model, p.rho1, p.rho2,
                                            p.u1, p.u2, p.s1, p.s2)
    energy_density = (0.5 * p.rho1 * p.u1 ** 2 + 0.5 * p.rho2 * p.u2 ** 2
                      + p.rho1 * config.omega1(x)
                      + p.rho2 * config.omega2(x) + rhs.thermo.U)
    return TimeStepReport(
        t=t, dt=dt,
        max_speed=float(np.max(rhs.smax)),
        mass1=float(np.sum(p.rho1) * dx),
        mass2=float(np.sum(p.rho2) * dx),
        momentum_K=float(np.sum(p.rho1 * cells.K1 + p.rho2 * cells.K2) * dx),
        momentum_u=float(np.sum(p.rho1 * p.u1 + p.rho2 * p.u2) * dx),
        energy=float(np.sum(energy_density) * dx),
        entropy=float(np.sum(p.rho1 * p.s1 + p.rho2 * p.s2) * dx),
        min_eig_A=float(np.min(min_eig)))


def integrate(config: SimulationConfig, initial: EvolvedState
              ) -> List[Tuple[float, EvolvedState, TimeStepReport]]:
    """Run to t_end, emitting (t, cells, report) at the configured cadence.

    The initial and final states are always included.  Steps are clipped so
    that the k-th report lands exactly on ``k * report_interval``; a
    report_interval of zero records every step.  Step errors propagate with
    their time and cell location attached.
    """
    cadence = config.report_interval
    if cadence is None:
        cadence = config.t_end / 10.0

    t = 0.0
    cells = initial
    rhs = assemble_rhs(config, cells, t=t)
    out = [(t, cells, make_report(config, cells, t, 0.0, rhs))]
    k = 1
    while t < config.t_end - 1e-14 * max(1.0, config.t_end):
        t_next = min(k * cadence, config.t_end) if cadence > 0 else config.t_end
        dt = config.cfl * config.grid.dx / max(float(np.max(rhs.smax)), 1e-30)
        rate = _source_rate_cap(config, rhs)
        if rate > 0.0:
            dt = min(dt, 0.5 / rate)
        landed = dt >= t_next - t
        if landed:
            dt = t_next - t
        cells = step(config, cells, dt, t=t, rhs0=rhs)
        t = t_next if landed else t + dt
        rhs = assemble_rhs(config, cells, t=t)
        if landed:
            k += 1
        if landed or cadence == 0:
            out.append((t, cells, make_report(config, cells, t, dt, rhs)))
    return out


def evolved_from_primitive_profiles(model: PotentialModel, grid: Grid1D,
                                    rho1, rho2, u1, u2, s1, s2
                                    ) -> EvolvedState:
    """Sample primitive profile callables at cell centers and convert."""
    x = grid.centers()
    p = PrimitiveState(rho1=_sample(rho1, x), rho2=_sample(rho2, x),
                       u1=_sample(u1, x), u2=_sample(u2, x),
                       s1=_sample(s1, x), s2=_sample(s2, x))
    return primitive_to_evolved(model, p)
