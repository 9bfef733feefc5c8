"""1D method-of-lines finite-volume integrator for the dissipative system.

Evolved variables per cell are (rho1, rho2, K1, K2, s1, s2); in 1D the
K-equation has the near-conservative form

    dK_a/dt + d(K_a u_a - R_a)/dx = theta_a ds_a/dx + f_a / rho_a,

so only the entropy gradient and the entropy advection are nonconservative
products (discretized by central differences of cell values; acceptance-level
runs are smooth).  Conservative terms use the Rusanov (local Lax-Friedrichs)
flux with the local max characteristic speed supplied by the hyperbolicity
module; the heat exchange is a pointwise source.  Time stepping is SSP-RK2
(Heun) for everything but the drag.  The drag is linear in w and moves only
Z = K2 - K1; :func:`step` integrates it exactly in time along Z (ETD2RK),
so a strong drag relaxes to the Fick balance without being resolved.  The CFL
number sets dt at any drag coefficient; the only extra cap is the heat
exchange's stiffness (:func:`_source_rate_cap`).  Steps are clipped so that
reports land exactly on multiples of the report interval.

Each stage recovers the velocities once (:func:`state.evolved_to_primitive`;
a failure becomes a :class:`StepError` naming the first failing cell),
evaluates the potential once (the report, the heat cap and the drag update
reuse that evaluation) and certifies hyperbolicity per cell; the Rusanov
speed and the CFL step take the extreme speeds in closed form
(:func:`hyperbolicity._extreme_speeds`), so no stage makes an eigensolve,
and the min-eig(A) of the report is computed at report times only.

A stage is one (6, n) array, a row per field in the order (rho1, rho2, K1,
K2, s1, s2) and a column per cell, and its rates are another.  The state,
the fluxes of its four conservative rows and the cell speeds get their
ghost cells in one call; the four Rusanov divergences are one call, and so
are the two entropy gradients.  A stage value that is not finite, or a
density below the floor, raises a :class:`StepError` naming the first such
field in that order and its first bad cell; the states a step builds from
densities checked that way are row views of the stack and skip the
constructors' admissibility re-check.  External potentials Omega_a(x) are
plain callables of x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Tuple

import numpy as np

from . import hyperbolicity
from .closures import (ClosureParams, drag_and_heat, drag_coefficient,
                       entropy_sources)
from .potential import RHO_FLOOR, PotentialModel, ThermoEval, evaluate
from .state import (ConvergenceError, EvolvedState, PrimitiveState,
                    _from_checked_densities, evolved_to_primitive,
                    primitive_to_evolved)


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
            raise ValueError("n must be at least 4")
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        if self.bc not in ("periodic", "transmissive"):
            raise ValueError("bc must be periodic or transmissive")

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
    """Cell values, one row or a stack of rows, with one ghost cell on each
    side of the last axis."""
    arr = np.asarray(arr, dtype=float)
    first, last = arr[..., :1], arr[..., -1:]
    if bc == "periodic":
        return np.concatenate((last, arr, first), axis=-1)
    return np.concatenate((first, arr, last), axis=-1)


def _cell_speeds(model, p: PrimitiveState, t: float | None = None):
    """Max |lambda| per cell, from the extreme speeds alone; errors on
    hyperbolicity loss."""
    extremes, ok, margin = hyperbolicity._extreme_speeds(
        model, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
    if not np.all(ok):
        cell = int(np.argmin(ok))
        raise NonHyperbolicError(
            f"cell {cell} left the hyperbolicity region "
            f"(certificate margin {float(margin[cell]):g})", t=t, cell=cell)
    return np.max(np.abs(extremes), axis=-1)


_FIELDS = ("rho1", "rho2", "K1", "K2", "s1", "s2")


def _stack(cells: EvolvedState) -> np.ndarray:
    """A new (6, n) array of the fields of ``cells``, in ``_FIELDS`` order."""
    return np.stack([getattr(cells, f) for f in _FIELDS])


@dataclass(frozen=True, eq=False)
class RHSResult:
    """Rates of one stage.

    ``rates`` has one row per evolved field, in the order of ``_FIELDS``
    (rho1, rho2, K1, K2, s1, s2), and one column per cell.  The K and s rows
    leave the drag out: :func:`step` integrates it exactly in time from
    ``zeta`` (the drag coefficient, f1 = zeta w) and ``dZ_dw`` (the slope
    1 - (1/rho1 + 1/rho2) W_ww of Z = K2 - K1 in w).  The heat exchange is
    in the s rows.
    """

    rates: np.ndarray
    smax: np.ndarray
    primitive: PrimitiveState
    thermo: ThermoEval
    zeta: np.ndarray
    dZ_dw: np.ndarray


def _rusanov_div(f: np.ndarray, q: np.ndarray, lam: np.ndarray,
                 dx: float) -> np.ndarray:
    """d/dx of the Rusanov flux for cell values, one row or a stack of rows,
    with one ghost on each side of the last axis."""
    flux = (0.5 * (f[..., :-1] + f[..., 1:])
            - 0.5 * lam * (q[..., 1:] - q[..., :-1]))
    return (flux[..., 1:] - flux[..., :-1]) / dx


def _central_diff(e: np.ndarray, dx: float) -> np.ndarray:
    """Central difference of cell values, one row or a stack of rows, with
    one ghost on each side of the last axis."""
    return (e[..., 2:] - e[..., :-2]) / (2.0 * dx)


def assemble_rhs(config: SimulationConfig, cells: EvolvedState,
                 t: float | None = None) -> RHSResult:
    """Rates of the stage ``cells``, a row per field of ``_FIELDS``."""
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

    heat = drag_and_heat(replace(config.closures, k=0.0), p, th.theta1,
                         th.theta2)
    src1, src2 = entropy_sources(heat, p, th.theta1, th.theta2)
    zeta = drag_coefficient(config.closures, p, th.theta1, th.theta2)
    dZ_dw = 1.0 - (1.0 / p.rho1 + 1.0 / p.rho2) * model.d2W_dw2(
        p.rho1, p.rho2, p.s1, p.s2, p.w)

    stage = _stack(cells)
    u = np.stack((p.u1, p.u2))
    fluxes = np.concatenate((stage[:2] * u, stage[2:4] * u - (R1, R2)))
    ext = _extend(np.concatenate((stage, fluxes, smax[np.newaxis])), grid.bc)
    lam = np.maximum(ext[-1, :-1], ext[-1, 1:])
    ds_dx = _central_diff(ext[4:6], dx)
    rates = np.concatenate((-_rusanov_div(ext[6:10], ext[:4], lam, dx),
                            -u * ds_dx + (src1, src2)))
    rates[2:4] += np.stack((th.theta1, th.theta2)) * ds_dx
    return RHSResult(rates=rates, smax=smax, primitive=p, thermo=th,
                     zeta=zeta, dZ_dw=dZ_dw)


def _require(ok: np.ndarray, message: str, t: float | None) -> None:
    """Raise :class:`StepError` unless ``ok`` holds everywhere; ``ok`` has
    rows in ``_FIELDS`` order, and ``message`` is formatted with the field
    and the cell of its first failure."""
    if not np.all(ok):
        row, cell = divmod(int(np.argmin(ok)), ok.shape[-1])
        raise StepError(message.format(_FIELDS[row], cell), t=t, cell=cell)


def _require_finite(new: np.ndarray, t: float | None) -> None:
    _require(np.isfinite(new), "{} is not finite in cell {} after a stage", t)


def _advance(cells: EvolvedState, rates: Tuple[RHSResult, ...], dt: float,
             t: float | None = None) -> EvolvedState:
    """Explicit stage, cells plus dt times the mean of the rates; a
    non-finite value or a density below the floor raises
    :class:`StepError` naming the field and its first bad cell."""
    scale = dt / len(rates)
    new = _stack(cells) + scale * sum(r.rates for r in rates)
    _require_finite(new, t)
    _require(new[:2] >= RHO_FLOOR, "{} went nonpositive in cell {} after a "
             "stage; reduce the CFL number", t)
    return _from_checked_densities(EvolvedState, **dict(zip(_FIELDS, new)))


def _series_table(n: int = 30) -> np.ndarray:
    """Taylor coefficients in (-x) of the functions of
    :func:`_exponential_weights`, one row per power; 30 terms reach
    round-off below x = 1."""
    f = [float(math.factorial(j)) for j in range(n + 2)]
    return np.array([[
        1.0 / f[j + 1], 1.0 / f[j + 2],
        *(c for m in (0, 1) for c in (
            2.0 ** j / (f[j] * (j + m + 1)),
            (2.0 ** (j + 1) - 1.0) / (f[j + 1] * (j + m + 2)),
            (2.0 ** (j + 2) - 2.0) / (f[j + 2] * (j + m + 3))))
    ] for j in range(n)])


_SERIES = _series_table()


def _series_weights(x: np.ndarray) -> np.ndarray:
    """Rows of :func:`_exponential_weights` by Taylor series, for x < 1."""
    # enough terms that the first omitted one, below (2x)^j / j!, is under
    # round-off
    bound = 2.0 * float(np.max(x, initial=0.0))
    terms, size = 1, 1.0
    while terms < len(_SERIES) and size >= 1e-18:
        size *= bound / terms
        terms += 1
    powers = np.ones((terms, x.size))
    if terms > 1:
        np.cumprod(np.broadcast_to(-x.ravel(), powers[1:].shape), axis=0,
                   out=powers[1:])
    return (_SERIES[:terms].T @ powers).reshape((8,) + x.shape)


def _closed_weights(x: np.ndarray) -> np.ndarray:
    """Rows of :func:`_exponential_weights` in closed form, for x >= 1."""
    p1, q1 = -np.expm1(-x) / x, -np.expm1(-2.0 * x) / (2.0 * x)
    p2, q2 = (1.0 - p1) / x, (1.0 - q1) / (2.0 * x)
    psi, psi2 = p1 - p2, q1 - q2        # int_0^1 s e^(-xs) ds at x, 2x
    return np.array([p1, p2,
                     q1, (p1 - q1) / x, (1.0 - 2.0 * p1 + q1) / x ** 2,
                     psi2, (psi - psi2) / x, (0.5 - 2.0 * psi + psi2) / x ** 2])


def _exponential_weights(x) -> Tuple[np.ndarray, np.ndarray]:
    """(phi, M) of the drag update for the decay exponent x = r dt >= 0.

    phi = (phi_1, phi_2) with phi_1(x) = (1 - e^-x) / x and phi_2(x) =
    (1 - phi_1) / x, so phi_k(0) = 1/k!.  M[m, i] = int_0^1 s^m y_i(s) ds
    for m = 0, 1, where y_0 = e^(-2xs), y_1 = s e^(-xs) phi_1(xs) and
    y_2 = (s phi_1(xs))^2 are the three terms of the square of
    z e^(-xs) + g s phi_1(xs).  Below x = 1 Taylor series replace the
    cancelling closed forms.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1.0
    if np.all(small):
        out = _series_weights(x)
    elif not np.any(small):
        out = _closed_weights(x)
    else:
        out = np.where(small, _series_weights(np.where(small, x, 0.0)),
                       _closed_weights(np.where(small, 1.0, x)))
    return out[:2], out[2:].reshape((2, 3) + x.shape)


def _drag_dissipation(z0, g, dt, M, c0, c1):
    """int_0^dt c(t) Z(t)^2 dt along Z(t) = z0 e^(-r t) + g t phi_1(r t),
    the solution of dZ/dt = -r Z + g, with c linear in time from c0 to c1;
    ``M`` is from :func:`_exponential_weights` at r dt.  The integrand is
    nonnegative; the result is clipped at 0 against round-off."""
    hg = dt * g
    terms = (z0 ** 2, 2.0 * z0 * hg, hg ** 2)
    m0, m1 = (sum(t * Mm[i] for i, t in enumerate(terms)) for Mm in M)
    return np.maximum(dt * (c0 * m0 + (c1 - c0) * m1), 0.0)


def _z_forcing(cells: EvolvedState, rhs: RHSResult, rate) -> np.ndarray:
    """G = dZ/dt + rate Z for Z = K2 - K1: the rate of Z less the drag
    -rate Z frozen for the step.  The drag moves Z at -(1/rho1 + 1/rho2)
    zeta w; for a law with W_w linear in w this is -r Z with the stage's own
    rate r, so G gains (rate - r) Z across a stage."""
    p = rhs.primitive
    drag = (1.0 / p.rho1 + 1.0 / p.rho2) * rhs.zeta * p.w
    return rhs.rates[3] - rhs.rates[2] - drag + rate * (cells.K2 - cells.K1)


def _relax(cells: EvolvedState, z, heat, t: float | None) -> EvolvedState:
    """Move Z = K2 - K1 to ``z`` by K1 += alpha/rho1, K2 -= alpha/rho2,
    which keeps the impulse rho1 K1 + rho2 K2, and add the drag heating
    ``heat`` = (ds1, ds2); the densities are left as they are."""
    new = _stack(cells)
    alpha = (cells.K2 - cells.K1 - z) / (1.0 / cells.rho1 + 1.0 / cells.rho2)
    new[2:4] += (alpha / cells.rho1, -alpha / cells.rho2)
    new[4:] += heat
    _require_finite(new, t)
    return _from_checked_densities(EvolvedState, **dict(zip(_FIELDS, new)))


def step(config: SimulationConfig, cells: EvolvedState, dt: float,
         t: float | None = None,
         rhs0: RHSResult | None = None) -> EvolvedState:
    """One step: exponential (ETD2RK) in the drag, Heun (SSP-RK2) otherwise.

    The drag leaves the impulse rho1 K1 + rho2 K2 alone and moves only
    Z = K2 - K1, at -r Z with r = (1/rho1 + 1/rho2) zeta / dZ_dw frozen per
    cell at the step's start.  With G the rest of the rate of Z
    (:func:`_z_forcing`, at stage n and at stage a),

        Z_a     = e^(-r dt) Z_n + dt phi_1(r dt) G_n,
        Z_(n+1) = Z_a + dt phi_2(r dt) (G_a - G_n),

    each reached from the Heun value by an impulse-conserving move of K1
    and K2 (:func:`_relax`); every other rate (transport, heat exchange) is
    Heun.  With r = 0 this is Heun; for r dt >> 1, Z tends to G / r, the
    Fick balance, so dt need not resolve the drag.

    The drag dissipates zeta w^2 = (zeta / dZ_dw^2) Z^2, integrated along
    the exponential path of Z (:func:`_drag_dissipation`): with G_n over the
    stage; over the whole step with (G_n + G_a)/2 and zeta / dZ_dw^2 linear
    in time from n to a, in one integral (averaging the two stage integrals
    would halve the heat in the stiff limit).  It heats the phases as the
    entropy equations split it, rho_a theta_a ds_a = (rho_b / rho) zeta w^2
    dt with b the other phase; over the whole step the split takes the mean
    of its values at n and a (the temperatures rise as the heat goes in).
    The heating is nonnegative.  Admissibility is rechecked after each
    stage.
    """
    if rhs0 is None:
        rhs0 = assemble_rhs(config, cells, t=t)
    stage = _advance(cells, (rhs0,), dt, t=t)

    p0 = rhs0.primitive
    rate = (1.0 / p0.rho1 + 1.0 / p0.rho2) * rhs0.zeta / rhs0.dZ_dw
    phi, M = _exponential_weights(rate * dt)
    z0 = cells.K2 - cells.K1

    def coefficients(rhs):
        p, th = rhs.primitive, rhs.thermo
        rho = p.rho1 + p.rho2
        return (rhs.zeta / rhs.dZ_dw ** 2,
                p.rho2 / (rho * p.rho1 * th.theta1),
                p.rho1 / (rho * p.rho2 * th.theta2))

    c0, e01, e02 = coefficients(rhs0)
    g0 = _z_forcing(cells, rhs0, rate)
    z_a = np.exp(-rate * dt) * z0 + dt * phi[0] * g0
    q = _drag_dissipation(z0, g0, dt, M, c0, c0)
    stage = _relax(stage, z_a, (q * e01, q * e02), t)

    rhs1 = assemble_rhs(config, stage, t=t)
    c1, e11, e12 = coefficients(rhs1)
    g1 = _z_forcing(stage, rhs1, rate)
    heun = _advance(cells, (rhs0, rhs1), dt, t=t)
    q = _drag_dissipation(z0, 0.5 * (g0 + g1), dt, M, c0, c1)
    return _relax(heun, z_a + dt * phi[1] * (g1 - g0),
                  (0.5 * q * (e01 + e11), 0.5 * q * (e02 + e12)), t)


def _source_rate_cap(config: SimulationConfig, rhs: RHSResult) -> float:
    """Stiffness bound of the explicit heat exchange; the drag needs none,
    :func:`step` integrates it exactly in time."""
    kappa = config.closures.kappa
    if kappa == 0.0:
        return 0.0
    p, theta1, theta2 = rhs.primitive, rhs.thermo.theta1, rhs.thermo.theta2
    return kappa * float(np.max(np.maximum(
        1.0 / (p.rho1 * theta1 ** 2), 1.0 / (p.rho2 * theta2 ** 2))))


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
