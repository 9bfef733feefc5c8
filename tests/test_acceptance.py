"""Acceptance suite: twelve oracle-backed criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""
import time

import numpy as np
import pytest

from twofluid.closures import ClosureParams, drag_and_heat
from twofluid.config import parse_config
from twofluid.cli import run_subcommand
from twofluid.hyperbolicity import (assemble_symmetric_system,
                                    check_legendre_identities,
                                    check_stability_inequalities,
                                    critical_relative_velocity,
                                    map_hyperbolic_region, wave_speeds_batch)
from twofluid.potential import SeparableAddedMass, SeparableAddedMassParams
from twofluid.solver import (Grid1D, SimulationConfig,
                             evolved_from_primitive_profiles, integrate)
from twofluid.state import (PrimitiveState, evolved_to_primitive,
                            mixture_aggregates, solve_relative_velocity,
                            solve_relative_velocity_bisection)
from twofluid.verify import (balance_subidentities, conservation_drift,
                             fick_residual, gibbs_residual,
                             random_trig_fields, single_fluid_reduction)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def make_model(a=0.3, gamma1=2.0, gamma2=1.4):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=gamma1, gamma2=gamma2, a=a))


def smooth_run(n, k=0.5, kappa=0.3, t_end=1.0, report_interval=None):
    m = make_model(a=0.2)
    grid = Grid1D(0.0, 1.0, n)
    cfg = SimulationConfig(grid=grid, model=m,
                           closures=ClosureParams(k=k, kappa=kappa),
                           t_end=t_end, report_interval=report_interval)
    init = evolved_from_primitive_profiles(
        m, grid,
        rho1=lambda x: 1.0 + 0.03 * np.sin(2 * np.pi * x),
        rho2=lambda x: 0.8 + 0.02 * np.cos(2 * np.pi * x),
        u1=lambda x: 0.1 + 0.02 * np.sin(2 * np.pi * x),
        u2=lambda x: 0.05 + 0.01 * np.cos(4 * np.pi * x),
        s1=0.0, s2=0.1)
    return cfg, init


def test_01_gibbs_identity_convergence():
    start = time.perf_counter()
    m = make_model()
    cl = ClosureParams(k=0.7, kappa=0.4)
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(20):
        field = random_trig_fields(rng)
        point = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        res = [abs(gibbs_residual(m, cl, field, point, h).combination)
               for h in (1e-2, 5e-3, 2.5e-3)]
        ok &= res[0] / res[1] >= 3.6 and res[1] / res[2] >= 3.6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _report(1, "dynamic Gibbs identity, order >= 1.85 on 20 field "
                   "sets", ok)


def test_02_drag_work_identity_and_subidentities():
    m = make_model()
    cl = ClosureParams(k=1.3, kappa=0.6)
    rng = np.random.default_rng(2)
    n = 10**5
    p = PrimitiveState(rho1=rng.uniform(0.3, 2, n), rho2=rng.uniform(0.3, 2, n),
                       u1=rng.normal(0, 1, n), u2=rng.normal(0, 1, n),
                       s1=rng.uniform(-0.3, 0.3, n),
                       s2=rng.uniform(-0.3, 0.3, n))
    th1 = rng.uniform(0.5, 2, n)
    th2 = rng.uniform(0.5, 2, n)
    f = drag_and_heat(cl, p, th1, th2)
    # the drag power of the momentum equations against the drag term of the
    # entropy equations
    work = f.f1 * p.u1 + f.f2 * p.u2
    u = mixture_aggregates(p).u
    residual = work - (f.f1 * (p.u1 - u) + f.f2 * (p.u2 - u))
    scale = np.abs(f.f1 * p.u1) + np.abs(f.f2 * p.u2) + 1e-300
    ok = bool(np.max(np.abs(residual) / scale) <= 1e-14)

    rng2 = np.random.default_rng(3)
    for _ in range(5):
        field = random_trig_fields(rng2)
        pt = (float(rng2.uniform(0, 1)), float(rng2.uniform(0, 1)))
        ra = balance_subidentities(m, cl, field, pt, 1e-2)
        rb = balance_subidentities(m, cl, field, pt, 5e-3)
        for key in ("b", "c", "d", "f"):
            ok &= abs(ra[key]) / abs(rb[key]) >= 2 ** 1.85
        # identity e cancels exactly under shared stencils; round-off passes
        ok &= abs(ra["e"]) < 1e-13 and abs(rb["e"]) < 1e-13
    assert _report(2, "drag-work identity exact, sub-identities order >= "
                   "1.85", ok)


def test_03_legendre_identities():
    m = make_model(a=0.4)
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        rho1 = float(rng.uniform(0.5, 1.5))
        rho2 = float(rng.uniform(0.5, 1.5))
        w = float(rng.uniform(-0.3, 0.3))
        rho = rho1 + rho2
        p = PrimitiveState(rho1=rho1, rho2=rho2, u1=-rho2 * w / rho,
                           u2=rho1 * w / rho,
                           s1=float(rng.uniform(-0.2, 0.2)),
                           s2=float(rng.uniform(-0.2, 0.2)))
        ok &= check_legendre_identities(m, p) <= 1e-6
    assert _report(3, "Legendre identities dG/dsigma = -rho, dG/dj = K", ok)


def test_04_symmetric_form():
    m = make_model(a=0.4)
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        rho1 = float(rng.uniform(0.5, 1.5))
        rho2 = float(rng.uniform(0.5, 1.5))
        w = float(rng.uniform(-0.25, 0.25))
        rho = rho1 + rho2
        p = PrimitiveState(rho1=rho1, rho2=rho2, u1=-rho2 * w / rho,
                           u2=rho1 * w / rho,
                           s1=float(rng.uniform(-0.2, 0.2)),
                           s2=float(rng.uniform(-0.2, 0.2)))
        sys = assemble_symmetric_system(m, p)
        ok &= sys.asymmetry_A <= 1e-6 and sys.asymmetry_B <= 1e-6
    # states passing the convexity checks at w = 0 must give pos. def. A
    for _ in range(200):
        p = PrimitiveState(rho1=float(rng.uniform(0.5, 1.5)),
                           rho2=float(rng.uniform(0.5, 1.5)),
                           u1=0.0, u2=0.0,
                           s1=float(rng.uniform(-0.2, 0.2)),
                           s2=float(rng.uniform(-0.2, 0.2)))
        if check_stability_inequalities(m, p).all_hold:
            ok &= assemble_symmetric_system(m, p).min_eig_A > 0.0
    assert _report(4, "symmetric form: asymmetry <= 1e-6, pos. def. at "
                   "rest", ok)


def test_05_decoupled_speed_oracle():
    m = make_model(a=0.0)
    rng = np.random.default_rng(11)
    n = 1000
    rho1 = rng.uniform(0.5, 1.5, n)
    rho2 = rng.uniform(0.5, 1.5, n)
    u1 = rng.normal(0, 0.3, n)
    u2 = rng.normal(0, 0.3, n)
    s1 = rng.uniform(-0.2, 0.2, n)
    s2 = rng.uniform(-0.2, 0.2, n)
    speeds, good, _ = wave_speeds_batch(m, rho1, rho2, u1, u2, s1, s2)
    c1 = np.sqrt(m.sound_speed_sq(1, rho1, s1))
    c2 = np.sqrt(m.sound_speed_sq(2, rho2, s2))
    expected = np.sort(np.stack([u1 - c1, u1 + c1, u2 - c2, u2 + c2],
                                axis=-1), axis=-1)
    rel = np.abs(speeds - expected) / np.maximum(1.0, np.abs(expected))
    ok = bool(np.all(good)) and bool(np.max(rel) <= 1e-8)
    assert _report(5, "decoupled speeds match u_a +- c_a", ok)


def test_06_critical_w_reproducible():
    m = make_model(a=1.0)
    stars = [critical_relative_velocity(m, 1.2, 0.8, 0.05, -0.1, w_max=5.0)
             for _ in range(3)]
    ok = all(s is not None for s in stars)
    ok &= (max(stars) - min(stars)) <= 1e-6 * max(stars)
    below = map_hyperbolic_region(m, [1.2], [0.8], [0.999 * stars[0]],
                                  0.05, -0.1)[0]
    above = map_hyperbolic_region(m, [1.2], [0.8], [1.001 * stars[0]],
                                  0.05, -0.1)[0]
    ok &= below.min_eig_A > 0.0 > above.min_eig_A
    assert _report(6, "critical w* reproducible to 1e-6, min-eig sign "
                   "change", ok)


def test_07_velocity_recovery_oracles():
    m = make_model(a=0.6)
    rng = np.random.default_rng(13)
    n = 10**5
    rho1 = rng.uniform(0.3, 2.0, n)
    rho2 = rng.uniform(0.3, 2.0, n)
    s1 = rng.uniform(-0.3, 0.3, n)
    s2 = rng.uniform(-0.3, 0.3, n)
    dK = rng.normal(0, 1.0, n)
    tol = 1e-14 * np.maximum(1.0, np.abs(dK))
    wn = solve_relative_velocity(m, rho1, rho2, s1, s2, dK, tol=tol)
    wb = solve_relative_velocity_bisection(m, rho1, rho2, s1, s2, dK, tol=tol)
    ok = bool(np.max(np.abs(wn - wb)) <= 1e-12)
    closed = dK / (1.0 + 0.6 * (1.0 / rho1 + 1.0 / rho2))
    ok &= bool(np.max(np.abs(wn - closed)) <= 1e-12)
    assert _report(7, "velocity recovery matches bisection and closed "
                   "form", ok)


def test_08_single_fluid_reduction():
    start = time.perf_counter()
    m = SeparableAddedMass(SeparableAddedMassParams(gamma1=1.4, gamma2=1.4))
    rows = single_fluid_reduction(
        m, (200, 400, 800), 0.15,
        rho0=lambda x: 1.0 + 0.1 * np.exp(-100 * (x - 0.5) ** 2),
        u0=lambda x: 0.05 * np.exp(-100 * (x - 0.5) ** 2),
        s0=0.0, ref_n=3200)
    orders = [r["order_rho"] for r in rows[1:]]
    elapsed = time.perf_counter() - start
    ok = min(orders) >= 0.8 and elapsed < 60.0
    assert _report(8, "single-fluid reduction converges at order >= 0.8", ok)


def test_09_conservation_laws():
    drifts = {}
    for n in (400, 800):
        cfg, init = smooth_run(n, t_end=1.0, report_interval=0.1)
        out = integrate(cfg, init)
        drifts[n] = conservation_drift(out)
    ok = drifts[400]["mass1"]["rel"] <= 1e-12
    ok &= drifts[400]["mass2"]["rel"] <= 1e-12
    for name in ("momentum_K", "energy"):
        ok &= drifts[400][name]["rel"] <= 1e-3
        ok &= drifts[800][name]["rel"] <= 0.5 * drifts[400][name]["rel"] * 1.2
    assert _report(9, "mass to round-off; impulse/energy <= 1e-3 and "
                   "halving", ok)


def test_10_entropy_inequality():
    # per-step entropy record in a dissipative run
    cfg, init = smooth_run(200, k=0.5, kappa=0.3, t_end=0.3,
                           report_interval=0.0)
    out = integrate(cfg, init)
    ent = np.array([r.entropy for _, _, r in out])
    scale = float(np.max(np.abs(ent)))
    ok = bool(np.min(np.diff(ent)) >= -1e-12 * scale)
    # conservative closures produce exactly zero
    from twofluid.closures import entropy_production
    rng = np.random.default_rng(17)
    n = 10**4
    p = PrimitiveState(rho1=rng.uniform(0.3, 2, n), rho2=rng.uniform(0.3, 2, n),
                       u1=rng.normal(0, 1, n), u2=rng.normal(0, 1, n),
                       s1=np.zeros(n), s2=np.zeros(n))
    th1 = rng.uniform(0.5, 2, n)
    th2 = rng.uniform(0.5, 2, n)
    f0 = drag_and_heat(ClosureParams(), p, th1, th2)
    prod = entropy_production(f0, p, th1, th2)
    ok &= bool(np.max(np.abs(prod)) <= 1e-14)
    assert _report(10, "entropy nondecreasing per step; exact advection "
                   "when conservative", ok)


def test_11_ficks_law():
    m = SeparableAddedMass(SeparableAddedMassParams(gamma1=2.0, gamma2=2.0))
    cl = ClosureParams(k=200.0, kappa=5.0)
    grid = Grid1D(0.0, 1.0, 128)
    delta = 0.02
    init = evolved_from_primitive_profiles(
        m, grid,
        rho1=lambda x: 1.0 + delta * np.sin(2 * np.pi * x),
        rho2=lambda x: np.sqrt(
            2.0 - (1.0 + delta * np.sin(2 * np.pi * x)) ** 2),
        u1=0.0, u2=0.0, s1=0.0, s2=0.0)
    rels = []
    for t_end in (0.2, 0.4, 0.6):
        cfg = SimulationConfig(grid=grid, model=m, closures=cl, t_end=t_end,
                               report_interval=t_end)
        _, cells, _ = integrate(cfg, init)[-1]
        p = evolved_to_primitive(m, cells)
        _, rel = fick_residual(m, cl, p, grid.dx, theta0=1.0)
        rels.append(rel)
    ok = max(rels) <= 0.05 and rels[0] > rels[1] > rels[2]
    assert _report(11, "diffusion-law residual <= 5% and decreasing", ok)


def test_12_deterministic_output(tmp_path):
    text = """
[potential]
gamma1 = 2.0
gamma2 = 1.4
a = 0.2

[closures]
k = 0.5
kappa = 0.3

[grid]
n = 32

[run]
t_end = 0.05
"""
    cfg = parse_config(text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_subcommand("verify-gibbs", cfg, str(out), seed=42) == 0
        assert run_subcommand("simulate", cfg, str(out / "sim"), seed=42) == 0
        outs.append(out)
    ok = ((outs[0] / "residuals.csv").read_bytes()
          == (outs[1] / "residuals.csv").read_bytes())
    ok &= ((outs[0] / "convergence.csv").read_bytes()
           == (outs[1] / "convergence.csv").read_bytes())
    ok &= ((outs[0] / "sim" / "timeseries.csv").read_bytes()
           == (outs[1] / "sim" / "timeseries.csv").read_bytes())
    ok &= ((outs[0] / "sim" / "snapshot_0000.csv").read_bytes()
           == (outs[1] / "sim" / "snapshot_0000.csv").read_bytes())
    assert _report(12, "identical config + seed gives byte-identical "
                   "CSVs", ok)
