"""Tests for the 1D finite-volume integrator."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import solve_ivp

from twofluid.closures import ClosureParams, drag_and_heat, entropy_sources
from twofluid.potential import (RHO_FLOOR, SeparableAddedMass,
                                SeparableAddedMassParams, evaluate)
from twofluid import solver, state
from twofluid.hyperbolicity import (critical_relative_velocity,
                                    wave_speeds_batch)
from twofluid.solver import (Grid1D, NonHyperbolicError, SimulationConfig,
                             StepError, assemble_rhs,
                             evolved_from_primitive_profiles, integrate, step)
from twofluid.state import EvolvedState, PrimitiveState, evolved_to_primitive
from twofluid.verify import fick_residual

FIELDS = ("rho1", "rho2", "K1", "K2", "s1", "s2")


def make_model(a=0.2):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=2.0, gamma2=1.4, a=a))


def smooth_init(model, grid):
    return evolved_from_primitive_profiles(
        model, grid,
        rho1=lambda x: 1.0 + 0.03 * np.sin(2 * np.pi * x),
        rho2=lambda x: 0.8 + 0.02 * np.cos(2 * np.pi * x),
        u1=lambda x: 0.1 + 0.02 * np.sin(2 * np.pi * x),
        u2=lambda x: 0.05 + 0.01 * np.cos(4 * np.pi * x),
        s1=0.0, s2=0.1)


class TestGridValidation:
    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 3)

    def test_ordered_bounds(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 16)

    def test_boundary_mode(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 16, bc="reflecting")

    def test_spacing(self):
        g = Grid1D(0.0, 2.0, 8)
        assert g.dx == pytest.approx(0.25)
        assert g.centers()[0] == pytest.approx(0.125)


class TestConfigValidation:
    def test_cfl_range(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="cfl"):
            SimulationConfig(grid=g, model=make_model(), cfl=2.0, t_end=1.0)
        with pytest.raises(ValueError, match="cfl"):
            SimulationConfig(grid=g, model=make_model(), cfl=0.0, t_end=1.0)


def callable_a(r1, r2):
    return 0.3 * r1 * r2 / (r1 + r2)


class TestConstantState:
    @given(rho1=st.floats(0.1, 3.0), rho2=st.floats(0.1, 3.0),
           u1=st.floats(-1.0, 1.0), u2=st.floats(-1.0, 1.0),
           s1=st.floats(-0.3, 0.3), s2=st.floats(-0.3, 0.3),
           a=st.one_of(st.floats(0.0, 1.0), st.just(callable_a)),
           k=st.floats(0.0, 10.0),
           bc=st.sampled_from(["periodic", "transmissive"]))
    def test_rhs_zero(self, rho1, rho2, u1, u2, s1, s2, a, k, bc):
        assume(u1 != u2)
        m = make_model(a=a)
        point = [np.array([v]) for v in (rho1, rho2, u1, u2, s1, s2)]
        assume(wave_speeds_batch(m, *point)[1][0])
        grid = Grid1D(0.0, 1.0, 16, bc=bc)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=rho1, rho2=rho2, u1=u1, u2=u2, s1=s1, s2=s2)
        cfg = SimulationConfig(grid=grid, model=m, t_end=1.0,
                               closures=ClosureParams(k=k))
        rhs = assemble_rhs(cfg, init)
        assert rhs.rates.shape == (6, grid.n)
        assert np.all(rhs.rates == 0.0)

    def test_step_is_fixed_point(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.0, rho2=0.8, u1=0.2, u2=0.2, s1=0.0, s2=0.1)
        cfg = SimulationConfig(grid=grid, model=m, t_end=1.0)
        out = step(cfg, init, 1e-3)
        assert np.array_equal(out.rho1, init.rho1)
        assert np.array_equal(out.K1, init.K1)
        assert np.array_equal(out.s2, init.s2)


class TestIntegrate:
    def test_zero_end_time_single_snapshot(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.0)
        out = integrate(cfg, smooth_init(m, grid))
        assert len(out) == 1
        assert out[0][0] == 0.0

    def test_mass_conserved_to_roundoff(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 64)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3),
                               t_end=0.2, report_interval=0.2)
        out = integrate(cfg, smooth_init(m, grid))
        r0, rT = out[0][2], out[-1][2]
        assert abs(rT.mass1 - r0.mass1) < 1e-13
        assert abs(rT.mass2 - r0.mass2) < 1e-13

    def test_conservative_momentum_drift_small(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 128)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.2,
                               report_interval=0.2)
        out = integrate(cfg, smooth_init(m, grid))
        r0, rT = out[0][2], out[-1][2]
        assert abs(rT.momentum_K - r0.momentum_K) < 1e-3

    def test_dissipative_entropy_nondecreasing_per_step(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 32)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=1.0, kappa=0.5),
                               t_end=0.1, report_interval=0.0)
        out = integrate(cfg, smooth_init(m, grid))
        ent = np.array([r.entropy for _, _, r in out])
        scale = np.max(np.abs(ent))
        assert np.min(np.diff(ent)) >= -1e-12 * scale

    def test_report_every_step(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.05,
                               report_interval=0.0)
        out = integrate(cfg, smooth_init(m, grid))
        dts = [r.dt for _, _, r in out[1:]]
        assert len(out) >= 3
        assert all(dt > 0 for dt in dts)

    def test_reports_land_on_multiples_of_interval(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 50)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3),
                               t_end=0.5, report_interval=0.1)
        times = [t for t, _, r in integrate(cfg, smooth_init(m, grid))]
        assert len(times) == 6
        for k, t in enumerate(times):
            assert abs(t - k * 0.1) <= 1e-12

    def test_one_evaluation_per_rhs(self, monkeypatch):
        calls = {"evaluate": 0, "assemble_rhs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solver, name,
                                counted(name, getattr(solver, name)))
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3),
                               t_end=0.05, report_interval=0.0)
        integrate(cfg, smooth_init(m, grid))
        assert calls["assemble_rhs"] > 3
        assert calls["evaluate"] == calls["assemble_rhs"]

    def test_no_constructor_check_after_the_initial_state(self,
                                                          monkeypatch):
        # every stage state is built from densities _advance has checked
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3),
                               t_end=0.25, report_interval=0.0)
        init = smooth_init(m, grid)
        calls = []
        check = state.require_admissible

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(state, "require_admissible", counted)
        out = integrate(cfg, init)
        assert len(out) - 1 >= 10
        assert calls == []

    def test_no_eigensolve_in_the_rhs(self, monkeypatch):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 32)
        cells = smooth_init(m, grid)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3))
        p = evolved_to_primitive(m, cells)
        speeds = wave_speeds_batch(m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called in the RHS")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rhs = assemble_rhs(cfg, cells, t=0.0)
        ref = np.max(np.abs(speeds), axis=-1)
        assert np.max(np.abs(rhs.smax - ref)) <= 1e-12 * np.max(ref)

    def test_transmissive_boundaries_run(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 32, bc="transmissive")
        init = evolved_from_primitive_profiles(
            m, grid,
            rho1=lambda x: 1.0 + 0.05 * np.exp(-100 * (x - 0.5) ** 2),
            rho2=0.8, u1=0.0, u2=0.0, s1=0.0, s2=0.0)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.05)
        out = integrate(cfg, init)
        assert out[-1][0] == pytest.approx(0.05)


def uniform_ode_state(m, cl, init, t_end, **solver_options):
    """Oracle for uniform fields: the spatial terms vanish and the evolution
    reduces to an ODE in (K1, K2, s1, s2) driven by drag and heat exchange.
    Returns the primitive state at t_end."""
    rho1, rho2 = float(init.rho1[0]), float(init.rho2[0])

    def rhs(t, y):
        e = EvolvedState(rho1=rho1, rho2=rho2, K1=y[0], K2=y[1],
                         s1=y[2], s2=y[3])
        p = evolved_to_primitive(m, e)
        th = evaluate(m, rho1, rho2, p.s1, p.s2, p.w)
        f = drag_and_heat(cl, p, th.theta1, th.theta2)
        src1, src2 = entropy_sources(f, p, th.theta1, th.theta2)
        return [float(f.f1) / rho1, float(f.f2) / rho2,
                float(src1), float(src2)]

    y0 = [float(init.K1[0]), float(init.K2[0]),
          float(init.s1[0]), float(init.s2[0])]
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=1e-10, atol=1e-12,
                    **solver_options)
    return evolved_to_primitive(m, EvolvedState(
        rho1=rho1, rho2=rho2, K1=sol.y[0, -1], K2=sol.y[1, -1],
        s1=sol.y[2, -1], s2=sol.y[3, -1]))


class TestDragRelaxationODE:
    def mild_drag_run(self):
        """Numerical and oracle states of a uniform relaxation at t = 0.5."""
        m = make_model(a=0.15)
        cl = ClosureParams(k=2.0, kappa=0.8)
        # fine grid only to shrink the CFL time step; fields stay uniform
        grid = Grid1D(0.0, 1.0, 64)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.2, rho2=0.8, u1=0.0, u2=0.6, s1=0.0, s2=0.1)
        cfg = SimulationConfig(grid=grid, model=m, closures=cl, t_end=0.5,
                               report_interval=0.5)
        out = integrate(cfg, init)
        _, cells, _ = out[-1]
        return (evolved_to_primitive(m, cells),
                uniform_ode_state(m, cl, init, 0.5))

    def test_matches_ode_oracle(self):
        p_num, p_ref = self.mild_drag_run()
        assert float(np.max(np.abs(p_num.w - p_ref.w))) < 1e-5

    def test_drag_heating_matches_ode_oracle(self):
        # the heating coefficients follow the stage values, so the entropies
        # keep the second-order accuracy of the rest of the step
        p_num, p_ref = self.mild_drag_run()
        for name in ("s1", "s2"):
            assert float(np.max(np.abs(getattr(p_num, name)
                                       - getattr(p_ref, name)))) < 1e-6

    def test_w_decays_monotonically(self):
        m = make_model(a=0.1)
        grid = Grid1D(0.0, 1.0, 8)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.0, rho2=1.0, u1=0.0, u2=0.5, s1=0.0, s2=0.0)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=3.0), t_end=1.0,
                               report_interval=0.0)
        out = integrate(cfg, init)
        ws = [float(np.max(np.abs(evolved_to_primitive(m, c).w)))
              for _, c, _ in out]
        assert all(b <= a_ + 1e-12 for a_, b in zip(ws, ws[1:]))
        assert ws[-1] < 0.2 * ws[0]


class TestStiffDrag:
    """The drag is integrated exactly in time: dt follows the CFL number at
    any drag coefficient, without giving up the physics."""

    def stiff_uniform(self):
        m = make_model(a=0.15)
        cl = ClosureParams(k=1000.0, kappa=0.8)
        grid = Grid1D(0.0, 1.0, 64)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.2, rho2=0.8, u1=0.0, u2=0.6, s1=0.0, s2=0.1)
        return m, cl, grid, init

    def test_stiff_relaxation_energy_entropy_and_oracle(self):
        m, cl, grid, init = self.stiff_uniform()
        cfg = SimulationConfig(grid=grid, model=m, closures=cl, t_end=0.5,
                               report_interval=0.0)
        out = integrate(cfg, init)
        energy = np.array([r.energy for _, _, r in out])
        assert np.max(np.abs(energy - energy[0])) <= 1e-3 * abs(energy[0])
        ent = np.array([r.entropy for _, _, r in out])
        assert np.min(np.diff(ent)) >= 0.0
        p_num = evolved_to_primitive(m, out[-1][1])
        p_ref = uniform_ode_state(m, cl, init, 0.5, method="Radau")
        for name in ("s1", "s2"):
            assert float(np.max(np.abs(getattr(p_num, name)
                                       - getattr(p_ref, name)))) <= 1e-3

    def test_stiff_relaxation_early_w_matches_oracle(self):
        # by t = 0.5 w has relaxed to 0; at t = 0.01 it is still 9e-5
        m, cl, grid, init = self.stiff_uniform()
        cfg = SimulationConfig(grid=grid, model=m, closures=cl, t_end=0.01,
                               report_interval=0.01)
        p_num = evolved_to_primitive(m, integrate(cfg, init)[-1][1])
        p_ref = uniform_ode_state(m, cl, init, 0.01, method="Radau")
        assert float(np.max(np.abs(p_num.w - p_ref.w))) <= 1e-5

    def test_step_count_independent_of_drag(self, monkeypatch):
        # acceptance-11 geometry: the CFL number sets dt at k = 200 and 2000
        m = SeparableAddedMass(SeparableAddedMassParams(gamma1=2.0,
                                                        gamma2=2.0))
        grid = Grid1D(0.0, 1.0, 128)
        rho1 = lambda x: 1.0 + 0.02 * np.sin(2 * np.pi * x)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=rho1, rho2=lambda x: np.sqrt(2.0 - rho1(x) ** 2),
            u1=0.0, u2=0.0, s1=0.0, s2=0.0)
        steps = []
        counted = solver.step

        def counting(*args, **kwargs):
            steps[-1] += 1
            return counted(*args, **kwargs)

        monkeypatch.setattr(solver, "step", counting)
        for k in (200.0, 2000.0):
            steps.append(0)
            cl = ClosureParams(k=k, kappa=5.0)
            cfg = SimulationConfig(grid=grid, model=m, closures=cl,
                                   t_end=0.6, report_interval=0.2)
            out = integrate(cfg, init)
        assert steps[0] == steps[1]
        rels = [fick_residual(m, cl, evolved_to_primitive(m, c), grid.dx,
                              theta0=1.0)[1] for _, c, _ in out[1:]]
        assert rels[0] > rels[1] > rels[2]

    def test_without_dissipation_is_heun(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 32)
        init = smooth_init(m, grid)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.05,
                               report_interval=0.0)
        out = integrate(cfg, init)

        def euler(cells, dt):
            rhs = assemble_rhs(cfg, cells)
            return {f: getattr(cells, f) + dt * rate
                    for f, rate in zip(FIELDS, rhs.rates)}

        cells = init
        for _, _, report in out[1:]:
            end = EvolvedState(**euler(EvolvedState(
                **euler(cells, report.dt)), report.dt))
            cells = EvolvedState(**{f: 0.5 * (getattr(cells, f)
                                              + getattr(end, f))
                                    for f in FIELDS})
        for f in FIELDS:
            ref = getattr(cells, f)
            assert np.max(np.abs(getattr(out[-1][1], f) - ref)) <= (
                1e-13 * np.max(np.abs(ref)))


class TestFailureModes:
    def test_non_hyperbolic_cell_reported(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=1.0))
        grid = Grid1D(0.0, 1.0, 16)
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.2, rho2=0.8, u1=-1.0, u2=1.5, s1=0.0, s2=0.0)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.1)
        with pytest.raises(NonHyperbolicError) as exc:
            integrate(cfg, init)
        assert exc.value.cell is not None
        assert exc.value.t is not None

    def test_non_hyperbolic_names_the_failing_cell(self):
        # only cell 9 sits past w*: the error must name it, not cell 0
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=1.0))
        grid = Grid1D(0.0, 1.0, 16)
        w_star = critical_relative_velocity(m, 1.2, 0.8, w_max=5.0)
        w = np.full(grid.n, 0.5 * w_star)
        w[9] = 1.5 * w_star
        init = evolved_from_primitive_profiles(
            m, grid, rho1=1.2, rho2=0.8, u1=-0.4 * w, u2=0.6 * w,
            s1=0.0, s2=0.0)
        cfg = SimulationConfig(grid=grid, model=m, t_end=0.1)
        with pytest.raises(NonHyperbolicError) as exc:
            assemble_rhs(cfg, init, t=0.5)
        assert exc.value.cell == 9
        assert exc.value.t == 0.5

    @pytest.mark.parametrize("bad", [
        pytest.param({"rho1": 5}, id="rho1"),
        pytest.param({"K2": 5}, id="K2"),
        pytest.param({"s2": 5}, id="s2"),
        # two bad rows: the field first in field order is named, though the
        # other one's bad cell comes first
        pytest.param({"s1": 3, "K2": 5}, id="K2-s1"),
    ])
    def test_non_finite_stage_value_names_field_and_cell(self, bad):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cells = smooth_init(m, grid)
        cfg = SimulationConfig(grid=grid, model=m, t_end=1.0)
        rhs = assemble_rhs(cfg, cells, t=0.3)
        rates = rhs.rates.copy()
        for field, cell in bad.items():
            rates[FIELDS.index(field), cell] = np.nan
        rhs = dataclasses.replace(rhs, rates=rates)
        named = min(bad, key=FIELDS.index)
        with pytest.raises(StepError, match=f"{named} is not finite") as exc:
            step(cfg, cells, 1e-3, t=0.3, rhs0=rhs)
        assert exc.value.cell == bad[named]
        assert exc.value.t == 0.3

    def test_density_below_floor_names_field_and_cell(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 16)
        cells = smooth_init(m, grid)
        cfg = SimulationConfig(grid=grid, model=m, t_end=1.0)
        rhs = assemble_rhs(cfg, cells, t=0.3)
        dt = 1e-3
        rates = rhs.rates.copy()
        # the stage takes rho2 to half the floor in cell 7
        rates[1, 7] = (0.5 * RHO_FLOOR - cells.rho2[7]) / dt
        rhs = dataclasses.replace(rhs, rates=rates)
        with pytest.raises(StepError, match="rho2 went nonpositive in cell "
                                            "7 after a stage; reduce the CFL"
                           ) as exc:
            step(cfg, cells, dt, t=0.3, rhs0=rhs)
        assert exc.value.cell == 7
        assert exc.value.t == 0.3

    def test_recovery_failure_names_cell(self):
        # the rootless law of test_state: at rho1 = rho2 = 0.5 the recovery
        # map has no root, at rho1 = rho2 = 2 it has one
        class Bad(SeparableAddedMass):
            def dW_dw(self, rho1, rho2, s1, s2, w):
                w = np.asarray(w, dtype=float)
                return 0.25 * (w + w ** 2 + 1.0)

            def d2W_dw2(self, rho1, rho2, s1, s2, w):
                return 0.25 * (1.0 + 2.0 * np.asarray(w, dtype=float))

        bad = Bad(SeparableAddedMassParams(gamma1=2.0, gamma2=2.0))
        rho = np.full(8, 2.0)
        rho[5] = 0.5
        zero = np.zeros(8)
        cells = EvolvedState(rho1=rho, rho2=rho.copy(), K1=zero, K2=zero,
                             s1=zero, s2=zero)
        cfg = SimulationConfig(grid=Grid1D(0.0, 1.0, 8), model=bad)
        with pytest.raises(StepError, match="velocity recovery") as exc:
            assemble_rhs(cfg, cells, t=0.25)
        assert exc.value.cell == 5
        assert exc.value.t == 0.25

    def test_overlong_step_suggests_smaller_cfl(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 32)
        init = smooth_init(m, grid)
        cfg = SimulationConfig(grid=grid, model=m, t_end=1.0)
        with pytest.raises(StepError, match="CFL"):
            step(cfg, init, 50.0)
