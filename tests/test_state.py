"""Tests for state conversions and velocity recovery."""
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twofluid.potential import SeparableAddedMass, SeparableAddedMassParams
from twofluid.state import (ConvergenceError, EvolvedState, PrimitiveState,
                            evolved_to_primitive, mixture_aggregates,
                            primitive_to_evolved, solve_relative_velocity,
                            solve_relative_velocity_bisection)


def make_model(a=0.3):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=2.0, gamma2=1.4, a=a))


def random_primitive(rng, n, w_scale=0.5):
    return PrimitiveState(
        rho1=rng.uniform(0.3, 2.0, n), rho2=rng.uniform(0.3, 2.0, n),
        u1=rng.normal(0, 1, n), u2=rng.normal(0, 1, n),
        s1=rng.uniform(-0.5, 0.5, n), s2=rng.uniform(-0.5, 0.5, n))


class TestPrimitiveToEvolved:
    def test_no_coupling_K_equals_u(self):
        m = make_model(a=0.0)
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.3, u2=-0.4,
                           s1=0.0, s2=0.0)
        e = primitive_to_evolved(m, p)
        assert e.K1 == p.u1 and e.K2 == p.u2

    def test_hand_example(self):
        # a = 1, rho = 2 each, u1 = 0, u2 = 2: dW/dw = -2, K1 = -1, K2 = 3
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0, a=1.0))
        p = PrimitiveState(rho1=2.0, rho2=2.0, u1=0.0, u2=2.0,
                           s1=0.0, s2=0.0)
        e = primitive_to_evolved(m, p)
        assert e.K1 == pytest.approx(-1.0, abs=1e-14)
        assert e.K2 == pytest.approx(3.0, abs=1e-14)

    def test_equal_velocities_any_coupling(self):
        m = make_model(a=2.5)
        p = PrimitiveState(rho1=0.7, rho2=1.9, u1=0.8, u2=0.8,
                           s1=0.2, s2=-0.3)
        e = primitive_to_evolved(m, p)
        assert e.K1 == pytest.approx(0.8, abs=1e-14)
        assert e.K2 == pytest.approx(0.8, abs=1e-14)


class TestVelocityRecovery:
    def test_no_coupling_direct(self):
        m = make_model(a=0.0)
        e = EvolvedState(rho1=1.0, rho2=1.0, K1=0.2, K2=-0.7,
                         s1=0.0, s2=0.0)
        p = evolved_to_primitive(m, e)
        assert p.u1 == pytest.approx(0.2, abs=1e-14)
        assert p.u2 == pytest.approx(-0.7, abs=1e-14)

    def test_constant_a_closed_form(self):
        # w (1 + a (1/rho1 + 1/rho2)) = K2 - K1; a = 1, rho = 2 each -> w = 1
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0, a=1.0))
        w = solve_relative_velocity(m, 2.0, 2.0, 0.0, 0.0, 2.0)
        assert float(w) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_bulk(self):
        m = make_model(a=0.4)
        rng = np.random.default_rng(3)
        n = 10**5
        rho1 = rng.uniform(0.3, 2.0, n)
        rho2 = rng.uniform(0.3, 2.0, n)
        dK = rng.normal(0, 1.5, n)
        w = solve_relative_velocity(m, rho1, rho2, 0.0, 0.0, dK)
        expected = dK / (1.0 + 0.4 * (1.0 / rho1 + 1.0 / rho2))
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_newton_matches_bisection_oracle(self):
        # a subclass that changes nothing takes the Newton path
        m = type("Subclass", (SeparableAddedMass,), {})(
            make_model(a=0.6).params)
        rng = np.random.default_rng(7)
        n = 10**5
        rho1 = rng.uniform(0.3, 2.0, n)
        rho2 = rng.uniform(0.3, 2.0, n)
        s1 = rng.uniform(-0.3, 0.3, n)
        s2 = rng.uniform(-0.3, 0.3, n)
        dK = rng.normal(0, 1.0, n)
        tol = 1e-14 * np.maximum(1.0, np.abs(dK))
        wn = solve_relative_velocity(m, rho1, rho2, s1, s2, dK, tol=tol)
        wb = solve_relative_velocity_bisection(m, rho1, rho2, s1, s2, dK,
                                               tol=tol)
        assert np.max(np.abs(wn - wb)) < 1e-12

    def test_roundtrip_bulk(self):
        m = make_model(a=0.3)
        rng = np.random.default_rng(13)
        p = random_primitive(rng, 10**5)
        back = evolved_to_primitive(m, primitive_to_evolved(m, p))
        assert np.max(np.abs(back.u1 - p.u1)) < 1e-12
        assert np.max(np.abs(back.u2 - p.u2)) < 1e-12

    def test_rootless_map_raises(self):
        # with rho1 = rho2 = 0.5 (1/rho1 + 1/rho2 = 4) this coupling gives
        # the recovery function g(w) = -1 - w^2, which never crosses zero:
        # the solver must report the failed bracket, not pick a branch
        class Bad(SeparableAddedMass):
            def dW_dw(self, rho1, rho2, s1, s2, w):
                w = np.asarray(w, dtype=float)
                return 0.25 * (w + w ** 2 + 1.0)

            def d2W_dw2(self, rho1, rho2, s1, s2, w):
                return 0.25 * (1.0 + 2.0 * np.asarray(w, dtype=float))

        bad = Bad(SeparableAddedMassParams(gamma1=2.0, gamma2=2.0))
        with pytest.raises(ConvergenceError):
            solve_relative_velocity(bad, 0.5, 0.5, 0.0, 0.0, 0.0)

    def test_no_convergence_names_first_failing_state(self):
        # g(w) = w - w^3 / 4 - dK at rho1 = rho2 = 2: dK = 0 is solved by
        # the starting guess w = dK, the others need several Newton steps
        class Cubic(SeparableAddedMass):
            def dW_dw(self, rho1, rho2, s1, s2, w):
                return 0.25 * np.asarray(w, dtype=float) ** 3

            def d2W_dw2(self, rho1, rho2, s1, s2, w):
                return 0.75 * np.asarray(w, dtype=float) ** 2

        m = Cubic(SeparableAddedMassParams(gamma1=2.0, gamma2=2.0))
        dK = np.array([0.0, 0.0, 0.1, 0.0, -0.1])
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            solve_relative_velocity(m, 2.0, 2.0, 0.0, 0.0, dK, max_iter=1)
        assert exc.value.cell == 2
        w = solve_relative_velocity(m, 2.0, 2.0, 0.0, 0.0, dK)
        assert np.max(np.abs(w - 0.25 * w ** 3 - dK)) <= 1e-12

    def test_newton_converging_on_its_last_step_returns(self):
        # W_w = -a w is linear in w, so one Newton step from w = dK lands on
        # the root: max_iter = 1 suffices, and with no step at all the
        # residual of the starting guess is reported
        m = type("Subclass", (SeparableAddedMass,), {})(
            make_model(a=0.6).params)
        rho1, rho2 = np.array([0.5, 1.0, 1.7]), np.array([1.3, 0.4, 1.0])
        dK = np.array([0.8, -1.5, 0.3])
        w = solve_relative_velocity(m, rho1, rho2, 0.0, 0.0, dK, max_iter=1)
        expected = dK / (1.0 + 0.6 * (1.0 / rho1 + 1.0 / rho2))
        assert np.max(np.abs(w - expected)) <= 1e-12
        with pytest.raises(ConvergenceError, match="in 0 iterations") as exc:
            solve_relative_velocity(m, rho1, rho2, 0.0, 0.0, dK, max_iter=0)
        assert exc.value.cell == 0

    def test_bisection_default_tolerance(self):
        # tol defaults to 1e-12 max(1, |dK|), as in the Newton solve
        m = make_model(a=0.6)
        rho1, rho2 = np.array([0.5, 1.0, 1.7]), np.array([1.3, 0.4, 1.0])
        dK = np.array([0.8, -15.0, 0.3])
        tol = 1e-12 * np.maximum(1.0, np.abs(dK))
        w = solve_relative_velocity_bisection(m, rho1, rho2, 0.0, 0.0, dK)
        assert np.array_equal(w, solve_relative_velocity_bisection(
            m, rho1, rho2, 0.0, 0.0, dK, tol=tol))
        invsum = 1.0 / rho1 + 1.0 / rho2
        g = w - invsum * m.dW_dw(rho1, rho2, 0.0, 0.0, w) - dK
        assert np.all(np.abs(g) <= tol)

    def test_bisection_non_convergence_raises(self):
        # one bisection step evaluates the bracket's centre, w = dK, which
        # is not the root for a != 0
        with pytest.raises(ConvergenceError,
                           match="^bisection did not converge$"):
            solve_relative_velocity_bisection(make_model(a=0.6), 1.0, 1.0,
                                              0.0, 0.0, 0.5, max_iter=1)


def law(c, kind):
    """The built-in law with a constant a = c or a callable a of the
    densities of scale c, or a subclass that changes nothing (the Newton
    path) with a = c."""
    if kind == "callable":
        return make_model(a=lambda r1, r2: c * r1 * r2 / (r1 + r2)
                          + 0.1 * c * r1)
    m = make_model(a=c)
    return m if kind == "constant" else type("Subclass", (
        SeparableAddedMass,), {})(m.params)


densities = st.floats(0.05, 5.0)
entropies = st.floats(-0.5, 0.5)
velocities = st.floats(-3.0, 3.0)
couplings = st.floats(0.0, 3.0)
kinds = st.sampled_from(["constant", "callable", "subclass"])


class TestRecoveryProperties:
    """The built-in law's recovery is one division, a subclass's a Newton
    solve; the bisection is the oracle of both and a round trip their
    invariant, on random admissible states."""

    @given(rho1=densities, rho2=densities, s1=entropies, s2=entropies,
           dK=st.floats(-5.0, 5.0), c=couplings, kind=kinds)
    def test_matches_bisection_oracle(self, rho1, rho2, s1, s2, dK, c, kind):
        m = law(c, kind)
        tol = 1e-14 * max(1.0, abs(dK))
        w = solve_relative_velocity(m, rho1, rho2, s1, s2, dK)
        wb = solve_relative_velocity_bisection(m, rho1, rho2, s1, s2, dK,
                                               tol=tol)
        assert abs(w - wb) <= 1e-12 * max(1.0, abs(dK))

    @given(rho1=densities, rho2=densities, u1=velocities, u2=velocities,
           s1=entropies, s2=entropies, c=couplings, kind=kinds)
    def test_roundtrip(self, rho1, rho2, u1, u2, s1, s2, c, kind):
        m = law(c, kind)
        p = PrimitiveState(rho1=rho1, rho2=rho2, u1=u1, u2=u2, s1=s1, s2=s2)
        e = primitive_to_evolved(m, p)
        back = evolved_to_primitive(m, e)
        scale = max(1.0, abs(e.K1), abs(e.K2))
        assert abs(back.u1 - u1) <= 1e-12 * scale
        assert abs(back.u2 - u2) <= 1e-12 * scale

    @given(bad=st.lists(st.booleans(), min_size=1, max_size=12),
           f=st.floats(1.001, 3.0))
    def test_nonpositive_denominator_names_its_cell(self, bad, f):
        # a = -f rho1 rho2 / (rho1 + rho2) where rho1 > 10 makes the
        # denominator 1 - f; elsewhere a = 0.3
        assume(any(bad))
        rho1 = np.where(bad, 12.0, 1.0) + 0.01 * np.arange(len(bad))
        rho2 = np.full(len(bad), 0.8)
        m = make_model(a=lambda r1, r2: np.where(
            r1 > 10.0, -f * r1 * r2 / (r1 + r2), 0.3))
        zero = np.zeros(len(bad))
        with pytest.raises(ConvergenceError, match="not positive") as exc:
            solve_relative_velocity(m, rho1, rho2, zero, zero, zero + 0.5)
        assert exc.value.cell == bad.index(True)
        with pytest.raises(ConvergenceError) as exc:
            evolved_to_primitive(m, EvolvedState(rho1=rho1, rho2=rho2,
                                                 K1=zero, K2=zero + 0.5,
                                                 s1=zero, s2=zero))
        assert exc.value.cell == bad.index(True)


class TestGalileanCovariance:
    def test_boost_shifts_K_exactly(self):
        m = make_model(a=0.8)
        rng = np.random.default_rng(19)
        p = random_primitive(rng, 1000)
        boosted = PrimitiveState(rho1=p.rho1, rho2=p.rho2,
                                 u1=p.u1 + 2.5, u2=p.u2 + 2.5,
                                 s1=p.s1, s2=p.s2)
        e = primitive_to_evolved(m, p)
        eb = primitive_to_evolved(m, boosted)
        assert np.max(np.abs(eb.K1 - e.K1 - 2.5)) < 1e-12
        assert np.max(np.abs(eb.K2 - e.K2 - 2.5)) < 1e-12

    @given(rho1=densities, rho2=densities, u1=velocities, u2=velocities,
           s1=entropies, s2=entropies, c=couplings, kind=kinds,
           boost=st.floats(-10.0, 10.0))
    def test_random_boost_shifts_K(self, rho1, rho2, u1, u2, s1, s2, c,
                                   kind, boost):
        # K_a(u + c) = K_a(u) + c: W_w depends on u only through w, which
        # the boost keeps up to the rounding of u_a + c
        m = law(c, kind)
        p = PrimitiveState(rho1=rho1, rho2=rho2, u1=u1, u2=u2, s1=s1, s2=s2)
        boosted = PrimitiveState(rho1=rho1, rho2=rho2, u1=u1 + boost,
                                 u2=u2 + boost, s1=s1, s2=s2)
        e = primitive_to_evolved(m, p)
        eb = primitive_to_evolved(m, boosted)
        scale = max(1.0, abs(e.K1), abs(e.K2), abs(boost))
        assert abs(eb.K1 - e.K1 - boost) <= 1e-12 * scale
        assert abs(eb.K2 - e.K2 - boost) <= 1e-12 * scale


class TestMixtureAggregates:
    def test_symmetric_counterflow(self):
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=-1.0, u2=1.0,
                           s1=0.0, s2=0.0)
        assert mixture_aggregates(p).u == 0.0

    def test_hand_value(self):
        p = PrimitiveState(rho1=3.0, rho2=1.0, u1=0.0, u2=4.0,
                           s1=0.0, s2=0.0)
        assert mixture_aggregates(p).u == pytest.approx(1.0, abs=1e-15)

    def test_common_velocity(self):
        p = PrimitiveState(rho1=0.4, rho2=2.2, u1=0.9, u2=0.9,
                           s1=0.0, s2=0.0)
        agg = mixture_aggregates(p)
        assert agg.u == pytest.approx(0.9, rel=1e-15)
        assert agg.momentum == pytest.approx(agg.rho * agg.u, rel=1e-15)
