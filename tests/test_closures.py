"""Tests for the drag/heat closures and entropy production."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from twofluid.closures import (ClosureParams, drag_and_heat,
                               entropy_production, entropy_sources,
                               stage_sources)
from twofluid.state import PrimitiveState


def eq_state():
    return PrimitiveState(rho1=1.0, rho2=1.0, u1=0.5, u2=0.5,
                          s1=0.0, s2=0.0)


class TestValidation:
    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ClosureParams(k=-1.0)
        with pytest.raises(ValueError):
            ClosureParams(kappa=-0.1)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="theta1"):
            drag_and_heat(ClosureParams(k=1.0), eq_state(), 0.0, 1.0)
        with pytest.raises(ValueError, match="theta2"):
            drag_and_heat(ClosureParams(k=1.0), eq_state(), 1.0, -2.0)


class TestDragAndHeat:
    def test_equilibrium_all_zero(self):
        f = drag_and_heat(ClosureParams(k=3.0, kappa=2.0), eq_state(),
                          1.0, 1.0)
        assert f.f1 == 0.0 and f.f2 == 0.0
        assert f.q1 == 0.0 and f.q2 == 0.0

    def test_hand_drag(self):
        # equal unit temperatures, counterflow around u = 1, k = 3:
        # f1 = 3((2-1) - (0-1)) = 6
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=2.0,
                           s1=0.0, s2=0.0)
        f = drag_and_heat(ClosureParams(k=3.0), p, 1.0, 1.0)
        assert f.f1 == pytest.approx(6.0, abs=1e-14)
        assert f.f2 == pytest.approx(-6.0, abs=1e-14)

    def test_hand_heat(self):
        # theta1 = 2, theta2 = 1, kappa = 4: q1 = 4(1 - 1/2) = 2, toward the
        # component with the larger coldness
        f = drag_and_heat(ClosureParams(kappa=4.0), eq_state(), 2.0, 1.0)
        assert f.q1 == pytest.approx(2.0, abs=1e-14)
        assert f.q2 == pytest.approx(-2.0, abs=1e-14)

    def test_antisymmetry_bit_exact(self):
        rng = np.random.default_rng(2)
        p = PrimitiveState(rho1=rng.uniform(0.3, 2, 500),
                           rho2=rng.uniform(0.3, 2, 500),
                           u1=rng.normal(0, 1, 500), u2=rng.normal(0, 1, 500),
                           s1=np.zeros(500), s2=np.zeros(500))
        th1 = rng.uniform(0.5, 2, 500)
        th2 = rng.uniform(0.5, 2, 500)
        f = drag_and_heat(ClosureParams(k=1.3, kappa=0.7), p, th1, th2)
        assert np.all(f.f1 + f.f2 == 0.0)
        assert np.all(f.q1 + f.q2 == 0.0)

    def test_galilean_invariance(self):
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.1, u2=0.9,
                           s1=0.0, s2=0.0)
        pb = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.1 + 5.0, u2=0.9 + 5.0,
                            s1=0.0, s2=0.0)
        cl = ClosureParams(k=2.0, kappa=1.0)
        f = drag_and_heat(cl, p, 1.1, 0.9)
        fb = drag_and_heat(cl, pb, 1.1, 0.9)
        assert fb.f1 == pytest.approx(f.f1, rel=1e-13)
        assert fb.q1 == f.q1


class TestEntropySources:
    def test_equilibrium_zero(self):
        f = drag_and_heat(ClosureParams(k=3.0, kappa=2.0), eq_state(),
                          1.0, 1.0)
        s1, s2 = entropy_sources(f, eq_state(), 1.0, 1.0)
        assert s1 == 0.0 and s2 == 0.0

    def test_pure_heat_exchange_split(self):
        # k = 0, equal velocities: source_1 = -q1/(rho1 theta1),
        # source_2 = +q1/(rho2 theta2)
        p = PrimitiveState(rho1=2.0, rho2=0.5, u1=0.3, u2=0.3,
                           s1=0.0, s2=0.0)
        cl = ClosureParams(k=0.0, kappa=4.0)
        f = drag_and_heat(cl, p, 2.0, 1.0)
        s1, s2 = entropy_sources(f, p, 2.0, 1.0)
        assert s1 == pytest.approx(-f.q1 / (2.0 * 2.0), abs=1e-15)
        assert s2 == pytest.approx(f.q1 / (0.5 * 1.0), abs=1e-15)

    def test_mass_weighted_sources_nonnegative(self):
        # sum_a rho_a theta_a (source) recovers the production functional
        rng = np.random.default_rng(21)
        n = 10**4
        p = PrimitiveState(rho1=rng.uniform(0.3, 2, n),
                           rho2=rng.uniform(0.3, 2, n),
                           u1=rng.normal(0, 1, n), u2=rng.normal(0, 1, n),
                           s1=np.zeros(n), s2=np.zeros(n))
        th1 = rng.uniform(0.5, 2, n)
        th2 = rng.uniform(0.5, 2, n)
        cl = ClosureParams(k=1.1, kappa=0.9)
        f = drag_and_heat(cl, p, th1, th2)
        s1, s2 = entropy_sources(f, p, th1, th2)
        total = p.rho1 * s1 + p.rho2 * s2
        assert np.min(total) > -1e-14


class TestEntropyProduction:
    def test_equilibrium_zero(self):
        f = drag_and_heat(ClosureParams(k=3.0, kappa=2.0), eq_state(),
                          1.0, 1.0)
        assert entropy_production(f, eq_state(), 1.0, 1.0) == 0.0

    def test_hand_value(self):
        # k = 1, kappa = 0, unit temperatures, counterflow: production = 4
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=2.0,
                           s1=0.0, s2=0.0)
        f = drag_and_heat(ClosureParams(k=1.0), p, 1.0, 1.0)
        assert entropy_production(f, p, 1.0, 1.0) == pytest.approx(
            4.0, abs=1e-14)

    def test_nonnegative_bulk(self):
        rng = np.random.default_rng(23)
        n = 10**5
        p = PrimitiveState(rho1=rng.uniform(0.3, 2, n),
                           rho2=rng.uniform(0.3, 2, n),
                           u1=rng.normal(0, 2, n), u2=rng.normal(0, 2, n),
                           s1=np.zeros(n), s2=np.zeros(n))
        th1 = rng.uniform(0.2, 3, n)
        th2 = rng.uniform(0.2, 3, n)
        cl = ClosureParams(k=1.7, kappa=2.3)
        f = drag_and_heat(cl, p, th1, th2)
        prod = entropy_production(f, p, th1, th2)
        scale = np.maximum(1.0, np.abs(prod))
        assert np.min(prod / scale) > -1e-14

    def test_sum_of_squares_form(self):
        # with these closures the production is exactly f1^2/k + q1^2/kappa
        rng = np.random.default_rng(29)
        n = 1000
        p = PrimitiveState(rho1=rng.uniform(0.3, 2, n),
                           rho2=rng.uniform(0.3, 2, n),
                           u1=rng.normal(0, 1, n), u2=rng.normal(0, 1, n),
                           s1=np.zeros(n), s2=np.zeros(n))
        th1 = rng.uniform(0.5, 2, n)
        th2 = rng.uniform(0.5, 2, n)
        cl = ClosureParams(k=1.5, kappa=0.8)
        f = drag_and_heat(cl, p, th1, th2)
        prod = entropy_production(f, p, th1, th2)
        expected = f.f1 ** 2 / cl.k + f.q1 ** 2 / cl.kappa
        assert np.allclose(prod, expected, rtol=1e-12, atol=1e-14)

    def test_conservative_limit_zero(self):
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=2.0,
                           s1=0.0, s2=0.0)
        f = drag_and_heat(ClosureParams(), p, 1.0, 1.0)
        assert entropy_production(f, p, 1.0, 1.0) == 0.0
        s1, s2 = entropy_sources(f, p, 1.0, 1.0)
        assert s1 == 0.0 and s2 == 0.0


states = st.builds(
    lambda rng, n: (PrimitiveState(
        rho1=rng.uniform(0.05, 5.0, n), rho2=rng.uniform(0.05, 5.0, n),
        u1=rng.normal(0.0, 2.0, n), u2=rng.normal(0.0, 2.0, n),
        s1=rng.uniform(-0.5, 0.5, n), s2=rng.uniform(-0.5, 0.5, n)),
        rng.uniform(0.05, 5.0, n), rng.uniform(0.05, 5.0, n)),
    st.integers(0, 2 ** 32 - 1).map(np.random.default_rng),
    st.integers(1, 64))
coefficients = st.builds(ClosureParams, k=st.floats(0.0, 1e3),
                         kappa=st.floats(0.0, 1e3))


class TestRandomAdmissibleStates:
    @given(state=states, params=coefficients)
    def test_antisymmetric_and_dissipative(self, state, params):
        p, th1, th2 = state
        f = drag_and_heat(params, p, th1, th2)
        assert np.all(f.f1 + f.f2 == 0.0) and np.all(f.q1 + f.q2 == 0.0)
        prod = entropy_production(f, p, th1, th2)
        assert np.min(prod / np.maximum(1.0, np.abs(prod))) >= -1e-14

    @given(state=states, params=coefficients)
    def test_stage_sources_match_the_public_calls(self, state, params):
        # the solver stage's closures against the public calls it replaces,
        # equal as floats (a zero may differ in sign)
        p, th1, th2 = state
        zeta, (src1, src2) = stage_sources(params, p, th1, th2)
        heat = drag_and_heat(ClosureParams(kappa=params.kappa), p, th1, th2)
        ref1, ref2 = entropy_sources(heat, p, th1, th2)
        assert np.array_equal(zeta * p.w, drag_and_heat(params, p, th1,
                                                        th2).f1)
        assert np.array_equal(src1, ref1) and np.array_equal(src2, ref2)

    def test_stage_sources_check_the_temperatures(self):
        with pytest.raises(ValueError, match="theta2"):
            stage_sources(ClosureParams(k=1.0), eq_state(), 1.0, 0.0)
