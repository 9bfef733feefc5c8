"""Tests for the constitutive potential and its derivative machinery."""
import re

import numpy as np
import pytest

from twofluid.potential import (AdmissibilityError, PotentialModel,
                                SeparableAddedMass, SeparableAddedMassParams,
                                evaluate, fd_check_derivatives,
                                require_admissible)
from twofluid.state import PrimitiveState


def make_model(a=0.3, gamma1=2.0, gamma2=1.4):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=gamma1, gamma2=gamma2, a=a))


def random_states(rng, n, w_scale=0.5):
    return dict(
        rho1=rng.uniform(0.3, 2.0, n), rho2=rng.uniform(0.3, 2.0, n),
        s1=rng.uniform(-0.5, 0.5, n), s2=rng.uniform(-0.5, 0.5, n),
        w=rng.uniform(-w_scale, w_scale, n))


class TestParamValidation:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(ValueError, match="gamma1 must exceed 1"):
            SeparableAddedMassParams(gamma1=0.5, gamma2=1.4)
        with pytest.raises(ValueError, match="gamma2 must exceed 1"):
            SeparableAddedMassParams(gamma1=1.4, gamma2=1.0)

    def test_negative_added_mass_rejected(self):
        with pytest.raises(ValueError):
            SeparableAddedMassParams(gamma1=1.4, gamma2=1.4, a=-1.0)

    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            SeparableAddedMassParams(gamma1=1.4, gamma2=1.4, cv1=0.0)
        with pytest.raises(ValueError):
            SeparableAddedMassParams(gamma1=1.4, gamma2=1.4, K1=-1.0)


class TestAdmissibility:
    @pytest.mark.parametrize("rho1, rho2, message", [
        (np.array([1.0, np.inf]), 1.0, "rho1 must be finite and above 1e-12; "
         "got max inf"),
        (1.0, np.array([np.nan, 1.0]), "rho2 must be finite and above "
         "1e-12; got min nan"),
        (-np.inf, 1.0, "rho1 must be finite and above 1e-12; got min -inf"),
        (1.0, np.array([0.5, 0.0]), "rho2 must be finite and above 1e-12; "
         "got min 0")])
    def test_message_names_the_value_that_failed(self, rho1, rho2, message):
        with pytest.raises(AdmissibilityError, match=f"^{re.escape(message)}$"):
            require_admissible(rho1, rho2)

    def test_nonpositive_density_named(self):
        m = make_model()
        with pytest.raises(AdmissibilityError, match="rho1"):
            evaluate(m, -1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(AdmissibilityError, match="rho2"):
            evaluate(m, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestHandValues:
    def test_pure_coupling_term(self):
        # a = 1, w = 2, no thermal part: W = -2 and U = W - W_w w = +2
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0, K1=1e-30, K2=1e-30, a=1.0))
        th = evaluate(m, 1.0, 1.0, 0.0, 0.0, 2.0)
        assert th.W == pytest.approx(-2.0, abs=1e-12)
        assert th.U == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_phase(self):
        # gamma = 2, K0 = 1, s = s0, rho = 3: W1 = rho^2 = 9, theta = e/cv = 3
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0, K1=1.0, K2=1e-30, cv1=1.0, a=0.0))
        th = evaluate(m, 3.0, 1.0, 0.0, 0.0, 0.0)
        assert th.W == pytest.approx(9.0, abs=1e-12)
        assert th.theta1 == pytest.approx(3.0, abs=1e-12)
        # dW/drho1 = 2 rho1 for this law
        assert th.W_rho1 == pytest.approx(6.0, abs=1e-12)

    def test_no_coupling_means_u_equals_w_value(self):
        m = make_model(a=0.0)
        th = evaluate(m, 1.3, 0.7, 0.1, -0.2, 1.7)
        assert th.W_w == 0.0
        assert th.U == th.W


class TestDerivativeConsistency:
    def test_fd_check_generic_state(self):
        m = make_model()
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.1, u2=0.4,
                           s1=0.05, s2=-0.1)
        assert fd_check_derivatives(m, p, h=1e-5) < 1e-6

    def test_fd_check_many_states(self):
        m = make_model(a=0.7, gamma1=1.7, gamma2=2.3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = PrimitiveState(rho1=rng.uniform(0.3, 2), rho2=rng.uniform(0.3, 2),
                               u1=rng.normal(), u2=rng.normal(),
                               s1=rng.normal(0, 0.3), s2=rng.normal(0, 0.3))
            assert fd_check_derivatives(m, p, h=1e-5) < 1e-6

    def test_hessian_symmetric(self):
        m = make_model()
        H = m.hessian(1.2, 0.8, 0.1, -0.2, 0.5)
        assert np.allclose(H, H.T, rtol=0, atol=1e-12)

    def test_second_w_derivative_is_minus_a(self):
        m = make_model(a=0.45)
        H = m.hessian(1.0, 1.0, 0.0, 0.0, 0.3)
        assert H[4, 4] == pytest.approx(-0.45, abs=1e-14)

    def test_callable_added_mass(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=lambda r1, r2: 0.2 * r1 * r2))
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.0, u2=0.7,
                           s1=0.0, s2=0.0)
        assert fd_check_derivatives(m, p, h=1e-5) < 1e-6

    def test_callable_added_mass_called_once_where_only_a_is_needed(self):
        # value, dW_dw and d2W_dw2 need a but none of its derivatives
        calls = []

        def a(r1, r2):
            calls.append(np.shape(r1))
            return 0.2 * r1 * r2

        m = make_model(a=a)
        for method in (m.value, m.dW_dw, m.d2W_dw2):
            calls.clear()
            method(np.array([1.2, 0.9]), 0.8, 0.0, 0.0, 0.7)
            assert calls == [(2,)]

    def test_callable_added_mass_calls_per_derivative_order(self):
        # the gradient reads a, a_r1 and a_r2: the centre and four shifts;
        # the Hessian and the law pass add the four cross shifts of a_r1r2
        calls = []

        def a(r1, r2):
            calls.append(1)
            return 0.2 * r1 * r2

        m = make_model(a=a)
        for method, count in ((m.gradient, 5), (m.hessian, 9),
                              (m.derivatives, 9)):
            calls.clear()
            method(np.array([1.2, 0.9]), 0.8, 0.0, 0.0, 0.7)
            assert len(calls) == count

    @pytest.mark.parametrize("a", [0.3, lambda r1, r2: 0.2 * r1 * r2],
                             ids=["constant_a", "callable_a"])
    def test_law_pass_is_value_gradient_hessian(self, a):
        m = make_model(a=a)
        st = random_states(np.random.default_rng(7), 40)
        args = [st[k] for k in ("rho1", "rho2", "s1", "s2", "w")]
        W, grad, H = m.derivatives(*args)
        assert np.array_equal(W, m.value(*args))
        assert np.array_equal(grad, m.gradient(*args))
        assert np.array_equal(H, m.hessian(*args))

    def test_law_pass_of_a_subclass_reads_its_overrides(self):
        class Quartic(SeparableAddedMass):
            def value(self, rho1, rho2, s1, s2, w):
                return super().value(rho1, rho2, s1, s2, w) - w ** 4

            gradient, hessian = PotentialModel.gradient, PotentialModel.hessian

        m = Quartic(make_model().params)
        args = (1.2, 0.8, 0.1, -0.2, 0.5)
        W, grad, H = m.derivatives(*args)
        assert W == m.value(*args)
        assert np.array_equal(grad, m.gradient(*args))
        assert np.array_equal(H, m.hessian(*args))
        assert H[4, 4] == pytest.approx(-0.3 - 12.0 * 0.25, rel=1e-6)


class TestInternalEnergyRelation:
    def test_u_minus_w_identity_bulk(self):
        # U - W = -(dW/dw) w must hold identically for the analytic law
        m = make_model(a=1.3)
        rng = np.random.default_rng(11)
        st = random_states(rng, 10**6, w_scale=2.0)
        th = evaluate(m, **st)
        lhs = th.U - th.W
        rhs = -th.W_w * st["w"]
        scale = np.maximum(1.0, np.abs(rhs))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_i_star_sign(self):
        m = make_model(a=0.5)
        th = evaluate(m, 1.0, 1.0, 0.0, 0.0, 0.8)
        assert th.i_star == pytest.approx(-th.W_w, abs=0.0)
        # quadratic coupling: i* = a w
        assert th.i_star == pytest.approx(0.4, abs=1e-14)


class TestGalileanInvariance:
    def test_w_only_velocity_dependence(self):
        # the potential sees only w = u2 - u1, so any common boost is inert
        m = make_model(a=0.6)
        th1 = evaluate(m, 1.1, 0.9, 0.2, -0.3, 0.75)
        th2 = evaluate(m, 1.1, 0.9, 0.2, -0.3, 0.75)
        for attr in ("W", "U", "theta1", "theta2", "i_star"):
            assert getattr(th1, attr) == getattr(th2, attr)


class FDOnlyLaw(PotentialModel):
    """Law without analytic derivatives; exercises the fallback path."""

    def value(self, rho1, rho2, s1, s2, w):
        return (rho1 ** 2 * np.exp(s1) + rho2 ** 1.5 * np.exp(s2)
                - 0.1 * rho1 * rho2 * w ** 2)


class TestFallbackDerivatives:
    def test_gradient_matches_analytic_oracle(self):
        m = FDOnlyLaw()
        g = m.gradient(1.2, 0.8, 0.1, -0.2, 0.5)
        # hand derivatives of the test law
        assert g[0] == pytest.approx(2 * 1.2 * np.exp(0.1)
                                     - 0.1 * 0.8 * 0.25, rel=1e-7)
        assert g[4] == pytest.approx(-0.2 * 1.2 * 0.8 * 0.5, rel=1e-7)

    def test_hessian_symmetric_to_truncation(self):
        m = FDOnlyLaw()
        H = m.hessian(1.2, 0.8, 0.1, -0.2, 0.5)
        assert np.allclose(H, H.T, rtol=0, atol=1e-5)


class CountingValueOnly(PotentialModel):
    """Value-only view of the built-in law that counts ``value`` calls."""

    def __init__(self, law):
        self.law = law
        self.calls = 0

    def value(self, rho1, rho2, s1, s2, w):
        self.calls += 1
        return self.law.value(rho1, rho2, s1, s2, w)


class TestFallbackCost:
    def setup_method(self):
        self.law = make_model()
        self.m = CountingValueOnly(self.law)
        st = random_states(np.random.default_rng(3), 50)
        self.args = [st[k] for k in ("rho1", "rho2", "s1", "s2", "w")]

    def test_hessian_direct_stencil(self):
        H = self.m.hessian(*self.args)
        assert self.m.calls <= 51
        ref = self.law.hessian(*self.args)
        err = np.max(np.abs(H - ref), axis=(0, 1))
        assert np.all(err <= 1e-7 * np.max(np.abs(ref), axis=(0, 1)))

    def test_w_derivatives_difference_w_only(self):
        d2 = self.m.d2W_dw2(*self.args)
        assert self.m.calls <= 3
        assert np.allclose(d2, self.law.d2W_dw2(*self.args), rtol=0,
                           atol=1e-6)
        self.m.calls = 0
        d1 = self.m.dW_dw(*self.args)
        assert self.m.calls <= 2
        assert np.allclose(d1, self.law.dW_dw(*self.args), rtol=0,
                           atol=1e-9)

    def test_w_derivatives_read_an_analytic_gradient(self):
        # a law with only an analytic gradient keeps it for dW_dw
        class GradientOnly(CountingValueOnly):
            def gradient(self, rho1, rho2, s1, s2, w):
                return self.law.gradient(rho1, rho2, s1, s2, w)

        m = GradientOnly(self.law)
        assert np.array_equal(m.dW_dw(*self.args),
                              self.law.gradient(*self.args)[4])
        assert m.calls == 0
