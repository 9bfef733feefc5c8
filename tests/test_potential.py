"""Tests for the constitutive potential and its derivative machinery."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twofluid.potential import (AdmissibilityError, PotentialModel,
                                SeparableAddedMass, SeparableAddedMassParams,
                                _fd2_step, _fd_step, evaluate,
                                fd_check_derivatives, require_admissible)
from twofluid.state import (PrimitiveState, evolved_to_primitive,
                            primitive_to_evolved)

from conftest import CoupledInWGradient


def make_model(a=0.3, gamma1=2.0, gamma2=1.4):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=gamma1, gamma2=gamma2, a=a))


class Quartic(SeparableAddedMass):
    """The built-in law less w^4: a subclass that changes how W depends on
    w, with its gradient and Hessian from differences of ``value``."""

    def value(self, rho1, rho2, s1, s2, w):
        return super().value(rho1, rho2, s1, s2, w) - w ** 4

    gradient, hessian = PotentialModel.gradient, PotentialModel.hessian


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

    @pytest.mark.parametrize("rho1, rho2, cell", [
        (np.array([1.0, 0.5, -1.0, -2.0]), 1.0, 2),
        (np.array([1.0, np.inf, 0.0]), 1.0, 1),
        (1.0, np.array([[1.0, 1.0], [np.nan, 0.0]]), 2),
        (-1.0, 1.0, 0)], ids=["negative", "inf_first", "flat_2d", "scalar"])
    def test_first_offending_cell_carried(self, rho1, rho2, cell):
        # the flat index of the first inadmissible entry of the component
        # named, whichever bound it fails
        with pytest.raises(AdmissibilityError) as exc:
            require_admissible(rho1, rho2)
        assert exc.value.cell == cell

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

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_fd_check_step_must_be_positive(self, h):
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.1, u2=0.4,
                           s1=0.05, s2=-0.1)
        with pytest.raises(ValueError, match="h must be positive"):
            fd_check_derivatives(make_model(), p, h=h)

    @pytest.mark.parametrize("rho1, rho2", [(1e-5, 0.8), (1.2, 2e-5)])
    def test_fd_check_stencil_kept_off_the_floor(self, rho1, rho2):
        # the +-2h stencil would reach below RHO_FLOOR; a smaller h fits
        p = PrimitiveState(rho1=rho1, rho2=rho2, u1=0.1, u2=0.4,
                           s1=0.05, s2=-0.1)
        with pytest.raises(AdmissibilityError,
                           match="too close to the density floor for an "
                                 "h=1e-05 stencil"):
            fd_check_derivatives(make_model(), p, h=1e-5)
        assert np.isfinite(fd_check_derivatives(make_model(), p, h=1e-8))

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
        # value needs a but none of its derivatives
        calls = []

        def a(r1, r2):
            calls.append(np.shape(r1))
            return 0.2 * r1 * r2

        make_model(a=a).value(np.array([1.2, 0.9]), 0.8, 0.0, 0.0, 0.7)
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


class TestSubclassOfTheBuiltInLaw:
    """A subclass that changes how W depends on w reads W_w and W_ww from
    its own gradient and Hessian wherever they are used."""

    args = (1.2, 0.8, 0.1, -0.2, 0.5)

    def test_w_derivatives_are_its_gradient_and_hessian(self):
        m = Quartic(make_model().params)
        assert m.dW_dw(*self.args) == m.gradient(*self.args)[4]
        assert m.d2W_dw2(*self.args) == m.hessian(*self.args)[4, 4]

    def test_generalized_velocities_read_its_gradient(self):
        # W_w = -a w - 4 w^3 = -0.65 at w = 0.5, where -a w alone is -0.15
        m = Quartic(make_model().params)
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.0, u2=0.5, s1=0.1,
                           s2=-0.2)
        e = primitive_to_evolved(m, p)
        invsum = 1.0 / 1.2 + 1.0 / 0.8
        Ww = m.gradient(*self.args)[4]
        assert e.K2 - e.K1 == pytest.approx(0.5 - invsum * Ww, rel=1e-14)
        assert e.K2 - e.K1 == pytest.approx(0.5 + 0.65 * invsum, rel=1e-9)
        back = evolved_to_primitive(m, e)
        assert back.u1 == pytest.approx(0.0, abs=1e-12)
        assert back.u2 == pytest.approx(0.5, abs=1e-12)


#: name -> (law, whether its gradient and its Hessian are written out)
SOURCE_LAWS = {
    "constant_a": (make_model(a=0.3), True, True),
    "callable_a": (make_model(a=lambda r1, r2: 0.2 * r1 * r2 / (r1 + r2)),
                   True, True),
    "subclass": (Quartic(make_model().params), False, False),
    "user_law": (CoupledInWGradient(), True, False),
}


class TestDerivativeSources:
    @given(law=st.sampled_from(sorted(SOURCE_LAWS)),
           rho1=st.floats(0.3, 2.0), rho2=st.floats(0.3, 2.0),
           s1=st.floats(-0.5, 0.5), s2=st.floats(-0.5, 0.5),
           w=st.floats(-1.5, 1.5))
    def test_one_source_per_derivative(self, law, rho1, rho2, s1, s2, w):
        # the law pass is value, gradient and Hessian; W_w and W_ww are
        # read from them where written out, else differenced in w with the
        # steps of the gradient and the Hessian
        m, exact_grad, exact_hess = SOURCE_LAWS[law]
        args = (rho1, rho2, s1, s2, w)
        W, grad, H = m.derivatives(*args)
        assert np.array_equal(W, m.value(*args))
        assert np.array_equal(grad, m.gradient(*args))
        assert np.array_equal(H, m.hessian(*args))
        scale = max(1.0, abs(float(W)))
        for got, ref, exact, tol in ((m.dW_dw(*args), grad[4], exact_grad,
                                      1e-9),
                                     (m.d2W_dw2(*args), H[4, 4], exact_hess,
                                      1e-6)):
            if exact:
                assert got == ref
            else:
                assert abs(got - ref) <= tol * scale


def _written_out_stencils(value, args):
    """The fallback derivatives of ``value``, each stencil written out on
    its own: (gradient, Hessian, W_w, W_ww)."""
    x = [np.asarray(a, dtype=float) for a in args]
    grad = []
    for i, xi in enumerate(x):
        h = _fd_step(xi)
        plus, minus = list(x), list(x)
        plus[i], minus[i] = xi + h, xi - h
        grad.append(np.asarray(value(*plus) - value(*minus)) / (2.0 * h))
    steps = [_fd2_step(xi) for xi in x]

    def at(*shifts):
        moved = list(x)
        for i, sign in shifts:
            moved[i] = x[i] + sign * steps[i]
        return np.asarray(value(*moved), dtype=float)

    centre = at()
    H = [[None] * 5 for _ in range(5)]
    for i in range(5):
        H[i][i] = (at((i, 1)) - 2.0 * centre + at((i, -1))) / steps[i] ** 2
        for j in range(i):
            H[i][j] = H[j][i] = (
                at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                - at((i, -1), (j, 1)) + at((i, -1), (j, -1))
            ) / (4.0 * steps[i] * steps[j])
    w = x[4]
    h1, h2 = _fd_step(w), _fd2_step(w)
    dW = (np.asarray(value(*args[:4], w + h1))
          - value(*args[:4], w - h1)) / (2.0 * h1)
    d2W = (np.asarray(value(*args[:4], w + h2)) - 2.0 * value(*args[:4], w)
           + value(*args[:4], w - h2)) / h2 ** 2
    return (np.stack(np.broadcast_arrays(*grad)),
            np.stack([np.stack(np.broadcast_arrays(*row)) for row in H]),
            dW, d2W)


def _written_out_a_derivs(a, rho1, rho2):
    """a and its first and second density derivatives, the stencil written
    out: (a, a_r1, a_r2, a_r1r1, a_r1r2, a_r2r2)."""
    r1, r2 = np.asarray(rho1, dtype=float), np.asarray(rho2, dtype=float)
    h1, h2 = _fd_step(r1), _fd_step(r2)
    a0 = a(r1, r2) + np.zeros(np.broadcast(r1, r2).shape)
    ap1, am1 = a(r1 + h1, r2), a(r1 - h1, r2)
    ap2, am2 = a(r1, r2 + h2), a(r1, r2 - h2)
    return np.broadcast_arrays(
        a0, (ap1 - am1) / (2.0 * h1), (ap2 - am2) / (2.0 * h2),
        (ap1 - 2.0 * a0 + am1) / h1 ** 2,
        (np.asarray(a(r1 + h1, r2 + h2), dtype=float) - a(r1 + h1, r2 - h2)
         - a(r1 - h1, r2 + h2) + a(r1 - h1, r2 - h2)) / (4.0 * h1 * h2),
        (ap2 - 2.0 * a0 + am2) / h2 ** 2)


def _written_out_fd_check(model, args, h):
    """:func:`fd_check_derivatives` with its fixed-step stencil written
    out."""
    x = [np.asarray(a, dtype=float) for a in args]

    def fd(fn, i):
        plus, minus = list(x), list(x)
        plus[i], minus[i] = x[i] + h, x[i] - h
        return (np.asarray(fn(*plus), dtype=float)
                - np.asarray(fn(*minus), dtype=float)) / (2.0 * h)

    worst = 0.0
    for ana, fn in ((model.gradient(*x), model.value),
                    (model.hessian(*x), model.gradient)):
        for i in range(5):
            num = fd(fn, i)
            err = np.abs(ana[i] - num) / np.maximum(
                1.0, np.maximum(np.abs(ana[i]), np.abs(num)))
            worst = max(worst, float(np.max(err)))
    return worst


class TestSharedStencil:
    """The one difference stencil gives each fallback derivative bit for bit
    as its own written-out stencil does."""

    def setup_method(self):
        st_ = random_states(np.random.default_rng(17), 40, w_scale=1.5)
        self.args = [st_[k] for k in ("rho1", "rho2", "s1", "s2", "w")]

    def test_fallbacks_of_a_value_only_law(self):
        m = FDOnlyLaw()
        grad, H, dW, d2W = _written_out_stencils(m.value, self.args)
        assert np.array_equal(m.gradient(*self.args), grad)
        assert np.array_equal(m.hessian(*self.args), H)
        assert np.array_equal(m.dW_dw(*self.args), dW)
        assert np.array_equal(m.d2W_dw2(*self.args), d2W)

    def test_differences_of_a_callable_a(self):
        def a(r1, r2):
            return 0.3 * r1 * r2 / (r1 + r2) + 0.05 * np.sin(r1 - 2.0 * r2)

        m = make_model(a=a)
        ref = _written_out_a_derivs(a, *self.args[:2])
        for order, count in ((1, 3), (2, 6)):
            got = m._a_derivs(*self.args[:2], order)
            assert len(got) == count
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    @pytest.mark.parametrize("law", [make_model(), CoupledInWGradient()],
                             ids=["built_in", "user_law"])
    def test_fixed_step_check(self, law):
        p = PrimitiveState(rho1=self.args[0], rho2=self.args[1], u1=0.0,
                           u2=self.args[4], s1=self.args[2], s2=self.args[3])
        assert fd_check_derivatives(law, p, h=1e-5) == _written_out_fd_check(
            law, self.args, 1e-5)
