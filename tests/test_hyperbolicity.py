"""Tests for the Legendre transform, symmetric system, and speed analysis."""
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twofluid import hyperbolicity
from twofluid.hyperbolicity import (AsymmetryError, B_MATRIX, _certificate,
                                    _forward_maps, _lagrangian_hessian,
                                    _law_hessian, _scaled_margin, _speeds,
                                    _symmetric_system,
                                    assemble_symmetric_system,
                                    characteristic_speeds,
                                    check_legendre_identities,
                                    check_stability_inequalities,
                                    critical_relative_velocity,
                                    invert_legendre, legendre_transform,
                                    map_hyperbolic_region, min_eig_A_batch,
                                    mixture_rest_state, wave_speeds_batch)
from twofluid.potential import (RHO_FLOOR, AdmissibilityError,
                                PotentialModel, SeparableAddedMass,
                                SeparableAddedMassParams, evaluate)
from twofluid.solver import (Grid1D, SimulationConfig, assemble_rhs,
                             evolved_from_primitive_profiles)
from twofluid.state import ConvergenceError, PrimitiveState

from conftest import CoupledInW, CoupledInWGradient, certify, count_calls


def make_model(a=0.3):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=2.0, gamma2=1.4, a=a))


def lagrangian_rows(model, rho1, rho2, u1, u2, s1, s2):
    """The Hess-L rows of states given by their fields."""
    return _lagrangian_hessian(
        *_law_hessian(model, rho1, rho2, s1, s2, np.subtract(u2, u1)), rho1,
        rho2, u1, u2)


def certificate(model, rho1, rho2, u1, u2, s1, s2, V):
    """The certificate in the frame moving with V of states given by their
    fields."""
    return _certificate(
        *_law_hessian(model, rho1, rho2, s1, s2, np.subtract(u2, u1)), rho1,
        rho2, u1, u2, V)


class ValueOnly(PotentialModel):
    """A law with no analytic derivatives: Hessians come from differences."""

    def value(self, rho1, rho2, s1, s2, w):
        return (rho1 ** 2 * np.exp(s1) + 0.7 * rho2 ** 1.4 * np.exp(s2)
                + 0.3 * rho1 * rho2 - 0.2 * (1.0 + 0.1 * rho1) * w ** 2)


class QuarticInW(SeparableAddedMass):
    """The built-in law less w^4 / 40: a subclass not quadratic in w."""

    def value(self, rho1, rho2, s1, s2, w):
        return (super().value(rho1, rho2, s1, s2, w)
                - np.asarray(w, dtype=float) ** 4 / 40.0)

    gradient, hessian = PotentialModel.gradient, PotentialModel.hessian


class LinearInRho(PotentialModel):
    """A law whose sigma does not depend on the densities at rest, where
    the Jacobian of the Legendre map is then exactly singular."""

    def value(self, rho1, rho2, s1, s2, w):
        return rho1 + rho2 - 0.1 * w ** 2

    def gradient(self, rho1, rho2, s1, s2, w):
        one = np.ones(np.broadcast(rho1, rho2, s1, s2, w).shape)
        return np.stack([one, one, 0.0 * one, 0.0 * one, -0.2 * w * one])


class ConcaveInRho1(PotentialModel):
    """A law violating the stability inequalities at rest (W_rho1rho1 < 0)."""

    def value(self, rho1, rho2, s1, s2, w):
        return -rho1 ** 2 + rho2 ** 2 - 0.1 * w ** 2


def subsonic_states(rng, model, n):
    """Random rest-frame states with w comfortably below the critical value."""
    rho1 = rng.uniform(0.5, 1.5, n)
    rho2 = rng.uniform(0.5, 1.5, n)
    w = rng.uniform(-0.3, 0.3, n)
    s1 = rng.uniform(-0.2, 0.2, n)
    s2 = rng.uniform(-0.2, 0.2, n)
    rho = rho1 + rho2
    return PrimitiveState(rho1=rho1, rho2=rho2,
                          u1=-rho2 * w / rho, u2=rho1 * w / rho,
                          s1=s1, s2=s2)


def acceptance_04_states():
    """The 1000 states with relative velocity of acceptance criterion 04."""
    rng = np.random.default_rng(7)
    states = []
    for _ in range(1000):
        rho1 = float(rng.uniform(0.5, 1.5))
        rho2 = float(rng.uniform(0.5, 1.5))
        w = float(rng.uniform(-0.25, 0.25))
        rho = rho1 + rho2
        states.append(PrimitiveState(
            rho1=rho1, rho2=rho2, u1=-rho2 * w / rho, u2=rho1 * w / rho,
            s1=float(rng.uniform(-0.2, 0.2)), s2=float(rng.uniform(-0.2, 0.2))))
    return states


def critical_w_states():
    """40 seeded rest-frame states on both sides of w* (a = 1): factor
    0.3-0.95 of w* at odd k, 1.05-1.5 at even k; (model, [(p, factor)])."""
    m = SeparableAddedMass(SeparableAddedMassParams(
        gamma1=2.0, gamma2=1.4, a=1.0))
    rng = np.random.default_rng(17)
    states = []
    for k in range(40):
        rho1, rho2 = rng.uniform(0.5, 1.5, 2)
        s1, s2 = rng.uniform(-0.2, 0.2, 2)
        w_star = critical_relative_velocity(m, rho1, rho2, s1, s2, w_max=5.0)
        factor = (rng.uniform(0.3, 0.95) if k % 2
                  else rng.uniform(1.05, 1.5))
        states.append((mixture_rest_state(rho1, rho2, factor * w_star, s1, s2),
                       factor))
    return m, states


class CrossCoupled(PotentialModel):
    """A law whose density block is indefinite (the third stability
    inequality fails), with Hessians from differences."""

    def value(self, rho1, rho2, s1, s2, w):
        return (0.5 * rho1 ** 2 + 0.5 * rho2 ** 2
                + 5.0 * rho1 * rho2 - 0.1 * w ** 2)


class TestLegendreTransform:
    def test_rest_state_values(self):
        m = make_model()
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.0, u2=0.0,
                           s1=0.1, s2=-0.1)
        lv = legendre_transform(m, p)
        th = evaluate(m, 1.2, 0.8, 0.1, -0.1, 0.0)
        assert lv.j1 == 0.0 and lv.j2 == 0.0
        assert lv.sigma1 == pytest.approx(-th.W_rho1, rel=1e-13)
        assert lv.sigma2 == pytest.approx(-th.W_rho2, rel=1e-13)
        expected_G = -th.W + 1.2 * th.W_rho1 + 0.8 * th.W_rho2
        assert lv.G == pytest.approx(expected_G, rel=1e-13)

    def test_identities_single_state(self):
        m = make_model()
        p = PrimitiveState(rho1=1.1, rho2=0.9, u1=0.05, u2=0.25,
                           s1=0.0, s2=0.1)
        assert check_legendre_identities(m, p) < 1e-6

    def test_identities_bulk(self):
        m = make_model(a=0.4)
        rng = np.random.default_rng(31)
        p = subsonic_states(rng, m, 1000)
        worst = 0.0
        for i in range(1000):
            pi = PrimitiveState(rho1=float(p.rho1[i]), rho2=float(p.rho2[i]),
                                u1=float(p.u1[i]), u2=float(p.u2[i]),
                                s1=float(p.s1[i]), s2=float(p.s2[i]))
            worst = max(worst, check_legendre_identities(m, pi))
        assert worst < 1e-6


class TestSymmetricSystem:
    def test_asymmetry_small(self):
        m = make_model()
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.02, u2=0.22,
                           s1=0.0, s2=0.0)
        sys = assemble_symmetric_system(m, p)
        assert sys.asymmetry_A < 1e-6
        assert sys.asymmetry_B < 1e-6
        assert np.allclose(sys.A, sys.A.T, rtol=0, atol=1e-10)
        assert np.allclose(sys.B, sys.B.T, rtol=0, atol=1e-10)

    def test_positive_definite_at_rest(self):
        m = make_model()
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=0.0,
                           s1=0.0, s2=0.0)
        sys = assemble_symmetric_system(m, p)
        assert sys.min_eig_A > 0.0

    def test_batch_matches_scalar(self):
        m = make_model(a=0.5)
        p = PrimitiveState(rho1=1.3, rho2=0.7, u1=-0.1, u2=0.15,
                           s1=0.05, s2=-0.05)
        sys = assemble_symmetric_system(m, p)
        A_batch = _symmetric_system(lagrangian_rows(
            m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2))
        A_batch = 0.5 * (A_batch + A_batch.T)
        assert np.max(np.abs(sys.A - A_batch)) < 1e-5 * np.linalg.norm(sys.A)


class TestNewtonOracle:
    """The per-state Legendre route: the eight shifted targets of a call
    inverted by one stacked damped Newton."""

    @pytest.mark.parametrize("state, error", [
        # seeded states at 1.23 and 1.16 w*, where L_rr is nearly singular
        ((0.9858353588317891, 1.3894878343490003, 0.1736174063824999,
          -0.0568819213163719, 0.5715298307297609, 1.2287477564303768),
         AsymmetryError),
        ((1.000329712064861, 1.0974658410028173, 0.17395135844164783,
          0.03554598666335945, 0.09348256345066186, 1.158587690873898),
         ConvergenceError),
    ], ids=["asymmetry", "convergence"])
    def test_errors_state_det_L_rr(self, state, error):
        rho1, rho2, s1, s2, a, factor = state
        m = make_model(a=a)
        w_star = critical_relative_velocity(m, rho1, rho2, s1, s2)
        p = mixture_rest_state(rho1, rho2, factor * w_star, s1, s2)
        R = lagrangian_rows(m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
        det = R[0] * R[1] - R[2] ** 2
        assert abs(det) < 1e-2 * (R[0] ** 2 + R[1] ** 2 + 2.0 * R[2] ** 2)
        with pytest.raises(error, match=re.escape(
                f"det L_rr = {det:.3g} at this state")):
            assemble_symmetric_system(m, p)

    @staticmethod
    def _scalar_inversion(model, sigma, j, s1, s2, rho_guess, tol=1e-13,
                          max_iter=60):
        """The one-target-at-a-time Newton the stacked one replaced."""
        rho = np.array(rho_guess, dtype=float)
        scale = max(1.0, abs(sigma[0]), abs(sigma[1]))
        for _ in range(max_iter):
            res = np.array(_forward_maps(model, rho[0], rho[1], j[0], j[1],
                                         s1, s2)[:2]) - sigma
            if np.max(np.abs(res)) <= tol * scale:
                return rho
            J = np.empty((2, 2))
            for i in range(2):
                h = 1e-7 * max(1.0, rho[i])
                rp, rm = rho.copy(), rho.copy()
                rp[i] += h
                rm[i] -= h
                sp = _forward_maps(model, *rp, j[0], j[1], s1, s2)
                sm = _forward_maps(model, *rm, j[0], j[1], s1, s2)
                J[:, i] = (np.array(sp[:2]) - np.array(sm[:2])) / (2.0 * h)
            step = np.linalg.solve(J, res)
            new = rho - step
            tries = 0
            while np.min(new) <= RHO_FLOOR and tries < 60:
                step *= 0.5
                new = rho - step
                tries += 1
            rho = new
        raise AssertionError("no convergence")

    def test_stacked_inversion_matches_one_column_calls(self, monkeypatch):
        m = make_model(a=0.4)
        guess = (1.0, 0.9)
        # column 0 is converged at the guess; column 1 has rho2 near the
        # density floor, and at j = 0 (sigma2 = -3.5 rho2^0.4 e^s2) the
        # undamped first step from 0.9 lands at a negative density
        rho = np.array([[1.0, 0.8, 1.3, 0.6], [0.9, 1e-4, 0.6, 1.4]])
        j = np.array([[0.05, 0.0, 0.1, -0.2], [-0.02, 0.0, 0.3, 0.1]])
        sigma = np.array(_forward_maps(m, *rho, *j, 0.1, -0.1)[:2])
        stacked = invert_legendre(m, sigma, j, 0.1, -0.1, guess)
        centres = []
        forward_maps = hyperbolicity._forward_maps

        def spy(model, rho1, rho2, *rest):
            centres.append(float(rho2[0, 0]))
            return forward_maps(model, rho1, rho2, *rest)

        monkeypatch.setattr(hyperbolicity, "_forward_maps", spy)
        for c in range(4):
            centres.clear()
            alone = invert_legendre(m, sigma[:, [c]], j[:, [c]], 0.1, -0.1,
                                    guess)
            assert np.array_equal(stacked[:, [c]], alone)
            assert np.array_equal(stacked[:, c], self._scalar_inversion(
                m, sigma[:, c], j[:, c], 0.1, -0.1, guess))
            if c == 1:
                undamped = 0.9 * (1.0 - 2.5 * (1.0 - (1e-4 / 0.9) ** 0.4))
                assert undamped < 0.0 < centres[1] < 0.9
        assert np.array_equal(stacked[:, 0], guess)
        assert np.allclose(stacked, rho, rtol=1e-9, atol=0.0)

    def test_unreachable_target_fails_on_its_own(self):
        # at rest sigma1 = -2 rho1 < 0: column 1 asks for sigma1 = 1, which
        # no density reaches; column 0 converges at the second iteration
        m = make_model(a=0.4)
        rho, j = np.array([[0.8, 0.8], [0.9, 0.9]]), np.zeros((2, 2))
        sigma = np.array(_forward_maps(m, *rho, *j, 0.0, 0.0)[:2])
        sigma[0, 1] = 1.0
        with pytest.raises(ConvergenceError, match="admissible set") as exc:
            invert_legendre(m, sigma, j, 0.0, 0.0, (1.0, 0.9))
        assert exc.value.cell == 1
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            invert_legendre(m, sigma, j, 0.0, 0.0, (1.0, 0.9), max_iter=3)
        assert exc.value.cell == 1

    def test_stencil_stays_above_density_floor(self, monkeypatch):
        # at rest sigma2 = -3.5 rho2^0.4 < 0: the target sigma2 = 1 drives
        # rho2 towards the floor, where a stencil rho2 - 1e-7 went negative
        m = make_model(a=0.3)
        lowest = []
        forward_maps = hyperbolicity._forward_maps

        def spy(model, rho1, rho2, *rest):
            lowest.append(min(np.min(rho1), np.min(rho2)))
            return forward_maps(model, rho1, rho2, *rest)

        monkeypatch.setattr(hyperbolicity, "_forward_maps", spy)
        others = [count_calls(monkeypatch, m, name)
                  for name in ("value", "hessian", "dW_dw", "d2W_dw2")]
        with pytest.raises(ConvergenceError, match="admissible set") as exc:
            invert_legendre(m, [[-2.0], [1.0]], np.zeros((2, 1)), 0.0, 0.0,
                            (1.0, 0.9))
        assert exc.value.cell == 0
        assert min(lowest) > RHO_FLOOR and min(lowest) < 1e-7
        assert others == [[], [], [], []]

    def test_singular_jacobian(self):
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            invert_legendre(LinearInRho(), [[-2.0], [-2.0]], [[0.0], [0.0]],
                            0.0, 0.0, (1.0, 1.0))

    def test_critical_w_states_within_default_asym_tol(self):
        # O(h^2) truncation near a singular L_rr reached 4.5e-4 at h = 1e-5
        # on these states; at the default step it stays below 1e-6
        m, states = critical_w_states()
        for p, factor in states:
            sys = assemble_symmetric_system(m, p)
            assert (sys.min_eig_A > 0.0) == (factor < 1.0)

    def test_few_forward_map_calls(self, monkeypatch):
        # two calls outside the Newton (the centre state, and K), one per
        # iteration of the eight stacked inversions
        m = make_model(a=0.4)
        calls = count_calls(monkeypatch, hyperbolicity, "_forward_maps")
        for p in acceptance_04_states():
            for oracle in (check_legendre_identities,
                           assemble_symmetric_system):
                calls.clear()
                oracle(m, p)
                assert len(calls) <= 8


class TestLagrangianHessian:
    @staticmethod
    def _fd_hessian(model, rho1, rho2, u1, u2, s1, s2, h=1e-5):
        """Central differences of dL/dm = (sigma1, sigma2, K1, K2)."""
        m = [rho1, rho2, rho1 * u1, rho2 * u2]
        J = np.empty(np.shape(rho1) + (4, 4))
        for i in range(4):
            hi = h * np.maximum(1.0, np.abs(m[i]))
            mp, mm = list(m), list(m)
            mp[i] = m[i] + hi
            mm[i] = m[i] - hi
            fp = np.stack(_forward_maps(model, *mp, s1, s2), axis=-1)
            fm = np.stack(_forward_maps(model, *mm, s1, s2), axis=-1)
            J[..., i] = (fp - fm) / (2.0 * hi)[..., None]
        return J

    @pytest.mark.parametrize("law, tol", [
        (make_model(a=0.4), 1e-8),
        (SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4,
            a=lambda r1, r2: 0.3 * r1 * r2 / (r1 + r2))), 1e-6),
        (ValueOnly(), 3e-5),
    ], ids=["constant_a", "callable_a", "value_only"])
    def test_blocks_match_differenced_forward_maps(self, law, tol):
        rng = np.random.default_rng(3)
        n = 50
        args = (rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n),
                rng.normal(0, 0.3, n), rng.normal(0, 0.3, n),
                rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n))
        R = lagrangian_rows(law, *args)
        assert R.shape == (10, n)
        # rows L_rr (11, 22, 12), L_rj (11, 22, 12, 21), L_jj (11, 22, 12)
        rr11, rr22, rr12, rj11, rj22, rj12, rj21, jj11, jj22, jj12 = R
        H = np.moveaxis(np.array([[rr11, rr12, rj11, rj12],
                                  [rr12, rr22, rj21, rj22],
                                  [rj11, rj21, jj11, jj12],
                                  [rj12, rj22, jj12, jj22]]), -1, 0)
        J = self._fd_hessian(law, *args)
        rel = np.linalg.norm(H - J, axis=(-2, -1)) / np.linalg.norm(
            J, axis=(-2, -1))
        assert np.max(rel) < tol

    @pytest.mark.parametrize("a", [0.4, lambda r1, r2: 0.3 * r1 * r2 / (r1 + r2)],
                             ids=["constant_a", "callable_a"])
    def test_analytic_A_matches_newton_oracle(self, a):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=a))
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = mixture_rest_state(*rng.uniform(0.5, 1.5, 2),
                                   rng.uniform(-0.25, 0.25),
                                   *rng.uniform(-0.2, 0.2, 2))
            oracle = assemble_symmetric_system(m, p).A
            A = _symmetric_system(lagrangian_rows(
                m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2))
            assert np.array_equal(A, A.T)
            assert np.max(np.abs(A - oracle)) < 1e-7 * np.linalg.norm(oracle)


class TestCertificate:
    def test_matches_newton_min_eig_across_critical_w(self):
        # the block-Cholesky certificate against the sign of min-eig(A) of
        # the per-state Newton oracle, on both sides of w*
        m, states = critical_w_states()
        seen = set()
        for p, factor in states:
            # only the sign of min-eig is compared, so a looser asymmetry
            # check suffices (TestNewtonOracle holds these states to the
            # default)
            sys = assemble_symmetric_system(m, p, asym_tol=1e-2)
            newton_posdef = sys.min_eig_A > 0.0
            _, ok, margin = wave_speeds_batch(m, p.rho1, p.rho2, p.u1, p.u2,
                                              p.s1, p.s2)
            assert bool(ok) == newton_posdef == (factor < 1.0)
            assert bool(margin > 0.0) == bool(ok)
            seen.add(bool(ok))
        assert seen == {True, False}

    @pytest.mark.parametrize("law", ["constant_a", "callable_a", "user_law"])
    @given(rho1=st.floats(0.5, 1.5), rho2=st.floats(0.5, 1.5),
           s1=st.floats(-0.2, 0.2), s2=st.floats(-0.2, 0.2),
           a=st.floats(0.0, 1.0),
           factor=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 1.5)))
    def test_certificate_and_newton_oracle_away_from_w_star(
            self, law, rho1, rho2, s1, s2, a, factor):
        # below w* the certificate holds and the Newton min-eig(A) is
        # positive; above w* both fail.  A = Hess G has a pole wherever
        # L_rr is singular, at w* and past it at a second root of
        # det L_rr, so states are kept 10 % away from every such w.  The
        # Newton cannot reach its 1e-13 tolerance on a differenced
        # gradient, which a callable a has: that law is held to the
        # certificate only
        m = {"constant_a": lambda: make_model(a=a),
             "callable_a": lambda: make_model(
                 a=lambda r1, r2: a * r1 * r2 / (r1 + r2)),
             "user_law": CoupledInWGradient}[law]()
        w_star = critical_relative_velocity(m, rho1, rho2, s1, s2)
        assume(w_star)
        w = factor * w_star
        near = mixture_rest_state(rho1, rho2,
                                  np.linspace(w / 1.1, w / 0.9, 257), s1, s2)
        R = lagrangian_rows(m, near.rho1, near.rho2, near.u1, near.u2,
                                s1, s2)
        det = R[0] * R[1] - R[2] ** 2
        assume(np.all(det > 0.0) or np.all(det < 0.0))
        p = mixture_rest_state(rho1, rho2, w, s1, s2)
        _, ok, _ = wave_speeds_batch(m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
        assert bool(ok) == (factor < 1.0)
        if law != "callable_a":
            # only the sign of min-eig is compared, as above
            sys = assemble_symmetric_system(m, p, asym_tol=1e-2)
            assert (sys.min_eig_A > 0.0) == (factor < 1.0)

    def test_margin_positive_exactly_where_certified(self):
        m = make_model(a=1.0)
        rng = np.random.default_rng(23)
        n = 4000
        rho1 = rng.uniform(0.5, 1.5, n)
        rho2 = rng.uniform(0.5, 1.5, n)
        p = mixture_rest_state(rho1, rho2, rng.uniform(-3.0, 3.0, n),
                               0.0, 0.0)
        speeds, ok, margin = wave_speeds_batch(m, p.rho1, p.rho2, p.u1, p.u2,
                                               p.s1, p.s2)
        assert 0 < np.sum(ok) < n
        assert np.array_equal(margin > 0.0, ok)
        assert np.all(np.isfinite(speeds[ok]))
        assert np.all(np.isnan(speeds[~ok]))


    def test_min_eig_A_in_the_frame_that_certifies(self):
        # a lab-certified state, one certified only at zero mixture momentum
        # (boosted by 1.7) and one past w* certified in neither
        m = make_model(a=0.3)
        rho1, rho2, s1, s2 = 1.1, 0.9, 0.05, -0.05
        w_star = critical_relative_velocity(m, rho1, rho2, s1, s2)
        rest = mixture_rest_state(rho1, rho2,
                                  np.array([0.2, 0.2, 1.5 * w_star]), s1, s2)
        boost = np.array([0.0, 1.7, 0.5])
        u1, u2 = rest.u1 + boost, rest.u2 + boost
        _, ok, _ = wave_speeds_batch(m, rho1, rho2, u1, u2, s1, s2)
        min_eig = min_eig_A_batch(certify(m, rho1, rho2, u1, u2,
                                                   s1, s2))
        V = np.array([0.0, 1.7, 0.5])
        A = _symmetric_system(lagrangian_rows(m, rho1, rho2, u1 - V,
                                                  u2 - V, s1, s2))
        assert ok.tolist() == [True, True, False]
        assert np.allclose(min_eig, np.linalg.eigvalsh(A)[:, 0], rtol=1e-12)
        assert np.array_equal(min_eig > 0.0, ok)
        lab = _symmetric_system(lagrangian_rows(m, rho1, rho2, u1[1],
                                                    u2[1], s1, s2))
        assert np.linalg.eigvalsh(lab)[0] < 0.0

    @given(law=st.sampled_from(["constant_a", "callable_a", "cross_coupled"]),
           a=st.floats(0.0, 1.0),
           states=st.lists(st.tuples(
               st.floats(0.03, 3.0), st.floats(0.03, 3.0),
               st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
               st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
               min_size=1, max_size=40))
    def test_min_eig_A_positive_exactly_where_certified(self, law, a,
                                                         states):
        # Sylvester's law of inertia on A = U^T diag(-L_rr^-1, L_jj) U, in
        # the frame the certificate used; states within 1e-9 of a zero
        # margin are left out, their sign being round-off
        m = {"constant_a": lambda: make_model(a=a),
             "callable_a": lambda: make_model(
                 a=lambda r1, r2: a * r1 * r2 / (r1 + r2)),
             "cross_coupled": CrossCoupled}[law]()
        cert = certify(m, *np.array(states).T)
        ok, margin = cert.ok, _scaled_margin(cert.R)
        clear = np.abs(margin) > 1e-9
        min_eig = min_eig_A_batch(cert)
        assert np.array_equal((min_eig > 0.0)[clear], ok[clear])

    @pytest.mark.parametrize("a", [0.4, lambda r1, r2: 0.3 * r1 * r2 / (
        r1 + r2)], ids=["constant_a", "callable_a"])
    def test_retry_reads_each_states_own_hessian(self, a):
        # the zero-mixture-momentum retry reuses the lab frame's H and W_w
        # (w is the same in every frame): its rows and certificate are
        # those of each retried state, from its own H and W_w, in its frame
        m = make_model(a=a)
        state = random_lab_states(np.random.default_rng(61), 2000)
        cert = certify(m, *state)
        V, ok, R = cert.V, cert.ok, cert.R
        rho1, rho2, u1, u2, s1, s2 = state
        moved = np.flatnonzero(V != 0.0)
        assert moved.size > 100
        ok_ref, _, ref = _certificate(
            *_law_hessian(m, rho1, rho2, s1, s2, u2 - u1), rho1, rho2, u1, u2,
            V)
        assert np.array_equal(R[:, moved], ref[:, moved])
        assert np.array_equal(ok[moved], ok_ref[moved])

    def test_min_eig_A_reuses_the_certificate_rows(self, monkeypatch):
        # on lab-certified states the certificate makes the one law pass,
        # and min-eig(A) and the speeds read its rows
        m = make_model(a=0.4)
        p = subsonic_states(np.random.default_rng(29), m, 50)
        state = (p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2)
        calls = {name: count_calls(monkeypatch, m, name)
                 for name in ("derivatives", "hessian", "dW_dw")}
        cert = certify(m, *state)
        assert np.all(cert[0] == 0.0)
        assert np.all(min_eig_A_batch(cert) > 0.0)
        assert np.all(np.isfinite(_speeds(cert, range(4))))
        assert calls == {"derivatives": [50], "hessian": [], "dW_dw": []}


class TestCharacteristicSpeeds:
    def test_decoupled_oracle_bulk(self):
        # with no velocity coupling the four speeds are u_a +- c_a
        m = make_model(a=0.0)
        rng = np.random.default_rng(37)
        n = 1000
        rho1 = rng.uniform(0.5, 1.5, n)
        rho2 = rng.uniform(0.5, 1.5, n)
        u1 = rng.normal(0, 0.3, n)
        u2 = rng.normal(0, 0.3, n)
        s1 = rng.uniform(-0.2, 0.2, n)
        s2 = rng.uniform(-0.2, 0.2, n)
        # plus a dilute phase at rest beside a moving dense one: A is
        # positive definite in the lab frame only (phase 1 moves at -0.91
        # in the zero-mixture-momentum frame, c1 = 0.45)
        rho1, rho2, u1, u2, s1, s2 = (np.append(v, extra) for v, extra in
                                      zip((rho1, rho2, u1, u2, s1, s2),
                                          (0.1, 1.0, 0.0, 1.0, 0.0, 0.0)))
        speeds, ok, _ = wave_speeds_batch(m, rho1, rho2, u1, u2, s1, s2)
        assert np.all(ok)
        c1 = np.sqrt(m.sound_speed_sq(1, rho1, s1))
        c2 = np.sqrt(m.sound_speed_sq(2, rho2, s2))
        expected = np.sort(np.stack(
            [u1 - c1, u1 + c1, u2 - c2, u2 + c2], axis=-1), axis=-1)
        rel = np.abs(speeds - expected) / np.maximum(1.0, np.abs(expected))
        assert np.max(rel) < 1e-13

    def test_reflection_symmetry(self):
        # symmetric phases at rest: speeds come in +- pairs
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.8, gamma2=1.8, a=0.2))
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=0.0,
                           s1=0.0, s2=0.0)
        res = characteristic_speeds(assemble_symmetric_system(m, p))
        assert res.hyperbolic
        assert np.allclose(np.sort(res.speeds), -np.sort(-res.speeds)[::-1],
                           atol=1e-9)

    def test_galilean_covariance(self):
        m = make_model(a=0.3)
        rho1, rho2, s1, s2 = 1.1, 0.9, 0.05, -0.05
        u1, u2 = 0.0, 0.2
        base, ok1, _ = wave_speeds_batch(m, rho1, rho2, u1, u2, s1, s2)
        boosted, ok2, _ = wave_speeds_batch(m, rho1, rho2, u1 + 1.7,
                                            u2 + 1.7, s1, s2)
        assert ok1 and ok2
        assert np.max(np.abs(boosted - base - 1.7)) < 1e-7

    def test_posdef_implies_real_speeds_bulk(self):
        m = make_model(a=0.4)
        rng = np.random.default_rng(41)
        p = subsonic_states(rng, m, 10**4)
        speeds, ok, _ = wave_speeds_batch(m, p.rho1, p.rho2,
                                          p.u1, p.u2, p.s1, p.s2)
        A = _symmetric_system(lagrangian_rows(
            m, p.rho1, p.rho2, p.u1, p.u2, p.s1, p.s2))
        posdef = np.linalg.eigvalsh(A)[..., 0] > 0
        assert np.any(posdef)
        assert np.all(ok[posdef])
        assert np.all(np.isfinite(speeds[posdef]))


def speeds_reference(cert, rows=(0, 3)):
    """:func:`_speeds` with the rad = 0 fallback of the Newton polish
    evaluated over every root at every step and picked by ``np.where``,
    and the roots and their half-lines written out."""
    x11, x22, x12, y11, y21, y22 = cert.pencil
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b, d = 0.25 * (x11 + x22), 0.5 * (x11 - x22)
        bb, dx = b * b, d * d + x12 * x12
        e11 = y11 * y11 + b * x11 - bb
        e22 = y21 * y21 + y22 * y22 + b * x22 - bb
        e12 = y11 * y21 + b * x12
        P = dx + e11 + e22
        q = d * (e11 - e22) + 2.0 * x12 * e12
        r = e11 * e22 - e12 * e12
        PP = P * P
        m = np.sqrt(np.maximum(PP + 12.0 * r, 0.0))
        c = 13.5 * q * q - P * (PP - 36.0 * r)
        phi = np.arccos(np.clip(c / np.maximum(m * m * m, 1e-300), -1.0,
                                1.0)) / 3.0
        mc, ms = m * np.cos(phi), (0.5 * np.sqrt(3.0)) * m * np.sin(phi)
        z1 = P - 0.5 * mc
        t = np.sqrt(np.maximum(np.stack([mc + P, z1 + ms, z1 - ms]), 0.0)
                    / 6.0)
        t2 = np.copysign(t[2], -q)
        # outer-, inner-, inner+, outer+; the outer roots are zeros of the
        # smaller eigenvalue of M, the inner ones of the larger
        y = np.stack([t2 - (t[0] + t[1]), -t2 - (t[0] - t[1]),
                      -t2 + (t[0] - t[1]), t2 + (t[0] + t[1])])
        sign = np.array([[-1.0], [1.0], [1.0], [-1.0]])
        sides = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        tol = 1e-8 * np.maximum(b - y[0], y[3] - b)
        active = np.stack([cert.ok] * 4)
        for _ in range(3):
            half = d * y + 0.5 * (e22 - e11)
            off = x12 * y - e12
            rad = np.sqrt(half * half + off * off)
            drad = np.where(rad > 0.0, (half * d + off * x12) / rad,
                            np.sqrt(d * d + x12 * x12))
            step = ((y * y + -0.5 * (e11 + e22) + sign * rad)
                    / (2.0 * y + sign * drad))
            new = y - step
            y = np.where(active & np.isfinite(new)
                         & (sides * new > sides * b), new, y)
            active &= ~(np.abs(step) <= tol)
            if not np.any(active):
                break
    speeds = (y - b + cert.V).T
    speeds[~cert.ok] = np.nan
    return speeds[:, list(rows)]


def eigensolve_speeds(cert):
    """The four sorted speeds per state of the certificate ``cert``, the
    eigenvalues of S = [[-X, Y], [Y^T, 0]] of its pencil by one symmetric
    eigensolve per state; NaN where the certificate fails."""
    x11, x22, x12, y11, y21, y22 = cert.pencil
    S = np.zeros(cert.V.shape + (4, 4))
    S[:, 0, 0], S[:, 1, 1] = -x11, -x22
    S[:, 0, 1] = S[:, 1, 0] = -x12
    S[:, 0, 2] = S[:, 2, 0] = y11
    S[:, 1, 2] = S[:, 2, 1] = y21
    S[:, 1, 3] = S[:, 3, 1] = y22
    S[~cert.ok] = 0.0
    speeds = np.linalg.eigvalsh(S) + cert.V[:, None]
    speeds[~cert.ok] = np.nan
    return speeds


def random_lab_states(rng, n):
    """Lab-frame states over a wide density range with |u| of order 1: some
    are certified in the lab frame, some only at zero mixture momentum,
    some in neither."""
    return (rng.uniform(0.03, 3.0, n), rng.uniform(0.03, 3.0, n),
            rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n),
            rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n))


class TestExtremeSpeeds:
    """The root-finder's four speeds (those of :func:`wave_speeds_batch`)
    and its extreme pair (the solver's) against one symmetric eigensolve
    per state (:func:`eigensolve_speeds`)."""

    @staticmethod
    def assert_matches_eigensolve(m, *state):
        cert = certify(m, *state)
        ok, pair = cert.ok, _speeds(cert)
        speeds, ok_batch, margin = wave_speeds_batch(m, *state)
        assert np.array_equal(ok, ok_batch)
        assert np.array_equal(margin, _scaled_margin(cert.R))
        assert np.array_equal(speeds, _speeds(cert, range(4)),
                              equal_nan=True)
        assert np.all(np.isnan(speeds[~ok])) and np.all(np.isnan(pair[~ok]))
        ref = eigensolve_speeds(cert)[ok]
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.max(np.abs(speeds[ok] - ref) / scale) <= 1e-12
        assert np.max(np.abs(pair[ok] - ref[:, [0, 3]]) / scale) <= 1e-12
        return ok

    def test_acceptance_05_states(self):
        m = make_model(a=0.0)
        rng = np.random.default_rng(11)
        n = 1000
        state = (rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n),
                 rng.normal(0, 0.3, n), rng.normal(0, 0.3, n),
                 rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n))
        assert np.all(self.assert_matches_eigensolve(m, *state))

    @pytest.mark.parametrize(
        "a", [0.0, 0.4, 1.0, lambda r1, r2: 0.3 + 0.2 * r1 * r2 / (r1 + r2)],
        ids=["a_0", "a_0.4", "a_1", "callable_a"])
    def test_random_states(self, a):
        ok = self.assert_matches_eigensolve(
            make_model(a=a), *random_lab_states(np.random.default_rng(43),
                                                20000))
        assert 0 < np.sum(ok) < ok.size

    @pytest.mark.parametrize("a", [0.0, 0.2])
    def test_identical_phases_double_roots(self, a):
        # equal phases at equal states: each speed is a double root
        m = SeparableAddedMass(SeparableAddedMassParams(gamma1=1.6,
                                                        gamma2=1.6, a=a))
        rng = np.random.default_rng(47)
        rho, u, s = (rng.uniform(0.1, 3.0, 5000), rng.normal(0.0, 1.0, 5000),
                     rng.uniform(-0.3, 0.3, 5000))
        ok = self.assert_matches_eigensolve(m, rho, rho, u, u, s, s)
        assert np.all(ok)

    @pytest.mark.parametrize("case", [
        "acceptance_05", "a_0", "a_0.4", "a_1", "callable_a",
        "double_roots_a_0", "double_roots_a_0.2"])
    def test_fallback_only_where_rad_is_zero(self, case):
        # the speeds of the tests above are bit-identical to those with the
        # fallback evaluated everywhere; the double roots use it
        rng = np.random.default_rng(11)
        if case == "acceptance_05":
            m = make_model(a=0.0)
            state = (rng.uniform(0.5, 1.5, 1000), rng.uniform(0.5, 1.5, 1000),
                     rng.normal(0, 0.3, 1000), rng.normal(0, 0.3, 1000),
                     rng.uniform(-0.2, 0.2, 1000),
                     rng.uniform(-0.2, 0.2, 1000))
        elif case.startswith("double_roots"):
            m = SeparableAddedMass(SeparableAddedMassParams(
                gamma1=1.6, gamma2=1.6, a=float(case.split("_")[-1])))
            rng = np.random.default_rng(47)
            rho, u, s = (rng.uniform(0.1, 3.0, 5000),
                         rng.normal(0.0, 1.0, 5000),
                         rng.uniform(-0.3, 0.3, 5000))
            state = (rho, rho, u, u, s, s)
        else:
            m = make_model(a={"a_0": 0.0, "a_0.4": 0.4, "a_1": 1.0}.get(
                case, lambda r1, r2: 0.3 + 0.2 * r1 * r2 / (r1 + r2)))
            state = random_lab_states(np.random.default_rng(43), 20000)
        cert = certify(m, *state)
        for rows in ((0, 3), range(4)):
            assert np.array_equal(_speeds(cert, rows),
                                  speeds_reference(cert, rows),
                                  equal_nan=True)

    @pytest.mark.parametrize("law", ["a_0", "a_0.2", "coupled_in_w"])
    def test_nearly_identical_phases(self, law):
        # the polish's stop rule: identical phases pulled apart by a
        # relative gap of 1e-12 to 1e-1 in density, velocity or entropy,
        # where the speeds of the two phases nearly coincide; each state on
        # its own, then in one batch
        m = {"a_0": lambda: SeparableAddedMass(SeparableAddedMassParams(
                 gamma1=1.6, gamma2=1.6, a=0.0)),
             "a_0.2": lambda: SeparableAddedMass(SeparableAddedMassParams(
                 gamma1=1.6, gamma2=1.6, a=0.2)),
             "coupled_in_w": CoupledInW}[law]()
        rng = np.random.default_rng(59)
        rho, u, s = (rng.uniform(0.1, 3.0, 4), rng.normal(0.0, 1.0, 4),
                     rng.uniform(-0.3, 0.3, 4))
        states = []
        for gap in 10.0 ** np.arange(-12.0, 0.0):
            states += [(rho, rho * (1.0 + gap), u, u, s, s),
                       (rho, rho, u, u + gap * np.maximum(1.0, np.abs(u)),
                        s, s),
                       (rho, rho, u, u, s, s + gap)]
        batch = np.concatenate(states, axis=1)
        for state in batch.T:
            assert np.all(self.assert_matches_eigensolve(m, *state[:, None]))
        assert np.all(self.assert_matches_eigensolve(m, *batch))

    def test_states_certified_only_at_zero_mixture_momentum(self):
        m = make_model(a=0.4)
        state = random_lab_states(np.random.default_rng(53), 20000)
        V, ok = certify(m, *state)[:2]
        only_zmm = ok & (V != 0.0)
        assert np.sum(only_zmm) > 100
        self.assert_matches_eigensolve(m, *(x[only_zmm] for x in state))

    def test_shapes_follow_the_state(self):
        # wave_speeds_batch takes the broadcast shape of its fields; a
        # certificate is of flat states, a row each
        m = make_model()
        state = (np.full((2, 3), 1.0), 0.9, 0.0, 0.1, 0.0, 0.0)
        speeds, ok, margin = wave_speeds_batch(m, *state)
        assert speeds.shape == (2, 3, 4)
        assert ok.shape == margin.shape == (2, 3)
        cert = certify(m, *state)
        assert _speeds(cert).shape == (6, 2)
        assert _speeds(cert, range(4)).shape == (6, 4)
        assert min_eig_A_batch(cert).shape == (6,)
        speeds, ok, margin = wave_speeds_batch(m, 1.0, 0.9, 0.0, 0.1, 0.0,
                                               0.0)
        assert speeds.shape == (4,)
        assert ok.shape == margin.shape == ()

    @given(rho1=st.floats(0.03, 3.0), rho2=st.floats(0.03, 3.0),
           u1=st.floats(-2.0, 2.0), u2=st.floats(-2.0, 2.0),
           s1=st.floats(-0.3, 0.3), s2=st.floats(-0.3, 0.3),
           a=st.floats(0.0, 1.0))
    def test_two_speeds_of_each_sign_in_the_certifying_frame(
            self, rho1, rho2, u1, u2, s1, s2, a):
        m = make_model(a=a)
        state = [np.array([v]) for v in (rho1, rho2, u1, u2, s1, s2)]
        cert = certify(m, *state)
        V, ok = cert[:2]
        assume(ok[0])
        speeds = wave_speeds_batch(m, *state)[0][0] - V[0]
        assert np.sum(speeds > 0.0) == 2 and np.sum(speeds < 0.0) == 2
        ext = _speeds(cert)[0] - V[0]
        assert ext[0] < 0.0 < ext[1]

    @given(rho1=st.floats(0.03, 3.0), rho2=st.floats(0.03, 3.0),
           u1=st.floats(-2.0, 2.0), u2=st.floats(-2.0, 2.0),
           s1=st.floats(-0.3, 0.3), s2=st.floats(-0.3, 0.3),
           a=st.floats(0.0, 1.0), boost=st.floats(-5.0, 5.0))
    def test_galilean_covariance(self, rho1, rho2, u1, u2, s1, s2, a,
                                 boost):
        # a state the zero-mixture-momentum frame certifies is certified in
        # every frame, and its four speeds shift with the frame
        m = make_model(a=a)
        state = [np.array([v]) for v in (rho1, rho2, u1, u2, s1, s2)]
        V = (rho1 * u1 + rho2 * u2) / (rho1 + rho2)
        assume(certificate(m, *state, V)[0][0])
        cert = certify(m, *state)
        boosted_cert = certify(m, rho1, rho2, u1 + boost, u2 + boost, s1, s2)
        assert cert[1][0] and boosted_cert[1][0]
        speeds = _speeds(cert, range(4))
        boosted = _speeds(boosted_cert, range(4))
        scale = max(np.max(np.abs(speeds)), np.max(np.abs(boosted)))
        assert np.max(np.abs(boosted - speeds - boost)) <= 1e-12 * scale
        for c, four in ((cert, speeds), (boosted_cert, boosted)):
            assert np.array_equal(_speeds(c), four[:, [0, 3]])

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
           a=st.floats(0.0, 1.0))
    def test_a_states_speeds_do_not_depend_on_the_batch(self, seed, n, a):
        # random lab states, some certified in the lab frame, some at zero
        # mixture momentum, some in neither, and about half of them with
        # nearly identical phases, whose polish takes more steps: each
        # state's four speeds and extreme pair are the same bits alone as
        # inside the batch
        m = make_model(a=a)
        rng = np.random.default_rng(seed)
        rho1, rho2, u1, u2, s1, s2 = random_lab_states(rng, n)
        near = rng.random(n) < 0.5
        gap = 10.0 ** rng.uniform(-12.0, -1.0, n)
        state = (rho1, np.where(near, rho1 * (1.0 + gap), rho2), u1,
                 np.where(near, u1, u2), s1, np.where(near, s1, s2))
        cert = certify(m, *state)
        four, pair = _speeds(cert, range(4)), _speeds(cert)
        for i in range(n):
            one = certify(m, *(x[i:i + 1] for x in state))
            assert np.array_equal(_speeds(one, range(4))[0], four[i],
                                  equal_nan=True)
            assert np.array_equal(_speeds(one)[0], pair[i], equal_nan=True)


class TestOneReduction:
    """One reduction of the pencil (:func:`hyperbolicity._pencil`) per set
    of states, its zero-mixture-momentum retry included."""

    @staticmethod
    def count_reductions(monkeypatch):
        calls, pencil = [], hyperbolicity._pencil

        def counted(R, L):
            calls.append(R.shape[1])
            return pencil(R, L)

        monkeypatch.setattr(hyperbolicity, "_pencil", counted)
        return calls

    def test_one_reduction_per_solver_stage(self, monkeypatch):
        # a common velocity rising across the grid: the lab frame certifies
        # the slow cells, the zero-mixture-momentum frame the fast ones
        m = make_model(a=0.3)
        grid = Grid1D(0.0, 1.0, 32)
        cells = evolved_from_primitive_profiles(
            m, grid, rho1=lambda x: 1.0 + 0.03 * np.sin(2 * np.pi * x),
            rho2=lambda x: 0.8 + 0.02 * np.cos(2 * np.pi * x),
            u1=lambda x: 1.5 * x, u2=lambda x: 1.5 * x + 0.05, s1=0.0,
            s2=0.1)
        calls = self.count_reductions(monkeypatch)
        rhs = assemble_rhs(SimulationConfig(grid=grid, model=m), cells)
        V = rhs.certificate.V
        assert np.all(rhs.certificate.ok)
        assert 0 < np.sum(V != 0.0) < grid.n
        assert calls == [grid.n]

    def test_one_reduction_per_map(self, monkeypatch):
        calls = self.count_reductions(monkeypatch)
        maps = map_hyperbolic_region(
            make_model(a=0.2), np.linspace(0.5, 1.5, 8),
            np.linspace(0.5, 1.5, 8), np.linspace(0.0, 2.5, 10))
        assert calls == [640]
        assert 0 < maps.hyperbolic.sum() < 640


class TestStabilityInequalities:
    def test_built_in_law_all_hold(self):
        m = make_model(a=0.7)
        p = PrimitiveState(rho1=1.2, rho2=0.8, u1=0.0, u2=0.1,
                           s1=0.1, s2=-0.1)
        chk = check_stability_inequalities(m, p)
        assert chk.ineq1 and chk.ineq2 and chk.ineq3
        assert chk.d2W_dw2 == pytest.approx(-0.7, abs=1e-12)

    def test_no_coupling_boundary_case(self):
        m = make_model(a=0.0)
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=0.0,
                           s1=0.0, s2=0.0)
        chk = check_stability_inequalities(m, p)
        assert chk.d2W_dw2 == 0.0
        assert not chk.ineq1  # strict inequality fails at equality

    def test_cross_coupled_law_fails_third(self):
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=0.0,
                           s1=0.0, s2=0.0)
        chk = check_stability_inequalities(CrossCoupled(), p)
        assert chk.ineq1 and chk.ineq2
        assert not chk.ineq3


class TestRegionMapping:
    def test_rest_plane_all_hyperbolic(self):
        m = make_model(a=0.5)
        reports = map_hyperbolic_region(m, np.linspace(0.5, 1.5, 5),
                                        np.linspace(0.5, 1.5, 5), [0.0])
        assert all(r.hyperbolic for r in reports)
        assert all(r.ineq1 and r.ineq2 and r.ineq3 for r in reports)

    def test_min_eig_sign_change_across_critical_w(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=1.0))
        w_star = critical_relative_velocity(m, 1.2, 0.8, 0.05, -0.1,
                                            w_max=5.0)
        assert w_star is not None
        below = map_hyperbolic_region(m, [1.2], [0.8], [0.999 * w_star],
                                      0.05, -0.1)[0]
        above = map_hyperbolic_region(m, [1.2], [0.8], [1.001 * w_star],
                                      0.05, -0.1)[0]
        assert below.min_eig_A > 0.0 > above.min_eig_A

    def test_batched_map_order_and_flags_follow_critical_w(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=0.5))
        r1s, r2s = np.linspace(0.6, 1.4, 3), np.linspace(0.7, 1.3, 3)
        ws = np.linspace(0.0, 3.0, 7)
        maps = map_hyperbolic_region(m, r1s, r2s, ws, 0.05, -0.05)
        points = [(r1, r2, w) for r1 in r1s for r2 in r2s for w in ws]
        assert [(r.rho1, r.rho2, r.w) for r in maps] == points
        for rep in maps:
            w_star = critical_relative_velocity(m, rep.rho1, rep.rho2,
                                                0.05, -0.05, w_max=5.0)
            assert rep.hyperbolic == (rep.w < w_star)
            assert (rep.min_eig_A > 0.0) == rep.hyperbolic
        # the speeds are all NaN exactly where the certificate fails
        nan = np.isnan(maps.speeds)
        assert 0 < maps.hyperbolic.sum() < maps.size
        assert np.array_equal(nan.all(axis=1), ~maps.hyperbolic)
        assert np.array_equal(nan.any(axis=1), ~maps.hyperbolic)

    def test_critical_w_reproducible(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=1.0))
        vals = [critical_relative_velocity(m, 1.0, 1.0, w_max=5.0)
                for _ in range(3)]
        assert max(vals) - min(vals) <= 1e-6 * max(vals)

    def test_one_certificate_per_map(self, monkeypatch):
        # the hyper_scan grid of the benchmark: the stability inequalities
        # and the certificate, its retry included, read one law pass
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=0.2))
        certs = count_calls(monkeypatch, hyperbolicity, "_certified_frame")
        calls = {name: count_calls(monkeypatch, m, name)
                 for name in ("derivatives", "hessian", "dW_dw")}
        maps = map_hyperbolic_region(
            m, np.linspace(0.5, 1.5, 16), np.linspace(0.5, 1.5, 16),
            np.linspace(0.0, 2.5, 20), 0.03, -0.05)
        assert len(certs) == 1
        assert calls == {"derivatives": [5120], "hessian": [], "dW_dw": []}
        assert 0 < maps.hyperbolic.sum() < 5120

    def test_no_retry_on_a_map_grid(self, monkeypatch):
        # the hyper_scan benchmark grid: its points are at zero mixture
        # momentum up to round-off, so a point the lab frame does not
        # certify is not certified again in a frame boosted by round-off
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=1.4, a=0.2))
        calls = count_calls(monkeypatch, hyperbolicity, "_certificate")
        maps = map_hyperbolic_region(
            m, np.linspace(0.5, 1.5, 16), np.linspace(0.5, 1.5, 16),
            np.linspace(0.0, 2.5, 20), 0.03, -0.05)
        assert calls == [5120]
        assert 0 < maps.hyperbolic.sum() < 5120

    def test_critical_w_decreases_with_coupling(self):
        stars = []
        for a in (0.1, 1.0, 10.0):
            m = SeparableAddedMass(SeparableAddedMassParams(
                gamma1=2.0, gamma2=1.4, a=a))
            stars.append(critical_relative_velocity(m, 1.0, 1.0, w_max=20.0))
        assert stars[0] > stars[1] > stars[2]


class TestCriticalW:
    @staticmethod
    def _bisection_oracle(model, rho1, rho2, s1, s2, w_max=20.0, n_scan=64,
                          rel_tol=1e-6):
        """w* by one batched scan, then scalar bisection on the certificate."""
        def certified(w):
            p = mixture_rest_state(rho1, rho2, w, s1, s2)
            return certificate(model, p.rho1, p.rho2, p.u1, p.u2,
                                p.s1, p.s2, 0.0)[0]

        ws = np.linspace(0.0, w_max, n_scan + 1)
        failed = np.flatnonzero(~certified(ws))
        if failed.size == 0:
            return None
        i = int(failed[0])
        if i == 0:
            return 0.0
        lo, hi = float(ws[i - 1]), float(ws[i])
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if certified(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @staticmethod
    def _both_paths(a):
        """The built-in law (closed form) and a subclass that changes
        nothing (the scan)."""
        m = make_model(a=a)
        return m, type("Scanned", (SeparableAddedMass,), {})(m.params)

    @staticmethod
    def _certified(model, rho1, rho2, w, s1, s2):
        p = mixture_rest_state(rho1, rho2, w, s1, s2)
        return bool(certificate(model, p.rho1, p.rho2, p.u1, p.u2,
                                 p.s1, p.s2, 0.0)[0])

    @pytest.mark.parametrize(
        "m", [make_model(a=0.0), make_model(a=0.2), make_model(a=1.0),
              make_model(a=lambda r1, r2: 0.3 * r1 * r2 / (r1 + r2)),
              ValueOnly(), CoupledInW(),
              QuarticInW(SeparableAddedMassParams(gamma1=2.0, gamma2=1.4,
                                                  a=0.2))],
        ids=["a_0", "a_0.2", "a_1.0", "callable_a", "value_only",
             "coupled_in_w", "quartic_subclass"])
    def test_matches_bisection_oracle(self, m):
        # the closed form for the built-in law, the scan for the others
        for rho1 in np.linspace(0.5, 1.5, 8):
            for rho2 in np.linspace(0.5, 1.5, 8):
                w_star = critical_relative_velocity(m, rho1, rho2, 0.05, -0.1)
                ref = self._bisection_oracle(m, rho1, rho2, 0.05, -0.1)
                assert abs(w_star - ref) <= 1e-6 * ref

    @pytest.mark.parametrize("a", [0.2,
                                   lambda r1, r2: 0.3 * r1 * r2 / (r1 + r2)],
                             ids=["constant_a", "callable_a"])
    def test_closed_form_is_the_certificate_boundary(self, a):
        # the hyper_scan benchmark grid; a subclass that changes nothing
        # takes the scan, the closed form's oracle
        m, scanned = self._both_paths(a)
        for rho1 in np.linspace(0.5, 1.5, 16):
            for rho2 in np.linspace(0.5, 1.5, 16):
                w_star = critical_relative_velocity(m, rho1, rho2, 0.05, -0.05)
                scan = critical_relative_velocity(scanned, rho1, rho2, 0.05,
                                                  -0.05)
                assert abs(w_star - scan) <= 1e-6 * scan
                assert self._certified(m, rho1, rho2, (1.0 - 1e-9) * w_star,
                                       0.05, -0.05)
                assert not self._certified(m, rho1, rho2,
                                           (1.0 + 1e-9) * w_star, 0.05, -0.05)
                assert critical_relative_velocity(
                    m, rho1, rho2, 0.05, -0.05, w_max=0.999 * w_star) is None

    @given(rho1=st.floats(0.05, 5.0), rho2=st.floats(0.05, 5.0),
           s1=st.floats(-1.0, 1.0), s2=st.floats(-1.0, 1.0),
           a=st.floats(0.0, 5.0),
           gamma1=st.floats(1.0, 3.0, exclude_min=True),
           gamma2=st.floats(1.0, 3.0, exclude_min=True))
    def test_closed_form_matches_oracle_on_random_states(
            self, rho1, rho2, s1, s2, a, gamma1, gamma2):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=gamma1, gamma2=gamma2, a=a))
        w_star = critical_relative_velocity(m, rho1, rho2, s1, s2)
        ref = self._bisection_oracle(m, rho1, rho2, s1, s2)
        if ref is None:
            assert w_star is None
            return
        assert abs(w_star - ref) <= 1e-6 * ref
        assert self._certified(m, rho1, rho2, (1.0 - 1e-9) * w_star, s1, s2)
        assert not self._certified(m, rho1, rho2, (1.0 + 1e-9) * w_star,
                                   s1, s2)

    def test_none_below_w_max_and_zero_when_unstable_at_rest(self):
        m = make_model(a=0.2)
        w_star = critical_relative_velocity(m, 1.0, 1.0)
        assert critical_relative_velocity(m, 1.0, 1.0,
                                          w_max=0.99 * w_star) is None
        # the scan; then the closed form, where a < 0 makes L_jj indefinite
        negative_a = make_model(a=lambda r1, r2: -10.0 + 0.0 * r1)
        for law in (ConcaveInRho1(), negative_a):
            assert critical_relative_velocity(law, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("w_max", [0.0, -5.0, np.inf, np.nan])
    def test_rejects_w_max_not_positive_and_finite(self, w_max):
        for law in self._both_paths(0.2):
            with pytest.raises(ValueError, match="w_max"):
                critical_relative_velocity(law, 1.0, 1.0, w_max=w_max)

    @pytest.mark.parametrize("rho1, rho2, name", [
        (-1.0, 1.0, "rho1"), (0.0, 1.0, "rho1"), (np.nan, 1.0, "rho1"),
        (1.0, np.nan, "rho2")], ids=["negative", "zero", "nan1", "nan2"])
    def test_inadmissible_densities_checked_first(self, rho1, rho2, name):
        # checked before rho1 + rho2 is divided by: the RuntimeWarning of
        # a division by 0 would be raised first under the suite's filter
        for law in self._both_paths(0.2):
            with pytest.raises(AdmissibilityError, match=name):
                critical_relative_velocity(law, rho1, rho2)
        with pytest.raises(AdmissibilityError, match=name):
            mixture_rest_state(rho1, rho2, 1.0, 0.0, 0.0)

    def test_few_certificate_calls(self, monkeypatch):
        # the hyper_scan benchmark grid with the default arguments: a user
        # law takes the scan, the built-in law no pass
        calls = count_calls(monkeypatch, hyperbolicity, "_certificate")
        for law, max_calls in ((ValueOnly(), 5), (make_model(a=0.2), 0)):
            for rho1 in np.linspace(0.5, 1.5, 16):
                for rho2 in np.linspace(0.5, 1.5, 16):
                    calls.clear()
                    assert critical_relative_velocity(law, rho1, rho2, 0.05,
                                                      -0.05) is not None
                    assert len(calls) <= max_calls


class TestBMatrixStructure:
    def test_constant_exchange_form(self):
        # the flux Jacobian in these variables is the constant exchange
        # matrix pairing sigma_a with j_a
        expected = -np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                              [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        assert np.array_equal(B_MATRIX, expected)

    def test_scalar_assembly_returns_same_B(self):
        m = make_model()
        p = PrimitiveState(rho1=1.0, rho2=1.0, u1=0.0, u2=0.1,
                           s1=0.0, s2=0.0)
        sys = assemble_symmetric_system(m, p)
        assert np.allclose(sys.B, B_MATRIX, atol=1e-6)
