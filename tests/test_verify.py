"""Tests for the identity-verification module."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofluid import verify
from twofluid.closures import ClosureParams, DissipationForces, drag_and_heat
from twofluid.potential import (SeparableAddedMass, SeparableAddedMassParams,
                                evaluate)
from twofluid.solver import (Grid1D, SimulationConfig,
                             evolved_from_primitive_profiles, integrate)
from twofluid.state import (PrimitiveState, evolved_to_primitive,
                            mixture_aggregates)
from twofluid.verify import (TRIG_WORDS, ManufacturedField,
                             balance_subidentities, conservation_drift,
                             fick_residual, gibbs_residual,
                             random_trig_fields, single_fluid_reduction,
                             single_fluid_reference, trig_fields_from_words,
                             uniform_from_words)

from conftest import count_calls, scalar_trig_params


def make_model(a=0.3):
    return SeparableAddedMass(SeparableAddedMassParams(
        gamma1=2.0, gamma2=1.4, a=a))


def constant_field(rho1=1.0, rho2=0.8, u1=0.1, u2=0.3, s1=0.0, s2=0.1,
                   om1=0.0, om2=0.0):
    def const(v):
        return lambda t, x: v + 0.0 * (t + x)
    return ManufacturedField(rho1=const(rho1), rho2=const(rho2),
                             u1=const(u1), u2=const(u2),
                             s1=const(s1), s2=const(s2),
                             omega1=const(om1), omega2=const(om2))


def drag_at(model, closures, field, point):
    """(p, f): the state of ``field`` at ``point`` and the built-in drag
    and heat pair there."""
    p = PrimitiveState(**{key: getattr(field, key)(*point) for key in (
        "rho1", "rho2", "u1", "u2", "s1", "s2")})
    th = evaluate(model, p.rho1, p.rho2, p.s1, p.s2, p.w)
    return p, drag_and_heat(closures, p, th.theta1, th.theta2)


def drag_work(model, closures, field, point):
    """|f1 u1| + |f2 u2| at ``point``, the size of either side of
    identity a."""
    p, f = drag_at(model, closures, field, point)
    return abs(f.f1 * p.u1) + abs(f.f2 * p.u2)


class TestGibbsResidual:
    def test_constant_fields_all_zero(self):
        res = gibbs_residual(make_model(), ClosureParams(), constant_field(),
                             (0.3, 0.4), 1e-3)
        # constant fields with equal velocities would be trivial; here the
        # velocities differ so drag terms are nonzero only if k > 0
        assert res.B1 == 0.0 and res.B2 == 0.0
        assert res.E == 0.0
        assert res.combination == pytest.approx(0.0, abs=1e-14)

    def test_constant_fields_with_drag(self):
        res = gibbs_residual(make_model(), ClosureParams(k=2.0, kappa=1.0),
                             constant_field(), (0.3, 0.4), 1e-3)
        # M_a and S pick up the algebraic drag terms but the combination
        # still cancels exactly
        assert res.combination == pytest.approx(0.0, abs=1e-13)

    def test_second_order_convergence(self):
        m = make_model()
        cl = ClosureParams(k=0.7, kappa=0.4)
        rng = np.random.default_rng(101)
        for _ in range(5):
            field = random_trig_fields(rng)
            point = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            res = [abs(gibbs_residual(m, cl, field, point, h).combination)
                   for h in (1e-2, 5e-3, 2.5e-3)]
            assert res[0] / res[1] > 3.6
            assert res[1] / res[2] > 3.6

    def test_halving_h_quarters_residual(self):
        m = make_model()
        cl = ClosureParams(k=1.0, kappa=0.5)
        field = random_trig_fields(np.random.default_rng(7))
        r1 = abs(gibbs_residual(m, cl, field, (0.2, 0.7), 1e-2).combination)
        r2 = abs(gibbs_residual(m, cl, field, (0.2, 0.7), 5e-3).combination)
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)


def callable_a(rho1, rho2):
    return 0.2 + 0.1 * rho1 * rho2 / (rho1 + rho2)


class TestBatchedSteps:
    @pytest.mark.parametrize("a", [0.3, callable_a],
                             ids=["constant_a", "callable_a"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           t=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0),
           hs=st.lists(st.floats(1e-3, 2e-2), min_size=3, max_size=3))
    def test_batched_h_matches_single_h(self, a, seed, t, x, hs):
        m = make_model(a=a)
        cl = ClosureParams(k=0.7, kappa=0.4)
        field = random_trig_fields(np.random.default_rng(seed))
        batch = gibbs_residual(m, cl, field, (t, x), hs)
        for j, h in enumerate(hs):
            one = gibbs_residual(m, cl, field, (t, x), h)
            scale = max(abs(v) for v in (one.E, one.M1, one.M2, one.B1,
                                         one.B2, one.S))
            for name in ("E", "M1", "M2", "B1", "B2", "S", "combination"):
                assert (abs(getattr(batch, name)[j] - getattr(one, name))
                        <= 1e-12 * scale)
            for key, value in one.subidentities.items():
                assert abs(batch.subidentities[key][j] - value) <= 1e-12 * scale
            work = drag_work(m, cl, field, (t, x))
            assert abs(one.subidentities["a"]) <= 1e-14 * work
            assert abs(one.subidentities["e"]) <= 1e-13 * scale

    @pytest.mark.parametrize("a", [0.3, callable_a],
                             ids=["constant_a", "callable_a"])
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           hs=st.lists(st.floats(1e-3, 2e-2), min_size=3, max_size=3))
    def test_block_of_fields_matches_one_field_calls(self, a, seed, n, hs):
        # one call on a stack of fields at their points gives, along the
        # trailing field axis, each field's own call bit for bit
        m = make_model(a=a)
        cl = ClosureParams(k=0.7, kappa=0.4)
        rng = np.random.default_rng(seed)
        fields = [random_trig_fields(rng) for _ in range(n)]
        t, x = rng.uniform(0.0, 1.0, (2, n))
        # the same words, read as one block
        words = np.random.default_rng(seed).bit_generator.random_raw(
            (n, TRIG_WORDS))
        block = gibbs_residual(m, cl, trig_fields_from_words(words), (t, x),
                               hs)
        assert block.combination.shape == (3, n)
        for i, field in enumerate(fields):
            one = gibbs_residual(m, cl, field, (float(t[i]), float(x[i])), hs)
            for name in ("E", "M1", "M2", "B1", "B2", "S", "combination"):
                assert np.array_equal(getattr(block, name)[:, i],
                                      getattr(one, name))
            for key, value in one.subidentities.items():
                assert np.array_equal(block.subidentities[key][:, i], value)

    def test_sequence_gives_arrays_scalar_gives_floats(self):
        field = random_trig_fields(np.random.default_rng(3))
        args = (make_model(), ClosureParams(k=0.7, kappa=0.4), field,
                (0.2, 0.6))
        one = gibbs_residual(*args, 1e-2)
        many = gibbs_residual(*args, [1e-2, 5e-3])
        assert type(one.combination) is float
        assert all(type(v) is float for v in one.subidentities.values())
        assert many.combination.shape == (2,)
        assert balance_subidentities(*args, 1e-2) == one.subidentities


def pcg64_state_for_word(word, inc):
    """A PCG64 state (128 bits) whose next raw word is ``word``: the
    XSL-RR output of the stepped state, inverted, then one step undone."""
    mask = (1 << 64) - 1
    hi = 0x0123456789ABCDEF
    rot = hi >> 58
    xored = ((word << rot) | (word >> (64 - rot))) & mask
    stepped = (hi << 64) | (hi ^ xored)
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    return ((stepped - inc) * pow(mult, -1, 1 << 128)) % (1 << 128)


def field_params(field):
    """{component: its (base, kx, kt, ph, ph2, c1, c2)} of a one-field
    block or a :func:`random_trig_fields` field, as floats."""
    return {name: tuple(float(np.squeeze(a))
                        for a in getattr(field, name).args)
            for name in ManufacturedField.__dataclass_fields__}


class TestTrigFieldsFromWords:
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 4),
           rho_base=st.floats(0.5, 2.0), amp=st.floats(0.0, 0.2))
    def test_random_trig_fields_matches_scalar_calls(self, seed, n, rho_base,
                                                     amp):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n):
            field = random_trig_fields(rng, rho_base, amp)
            assert field_params(field) == scalar_trig_params(ref, rho_base,
                                                             amp)
            assert all(type(a) is float for name in ("rho1", "omega2")
                       for a in getattr(field, name).args)
        assert rng.bit_generator.state["state"] == ref.bit_generator.state[
            "state"]

    def test_rejects_32_bit_generator(self):
        # MT19937's raw words are 32-bit: read as 64-bit ones they would
        # give kt = 1 and uniforms within 1e-9 of lo, silently
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="PCG64"):
            random_trig_fields(rng)

    def test_integers_from_crafted_halves(self):
        # k = 1 + (3 h >> 32): the low half gives kx, the high half kt; a
        # zero half gives 1 where numpy would draw again
        halves = [0, 1, 0x55555555, 0x55555556, 0xAAAAAAAA, 0xAAAAAAAB,
                  0xFFFFFFFF]
        want = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        for h, k in zip(halves, want):
            words = np.zeros((1, TRIG_WORDS), dtype=np.uint64)
            words[0, 0] = h
            words[0, 5] = h << 32
            params = field_params(trig_fields_from_words(words))
            assert params["rho1"][1:3] == (k, 1.0)
            assert params["rho2"][1:3] == (1.0, k)

    def test_uniforms_from_crafted_words(self):
        # the top 53 bits over 2**53, then lo + (hi - lo) u
        words = np.array([0, 1 << 11, (1 << 11) - 1, 2 ** 64 - 1],
                         dtype=np.uint64)
        assert uniform_from_words(words, 0.0, 1.0).tolist() == [
            0.0, 2.0 ** -53, 0.0, 1.0 - 2.0 ** -53]
        assert uniform_from_words(words[:2], -1.0, 3.0).tolist() == [
            -1.0, -1.0 + 4.0 * 2.0 ** -53]

    def test_zero_half_where_numpy_draws_again(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        state["state"]["state"] = pcg64_state_for_word(
            0xABCDEF12_00000000, state["state"]["inc"])
        rng.bit_generator.state = state
        assert rng.bit_generator.random_raw(1)[0] == 0xABCDEF12_00000000
        rng.bit_generator.state = state
        params = field_params(random_trig_fields(rng))
        assert params["rho1"][1:3] == (1.0, 3.0)
        # numpy rejects the zero low half and takes kx from the high one
        rng.bit_generator.state = state
        assert float(rng.integers(1, 4)) == 3.0

    def test_buffered_half_is_not_read(self):
        # a half the caller left buffered is neither read nor cleared; the
        # scalar calls would have taken kx from it
        rng = np.random.default_rng(11)
        rng.integers(1, 4)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1
        field = random_trig_fields(rng)
        after = rng.bit_generator.state
        assert (after["has_uint32"], after["uinteger"]) == (
            1, state["uinteger"])
        ref = np.random.default_rng(11)
        ref.integers(1, 4)
        words = ref.bit_generator.random_raw((1, TRIG_WORDS))
        assert field_params(field) == field_params(
            trig_fields_from_words(words))
        assert after == ref.bit_generator.state
        ref.bit_generator.state = state
        assert scalar_trig_params(ref)["rho1"][1] == float(
            1 + (3 * state["uinteger"] >> 32))


class TestBalanceSubidentities:
    def test_identity_a_exact_bulk(self):
        # the built-in pair is antisymmetric: both sides agree to round-off
        m = make_model()
        cl = ClosureParams(k=1.3, kappa=0.6)
        rng = np.random.default_rng(55)
        field = random_trig_fields(rng)
        for _ in range(50):
            pt = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            ids = balance_subidentities(m, cl, field, pt, 1e-3)
            assert abs(ids["a"]) <= 1e-14 * drag_work(m, cl, field, pt)

    def test_identity_a_reads_the_force_pair(self, monkeypatch):
        # a pair with f2 = -f1 / 2 leaves the mixture's share u (f1 + f2)
        # of the drag power in identity a
        def lopsided(closures, p, theta1, theta2):
            f = drag_and_heat(closures, p, theta1, theta2)
            return DissipationForces(f1=f.f1, f2=0.5 * f.f2, q1=f.q1,
                                     q2=f.q2)

        m, cl = make_model(), ClosureParams(k=1.3, kappa=0.6)
        field = random_trig_fields(np.random.default_rng(55))
        pt = (0.3, 0.6)
        p, f = drag_at(m, cl, field, pt)
        monkeypatch.setattr(verify, "drag_and_heat", lopsided)
        ids = balance_subidentities(m, cl, field, pt, 1e-3)
        expect = 0.5 * f.f1 * mixture_aggregates(p).u
        assert abs(expect) > 1e-6
        assert ids["a"] == pytest.approx(expect, rel=1e-9)

    def test_identity_b_zero_without_potentials(self):
        def zero(t, x):
            return 0.0 * (t + x)
        rng = np.random.default_rng(57)
        f = random_trig_fields(rng)
        field = ManufacturedField(rho1=f.rho1, rho2=f.rho2, u1=f.u1,
                                  u2=f.u2, s1=f.s1, s2=f.s2,
                                  omega1=zero, omega2=zero)
        ids = balance_subidentities(make_model(), ClosureParams(), field,
                                  (0.4, 0.6), 1e-3)
        assert ids["b"] == 0.0

    def test_identity_f_zero_without_coupling(self):
        rng = np.random.default_rng(59)
        field = random_trig_fields(rng)
        ids = balance_subidentities(make_model(a=0.0), ClosureParams(), field,
                                  (0.4, 0.6), 1e-3)
        assert ids["f"] == pytest.approx(0.0, abs=1e-16)

    def test_identities_converge(self):
        m = make_model(a=0.5)
        cl = ClosureParams(k=0.8, kappa=0.3)
        rng = np.random.default_rng(61)
        field = random_trig_fields(rng)
        pt = (0.31, 0.47)
        res_h = balance_subidentities(m, cl, field, pt, 1e-2)
        res_h2 = balance_subidentities(m, cl, field, pt, 5e-3)
        for key in ("b", "c", "d", "f"):
            assert abs(res_h[key]) / abs(res_h2[key]) > 3.6
        # identity e cancels exactly under shared stencils
        assert abs(res_h["e"]) < 1e-14
        assert abs(res_h2["e"]) < 1e-14


class TestConservationDrift:
    def test_smooth_dissipative_run(self):
        m = make_model()
        grid = Grid1D(0.0, 1.0, 64)
        cfg = SimulationConfig(grid=grid, model=m,
                               closures=ClosureParams(k=0.5, kappa=0.3),
                               t_end=0.2, report_interval=0.05)
        init = evolved_from_primitive_profiles(
            m, grid,
            rho1=lambda x: 1.0 + 0.03 * np.sin(2 * np.pi * x),
            rho2=lambda x: 0.8 + 0.02 * np.cos(2 * np.pi * x),
            u1=0.1, u2=0.05, s1=0.0, s2=0.1)
        out = integrate(cfg, init)
        drift = conservation_drift(out)
        assert drift["mass1"]["rel"] < 1e-12
        assert drift["mass2"]["rel"] < 1e-12
        assert drift["momentum_K"]["rel"] < 1e-2
        assert drift["energy"]["rel"] < 1e-2


class TestFickResidual:
    def test_exact_equilibrium_both_sides_zero(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0))
        n = 32
        p = PrimitiveState(rho1=np.full(n, 1.0), rho2=np.full(n, 1.0),
                           u1=np.zeros(n), u2=np.zeros(n),
                           s1=np.zeros(n), s2=np.zeros(n))
        res, rel = fick_residual(m, ClosureParams(k=10.0), p, 1.0 / n,
                                 theta0=1.0)
        assert np.max(np.abs(res)) == 0.0

    def test_non_isothermal_precondition(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0))
        n = 16
        p = PrimitiveState(rho1=np.full(n, 2.0), rho2=np.full(n, 1.0),
                           u1=np.zeros(n), u2=np.zeros(n),
                           s1=np.zeros(n), s2=np.zeros(n))
        with pytest.raises(ValueError, match="isothermal"):
            fick_residual(m, ClosureParams(k=10.0), p, 1.0 / n, theta0=1.0)

    @pytest.mark.parametrize("theta0", [-1.0, 0.0, math.inf, math.nan])
    def test_theta0_must_be_positive_and_finite(self, theta0):
        # theta2 is about 20 here; a negative theta0 made every deviation
        # negative, so the near-isothermal guard passed this state
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0))
        n = 16
        p = PrimitiveState(rho1=np.full(n, 1.0), rho2=np.full(n, 1.0),
                           u1=np.zeros(n), u2=np.zeros(n),
                           s1=np.zeros(n), s2=np.full(n, 3.0))
        with pytest.raises(ValueError, match="theta0 must be positive"):
            fick_residual(m, ClosureParams(k=10.0), p, 1.0 / n,
                          theta0=theta0)

    @staticmethod
    def relaxation_residuals(k, n, t_end, report_interval):
        """Fick residuals at the reports of a drag relaxation from a
        near-isothermal density wave (the acceptance-11 geometry)."""
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=2.0, gamma2=2.0))
        cl = ClosureParams(k=k, kappa=5.0)
        grid = Grid1D(0.0, 1.0, n)
        delta = 0.02
        cfg = SimulationConfig(grid=grid, model=m, closures=cl,
                               t_end=t_end, report_interval=report_interval)
        init = evolved_from_primitive_profiles(
            m, grid,
            rho1=lambda x: 1.0 + delta * np.sin(2 * np.pi * x),
            rho2=lambda x: np.sqrt(
                2.0 - (1.0 + delta * np.sin(2 * np.pi * x)) ** 2),
            u1=0.0, u2=0.0, s1=0.0, s2=0.0)
        return [fick_residual(m, cl, evolved_to_primitive(m, cells),
                              grid.dx, theta0=1.0)[1]
                for _, cells, _ in integrate(cfg, init)[1:]]

    def test_stronger_drag_smaller_residual(self):
        rels = [self.relaxation_residuals(k, 64, 0.3, 0.3)[-1]
                for k in (50.0, 200.0)]
        assert rels[1] < rels[0]

    def test_very_stiff_drag_residual_decreases(self):
        # at k = 20000 a residual built with the fixed theta0 instead of the
        # local temperatures rose in time here
        rels = self.relaxation_residuals(20000.0, 128, 0.6, 0.2)
        assert len(rels) == 3
        assert rels[0] > rels[1] > rels[2]
        assert max(rels) <= 0.05


PULSE = dict(rho0=lambda x: 1.0 + 0.1 * np.exp(-100 * (x - 0.5) ** 2),
             u0=lambda x: 0.05 * np.exp(-100 * (x - 0.5) ** 2), s0=0.0)


class TestSingleFluidReduction:
    def test_uniform_state_zero_error(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        [r] = single_fluid_reduction(m, [16], 0.05, rho0=1.0, u0=0.0, s0=0.0,
                                     ref_n=64)
        assert r["n"] == 16 and math.isnan(r["order_rho"])
        assert r["l1_rho"] < 1e-13
        assert r["l1_u"] < 1e-13

    def test_isentropic_pulse_first_order(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        rows = single_fluid_reduction(m, (100, 200), 0.1, ref_n=1600, **PULSE)
        assert rows[1]["order_rho"] > 0.7

    def test_with_gentle_external_potential(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        rows = single_fluid_reduction(
            m, (100, 200), 0.1,
            rho0=lambda x: 1.0 + 0.1 * np.exp(-100 * (x - 0.5) ** 2),
            u0=0.0, s0=0.0, ref_n=1600,
            omega_value=lambda x: 0.05 * np.sin(2 * np.pi * x),
            omega_grad=lambda x: 0.05 * 2 * np.pi * np.cos(2 * np.pi * x))
        assert rows[1]["order_rho"] > 0.7

    def test_one_reference_per_call(self, monkeypatch):
        # the sizes share one reference integration, whatever their number
        calls = count_calls(monkeypatch, verify, "single_fluid_reference")
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        for sizes in ((16,), (16, 32), (16, 32, 64)):
            calls.clear()
            rows = single_fluid_reduction(m, sizes, 0.01, **PULSE)
            assert len(rows) == len(sizes)
            assert len(calls) == 1

    def test_rows_match_one_size_calls(self):
        # one call over several sizes gives, bit for bit, the rows of
        # one-size calls against the same reference grid
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        rows = single_fluid_reduction(m, (16, 32, 64), 0.02, **PULSE)
        for r in rows:
            [one] = single_fluid_reduction(m, [r["n"]], 0.02, ref_n=512,
                                           **PULSE)
            assert one["n"] == r["n"]
            assert (one["l1_rho"], one["l1_u"]) == (r["l1_rho"], r["l1_u"])
        assert math.isnan(rows[0]["order_rho"])
        assert [r["order_rho"] for r in rows[1:]] == [
            math.log2(a["l1_rho"] / b["l1_rho"])
            for a, b in zip(rows, rows[1:])]

    @pytest.mark.parametrize("sizes, ref_n", [
        ([12], 16), ([16], 12), ([16], 0), ([16, 12], 32), ([16, 2], 32)],
        ids=["12-16", "16-12", "16-0", "16,12-32", "16,2-32"])
    def test_reference_grid_not_a_multiple_rejected_first(
            self, monkeypatch, sizes, ref_n):
        # every size is checked before any run
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before checking ref_n")

        monkeypatch.setattr(verify, "integrate", refuse)
        monkeypatch.setattr(verify, "single_fluid_reference", refuse)
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        with pytest.raises(ValueError, match="ref_n|n must be"):
            single_fluid_reduction(m, sizes, 0.05, rho0=1.0, u0=0.0,
                                   s0=0.0, ref_n=ref_n)

    @pytest.mark.parametrize("lone", [
        {"omega_value": lambda x: 0.05 * np.sin(2 * np.pi * x)},
        {"omega_grad": lambda x: 0.05 * 2 * np.pi * np.cos(2 * np.pi * x)}],
        ids=["value_only", "grad_only"])
    def test_lone_external_potential_rejected_first(self, monkeypatch, lone):
        # the two-fluid run reads omega_value and the reference omega_grad:
        # with one of them only, the two runs would solve different problems
        def refuse(*args, **kwargs):
            raise AssertionError("integrated with a lone external potential")

        monkeypatch.setattr(verify, "integrate", refuse)
        monkeypatch.setattr(verify, "single_fluid_reference", refuse)
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        with pytest.raises(ValueError, match="omega_value and omega_grad"):
            single_fluid_reduction(m, [16], 0.05, rho0=1.0, u0=0.0,
                                   s0=0.0, **lone)

    def test_reference_preserves_uniform_state(self):
        m = SeparableAddedMass(SeparableAddedMassParams(
            gamma1=1.4, gamma2=1.4))
        grid = Grid1D(0.0, 1.0, 32)
        rho, u, s = single_fluid_reference(m, grid, 1.0, 0.2, 0.0, 0.05)
        assert np.max(np.abs(rho - 1.0)) < 1e-14
        assert np.max(np.abs(u - 0.2)) < 1e-14
