"""Shared test configuration.

Property tests run under a fixed hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run, and with a modest example count so it stays fast.

:func:`count_calls` is shared by the tests that count calls into a layer,
:func:`certify` by those that certify states given by their fields,
:func:`scalar_trig_params` and :func:`scalar_trig_fields` by those that
check the drawing of manufactured fields against the former scalar
``Generator`` calls, and
the user laws :class:`CoupledInW` and :class:`CoupledInWGradient` by the
potential and hyperbolicity tests; import them with
``from conftest import ...``.
"""
from functools import partial

import numpy as np
from hypothesis import settings

from twofluid.hyperbolicity import _certified_frame, _law_hessian
from twofluid.potential import PotentialModel
from twofluid.verify import ManufacturedField

settings.register_profile("twofluid", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("twofluid")


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns the list to which each
    call appends the number of states it was given: the broadcast size of
    its arguments (keyword arguments included), where an argument stacked
    over states, such as a Hessian (5, 5, n), counts only its trailing axes,
    as many as the arguments of fewest axes have."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        shapes = [np.shape(a) for a in (*args, *kwargs.values())]
        rank = min((len(s) for s in shapes if s), default=0)
        calls.append(int(np.prod(np.broadcast_shapes(
            *(s[len(s) - rank:] for s in shapes)))))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def scalar_trig_params(rng, rho_base=1.0, amp=0.1):
    """{component: (base, kx, kt, ph, ph2, c1, c2)} of a manufactured field
    drawn by scalar ``Generator`` calls, as ``verify.random_trig_fields``
    drew it before it read raw words: per component in field order, two
    ``integers(1, 4)`` and four ``uniform``."""
    def draw(base):
        kx = float(rng.integers(1, 4))
        kt = float(rng.integers(1, 4))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        ph2 = float(rng.uniform(0.0, 2.0 * np.pi))
        c1 = float(rng.uniform(0.3, 1.0)) * amp
        c2 = float(rng.uniform(0.3, 1.0)) * amp
        return base, kx, kt, ph, ph2, c1, c2

    return {name: draw(rho_base if name.startswith("rho") else 0.0)
            for name in ManufacturedField.__dataclass_fields__}


def _scalar_trig(base, kx, kt, ph, ph2, c1, c2, t, x):
    return (base + c1 * np.sin(kx * x + ph)
            + c2 * np.cos(kt * t + kx * x + ph2))


def scalar_trig_fields(rng, rho_base=1.0, amp=0.1):
    """The field of :func:`scalar_trig_params`, independent of the code
    under test."""
    return ManufacturedField(**{
        name: partial(_scalar_trig, *args)
        for name, args in scalar_trig_params(rng, rho_base, amp).items()})


def certify(model, rho1, rho2, u1, u2, s1, s2):
    """The hyperbolicity certificate of states given by their fields,
    broadcast together and flattened, from the law's Hessian and W_w at
    w = u2 - u1, both from one law pass (``model.derivatives``)."""
    rho1, rho2, u1, u2, s1, s2 = (a.ravel() for a in np.broadcast_arrays(
        *[np.asarray(a, dtype=float) for a in (rho1, rho2, u1, u2, s1, s2)]))
    return _certified_frame(*_law_hessian(model, rho1, rho2, s1, s2, u2 - u1),
                            rho1, rho2, u1, u2)


class CoupledInW(PotentialModel):
    """A user law whose w-coupling depends on both densities and entropies."""

    def value(self, rho1, rho2, s1, s2, w):
        return (rho1 ** 2 * np.exp(s1) + 0.7 * rho2 ** 1.4 * np.exp(s2)
                + 0.3 * rho1 * rho2
                - 0.1 * rho1 * rho2 * np.exp(0.5 * (s1 - s2)) * w ** 2
                - 0.01 * w ** 4)


class CoupledInWGradient(CoupledInW):
    """CoupledInW with its gradient written out and its Hessian still from
    differences.  The Newton oracle inverts sigma to 1e-13, below the
    rounding of a differenced gradient (about 3e-11 for CoupledInW)."""

    def gradient(self, rho1, rho2, s1, s2, w):
        c = 0.1 * np.exp(0.5 * (s1 - s2)) * w
        return np.stack(np.broadcast_arrays(
            2.0 * rho1 * np.exp(s1) + 0.3 * rho2 - c * rho2 * w,
            0.98 * rho2 ** 0.4 * np.exp(s2) + 0.3 * rho1 - c * rho1 * w,
            rho1 ** 2 * np.exp(s1) - 0.5 * c * rho1 * rho2 * w,
            0.7 * rho2 ** 1.4 * np.exp(s2) + 0.5 * c * rho1 * rho2 * w,
            -2.0 * c * rho1 * rho2 - 0.04 * w ** 3))
