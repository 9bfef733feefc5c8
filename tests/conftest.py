"""Shared test configuration.

Property tests run under a fixed hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run, and with a modest example count so it stays fast.

:func:`count_calls` is shared by the tests that count calls into a layer,
and :func:`certify` by those that certify states given by their fields;
import them with ``from conftest import ...``.
"""
import numpy as np
from hypothesis import settings

from twofluid.hyperbolicity import _certified_frame, _law_hessian

settings.register_profile("twofluid", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("twofluid")


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns the list to which each
    call appends the number of states it was given (the broadcast size of
    its arguments, keyword arguments included)."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(np.broadcast(*args, *kwargs.values()).size)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def certify(model, rho1, rho2, u1, u2, s1, s2):
    """The hyperbolicity certificate of states given by their fields, from
    the law's Hessian and W_w at w = u2 - u1."""
    return _certified_frame(*_law_hessian(
        model, rho1, rho2, s1, s2, np.subtract(u2, u1)), rho1, rho2, u1, u2)
