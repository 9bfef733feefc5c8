"""Shared test configuration.

Property tests run under a fixed hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run, and with a modest example count so it stays fast.

:func:`count_calls` is shared by the tests that count calls into a layer;
import it with ``from conftest import count_calls``.
"""
import numpy as np
from hypothesis import settings

settings.register_profile("twofluid", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("twofluid")


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns the list to which each
    call appends the number of states it was given (the broadcast size of
    its arguments)."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(np.broadcast(*args).size)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls
