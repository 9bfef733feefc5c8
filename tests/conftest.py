"""Shared test configuration.

Property tests run under a fixed hypothesis profile: derandomized and
without an example database, so the suite draws the same examples on every
run, and with a modest example count so it stays fast.
"""
from hypothesis import settings

settings.register_profile("twofluid", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("twofluid")
