"""Tests of the package's public namespace."""
import twofluid


def test_every_exported_name_resolves():
    missing = [name for name in twofluid.__all__
               if not hasattr(twofluid, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from twofluid import *", namespace)
    assert set(twofluid.__all__) <= set(namespace)
