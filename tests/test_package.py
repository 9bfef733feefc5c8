"""Tests of the package's public namespace."""
import os
import subprocess
import sys

import twofluid


def test_every_exported_name_resolves():
    missing = [name for name in twofluid.__all__
               if not hasattr(twofluid, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from twofluid import *", namespace)
    assert set(twofluid.__all__) <= set(namespace)


def test_runtime_needs_no_scipy():
    # scipy is a test-only dependency: importing the package and its CLI
    # must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(twofluid.__file__)))
    code = ("import sys, twofluid, twofluid.cli; "
            "sys.exit('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
