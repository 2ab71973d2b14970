"""Every ``repro`` module imports without numpy.

numpy is optional: the modules that use it import it inside the functions
that need it.  Each top-level subpackage is imported, with all of its
submodules, in a fresh interpreter where ``sys.modules["numpy"] = None``
makes every ``import numpy`` raise ``ImportError``.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

_CHILD = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
module = importlib.import_module(sys.argv[1])
for info in pkgutil.walk_packages(getattr(module, "__path__", []), sys.argv[1] + "."):
    importlib.import_module(info.name)
"""


@pytest.mark.parametrize(
    "name", sorted("repro." + m.name for m in pkgutil.iter_modules(repro.__path__))
)
def test_imports_with_numpy_blocked(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
