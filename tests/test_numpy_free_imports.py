"""Every ``repro`` module imports without numpy, and without networkx.

numpy is optional: the modules that use it import it inside the functions
that need it.  networkx is a test-only dependency: only the oracles in
:mod:`repro.baselines.reference` use it, and they import it in their bodies.
Each top-level subpackage is imported, with all of its submodules, in a fresh
interpreter where ``sys.modules[<blocked>] = None`` makes every import of the
blocked package raise ``ImportError``.
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
sys.modules[sys.argv[2]] = None
module = importlib.import_module(sys.argv[1])
for info in pkgutil.walk_packages(getattr(module, "__path__", []), sys.argv[1] + "."):
    importlib.import_module(info.name)
"""

_SUBPACKAGES = sorted("repro." + m.name for m in pkgutil.iter_modules(repro.__path__))


def _import_with_blocked(name, blocked):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name, blocked],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", _SUBPACKAGES)
def test_imports_with_numpy_blocked(name):
    _import_with_blocked(name, "numpy")


@pytest.mark.parametrize("name", _SUBPACKAGES)
def test_imports_with_networkx_blocked(name):
    _import_with_blocked(name, "networkx")
