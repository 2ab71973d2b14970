"""Every library callable the repo benchmark traces still exists.

``perfbench/layers.py`` wraps about 30 library functions and methods by
module path and name.  A rename in ``src/`` breaks that table, and the
benchmark would fail only when run.  Here the table is installed on a
throwaway tracer and removed again: a missing module, class or attribute
raises ``ImportError``, ``AttributeError`` or ``KeyError``.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(REPO_ROOT, "perfbench")


def test_traced_callables_exist():
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import spans

        tracer = spans.Tracer()
        try:
            layers.install(tracer)
            assert tracer._patches
        finally:
            tracer.uninstall()
    finally:
        sys.path[:] = saved_path
        # perfbench's top-level modules (``spans``, ``layers``, ...) go; the
        # library modules install imported stay, as after any library import,
        # so no later test sees a second copy of a repro class.
        for name in set(sys.modules) - saved_modules:
            if name != "repro" and not name.startswith("repro."):
                del sys.modules[name]
