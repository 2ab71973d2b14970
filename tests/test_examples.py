"""The examples check their answers with checks that ``python -O`` keeps.

Each example cross-checks its output against a centralized oracle and must
exit non-zero on a wrong answer.  ``python -O`` strips ``assert``
statements, so an example that checks with ``assert`` passes a wrong answer
there; the examples raise ``SystemExit`` instead.
"""

import ast
import glob
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_has_no_assert(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{os.path.basename(path)} checks with assert at lines {lines}"
