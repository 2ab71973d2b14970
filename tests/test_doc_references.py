"""Every markdown path that the repo's Python files name exists.

Docstrings and comments send readers to the documents under ``docs/`` and
at the repo root.  A pointer to a document that was renamed or never
written sends them nowhere, so each path ending in ``.md`` that a ``.py``
file under ``src/``, ``benchmarks/``, ``tests/`` or ``examples/`` names
must resolve from the repo root.
"""

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks", "tests", "examples")
#: A relative path ending in ``.md``.  The look-behind skips the tail of a
#: URL or of a longer token.
MD_PATH = re.compile(r"(?<![\w/.:-])[\w-][\w./-]*\.md\b")


def _python_files():
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _references():
    """``(file, line number, markdown path)`` for every path the scan finds."""
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for ref in MD_PATH.findall(line):
                    yield os.path.relpath(path, REPO_ROOT), lineno, ref


@pytest.mark.parametrize(
    "line, refs",
    [
        ("see docs/experiments.md for the floors", ["docs/experiments.md"]),
        ("(ROADMAP.md item 6)", ["ROADMAP.md"]),
        ("``docs/serving.md``, CHANGES.md", ["docs/serving.md", "CHANGES.md"]),
        ("https://example.org/docs/serving.md", []),
        ("page.mdx and md_files", []),
    ],
)
def test_pattern_finds_relative_markdown_paths(line, refs):
    assert MD_PATH.findall(line) == refs


def test_scan_sees_the_known_references():
    # A pattern or walk that matched nothing would pass the check below
    # vacuously; the analysis package does point readers at this file.
    found = {(where, ref) for where, _, ref in _references()}
    assert ("src/repro/analysis/experiments.py", "docs/experiments.md") in found


def test_named_markdown_paths_exist():
    missing = [
        f"{where}:{lineno}: {ref}"
        for where, lineno, ref in _references()
        if not os.path.isfile(os.path.join(REPO_ROOT, ref))
    ]
    assert not missing, "named markdown files do not exist:\n" + "\n".join(missing)
