"""Shared configuration for the benchmark harness.

Every benchmark module regenerates the rows of one experiment (E1–E9) and
checks the *shape* of the paper's claim (who wins, how quantities scale); the
absolute wall-clock timings reported by pytest-benchmark measure the simulator
itself, not a real network, and are therefore secondary.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered result tables so a session summary can be printed."""
    tables = []
    yield tables
    if tables:
        print("\n\n" + "\n\n".join(tables))
