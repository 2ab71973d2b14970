"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import os
import sys

# Make the package importable even without an installed distribution
# (offline environments may lack the `wheel` package needed for `pip install -e .`).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.congest.scheduler import SlowLinkDelay, UniformDelay, UnitDelay
from repro.core.config import FrameworkConfig
from repro.graphs import generators


class ScheduleFuzzer:
    """Deterministic generator of seeded delay-model schedules for fuzzing.

    Every model is derived from the session ``--seed`` plus a case name and
    a schedule index, so any failing (family, kind, index) triple is
    reproducible from the command line by re-passing the same ``--seed``.
    ``kind`` selects the model family: ``"unit"`` (the bit-for-bit
    calibration schedule), ``"uniform"`` (i.i.d. per-(arc, pulse) integer
    delays) or ``"adversarial"`` (a seeded random subset of directed links
    slowed by an order of magnitude).
    """

    KINDS = ("unit", "uniform", "adversarial")

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)

    def case_seed(self, case: str, index: int = 0) -> int:
        h = 0
        for ch in str(case):
            h = (h * 131 + ord(ch)) % (1 << 31)
        return (self.master_seed * 1_000_003 + h * 257 + index) % (1 << 31)

    def model(self, kind: str, case: str, index: int = 0):
        """One delay model of ``kind`` for test case ``case``, schedule ``index``."""
        seed = self.case_seed(case, index)
        if kind == "unit":
            return UnitDelay()
        if kind == "uniform":
            low = 1 + seed % 2
            return UniformDelay(low, low + 2 + (seed >> 3) % 4, seed=seed)
        if kind == "adversarial":
            return SlowLinkDelay(
                slow_fraction=0.15 + (seed % 5) * 0.15,
                slow_delay=5 + seed % 6,
                seed=seed,
            )
        raise ValueError(f"unknown schedule kind {kind!r}")

    def models(self, kind: str, case: str, count: int):
        """``count`` independently seeded schedules of ``kind`` for ``case``."""
        return [self.model(kind, case, index) for index in range(count)]


@pytest.fixture(scope="session")
def schedule_fuzzer(master_seed) -> ScheduleFuzzer:
    """The differential schedule fuzzer, seeded from ``--seed``."""
    return ScheduleFuzzer(master_seed)


@pytest.fixture
def config(master_seed) -> FrameworkConfig:
    """A deterministic framework configuration."""
    return FrameworkConfig(seed=master_seed)


@pytest.fixture
def small_partial_k_tree():
    """A small connected partial 3-tree used by many tests."""
    return generators.partial_k_tree(40, 3, seed=7)


@pytest.fixture
def small_grid():
    """A 5×8 grid (bipartite, treewidth 5)."""
    return generators.grid_graph(5, 8)


@pytest.fixture
def weighted_instance(small_partial_k_tree):
    """A weighted directed instance over the small partial k-tree."""
    return generators.to_directed_instance(
        small_partial_k_tree, weight_range=(1, 9), orientation="asymmetric", seed=11
    )
