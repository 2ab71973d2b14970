"""Repository-level pytest configuration.

Defines the command-line options shared by the test suite and the benchmark
harness (sub-directory conftests can only add fixtures, not options, because
``pytest_addoption`` must live in an initial conftest):

* ``--seed`` — the single master seed every randomized test/benchmark derives
  its :class:`random.Random` from, so any run is reproducible bit-for-bit by
  re-passing the same value.
* ``--bench-scale`` — ``full`` (default) runs the benchmarks at paper scale;
  ``tiny`` is the CI smoke setting (small instances, shape assertions that
  need large n are skipped).
"""

from __future__ import annotations

import os
import random
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=12345,
        help="master seed for all randomized tests and benchmarks",
    )
    parser.addoption(
        "--bench-scale",
        choices=("tiny", "full"),
        default="full",
        help="benchmark instance sizes: 'full' (paper scale) or 'tiny' (CI smoke)",
    )


@pytest.fixture(scope="session")
def master_seed(request) -> int:
    """The ``--seed`` value; derive every per-test RNG from this."""
    return request.config.getoption("--seed")


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    """The ``--bench-scale`` value (``"tiny"`` or ``"full"``)."""
    return request.config.getoption("--bench-scale")


@pytest.fixture
def rng(master_seed) -> random.Random:
    """A fresh seeded RNG per test/benchmark, derived from the session ``--seed``.

    Every randomized test and benchmark should draw from this (or spawn
    sub-RNGs from it) so the whole run is reproducible from one option.
    """
    return random.Random(master_seed)
