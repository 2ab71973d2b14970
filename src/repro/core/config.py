"""Configuration objects shared across the framework.

The paper's algorithms are written with analysis-friendly constants (e.g. the
separator balance factor 14399/14400 and the size threshold 200·t²).  Used
literally, these constants make every instance that fits in memory fall into
the trivial base case, so the library exposes them through
:class:`SeparatorParams` with two presets:

* :meth:`SeparatorParams.paper` — the constants exactly as written in §3.3;
* :meth:`SeparatorParams.practical` — scaled-down constants (balance 3/4,
  threshold 4·t², 20 sampled pairs) that exercise the interesting code paths
  at laptop scale while preserving every correctness invariant (balancedness
  and separator validity are *checked*, not assumed).

:class:`FrameworkConfig` bundles the knobs shared by the higher-level
algorithms (randomness, round-cost model parameters, recursion limits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class SeparatorParams:
    """Tunable constants of the ``Sep`` balanced-separator algorithm (paper §3.3).

    Attributes
    ----------
    size_threshold_factor:
        Step 1 halts and outputs X when μ(G) ≤ ``size_threshold_factor · t²``
        (paper: 200).
    balance_fraction:
        The algorithm outputs an (X, ``balance_fraction``)-balanced separator
        (paper: 14399/14400).  Smaller values give better balance and smaller
        recursion depth but may require more separator vertices.
    iterations_factor:
        Number of outer iterations \\hat t = ceil(``iterations_factor`` · t)
        (paper: 301/300).
    num_sampled_pairs:
        Number of random split-tree pairs sampled per iteration in step 4
        (paper: 95).
    split_lower_divisor / split_upper_divisor:
        Split trees have μ-size in [μ(G)/(``split_lower_divisor``·t),
        μ(G)/(``split_upper_divisor``·t)] (paper: 12 and 4).
    max_retries:
        Number of independent trials of Sep before concluding τ + 1 > t and
        doubling t (paper: 5·log n; we use a fixed small count because each
        trial is already internally randomized).
    """

    size_threshold_factor: float = 200.0
    balance_fraction: float = 14399.0 / 14400.0
    iterations_factor: float = 301.0 / 300.0
    num_sampled_pairs: int = 95
    split_lower_divisor: int = 12
    split_upper_divisor: int = 4
    max_retries: int = 5

    @classmethod
    def paper(cls) -> "SeparatorParams":
        """The constants exactly as stated in §3.3 of the paper."""
        return cls()

    @classmethod
    def practical(cls) -> "SeparatorParams":
        """Scaled-down constants for laptop-scale experiments (docs/experiments.md)."""
        return cls(
            size_threshold_factor=4.0,
            balance_fraction=0.75,
            iterations_factor=1.0,
            num_sampled_pairs=20,
            split_lower_divisor=6,
            split_upper_divisor=2,
            max_retries=4,
        )

    def validate(self) -> None:
        if not 0.5 <= self.balance_fraction < 1.0:
            raise ValueError("balance_fraction must be in [0.5, 1)")
        if self.size_threshold_factor <= 0:
            raise ValueError("size_threshold_factor must be positive")
        if self.num_sampled_pairs < 1:
            raise ValueError("num_sampled_pairs must be >= 1")
        if self.split_lower_divisor <= self.split_upper_divisor:
            raise ValueError("split_lower_divisor must exceed split_upper_divisor")


@dataclass
class FrameworkConfig:
    """Shared configuration for the high-level algorithms.

    Attributes
    ----------
    seed:
        Seed for all randomized components (separator sampling, girth edge
        labels).  ``None`` draws a fresh seed from the OS.  A seed fixes
        outputs across processes only for node ids whose hash Python does
        not salt, such as ints and tuples of ints.  With ``str`` ids, for
        instance the ``("L", i)`` of
        :func:`~repro.graphs.generators.random_banded_bipartite`, set
        iteration order follows ``PYTHONHASHSEED``, so two processes can
        pick different separators and return different matchings and round
        counts; fix ``PYTHONHASHSEED`` to make them agree.
    separator:
        Constants for the ``Sep`` algorithm.
    initial_width_guess:
        Starting value of the doubling estimate ``t`` of τ + 1.
    max_width:
        Safety cap for the doubling loop (defaults to n when unset).
    cost_log_exponent / cost_constant:
        Parameters of the round :class:`~repro.core.rounds.CostModel`.
    leaf_size:
        Decomposition recursion stops when a part has at most
        ``max(leaf_size, 2·|separator|)`` vertices.
    """

    seed: Optional[int] = None
    separator: SeparatorParams = field(default_factory=SeparatorParams.practical)
    initial_width_guess: int = 2
    max_width: Optional[int] = None
    cost_log_exponent: int = 1
    cost_constant: float = 1.0
    leaf_size: int = 4

    def rng(self) -> random.Random:
        """Return a fresh ``random.Random`` seeded from :attr:`seed`."""
        return random.Random(self.seed)

    def validate(self) -> None:
        self.separator.validate()
        if self.initial_width_guess < 1:
            raise ValueError("initial_width_guess must be >= 1")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
