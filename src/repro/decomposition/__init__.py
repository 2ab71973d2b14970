"""Balanced separators and fully polynomial-time tree decomposition (paper §3).

Contents:

* :mod:`~repro.decomposition.vertex_cut` — minimum U₁-U₂ vertex cuts (the MVC
  primitive of Lemma 8) via unit-capacity node-splitting max-flow.
* :mod:`~repro.decomposition.split` — the ``Split`` tree-splitting procedure
  of §3.3 (split a spanning tree into Θ(t) subtrees of size ≈ μ(G)/t sharing
  only their roots).
* :mod:`~repro.decomposition.separator` — the ``Sep`` algorithm (Lemma 1):
  an (X, α)-balanced separator of size O(t²) for any width guess t ≥ τ + 1,
  together with the doubling estimation of t.
* :mod:`~repro.decomposition.tree_decomposition` — the recursive distributed
  tree decomposition of §3.4 / Theorem 1 (width O(τ² log n), depth O(log n)).
* :mod:`~repro.decomposition.validation` — checks that decompositions and
  separators satisfy their definitions (used pervasively in tests).
* :mod:`~repro.decomposition.centralized` — centralized reference
  decompositions (elimination-order based) for comparison.
"""

from repro.decomposition.separator import BalancedSeparator, SeparatorResult, find_balanced_separator
from repro.decomposition.tree_decomposition import (
    TreeDecomposition,
    DecompositionNode,
    build_tree_decomposition,
)
from repro.decomposition.validation import (
    is_valid_tree_decomposition,
    is_balanced_separator,
)

__all__ = [
    "BalancedSeparator",
    "SeparatorResult",
    "find_balanced_separator",
    "TreeDecomposition",
    "DecompositionNode",
    "build_tree_decomposition",
    "is_valid_tree_decomposition",
    "is_balanced_separator",
]
