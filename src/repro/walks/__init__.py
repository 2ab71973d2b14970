"""Stateful walk constraints and constrained distance labeling (paper §5).

A *stateful walk constraint* C is a set of walks recognised by a per-edge
finite-state transition system (Q, M, δ): the state of a walk evolves edge by
edge, the special state ▽ marks the empty walk and ⊥ is an absorbing reject
state.  Shortest constrained walks reduce to ordinary shortest paths in the
product graph G_C on vertex set V(G) × Q (Lemma 5), so the distance labeling
machinery of §4 solves the constrained problem at an overhead polynomial in
|Q| and the edge multiplicity (Theorem 3).

* :mod:`~repro.walks.constraints` — the constraint interface plus the paper's
  two worked examples (c-colored walks and count-c walks) and the
  matching-specific alternating-walk constraint.
* :mod:`~repro.walks.product` — construction of G_C − ⊥, the product graph
  without its reject copies (the part of G_C that the constrained labeling
  labels), and the lifting of tree decompositions from G to G_C − ⊥.  The
  round model still charges the simulation of the paper's whole G_C.
* :mod:`~repro.walks.cdl` — constrained distance labeling CDL(C) and shortest
  constrained walk queries (Theorem 3, Corollary 1).
"""

from repro.walks.constraints import (
    StatefulWalkConstraint,
    INITIAL_STATE,
    REJECT_STATE,
    ColoredWalkConstraint,
    CountWalkConstraint,
    AlternatingWalkConstraint,
    walk_state,
)
from repro.walks.product import build_product_graph, ProductGraph
from repro.walks.cdl import (
    build_constrained_labeling,
    ConstrainedDistanceLabeling,
    ConstrainedLabelingResult,
)

__all__ = [
    "StatefulWalkConstraint",
    "INITIAL_STATE",
    "REJECT_STATE",
    "ColoredWalkConstraint",
    "CountWalkConstraint",
    "AlternatingWalkConstraint",
    "walk_state",
    "build_product_graph",
    "ProductGraph",
    "build_constrained_labeling",
    "ConstrainedDistanceLabeling",
    "ConstrainedLabelingResult",
]
