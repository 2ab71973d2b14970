"""Exact bipartite maximum matching by separator divide-and-conquer (paper §6).

The driver follows Theorem 4:

* the connected components of the graph minus a balanced separator S are
  matched recursively (all components in parallel — the recursion depth is
  O(log n) and the per-level CONGEST cost is the scheduled maximum over the
  vertex-disjoint parts);
* the separator vertices are then re-inserted one at a time; by Proposition 1
  the only possible augmenting path starts at the re-inserted vertex, and it
  is found as a shortest alternating stateful walk (one CDL query), after
  which the matching is flipped along the path;
* components of constant size are matched by local computation
  (Hopcroft–Karp), exactly as a CONGEST node would once it has collected the
  component.

Rounds charged per recursion level: the separator construction
(Õ(τ²D + τ³)), plus |S| = O(τ²) augmenting-path searches, each one
constrained-distance-labeling construction at Õ(τ²D + τ⁵) — giving the
Õ(τ⁴D + τ⁷) total of Theorem 4.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.separator import BalancedSeparator
from repro.errors import GraphError, NotBipartiteError
from repro.graphs.graph import Graph
from repro.matching.augmenting import (
    augment_along_path,
    find_augmenting_path,
    matched_vertices,
    verify_matching,
)
from repro.matching.hopcroft_karp import hopcroft_karp_matching

NodeId = Hashable
MatchingEdge = FrozenSet[NodeId]


@dataclass
class MatchingResult:
    """A maximum matching together with its construction statistics.

    Attributes
    ----------
    matching:
        The matching edges (as 2-element frozensets).
    size:
        Number of matched edges.
    rounds:
        Charged CONGEST rounds.
    ledger:
        Per-phase round breakdown.
    augmentations:
        Number of successful augmenting-path flips performed.
    separator_vertices:
        Total number of separator vertices processed across all levels.
    recursion_depth:
        Depth of the divide-and-conquer recursion.
    """

    matching: Set[MatchingEdge]
    size: int
    rounds: int
    ledger: RoundLedger
    augmentations: int
    separator_vertices: int
    recursion_depth: int


def maximum_bipartite_matching(
    graph: Graph,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
    leaf_size: Optional[int] = None,
) -> MatchingResult:
    """Compute an exact maximum matching of a bipartite graph (Theorem 4).

    Parameters
    ----------
    graph:
        An undirected, unweighted, bipartite graph.  It need not be connected.
    config:
        Framework configuration (separator constants, seed).
    cost_model:
        Round-cost model; built from the graph when omitted.
    leaf_size:
        Components of at most this many vertices are matched locally
        (defaults to ``max(8, 2 · config.initial_width_guess²)``).

    Raises
    ------
    NotBipartiteError
        If the graph is not bipartite (the stateful-walk reduction is only
        exact for bipartite graphs — see §6).
    """
    config = config or FrameworkConfig()
    config.validate()
    if graph.num_nodes() == 0:
        return MatchingResult(set(), 0, 0, RoundLedger(), 0, 0, 0)
    if graph.bipartition() is None:
        raise NotBipartiteError("maximum_bipartite_matching requires a bipartite graph")

    if cost_model is None and graph.num_nodes() > 1 and graph.is_connected():
        cost_model = CostModel.for_graph(graph, config)
    rng = config.rng()
    separator_engine = BalancedSeparator(
        params=config.separator, rng=rng, cost_model=cost_model
    )
    if leaf_size is None:
        leaf_size = max(8, 2 * config.initial_width_guess ** 2)

    ledger = RoundLedger()
    stats = {"augmentations": 0, "separator_vertices": 0, "depth": 0}
    # Components at the same recursion depth are processed in parallel in the
    # CONGEST algorithm, so the per-depth round charge is the *maximum* over
    # components (separator construction + |S| sequential augmenting searches),
    # not the sum.
    level_sep_rounds: Dict[int, int] = {}
    level_aug_rounds: Dict[int, int] = {}
    level_local: Set[int] = set()

    def solve(vertices: Set[NodeId], depth: int) -> Set[MatchingEdge]:
        stats["depth"] = max(stats["depth"], depth)
        sub = graph.subgraph(vertices)
        components = sub.connected_components()
        if len(components) > 1:
            matching: Set[MatchingEdge] = set()
            for comp in components:
                matching |= solve(set(comp), depth)
            return matching
        if len(vertices) <= leaf_size:
            # Local computation on a constant-size component.
            level_local.add(depth)
            return hopcroft_karp_matching(sub)

        sep_result = separator_engine.find(
            sub, initial_t=config.initial_width_guess, max_t=config.max_width
        )
        separator = set(sep_result.separator)
        if cost_model is not None:
            level_sep_rounds[depth] = max(level_sep_rounds.get(depth, 0), sep_result.rounds)
        stats["separator_vertices"] += len(separator)

        remaining = vertices - separator
        matching = solve(remaining, depth + 1) if remaining else set()

        # Re-insert separator vertices one at a time (Proposition 1).
        ordered = sorted(separator, key=str)
        width = max(1, sep_result.width_guess)
        component_aug_rounds = 0
        for idx, s in enumerate(ordered):
            active = remaining | set(ordered[: idx + 1])
            if s in matched_vertices(matching):
                # Cannot happen: s was absent from every previous subproblem.
                raise GraphError("separator vertex unexpectedly matched before insertion")
            path = find_augmenting_path(graph, matching, s, allowed=active)
            if cost_model is not None:
                # One CDL(C_col(2)) construction + decoding: |Q| = 4, p_max = 1.
                q = 4
                component_aug_rounds += q * (
                    cost_model.broadcast_multi(q * width, (q * width) ** 2)
                )
            if path is not None:
                matching = augment_along_path(matching, path)
                stats["augmentations"] += 1
        if cost_model is not None:
            level_aug_rounds[depth] = max(level_aug_rounds.get(depth, 0), component_aug_rounds)
        return matching

    matching = solve(set(graph.nodes()), 0)
    for depth in sorted(level_sep_rounds):
        ledger.charge(f"matching/depth_{depth}/separator", level_sep_rounds[depth])
    for depth in sorted(level_aug_rounds):
        ledger.charge(f"matching/depth_{depth}/augmenting_search", level_aug_rounds[depth])
    for depth in sorted(level_local):
        ledger.charge(f"matching/depth_{depth}/local", 1)
    if not verify_matching(graph, matching):
        raise GraphError("internal error: produced an invalid matching")
    return MatchingResult(
        matching=matching,
        size=len(matching),
        rounds=ledger.total(),
        ledger=ledger,
        augmentations=stats["augmentations"],
        separator_vertices=stats["separator_vertices"],
        recursion_depth=stats["depth"],
    )
