"""Centralized reference solutions (exactness oracles).

Thin, well-named wrappers around the centralized algorithms scattered through
the library (and networkx where convenient), so that tests and benchmarks have
a single import point for "the correct answer".
"""

from __future__ import annotations

from typing import Dict, Hashable

import networkx as nx

from repro.errors import ReproError
from repro.girth.baselines import exact_girth_directed, exact_girth_undirected
from repro.graphs.convert import graph_to_networkx
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs.properties import all_pairs_shortest_paths, dijkstra
from repro.matching.hopcroft_karp import hopcroft_karp_matching

NodeId = Hashable


def reference_sssp(instance: WeightedDiGraph, source: NodeId) -> Dict[NodeId, float]:
    """Exact single-source distances (Dijkstra)."""
    return dijkstra(instance, source)


def reference_apsp(instance: WeightedDiGraph) -> Dict[NodeId, Dict[NodeId, float]]:
    """Exact all-pairs distances (n Dijkstra runs)."""
    return all_pairs_shortest_paths(instance)


def reference_matching_size(graph: Graph) -> int:
    """Maximum matching size of a bipartite graph.

    Hopcroft–Karp's size, cross-checked against networkx's Hopcroft–Karp
    given the bipartition.  A disagreement raises
    :class:`~repro.errors.ReproError`; only an error networkx itself raises
    skips the cross-check.
    """
    own = len(hopcroft_karp_matching(graph))
    parts = graph.bipartition()
    if parts is None or graph.num_nodes() == 0:
        return own
    try:
        nx_match = nx.bipartite.maximum_matching(graph_to_networkx(graph), top_nodes=parts[0])
    except nx.NetworkXException:
        return own
    if own != len(nx_match) // 2:
        raise ReproError(
            f"Hopcroft–Karp matches {own} pairs but networkx matches {len(nx_match) // 2}"
        )
    return own


def reference_girth_directed(instance: WeightedDiGraph) -> float:
    """Exact weighted directed girth."""
    return exact_girth_directed(instance)


def reference_girth_undirected(graph: Graph) -> float:
    """Exact weighted undirected girth."""
    return exact_girth_undirected(graph)
