"""Exact centralized girth baselines.

Used by tests and benchmarks to validate the distributed algorithms of §7.

* Directed weighted girth: for every edge (u, v), the shortest cycle through
  it has weight c(u, v) + d(v, u); minimise over edges (one Dijkstra per
  vertex suffices).
* Undirected weighted girth: for every edge {u, v}, the shortest cycle using
  it has weight c(u, v) + d_{G−e}(u, v); minimise over edges.  This is the
  textbook O(m · SSSP) algorithm; it is exact for positive weights.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Set, Tuple

from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs.properties import dijkstra

NodeId = Hashable
INF = math.inf


def exact_girth_directed(instance: WeightedDiGraph) -> float:
    """Exact weighted girth of a directed multigraph (``inf`` if acyclic).

    Self-loops count as cycles of their own weight.
    """
    best = INF
    # Self-loops are length-1 cycles.
    for e in instance.edges():
        if e.tail == e.head:
            best = min(best, e.weight)
    # For every vertex v, distances d(v, ·); then for every edge (u, v),
    # candidate cycle c(u, v) + d(v, u).
    dist_from: Dict[NodeId, Dict[NodeId, float]] = {
        v: dijkstra(instance, v) for v in instance.nodes()
    }
    for e in instance.edges():
        if e.tail == e.head:
            continue
        back = dist_from[e.head].get(e.tail, INF)
        if back != INF:
            best = min(best, e.weight + back)
    return best


def _dijkstra_excluding_edge(
    graph: Graph, source: NodeId, excluded: Tuple[NodeId, NodeId]
) -> Dict[NodeId, float]:
    """Weighted single-source distances avoiding one specific undirected edge."""
    ex = frozenset(excluded)
    dist: Dict[NodeId, float] = {source: 0.0}
    heap = [(0.0, 0, source)]
    counter = 0
    settled: Set[NodeId] = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v in graph.neighbors(u):
            if frozenset((u, v)) == ex:
                continue
            nd = d + graph.weight(u, v)
            if nd < dist.get(v, INF):
                dist[v] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return dist


def exact_girth_undirected(graph: Graph) -> float:
    """Exact weighted girth of a simple undirected graph (``inf`` if a forest)."""
    if graph.num_nodes() == 0:
        return INF
    best = INF
    for u, v in graph.edges():
        w = graph.weight(u, v)
        if w >= best:
            continue
        detour = _dijkstra_excluding_edge(graph, u, (u, v)).get(v, INF)
        if detour != INF:
            best = min(best, w + detour)
    return best
