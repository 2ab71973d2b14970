"""Graph properties and centralized shortest-path reference routines.

These are *substrate* routines: the round-cost model needs the unweighted
diameter ``D`` of the communication network (paper §2.1), the tree-splitting
procedure needs a spanning tree's children, and the test suite needs exact
centralized distances (Dijkstra) to validate the distributed distance labels.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph

NodeId = Hashable
INF = math.inf

# BFS sweeps of the estimate that ``diameter(exact=False)`` returns.
_ESTIMATE_SWEEPS = 8


# --------------------------------------------------------------------------- #
# Unweighted (communication-network) properties
# --------------------------------------------------------------------------- #
def eccentricity(graph: Graph, source: NodeId) -> int:
    """Return the unweighted eccentricity of ``source`` within its component."""
    layers = graph.bfs_layers(source)
    return max(layers.values(), default=0)


def diameter(graph: Graph, exact: bool = True) -> int:
    """Return the unweighted diameter ``D`` of ``graph``.

    Parameters
    ----------
    exact:
        If ``True`` (default) compute the exact diameter by iFUB (Crescenzi,
        Grossi, Habib, Lanzi and Marino, "On computing the diameter of
        real-world undirected graphs", TCS 2013) over integer adjacency
        lists built once per call: a few BFS runs on grids and low-treewidth
        graphs, at most one per node.  If ``False``, run a 2-sweep
        style estimate from up to 8 BFS sources, which is a lower bound
        on the diameter and within a factor 2 of it; useful for large
        benchmark instances, where the exact worst case of one BFS per node
        would dominate runtime.

    Raises
    ------
    GraphError
        If the graph is disconnected (the diameter would be infinite).
    """
    nodes = graph.nodes()
    if not nodes:
        return 0
    if not graph.is_connected():
        raise GraphError("diameter is undefined for a disconnected graph")
    if exact:
        index = {u: i for i, u in enumerate(nodes)}
        adj = [[index[v] for v in graph.neighbors(u)] for u in nodes]
        return _ifub(adj)
    # 2-sweep style heuristic: repeatedly jump to the farthest node found.
    best = 0
    current = nodes[0]
    for _ in range(_ESTIMATE_SWEEPS):
        layers = graph.bfs_layers(current)
        far_node = max(layers, key=layers.get)
        best = max(best, layers[far_node])
        if far_node == current:
            break
        current = far_node
    return best


def _ifub(adj: List[List[int]]) -> int:
    """Exact diameter of a connected graph given as integer adjacency lists.

    iFUB: BFS from a 4-sweep centre ``u``, then take eccentricities level
    by level from the deepest.  Once every level below ``i`` is done, a
    node at level ``i`` or above is within ``2i`` of every other such node
    (both paths run through ``u``), and within the best eccentricity found
    of every node already done.  So once the best found reaches ``2i`` no
    remaining node can beat it, and it is the diameter.
    """
    lb, u = _four_sweep(adj)
    levels = _bfs_levels(adj, u)
    lb = max(lb, len(levels) - 1)
    for i in range(len(levels) - 1, 0, -1):
        if lb >= 2 * i:
            break
        for v in levels[i]:
            lb = max(lb, len(_bfs_levels(adj, v)) - 1)
    return lb


def _four_sweep(adj: List[List[int]]) -> Tuple[int, int]:
    """4-sweep: a diameter lower bound and a node near the centre.

    Two double sweeps, from the highest-degree node and then from the
    middle of the first sweep's longest path; the second path's middle is
    the centre that iFUB starts from.
    """
    start = max(range(len(adj)), key=lambda v: len(adj[v]))
    lb = 0
    for _ in range(2):
        a = _bfs_path(adj, start)[0]
        path = _bfs_path(adj, a)
        lb = max(lb, len(path) - 1)
        start = path[len(path) // 2]
    return lb, start


def _bfs_path(adj: List[List[int]], source: int) -> List[int]:
    """A shortest path from the last node that a BFS from ``source`` reaches
    (a farthest node) back to ``source``."""
    parent = [-1] * len(adj)
    parent[source] = source
    order = [source]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    path = [order[-1]]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path


def _bfs_levels(adj: List[List[int]], source: int) -> List[List[int]]:
    """The BFS levels of ``source``: ``levels[d]`` holds the nodes at distance ``d``."""
    seen = bytearray(len(adj))
    seen[source] = 1
    levels = [[source]]
    while True:
        nxt = []
        for v in levels[-1]:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(nxt)


# --------------------------------------------------------------------------- #
# Weighted shortest paths (centralized references)
# --------------------------------------------------------------------------- #
def dijkstra(graph: WeightedDiGraph, source: NodeId) -> Dict[NodeId, float]:
    """Single-source shortest-path distances in a weighted directed multigraph.

    Unreachable nodes are absent from the returned mapping.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    dist: Dict[NodeId, float] = {source: 0.0}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, source)]
    counter = 0
    settled: Set[NodeId] = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for e in graph.out_edges(u):
            nd = d + e.weight
            if nd < dist.get(e.head, INF):
                dist[e.head] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head))
    return dist


# --------------------------------------------------------------------------- #
# Tree helper (used by the Split procedure)
# --------------------------------------------------------------------------- #
def tree_children(parent: Dict[NodeId, Optional[NodeId]]) -> Dict[NodeId, List[NodeId]]:
    """Invert a ``child -> parent`` map into a ``parent -> children`` map."""
    children: Dict[NodeId, List[NodeId]] = {u: [] for u in parent}
    for u, p in parent.items():
        if p is not None:
            children[p].append(u)
    return children
