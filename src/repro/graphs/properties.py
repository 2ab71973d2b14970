"""Graph properties and centralized shortest-path reference routines.

These are *substrate* routines: the round-cost model needs the unweighted
diameter ``D`` of the communication network (paper §2.1), the tree-splitting
procedure needs subtree sizes and centroids, and the test suite needs exact
centralized distances (Dijkstra) to validate the distributed distance labels.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph

NodeId = Hashable
INF = math.inf


# --------------------------------------------------------------------------- #
# Unweighted (communication-network) properties
# --------------------------------------------------------------------------- #
def eccentricity(graph: Graph, source: NodeId) -> int:
    """Return the unweighted eccentricity of ``source`` within its component."""
    layers = graph.bfs_layers(source)
    return max(layers.values(), default=0)


def diameter(graph: Graph, exact: bool = True, sample: int = 8) -> int:
    """Return the unweighted diameter ``D`` of ``graph``.

    Parameters
    ----------
    exact:
        If ``True`` (default) compute the exact diameter by iFUB (Crescenzi,
        Grossi, Habib, Lanzi and Marino, "On computing the diameter of
        real-world undirected graphs", TCS 2013) over integer adjacency
        lists built once per call: a few BFS runs on grids and low-treewidth
        graphs, at most one per node.  If ``False``, run a 2-sweep
        style estimate from ``sample`` BFS sources, which is a lower bound
        on the diameter and within a factor 2 of it; useful for large
        benchmark instances, where the exact worst case of one BFS per node
        would dominate runtime.
    sample:
        Number of BFS sweeps used when ``exact`` is ``False``.

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
    for _ in range(max(1, sample)):
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


def radius(graph: Graph) -> int:
    """Return the unweighted radius of a connected graph."""
    if not graph.is_connected():
        raise GraphError("radius is undefined for a disconnected graph")
    return min(eccentricity(graph, u) for u in graph.nodes())


def center(graph: Graph) -> List[NodeId]:
    """Return the nodes of minimum eccentricity."""
    if not graph.is_connected():
        raise GraphError("center is undefined for a disconnected graph")
    ecc = {u: eccentricity(graph, u) for u in graph.nodes()}
    r = min(ecc.values())
    return [u for u, e in ecc.items() if e == r]


def largest_component(graph: Graph) -> Set[NodeId]:
    """Return the node set of the largest connected component."""
    comps = graph.connected_components()
    if not comps:
        return set()
    return max(comps, key=len)


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


def dijkstra_with_paths(
    graph: WeightedDiGraph, source: NodeId
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """Dijkstra returning distances and a shortest-path predecessor map."""
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    dist: Dict[NodeId, float] = {source: 0.0}
    pred: Dict[NodeId, Optional[NodeId]] = {source: None}
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
                pred[e.head] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head))
    return dist, pred


def all_pairs_shortest_paths(graph: WeightedDiGraph) -> Dict[NodeId, Dict[NodeId, float]]:
    """Exact all-pairs shortest-path distances (Dijkstra from every node)."""
    return {u: dijkstra(graph, u) for u in graph.nodes()}


def undirected_dijkstra(graph: Graph, source: NodeId) -> Dict[NodeId, float]:
    """Weighted single-source distances in an undirected :class:`Graph`."""
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
        for v in graph.neighbors(u):
            nd = d + graph.weight(u, v)
            if nd < dist.get(v, INF):
                dist[v] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return dist


def weighted_diameter(graph: WeightedDiGraph) -> float:
    """Return the maximum finite pairwise weighted distance (directed)."""
    best = 0.0
    for u in graph.nodes():
        dist = dijkstra(graph, u)
        for d in dist.values():
            if d > best:
                best = d
    return best


# --------------------------------------------------------------------------- #
# Tree helpers (used by the Split procedure and the simulator)
# --------------------------------------------------------------------------- #
def tree_subtree_sizes(
    parent: Dict[NodeId, Optional[NodeId]], weight: Optional[Dict[NodeId, int]] = None
) -> Dict[NodeId, int]:
    """Given a ``child -> parent`` tree map, return the (weighted) subtree size of each node.

    ``weight`` maps each node to its contribution (default 1); the paper uses
    μ_X weights where only nodes of ``X`` count.
    """
    children: Dict[NodeId, List[NodeId]] = {u: [] for u in parent}
    roots = []
    for u, p in parent.items():
        if p is None:
            roots.append(u)
        else:
            children[p].append(u)
    sizes: Dict[NodeId, int] = {}
    # Iterative post-order to avoid recursion-depth limits on path-like trees.
    for root in roots:
        stack: List[Tuple[NodeId, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                w = 1 if weight is None else weight.get(node, 0)
                sizes[node] = w + sum(sizes[c] for c in children[node])
            else:
                stack.append((node, True))
                for c in children[node]:
                    stack.append((c, False))
    return sizes


def tree_children(parent: Dict[NodeId, Optional[NodeId]]) -> Dict[NodeId, List[NodeId]]:
    """Invert a ``child -> parent`` map into a ``parent -> children`` map."""
    children: Dict[NodeId, List[NodeId]] = {u: [] for u in parent}
    for u, p in parent.items():
        if p is not None:
            children[p].append(u)
    return children


def tree_centroid(
    parent: Dict[NodeId, Optional[NodeId]], weight: Optional[Dict[NodeId, int]] = None
) -> NodeId:
    """Return a weighted centroid of the tree given as a ``child -> parent`` map.

    The centroid ``c`` is a vertex whose removal leaves components of weighted
    size at most half of the total weight (paper §3.3, Split step).  Ties are
    broken deterministically by string representation.
    """
    if not parent:
        raise GraphError("cannot take the centroid of an empty tree")
    children = tree_children(parent)
    sizes = tree_subtree_sizes(parent, weight)
    roots = [u for u, p in parent.items() if p is None]
    if len(roots) != 1:
        raise GraphError("tree_centroid expects a single tree (exactly one root)")
    root = roots[0]
    total = sizes[root]
    best: Optional[NodeId] = None
    best_key: Optional[Tuple[int, str]] = None
    for u in parent:
        # Largest piece after removing u: max over child subtrees and the "rest".
        pieces = [sizes[c] for c in children[u]]
        own = 1 if weight is None else weight.get(u, 0)
        pieces.append(total - sizes[u])
        worst = max(pieces) if pieces else 0
        key = (worst, str(u))
        if best_key is None or key < best_key:
            best_key = key
            best = u
        # own weight intentionally unused beyond size bookkeeping
        _ = own
    assert best is not None
    return best


def reroot_tree(
    parent: Dict[NodeId, Optional[NodeId]], new_root: NodeId
) -> Dict[NodeId, Optional[NodeId]]:
    """Return the same tree re-rooted at ``new_root`` (child -> parent map)."""
    if new_root not in parent:
        raise GraphError(f"node {new_root!r} not in tree")
    # Build adjacency and BFS from the new root.
    adj: Dict[NodeId, Set[NodeId]] = {u: set() for u in parent}
    for u, p in parent.items():
        if p is not None:
            adj[u].add(p)
            adj[p].add(u)
    new_parent: Dict[NodeId, Optional[NodeId]] = {new_root: None}
    queue = deque([new_root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in new_parent:
                new_parent[v] = u
                queue.append(v)
    if len(new_parent) != len(parent):
        raise GraphError("tree is not connected; cannot re-root")
    return new_parent
