"""Simple undirected graphs.

:class:`Graph` models the *communication network* of the CONGEST model
(paper §2.1): an undirected, unweighted simple graph whose vertices are
computational nodes and whose edges are communication links.  It also serves
as the object on which separators and tree decompositions are computed
(paper §2.2, §3), since the treewidth of a directed input instance is defined
as the treewidth of its underlying simple undirected graph ⟦G⟧.

The implementation is a thin adjacency-set structure optimised for the access
patterns of the library: neighbourhood iteration, induced subgraphs, connected
components and BFS.  Optional per-edge weights are supported because several
applications (girth, shortest paths on undirected instances) operate on
weighted undirected graphs; weights default to 1.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError

NodeId = Hashable


def _edge_key(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Canonical key for an undirected edge (order-independent and deterministic).

    The common case — totally ordered node ids — takes the fast native
    comparison.  Both directions are checked so partially ordered types
    (e.g. frozensets, where ``<=`` is subset) cannot yield two different
    keys for the same pair; incomparable or mixed-type ids fall back to
    sorting by ``(type name, repr)``, which orders any hashables stably.
    """
    try:
        if u <= v:
            return (u, v)
        if v <= u:
            return (v, u)
    except (TypeError, ValueError):
        pass
    a, b = sorted((u, v), key=lambda x: (str(type(x)), repr(x)))
    return (a, b)


class Graph:
    """A simple undirected graph with optional edge weights.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples.

    Notes
    -----
    Self-loops are rejected and parallel edges collapse onto a single edge
    (keeping the minimum weight), matching the paper's definition of ⟦G⟧.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[NodeId]] = None,
        edges: Optional[Iterable[Tuple]] = None,
    ) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        self._weights: Dict[Tuple[NodeId, NodeId], float] = {}
        # Mutation counter; used to invalidate the cached indexed (CSR) view.
        self._version = 0
        self._indexed_cache = None
        self._indexed_version = -1
        if nodes is not None:
            for u in nodes:
                self.add_node(u)
        if edges is not None:
            for e in edges:
                if len(e) == 2:
                    self.add_edge(e[0], e[1])
                else:
                    self.add_edge(e[0], e[1], weight=e[2])

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, u: NodeId) -> None:
        """Add node ``u`` (no-op if it already exists)."""
        if u not in self._adj:
            self._adj[u] = set()
            self._version += 1

    def add_edge(self, u: NodeId, v: NodeId, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with the given weight.

        Adding an existing edge keeps the smaller of the old and new weights
        (multi-edges collapse, as in the definition of ⟦G⟧).
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed in a simple graph (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._version += 1
        key = _edge_key(u, v)
        if key in self._weights:
            self._weights[key] = min(self._weights[key], weight)
        else:
            self._weights[key] = weight

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``."""
        if v not in self._adj.get(u, ()):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._weights.pop(_edge_key(u, v), None)
        self._version += 1

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        g = Graph()
        g._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        g._weights = dict(self._weights)
        g._version = 1
        return g

    def to_indexed(self):
        """Return the cached CSR view of this graph (see :mod:`repro.graphs.indexed`).

        The view is rebuilt lazily whenever the graph has been mutated since
        the last call; callers must treat it as an immutable snapshot.
        """
        if self._indexed_cache is None or self._indexed_version != self._version:
            from repro.graphs.indexed import IndexedGraph

            self._indexed_cache = IndexedGraph(self)
            self._indexed_version = self._version
        return self._indexed_cache

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def nodes(self) -> List[NodeId]:
        """Return a list of all nodes."""
        return list(self._adj.keys())

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Return a list of all edges as canonical ``(u, v)`` pairs."""
        return list(self._weights.keys())

    def weighted_edges(self) -> List[Tuple[NodeId, NodeId, float]]:
        """Return all edges with their weights."""
        return [(u, v, w) for (u, v), w in self._weights.items()]

    def has_node(self, u: NodeId) -> bool:
        return u in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._adj.get(u, ())

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Return the weight of the edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        return self._weights[_edge_key(u, v)]

    def neighbors(self, u: NodeId) -> Set[NodeId]:
        """Return the (set of) neighbours of ``u``."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} not in graph")
        return self._adj[u]

    def degree(self, u: NodeId) -> int:
        return len(self.neighbors(u))

    def num_nodes(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return len(self._weights)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, u: NodeId) -> bool:
        return u in self._adj

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes()}, m={self.num_edges()})"

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        missing = [u for u in keep if u not in self._adj]
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, missing))[:5]}")
        # Build the internal structures directly (no per-edge add_edge calls):
        # adjacency by set intersection, then weights either by walking the
        # kept adjacency (small subgraph of a large graph) or by filtering
        # the canonical edge-key dict at C speed (large subgraph).
        g = Graph()
        g._adj = {u: self._adj[u] & keep for u in keep}
        kept_vol = sum(len(nbrs) for nbrs in g._adj.values())  # 2 × kept edges
        sw = self._weights
        # The Python-level walk pays ~a per-arc _edge_key call; the C-speed
        # dict filter pays a much cheaper per-edge membership test over ALL
        # m parent edges.  Walk only when the subgraph is far smaller.
        if 4 * kept_vol < len(sw):
            weights: Dict[Tuple[NodeId, NodeId], float] = {}
            for u, nbrs in g._adj.items():
                for v in nbrs:
                    k = _edge_key(u, v)
                    if k not in weights:
                        weights[k] = sw[k]
            g._weights = weights
        else:
            g._weights = {k: w for k, w in sw.items() if k[0] in keep and k[1] in keep}
        g._version = 1
        return g

    def without_nodes(self, removed: Iterable[NodeId]) -> "Graph":
        """Return the subgraph induced by all nodes *except* ``removed``."""
        removed = set(removed)
        return self.subgraph(u for u in self._adj if u not in removed)

    # ------------------------------------------------------------------ #
    # Traversal / connectivity
    # ------------------------------------------------------------------ #
    def bfs_order(self, source: NodeId) -> List[NodeId]:
        """Return nodes reachable from ``source`` in BFS order."""
        if source not in self._adj:
            raise GraphError(f"node {source!r} not in graph")
        seen = {source}
        order = [source]
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    queue.append(v)
        return order

    def bfs_layers(self, source: NodeId) -> Dict[NodeId, int]:
        """Return hop distances from ``source`` to every reachable node."""
        if source not in self._adj:
            raise GraphError(f"node {source!r} not in graph")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def connected_components(self) -> List[Set[NodeId]]:
        """Return the list of connected components (as sets of nodes)."""
        seen: Set[NodeId] = set()
        components: List[Set[NodeId]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = set(self.bfs_order(start))
            seen |= comp
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        """Return ``True`` iff the graph is connected (empty graphs count as connected)."""
        if not self._adj:
            return True
        return len(self.bfs_order(next(iter(self._adj)))) == len(self._adj)

    def spanning_tree(self, root: Optional[NodeId] = None) -> Dict[NodeId, Optional[NodeId]]:
        """Return a BFS spanning tree as a ``child -> parent`` map (root maps to ``None``).

        Only the connected component of ``root`` is covered.
        """
        if not self._adj:
            return {}
        if root is None:
            root = next(iter(self._adj))
        parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def is_bipartite(self) -> bool:
        """Return ``True`` iff the graph is bipartite."""
        return self.bipartition() is not None

    def bipartition(self) -> Optional[Tuple[Set[NodeId], Set[NodeId]]]:
        """Return a 2-colouring ``(left, right)`` of the nodes, or ``None`` if not bipartite."""
        color: Dict[NodeId, int] = {}
        for start in self._adj:
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return None
        left = {u for u, c in color.items() if c == 0}
        right = {u for u, c in color.items() if c == 1}
        return left, right
