"""Weighted directed multigraphs.

:class:`WeightedDiGraph` models the *input instances* of the paper's problems:
directed, weighted multigraphs ``G = (V(G), E(G), γ_G)`` with an edge-identity
map γ (paper §5.1).  Parallel edges are first-class citizens (each edge has its
own id), which the stateful-walk framework and the girth reduction rely on.

The *communication network* implied by an instance is its underlying simple
undirected graph ⟦G⟧ — obtained by :meth:`WeightedDiGraph.underlying_graph` —
exactly as defined in paper §2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph

NodeId = Hashable


@dataclass(frozen=True)
class Edge:
    """A single directed edge of a multigraph.

    Attributes
    ----------
    eid:
        Unique edge identifier (integer assigned by the graph).
    tail, head:
        The ordered endpoint pair γ(e) = (tail, head).
    weight:
        Non-negative edge cost (paper: c_G : E(G) → ℕ; we allow floats).
    label:
        Optional application label (e.g. colour for c-colored walks, the 0/1
        count label for count-c walks, or matched/unmatched for matching).
    """

    eid: int
    tail: NodeId
    head: NodeId
    weight: float = 1.0
    label: Any = None

    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.tail, self.head)

    def relabeled(self, label: Any) -> "Edge":
        """Return a copy of this edge carrying a different label."""
        return Edge(self.eid, self.tail, self.head, self.weight, label)


class WeightedDiGraph:
    """A weighted directed multigraph with stable integer edge ids.

    The class supports the operations needed by the framework: incidence
    queries, reversal, per-edge relabeling, conversion to the underlying
    simple undirected communication graph, and conversion to/from lists of
    edges.  It is deliberately *not* a general-purpose graph library — see
    :mod:`repro.graphs.convert` for networkx interoperability.
    """

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None) -> None:
        self._nodes: Set[NodeId] = set()
        self._edges: Dict[int, Edge] = {}
        self._out: Dict[NodeId, List[int]] = {}
        self._in: Dict[NodeId, List[int]] = {}
        self._next_eid = 0
        # True while every edge id was larger than all earlier ones, so that
        # ``edges()`` (insertion) order is ascending edge-id order.
        self._ascending_eids = True
        self._version = 0
        self._ug_cache: Optional[Graph] = None
        self._ug_version = -1
        if nodes is not None:
            for u in nodes:
                self.add_node(u)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, u: NodeId) -> None:
        if u not in self._nodes:
            self._nodes.add(u)
            self._out[u] = []
            self._in[u] = []
            self._version += 1

    def add_edge(
        self,
        tail: NodeId,
        head: NodeId,
        weight: float = 1.0,
        label: Any = None,
        eid: Optional[int] = None,
    ) -> int:
        """Add a directed edge and return its edge id.

        Parallel edges and self-loops are allowed (self-loops are ignored by
        the communication graph but may appear in intermediate constructions).
        Negative, NaN and non-numeric weights are rejected — all of the
        paper's problems assume non-negative costs.
        """
        try:
            valid = weight >= 0
        except TypeError:
            valid = False
        if not valid:
            raise GraphError(
                f"edge weight must be a non-negative number, got {weight!r}"
            )
        self.add_node(tail)
        self.add_node(head)
        if eid is None:
            eid = self._next_eid
        if eid in self._edges:
            raise GraphError(f"duplicate edge id {eid}")
        if eid < self._next_eid:
            self._ascending_eids = False
        self._next_eid = max(self._next_eid, eid) + 1
        edge = Edge(eid, tail, head, float(weight), label)
        self._edges[eid] = edge
        self._out[tail].append(eid)
        self._in[head].append(eid)
        self._version += 1
        return eid

    def add_undirected_edge(
        self, u: NodeId, v: NodeId, weight: float = 1.0, label: Any = None
    ) -> Tuple[int, int]:
        """Add an undirected edge as a pair of antiparallel directed edges.

        Returns the pair of new edge ids ``(u→v, v→u)``.
        """
        e1 = self.add_edge(u, v, weight=weight, label=label)
        e2 = self.add_edge(v, u, weight=weight, label=label)
        return e1, e2

    def remove_edge(self, eid: int) -> None:
        edge = self._edges.pop(eid, None)
        if edge is None:
            raise GraphError(f"edge id {eid} not in graph")
        self._out[edge.tail].remove(eid)
        self._in[edge.head].remove(eid)
        self._version += 1

    def set_label(self, eid: int, label: Any) -> None:
        """Replace the label of edge ``eid`` in place."""
        edge = self._edges.get(eid)
        if edge is None:
            raise GraphError(f"edge id {eid} not in graph")
        self._edges[eid] = edge.relabeled(label)

    def copy(self) -> "WeightedDiGraph":
        # Direct structural copy: Edge objects are immutable and can be shared.
        g = WeightedDiGraph()
        g._nodes = set(self._nodes)
        g._edges = dict(self._edges)
        g._out = {u: list(eids) for u, eids in self._out.items()}
        g._in = {u: list(eids) for u, eids in self._in.items()}
        g._next_eid = self._next_eid
        g._ascending_eids = self._ascending_eids
        return g

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def nodes(self) -> List[NodeId]:
        return list(self._nodes)

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def edge(self, eid: int) -> Edge:
        if eid not in self._edges:
            raise GraphError(f"edge id {eid} not in graph")
        return self._edges[eid]

    def has_node(self, u: NodeId) -> bool:
        return u in self._nodes

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, u: NodeId) -> List[Edge]:
        """Return outgoing edges of ``u`` (paper notation E^out_G(u))."""
        if u not in self._nodes:
            raise GraphError(f"node {u!r} not in graph")
        return [self._edges[eid] for eid in self._out[u]]

    def in_edges(self, u: NodeId) -> List[Edge]:
        if u not in self._nodes:
            raise GraphError(f"node {u!r} not in graph")
        return [self._edges[eid] for eid in self._in[u]]

    def successors(self, u: NodeId) -> Set[NodeId]:
        return {e.head for e in self.out_edges(u)}

    def predecessors(self, u: NodeId) -> Set[NodeId]:
        return {e.tail for e in self.in_edges(u)}

    def out_degree(self, u: NodeId) -> int:
        return len(self._out[u])

    def in_degree(self, u: NodeId) -> int:
        return len(self._in[u])

    def max_multiplicity(self) -> int:
        """Return the maximum edge multiplicity p_max between any ordered pair."""
        counts: Dict[Tuple[NodeId, NodeId], int] = {}
        for e in self._edges.values():
            key = (e.tail, e.head)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def total_weight(self) -> float:
        return sum(e.weight for e in self._edges.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, u: NodeId) -> bool:
        return u in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedDiGraph(n={self.num_nodes()}, m={self.num_edges()})"

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def reverse(self) -> "WeightedDiGraph":
        """Return the graph with every edge reversed (same edge ids)."""
        g = WeightedDiGraph(self._nodes)
        for e in self._edges.values():
            g.add_edge(e.head, e.tail, weight=e.weight, label=e.label, eid=e.eid)
        return g

    def subgraph(self, nodes: Iterable[NodeId]) -> "WeightedDiGraph":
        """Return the subgraph induced by ``nodes`` (edge ids preserved).

        Reads only the kept nodes' own incidence lists: O(vol + k log k) for
        kept-node degree sum ``vol`` and ``k`` kept edges, instead of a scan
        of all m edges.  Per-node edge order, ``edges()`` order, edge ids and
        the next free edge id are the parent's.  A parent whose edge ids were
        not added in ascending order still pays O(m), to recover its
        ``edges()`` order.
        """
        keep = set(nodes)
        missing = keep - self._nodes
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, missing))[:5]}")
        # Direct structural construction: immutable Edge objects are shared,
        # and each node's lists keep the parent's (deterministic) order.
        g = WeightedDiGraph(keep)
        edges = self._edges
        out, inn = self._out, self._in
        for u in keep:
            g._out[u] = [eid for eid in out[u] if edges[eid].head in keep]
            g._in[u] = [eid for eid in inn[u] if edges[eid].tail in keep]
        if self._ascending_eids:
            kept = sorted(eid for eids in g._out.values() for eid in eids)
            g._edges = {eid: edges[eid] for eid in kept}
        else:
            g._edges = {
                eid: e for eid, e in edges.items() if e.tail in keep and e.head in keep
            }
            g._ascending_eids = False
        g._next_eid = self._next_eid
        return g

    def underlying_graph(self) -> Graph:
        """Return the communication network ⟦G⟧ (paper §2.1).

        Orientation, weights, multiplicities and self-loops are dropped; the
        result is a simple unweighted undirected graph on the same node set.

        The result is a version-cached snapshot (like :meth:`Graph.to_indexed`)
        shared by every caller until this digraph is mutated — treat it as
        read-only.  Sharing matters operationally: repeated simulator helper
        calls (e.g. ``distributed_bellman_ford`` on one instance) then reuse
        one CSR snapshot and its cached numpy mirror instead of rebuilding
        them every run.
        """
        if self._ug_cache is not None and self._ug_version == self._version:
            return self._ug_cache
        from repro.graphs.graph import _edge_key

        g = Graph(nodes=self._nodes)
        adj = g._adj
        weights = g._weights
        for e in self._edges.values():
            t, h = e.tail, e.head
            if t != h and h not in adj[t]:
                adj[t].add(h)
                adj[h].add(t)
                weights[_edge_key(t, h)] = 1.0
        g._version += 1
        self._ug_cache = g
        self._ug_version = self._version
        return g

    def underlying_weighted_graph(self) -> Graph:
        """Return the undirected weighted simple graph (min weight over parallel edges)."""
        g = Graph(nodes=self._nodes)
        for e in self._edges.values():
            if e.tail == e.head:
                continue
            if g.has_edge(e.tail, e.head):
                # Graph.add_edge keeps the minimum weight on duplicates.
                g.add_edge(e.tail, e.head, weight=e.weight)
            else:
                g.add_edge(e.tail, e.head, weight=e.weight)
        return g

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_undirected(cls, graph: Graph, default_weight: float = 1.0) -> "WeightedDiGraph":
        """Build a directed instance from an undirected graph.

        Every undirected edge ``{u, v}`` of weight ``w`` becomes the pair of
        antiparallel directed edges ``u→v`` and ``v→u`` with weight ``w``.
        """
        g = cls(graph.nodes())
        for u, v, w in graph.weighted_edges():
            g.add_undirected_edge(u, v, weight=w if w is not None else default_weight)
        return g

    @classmethod
    def from_edge_list(
        cls, edges: Iterable[Tuple], directed: bool = True
    ) -> "WeightedDiGraph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        g = cls()
        for t in edges:
            if len(t) == 2:
                u, v, w = t[0], t[1], 1.0
            else:
                u, v, w = t[0], t[1], t[2]
            if directed:
                g.add_edge(u, v, weight=w)
            else:
                g.add_undirected_edge(u, v, weight=w)
        return g
