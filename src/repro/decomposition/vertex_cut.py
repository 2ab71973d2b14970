"""Minimum U₁-U₂ vertex cuts.

The ``Sep`` algorithm (paper §3.2–3.3) repeatedly asks for a minimum
*vertex* cut separating the vertex sets of two split trees, rejecting the cut
if it exceeds the width guess ``t``.  The paper's definition (§3.2): a
U₁-U₂ vertex cut is a set ``Z ⊆ V(G) \\ (U₁ ∪ U₂)`` whose removal leaves U₁
and U₂ in different connected components; if U₁ and U₂ intersect or are
joined by an edge, the minimum cut size is defined to be ∞.

The implementation is the classical node-splitting reduction to edge
connectivity: every cuttable vertex ``v`` becomes an arc ``v_in → v_out`` of
capacity 1, original edges get infinite capacity, and a BFS-augmenting
(Edmonds–Karp) max-flow bounded by ``limit + 1`` augmentations decides whether
a cut of size ≤ ``limit`` exists and extracts it from the residual graph.
In the distributed algorithm this is the MVC(t) primitive of Lemma 8, costing
Õ(t) part-wise aggregations; ``BalancedSeparator._sep_once`` charges its
sampled pairs together as MVC(h, t) through
:meth:`~repro.core.rounds.CostModel.min_vertex_cut_multi`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph

NodeId = Hashable

#: Sentinel capacity for arcs that must never be saturated (graph edges and
#: terminal vertices).  Any value larger than |V| works for vertex cuts.
_INF_CAP = 1 << 30


class _FlowNetwork:
    """A tiny adjacency-list max-flow network with integer capacities."""

    def __init__(self) -> None:
        self.cap: Dict[Tuple[int, int], int] = {}
        self.adj: Dict[int, List[int]] = {}

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        if (u, v) not in self.cap:
            self.adj.setdefault(u, []).append(v)
            self.adj.setdefault(v, []).append(u)
            self.cap[(u, v)] = 0
            self.cap.setdefault((v, u), 0)
        self.cap[(u, v)] += capacity

    def bfs_augment(self, source: int, sink: int) -> int:
        """Find one augmenting path (BFS) and push flow along it; return the amount."""
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in self.adj.get(u, ()):
                if v not in parent and self.cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return 0
        # Bottleneck along the path.
        bottleneck = _INF_CAP
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, self.cap[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            self.cap[(u, v)] -= bottleneck
            self.cap[(v, u)] += bottleneck
            v = u
        return bottleneck

    def reachable_from(self, source: int) -> Set[int]:
        """Vertices reachable from ``source`` in the residual network."""
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self.adj.get(u, ()):
                if v not in seen and self.cap.get((u, v), 0) > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


def minimum_vertex_cut(
    graph: Graph,
    side_a: Iterable[NodeId],
    side_b: Iterable[NodeId],
    limit: Optional[int] = None,
) -> Optional[Set[NodeId]]:
    """Return a minimum U₁-U₂ vertex cut of size ≤ ``limit``, or ``None``.

    ``None`` is returned both when the minimum cut exceeds ``limit`` and when
    the cut size is ∞ by definition (U₁ ∩ U₂ ≠ ∅ or an edge joins U₁ and U₂),
    mirroring the "output −1" convention of the MVC task in Lemma 8.
    With ``limit=None`` the true minimum cut is returned whenever it is finite.

    The cut never contains vertices of U₁ or U₂.
    """
    a = set(side_a)
    b = set(side_b)
    if not a or not b:
        raise GraphError("both terminal sets must be non-empty")
    for u in a | b:
        if not graph.has_node(u):
            raise GraphError(f"terminal {u!r} not in graph")
    if a & b:
        return None
    for u in a:
        for v in graph.neighbors(u):
            if v in b:
                return None

    if limit is None:
        limit = graph.num_nodes()

    # Node splitting: index 2*i is v_in, 2*i+1 is v_out.
    nodes = sorted(graph.nodes(), key=str)
    index = {u: i for i, u in enumerate(nodes)}
    net = _FlowNetwork()
    SOURCE = 2 * len(nodes)
    SINK = SOURCE + 1

    for u in nodes:
        i = index[u]
        cap = _INF_CAP if (u in a or u in b) else 1
        net.add_arc(2 * i, 2 * i + 1, cap)
    for u, v in graph.edges():
        iu, iv = index[u], index[v]
        net.add_arc(2 * iu + 1, 2 * iv, _INF_CAP)
        net.add_arc(2 * iv + 1, 2 * iu, _INF_CAP)
    for u in a:
        net.add_arc(SOURCE, 2 * index[u], _INF_CAP)
    for v in b:
        net.add_arc(2 * index[v] + 1, SINK, _INF_CAP)

    flow = 0
    while flow <= limit:
        pushed = net.bfs_augment(SOURCE, SINK)
        if pushed == 0:
            break
        flow += pushed
    if flow > limit:
        return None

    reachable = net.reachable_from(SOURCE)
    cut: Set[NodeId] = set()
    for u in nodes:
        i = index[u]
        if u in a or u in b:
            continue
        if 2 * i in reachable and 2 * i + 1 not in reachable:
            cut.add(u)
    return cut


def is_vertex_cut(graph: Graph, side_a: Iterable[NodeId], side_b: Iterable[NodeId], cut: Iterable[NodeId]) -> bool:
    """Check that removing ``cut`` disconnects every vertex of U₁ from every vertex of U₂."""
    a = set(side_a)
    b = set(side_b)
    cut_set = set(cut)
    if cut_set & (a | b):
        return False
    remaining = graph.without_nodes(cut_set)
    for comp in remaining.connected_components():
        if comp & a and comp & b:
            return False
    return True
