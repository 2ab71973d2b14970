"""Augmenting-path search as a shortest alternating (2-colored) stateful walk.

An augmenting path with respect to a matching M is a simple path between two
unmatched vertices on which unmatched and matched edges alternate.  Viewed as
a walk it is exactly a 2-colored walk (paper Example 1) over the colour
palette {matched, unmatched} that starts and ends with an unmatched edge at
unmatched endpoints; in *bipartite* graphs the shortest such walk is
automatically simple, which is why the stateful-walk framework solves exact
bipartite matching (§6) but not the general case.

:func:`find_augmenting_path` performs the product-graph search of Corollary 1
from a single source (the re-inserted separator vertex of the divide-and-
conquer driver) and returns the augmenting path, if one exists.  The product
graph G_C of Lemma 5 is searched without being built: a dequeued vertex
(v, q) generates its successors on demand, in the order in which the
G_C − ⊥ that :mod:`repro.walks.product` builds lists the out-edges of
(v, q).  That order is kept because the search's tie-breaks pick which of
several shortest augmenting paths is returned, and so which matching the
driver ends with.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set

from repro.errors import GraphError
from repro.graphs.digraph import Edge
from repro.graphs.graph import Graph
from repro.walks.constraints import (
    INITIAL_STATE,
    REJECT_STATE,
    AlternatingWalkConstraint,
)

NodeId = Hashable
MatchingEdge = FrozenSet[NodeId]


def matched_vertices(matching: Iterable[MatchingEdge]) -> Set[NodeId]:
    """The set of vertices covered by a matching."""
    out: Set[NodeId] = set()
    for edge in matching:
        out |= set(edge)
    return out


def verify_matching(graph: Graph, matching: Iterable[MatchingEdge]) -> bool:
    """Check that ``matching`` is a valid matching of ``graph`` (edges exist, disjoint)."""
    seen: Set[NodeId] = set()
    for edge in matching:
        pair = tuple(edge)
        if len(pair) != 2:
            return False
        u, v = pair
        if not graph.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def find_augmenting_path(
    graph: Graph,
    matching: Set[MatchingEdge],
    source: NodeId,
    allowed: Optional[Set[NodeId]] = None,
) -> Optional[List[NodeId]]:
    """Find a shortest augmenting path starting at the unmatched vertex ``source``.

    The search is a breadth-first search from (source, ▽) over the product
    graph G_C for the alternating-walk constraint restricted to ``allowed``
    vertices (defaults to all), exactly as the distributed algorithm would
    query CDL(C_col(2)) labels from the separator vertex.  It stops at the
    first dequeued (t, unmatched) with t free.  G_C is not built: a dequeued
    (v, q) yields (w, δ_{v→w}(q)) for each arc v→w of the induced subgraph
    with δ_{v→w}(q) ≠ ⊥.  That is the order in which
    :func:`~repro.walks.product.build_product_graph` lists the out-edges of
    (v, q) in G_C − ⊥: each undirected edge (a, b) of
    ``graph.subgraph(allowed).edges()`` becomes the arc pair a→b, b→a, so
    v's arcs follow that edge order.  Like G_C − ⊥, the search holds no ⊥
    copy: ⊥ leads only to ⊥ and is never a target.  Every edge of G_C − ⊥
    weighs 1, so this FIFO order is the pop order of a Dijkstra over
    G_C − ⊥ with a (distance, push counter) heap key, and the same shortest
    path is returned.

    Returns the path as a vertex list (length ≥ 2) or ``None`` when no
    augmenting path from ``source`` exists.

    Raises :class:`GraphError` if ``source`` is matched or not allowed.
    """
    allowed = set(graph.nodes()) if allowed is None else set(allowed)
    if source not in allowed:
        raise GraphError(f"source {source!r} is not among the allowed vertices")
    covered = matched_vertices(matching)
    if source in covered:
        raise GraphError(f"source {source!r} is already matched")

    arcs: Dict[NodeId, List[Edge]] = {}
    for i, (a, b) in enumerate(graph.subgraph(allowed).edges()):
        arcs.setdefault(a, []).append(Edge(2 * i, a, b))
        arcs.setdefault(b, []).append(Edge(2 * i + 1, b, a))
    delta = AlternatingWalkConstraint(
        {tuple(edge) for edge in matching if set(edge) <= allowed}
    ).delta

    start = (source, INITIAL_STATE)
    target_state = AlternatingWalkConstraint.UNMATCHED

    pred: Dict = {start: None}
    queue = deque([start])
    best_target = None
    while queue:
        node = queue.popleft()
        vertex, state = node
        if state == target_state and vertex != source and vertex not in covered:
            # BFS dequeues in non-decreasing distance: first hit is the nearest.
            best_target = node
            break
        for e in arcs.get(vertex, ()):
            head = (e.head, delta(state, e))
            if head[1] != REJECT_STATE and head not in pred:
                pred[head] = node
                queue.append(head)

    if best_target is None:
        return None

    # Reconstruct the vertex sequence of the walk.
    path_nodes: List[NodeId] = []
    node = best_target
    while node != start:
        path_nodes.append(node[0])
        node = pred[node]
    path_nodes.append(source)
    path_nodes.reverse()

    # In bipartite graphs the shortest alternating walk between unmatched
    # vertices is simple; defend against misuse on non-bipartite inputs.
    if len(set(path_nodes)) != len(path_nodes):
        raise GraphError(
            "shortest alternating walk is not simple — the input graph is not bipartite"
        )
    return path_nodes


def augment_along_path(
    matching: Set[MatchingEdge], path: List[NodeId]
) -> Set[MatchingEdge]:
    """Flip matched/unmatched edges along an augmenting path (returns a new matching)."""
    if len(path) < 2 or len(path) % 2 != 0:
        raise GraphError("an augmenting path must have an odd number of edges")
    new_matching = set(matching)
    for i in range(len(path) - 1):
        edge = frozenset((path[i], path[i + 1]))
        if i % 2 == 0:
            new_matching.add(edge)
        else:
            new_matching.discard(edge)
    return new_matching
