"""The product graph G_C of a graph and a stateful walk constraint (paper §5.2).

Vertices of G_C are pairs (v, q) ∈ V(G) × Q; an edge ((u, i), (v, j)) exists
when some input edge e = (u, v) satisfies δ_e(i) = j (carrying e's weight), or
when u = v, i ≠ ⊥ and j = ⊥ (the zero-weight "give up" edges that keep the
communication diameter of ⟦G_C⟧ within O(D)).  Lemma 5: walks of C with state
q from s to t correspond exactly to walks from (s, ▽) to (t, q) in G_C, with
the same weight.

The module also *lifts* a tree decomposition of ⟦G⟧ to one of ⟦G_C − ⊥⟧ by
replacing every vertex v with its accepting copies {v} × (Q − {⊥}) — the
decomposition argument used in §5.2 to bound the treewidth of G_C by
O(|Q|·τ), restricted to the part of G_C that the constrained distance
labeling labels — so that the labeling never needs to decompose the (larger)
product graph from scratch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.rounds import RoundLedger
from repro.decomposition.tree_decomposition import (
    DecompositionNode,
    DecompositionResult,
    TreeDecomposition,
)
from repro.errors import ConstraintError, GraphError
from repro.graphs.digraph import Edge, WeightedDiGraph
from repro.walks.constraints import (
    INITIAL_STATE,
    REJECT_STATE,
    State,
    StatefulWalkConstraint,
)

NodeId = Hashable
ProductNode = Tuple[NodeId, State]
INF = math.inf


@dataclass
class ProductGraph:
    """The product graph G_C together with bookkeeping for walk recovery.

    Attributes
    ----------
    graph:
        The weighted directed product graph on V(G) × Q.
    constraint:
        The stateful walk constraint used to build it.
    base:
        The original input instance G.
    edge_origin:
        Maps each product-graph edge id to the originating input edge id
        (``None`` for the structural (u, i) → (u, ⊥) edges).
    """

    graph: WeightedDiGraph
    constraint: StatefulWalkConstraint
    base: WeightedDiGraph
    edge_origin: Dict[int, Optional[int]]

    def node(self, v: NodeId, state: State) -> ProductNode:
        return (v, state)

    def num_states(self) -> int:
        return self.constraint.state_count()

    def accepting_graph(self) -> WeightedDiGraph:
        """G_C − ⊥: the subgraph on the accepting copies (v, q), q ≠ ⊥.

        This is the part of G_C that the constrained distance labeling
        labels, and :func:`lift_tree_decomposition` returns a decomposition
        of it (not of the whole ``graph``).  It can be disconnected: with no
        edge of label 1, the count-0 and count-1 layers of a count-c
        constraint share no arc.
        """
        return self.graph.subgraph(v for v in self.graph.nodes() if v[1] != REJECT_STATE)


def build_product_graph(
    instance: WeightedDiGraph, constraint: StatefulWalkConstraint
) -> ProductGraph:
    """Construct G_C for ``instance`` and ``constraint`` (Lemma 5)."""
    constraint.validate(instance)
    states = constraint.states()
    product = WeightedDiGraph()
    edge_origin: Dict[int, Optional[int]] = {}

    for v in instance.nodes():
        for q in states:
            product.add_node((v, q))

    # Condition (1): transitions along input edges.
    for e in instance.edges():
        for q in states:
            nxt = constraint.delta(q, e)
            eid = product.add_edge((e.tail, q), (e.head, nxt), weight=e.weight, label=e.label)
            edge_origin[eid] = e.eid

    # Condition (2): (u, i) → (u, ⊥) for i ≠ ⊥ (zero weight; keeps D(⟦G_C⟧) = O(D)).
    for v in instance.nodes():
        for q in states:
            if q == REJECT_STATE:
                continue
            eid = product.add_edge((v, q), (v, REJECT_STATE), weight=0.0)
            edge_origin[eid] = None

    return ProductGraph(
        graph=product, constraint=constraint, base=instance, edge_origin=edge_origin
    )


def lift_tree_decomposition(
    decomposition: DecompositionResult, constraint: StatefulWalkConstraint
) -> DecompositionResult:
    """Lift a decomposition of ⟦G⟧ to one of ⟦G_C − ⊥⟧ (§5.2).

    The result decomposes :meth:`ProductGraph.accepting_graph`, not the
    whole G_C.  Every vertex v of every bag / subgraph is replaced by its
    accepting copies {v} × (Q − {⊥}), the part of U_Q(v) that the
    constrained labeling labels: ⊥ is absorbing (Definition 2, condition
    3), so by Lemma 5 no walk between two non-⊥ product vertices visits a
    (v, ⊥) copy.  The tree structure and the round accounting are unchanged
    (the lift is a local relabeling, costing no communication), and
    ``width_guess`` is scaled by the full |Q|, so Theorem 3's |Q| stays in
    every charge made with it.
    """
    states = constraint.accepting_states()
    base_td = decomposition.decomposition
    lifted = TreeDecomposition()
    for label in sorted(base_td.labels(), key=len):
        node = base_td.nodes[label]
        lifted_node = DecompositionNode(
            label=node.label,
            bag=frozenset((v, q) for v in node.bag for q in states),
            graph_vertices=frozenset(
                (v, q) for v in node.graph_vertices for q in states
            ),
            free_vertices=frozenset(
                (v, q) for v in node.free_vertices for q in states
            ),
            separator=frozenset((v, q) for v in node.separator for q in states),
            parent=node.parent,
            is_leaf=node.is_leaf,
        )
        lifted._add_node(lifted_node)
    lifted._finalize()
    ledger = RoundLedger()
    ledger.merge(decomposition.ledger)
    return DecompositionResult(
        decomposition=lifted,
        rounds=decomposition.rounds,
        ledger=ledger,
        width_guess=decomposition.width_guess * max(1, constraint.state_count()),
        separator_calls=decomposition.separator_calls,
    )


def shortest_constrained_walk(
    product: ProductGraph,
    source: NodeId,
    target: NodeId,
    target_state: State,
) -> Optional[Tuple[float, List[Edge]]]:
    """Shortest walk in C(q) from ``source`` to ``target`` (Corollary 1).

    Runs Dijkstra on the product graph from (source, ▽) to (target, q) and
    maps the product edges back to input edges.  Returns ``(length, edges)``
    or ``None`` when no such walk exists.
    """
    if target_state == REJECT_STATE:
        raise ConstraintError("the reject state is not a valid walk target")
    start: ProductNode = (source, INITIAL_STATE)
    goal: ProductNode = (target, target_state)
    graph = product.graph
    if not graph.has_node(start) or not graph.has_node(goal):
        raise GraphError("source or target not present in the product graph")

    dist: Dict[ProductNode, float] = {start: 0.0}
    pred: Dict[ProductNode, Tuple[ProductNode, int]] = {}
    heap: List[Tuple[float, int, ProductNode]] = [(0.0, 0, start)]
    counter = 0
    settled: Set[ProductNode] = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == goal:
            break
        settled.add(u)
        for e in graph.out_edges(u):
            nd = d + e.weight
            if nd < dist.get(e.head, INF):
                dist[e.head] = nd
                pred[e.head] = (u, e.eid)
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head))

    if goal not in dist:
        return None
    # Reconstruct the walk, skipping structural edges (they never appear on a
    # path to a non-reject state anyway).
    edges: List[Edge] = []
    node = goal
    while node != start:
        prev, eid = pred[node]
        origin = product.edge_origin.get(eid)
        if origin is not None:
            edges.append(product.base.edge(origin))
        node = prev
    edges.reverse()
    return dist[goal], edges
