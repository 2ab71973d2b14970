"""The product graph G_C of a graph and a stateful walk constraint (paper §5.2).

Vertices of G_C are pairs (v, q) ∈ V(G) × Q; an edge ((u, i), (v, j)) exists
when some input edge e = (u, v) satisfies δ_e(i) = j (carrying e's weight), or
when u = v, i ≠ ⊥ and j = ⊥ (the zero-weight "give up" edges that keep the
communication diameter of ⟦G_C⟧ within O(D)).  Lemma 5: walks of C with state
q from s to t correspond exactly to walks from (s, ▽) to (t, q) in G_C, with
the same weight.

:func:`build_product_graph` builds G_C − ⊥, the accepting copies
{v} × (Q − {⊥}) and the arcs between them, and nothing of the ⊥ layer.  That
loses no walk: ⊥ is absorbing (Definition 2, condition 3), so a walk that
enters ⊥ never leaves it, and by Lemma 5 no walk between two non-⊥ vertices
visits ⊥.  The ⊥ copies and give-up arcs serve only the simulation of G_C on
⟦G⟧, and the round model still charges that simulation for the paper's G_C
(see :mod:`repro.walks.cdl`).

The module also *lifts* a tree decomposition of ⟦G⟧ to one of ⟦G_C − ⊥⟧ by
replacing every vertex v with its accepting copies {v} × (Q − {⊥}) — the
decomposition argument used in §5.2 to bound the treewidth of G_C by
O(|Q|·τ) — so that the labeling never needs to decompose the (larger)
product graph from scratch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

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
    """The product graph G_C − ⊥ together with bookkeeping for walk recovery.

    Attributes
    ----------
    graph:
        The weighted directed product graph on V(G) × (Q − {⊥}).
    constraint:
        The stateful walk constraint used to build it.
    base:
        The original input instance G.
    edge_origin:
        Maps each product-graph edge id to the originating input edge id.
    """

    graph: WeightedDiGraph
    constraint: StatefulWalkConstraint
    base: WeightedDiGraph
    edge_origin: Dict[int, int]


def build_product_graph(
    instance: WeightedDiGraph, constraint: StatefulWalkConstraint
) -> ProductGraph:
    """Construct G_C − ⊥ for ``instance`` and ``constraint`` (Lemma 5).

    The out-arcs of an accepting copy (v, q) lead to (e.head, δ_e(q)) for
    the edges e leaving v, in ``instance.edges()`` order, skipping those
    with δ_e(q) = ⊥.  Raises :class:`ConstraintError` when Q lacks ▽ or ⊥,
    when some δ_e(q) leaves the state set, or when some δ_e(⊥) ≠ ⊥ (⊥ must
    be absorbing, Definition 2, condition 3, for G_C − ⊥ to lose no walk).
    Every edge is checked.
    """
    states = constraint.states()
    if INITIAL_STATE not in states or REJECT_STATE not in states:
        raise ConstraintError(
            "state set must contain the initial state ▽ and the reject state ⊥"
        )
    state_set = set(states)
    accepting = constraint.accepting_states()
    product = WeightedDiGraph()
    edge_origin: Dict[int, int] = {}

    for v in instance.nodes():
        for q in accepting:
            product.add_node((v, q))

    for e in instance.edges():
        if constraint.delta(REJECT_STATE, e) != REJECT_STATE:
            raise ConstraintError(
                f"the reject state must be absorbing (condition 3): δ_e(⊥) ≠ ⊥ "
                f"for edge {e.eid}"
            )
        for q in accepting:
            nxt = constraint.delta(q, e)
            if nxt == REJECT_STATE:
                continue
            if nxt not in state_set:
                raise ConstraintError(
                    f"transition δ_e({q!r}) = {nxt!r} of edge {e.eid} leaves the state set"
                )
            eid = product.add_edge((e.tail, q), (e.head, nxt), weight=e.weight, label=e.label)
            edge_origin[eid] = e.eid

    return ProductGraph(
        graph=product, constraint=constraint, base=instance, edge_origin=edge_origin
    )


def lift_tree_decomposition(
    decomposition: DecompositionResult, constraint: StatefulWalkConstraint
) -> DecompositionResult:
    """Lift a decomposition of ⟦G⟧ to one of ⟦G_C − ⊥⟧ (§5.2).

    The result decomposes ``ProductGraph.graph``: every vertex v of every
    bag / subgraph is replaced by its accepting copies {v} × (Q − {⊥}), the
    part of U_Q(v) that :func:`build_product_graph` builds.  The tree
    structure is unchanged.  The lift is a local relabeling that costs no
    communication, so the result charges no rounds (the base decomposition
    is charged once, by whoever built it).  ``width_guess`` is scaled by the
    full |Q|, so Theorem 3's |Q| stays in every charge made with it.
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
    return DecompositionResult(
        decomposition=lifted,
        rounds=0,
        ledger=RoundLedger(),
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
    edges: List[Edge] = []
    node = goal
    while node != start:
        prev, eid = pred[node]
        edges.append(product.base.edge(product.edge_origin[eid]))
        node = prev
    edges.reverse()
    return dist[goal], edges
