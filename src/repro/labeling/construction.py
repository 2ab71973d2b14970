"""Recursive construction of the distance labeling (paper §4.2, Theorem 2).

The construction walks the tree decomposition bottom-up.  For a leaf node x
the subgraph G_x is small enough that every node learns all of it and solves
all-pairs shortest paths locally.  For an internal node x:

1. the children's labelings (distances within each child graph G_{x·i}) are
   already available;
2. the auxiliary graph H_x on the bag B_x is formed: an edge (u, v) with cost
   min(c_G(u, v), min_i d_{G_{x·i}}(u, v)); by Lemma 3 the distances in H_x
   equal the distances in G_x restricted to B_x;
3. H_x is broadcast inside G_x (BCT with Õ(width²) words — the dominant cost,
   Õ(τD + τ⁵) per level);
4. every node upgrades its distance set from child-graph distances to
   G_x-distances using the Lemma 4 decomposition through the bag, and learns
   its distances to/from all of B_x.  Only the entries that can change are
   recomputed: a deep entry d(u, v) is re-minimised over the boundary
   vertices s2 whose own entry improved, d_x(u, s2) < d_{G_{x·i}}(u, s2),
   because any other s2 offers d_{G_{x·i}}(u, s2) + d_{G_{x·i}}(s2, v), which
   the triangle inequality inside the child graph bounds below by the stored
   d_{G_{x·i}}(u, v) (and likewise for from-distances).

At the root the labels store exact full-graph distances to B↑(u), which is
what the decoder of Lemma 2 requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.congest import kernels
from repro.congest.message import DEFAULT_WORDS_PER_MESSAGE, payload_size_words
from repro.congest.network import CongestNetwork
from repro.congest.primitives import flood_chunks
from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.tree_decomposition import (
    DecompositionResult,
    TreeDecomposition,
    build_tree_decomposition,
)
from repro.errors import GraphError, LabelingError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs.properties import dijkstra
from repro.labeling.labels import DistanceLabel, DistanceLabeling

NodeId = Hashable
Label = Tuple[int, ...]
INF = math.inf


@dataclass
class DistanceLabelingResult:
    """A distance labeling with its construction cost and provenance.

    When the construction was run with ``measured_broadcast=True``,
    ``measured_broadcast_rounds`` maps each decomposition level to the round
    count actually measured on the simulation engine for that level's BCT
    broadcast (otherwise ``None``: the rounds were charged through the cost
    model).
    """

    labeling: DistanceLabeling
    decomposition: TreeDecomposition
    rounds: int
    ledger: RoundLedger
    width_guess: int
    decomposition_rounds: int
    measured_broadcast_rounds: Optional[Dict[int, int]] = None

    def max_label_entries(self) -> int:
        return self.labeling.max_entries()


def _local_apsp_labels(
    sub: WeightedDiGraph, vertices: FrozenSet[NodeId]
) -> Dict[NodeId, DistanceLabel]:
    """Leaf case: all-pairs shortest paths inside ``sub``, induced by ``vertices``."""
    dist_from: Dict[NodeId, Dict[NodeId, float]] = {
        u: dijkstra(sub, u) for u in vertices
    }
    return {
        u: DistanceLabel(
            u,
            {s: dist_from[u].get(s, INF) for s in vertices},
            {s: dist_from[s].get(u, INF) for s in vertices},
        )
        for u in vertices
    }


def _build_auxiliary_graph(
    instance: WeightedDiGraph,
    bag: FrozenSet[NodeId],
    child_info: List[Tuple[FrozenSet[NodeId], Dict[NodeId, DistanceLabel]]],
) -> WeightedDiGraph:
    """Construct the directed auxiliary graph H_x on the bag B_x (paper §4.2)."""
    h = WeightedDiGraph(bag)
    best: Dict[Tuple[NodeId, NodeId], float] = {}

    def offer(u: NodeId, v: NodeId, w: float) -> None:
        if u == v or w == INF:
            return
        key = (u, v)
        if key not in best or w < best[key]:
            best[key] = w

    # Direct input edges of G_x between bag vertices (B_x ⊆ V(G_x)).
    direct = instance.subgraph(bag)
    for u in bag:
        for e in direct.out_edges(u):
            offer(e.tail, e.head, e.weight)

    # Distances through the child graphs.
    for child_vertices, child_labels in child_info:
        boundary = [v for v in bag if v in child_vertices]
        for u in boundary:
            lab = child_labels.get(u)
            if lab is None:
                continue
            for v in boundary:
                if v == u:
                    continue
                d = lab.to_dist.get(v, INF)
                offer(u, v, d)

    for (u, v), w in best.items():
        h.add_edge(u, v, weight=w)
    return h


def _broadcast_chunks(dg: WeightedDiGraph) -> List[Tuple]:
    """The BCT broadcast payload of one part: its vertex and edge rows.

    One chunk per vertex plus one per directed edge — the ``|V| + |E|``
    volume the cost model charges for the same broadcast — in a
    deterministic order so measured runs are seed-reproducible.
    """
    chunks: List[Tuple] = [("v", u) for u in sorted(dg.nodes(), key=str)]
    edges = sorted(
        ((e.tail, e.head, e.weight) for u in dg.nodes() for e in dg.out_edges(u)),
        key=lambda t: (str(t[0]), str(t[1]), t[2]),
    )
    chunks.extend(("e", t, h, w) for t, h, w in edges)
    return chunks


def _measured_bct_broadcast(
    comm: Graph,
    vertices: FrozenSet[NodeId],
    chunks: List[Tuple],
    engine: Optional[str] = None,
):
    """Execute one level's H_x broadcast inside G_x on the simulation engine.

    The part's communication graph is the subgraph of the network induced by
    the part's vertices; the broadcast is the pipelined chunk flooding of
    :func:`~repro.congest.primitives.flood_chunks` from the part's minimal
    vertex.  The per-message budget is sized to the largest chunk (hub ids of
    arbitrary node types can exceed the default CONGEST word budget; the
    model cost of a chunk is still O(1) words).

    ``engine=None`` runs the array tier (the chunk flood's
    :class:`~repro.congest.kernels.FloodingKernel`) when numpy is available
    and the scalar ``fast`` tier otherwise; every tier measures the same
    rounds.  Raises :class:`~repro.errors.LabelingError` when the flood does
    not reach every vertex of the part, since its rounds would then not be
    the cost of a complete broadcast.
    """
    if engine is None:
        engine = "vectorized" if kernels.vectorized_available() else "fast"
    sub = comm.subgraph(vertices)
    root = min(vertices, key=str)
    total = len(chunks)
    budget = max(
        DEFAULT_WORDS_PER_MESSAGE,
        max((payload_size_words((k, total, c)) for k, c in enumerate(chunks)), default=1),
    )
    network = CongestNetwork(sub, words_per_message=budget)
    received, sim = flood_chunks(network, root, chunks, engine=engine)
    if not sim.halted:
        raise LabelingError(
            f"measured BCT broadcast over a part of {len(vertices)} vertices "
            f"left {len(vertices) - len(received)} of them unreached"
        )
    return sim


def build_distance_labeling(
    instance: WeightedDiGraph,
    decomposition: Optional[DecompositionResult] = None,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
    measured_broadcast: bool = False,
    broadcast_engine: Optional[str] = None,
) -> DistanceLabelingResult:
    """Construct the exact distance labeling of a weighted directed instance.

    Parameters
    ----------
    instance:
        The weighted directed (multi)graph G.  Its underlying undirected
        graph must be connected.
    decomposition:
        Optional pre-built decomposition of ⟦G⟧ (with its round cost); when
        omitted it is built here and its rounds are included in the result.
    config / cost_model:
        Framework configuration and round-cost model.
    measured_broadcast:
        When ``True``, the per-level BCT broadcast of H_x inside G_x — the
        dominant cost of the construction — is actually executed as a
        pipelined chunk flood on the CONGEST engine (the level's largest
        part, whose cost bounds the level) and the *measured* round counts
        are charged to the ledger instead of the cost model's
        ``broadcast_multi`` estimate.  The local-update SNC term stays
        modeled.
    broadcast_engine:
        Engine tier for the measured broadcasts (``"fast"``, ``"legacy"``,
        ``"vectorized"`` or ``"async"`` — the generic chunk flood runs as
        :class:`~repro.congest.kernels.FloodingKernel` on ``vectorized``,
        with identical measured rounds on every tier).  Default:
        ``"vectorized"`` when numpy is available, else ``"fast"``, with no
        fallback warning.

    Returns
    -------
    DistanceLabelingResult
        Exact labels for every vertex; ``labeling.distance(u, v)`` equals
        d_G(u, v) for all pairs.
    """
    config = config or FrameworkConfig()
    comm = instance.underlying_graph()
    if comm.num_nodes() == 0:
        raise GraphError("cannot label an empty graph")
    if not comm.is_connected():
        raise GraphError("distance labeling requires a connected communication graph")

    if cost_model is None:
        cost_model = CostModel.for_graph(comm, config)
    if decomposition is None:
        decomposition = build_tree_decomposition(comm, config=config, cost_model=cost_model)
    td = decomposition.decomposition
    width_guess = max(1, decomposition.width_guess)

    ledger = RoundLedger()
    ledger.merge(decomposition.ledger)

    # Bottom-up sweep over the decomposition tree.
    labels_by_node: Dict[Label, Dict[NodeId, DistanceLabel]] = {}
    order = sorted(td.labels(), key=len, reverse=True)
    # Per-level maximum broadcast volume (in words), charged once per level as
    # BCT(h) — the parts of one level are processed in parallel.  When the
    # broadcast is measured on the engine, the maximal part's vertex set and
    # payload graph are kept; the chunk list is built once per level in the
    # charge loop (only the final maximum survives the sweep).
    level_volume: Dict[int, int] = {}
    level_payload: Dict[int, Tuple[FrozenSet[NodeId], WeightedDiGraph]] = {}

    for label in order:
        node = td.nodes[label]
        if node.is_leaf or not node.children:
            sub = instance.subgraph(node.graph_vertices)
            labels_by_node[label] = _local_apsp_labels(sub, node.graph_vertices)
            volume = sub.num_edges() + sub.num_nodes()
            depth = len(label)
            if volume > level_volume.get(depth, 0):
                level_volume[depth] = volume
                if measured_broadcast:
                    level_payload[depth] = (node.graph_vertices, sub)
            continue

        child_info: List[Tuple[FrozenSet[NodeId], Dict[NodeId, DistanceLabel]]] = []
        for child in node.children:
            child_node = td.nodes[child]
            child_info.append((child_node.graph_vertices, labels_by_node[child]))

        bag = node.bag
        aux = _build_auxiliary_graph(instance, bag, child_info)
        # All-pairs shortest paths on H_x = distances of G_x restricted to B_x
        # (Lemma 3).
        apsp_to: Dict[NodeId, Dict[NodeId, float]] = {u: dijkstra(aux, u) for u in bag}

        depth = len(label)
        volume = aux.num_edges() + aux.num_nodes()
        if volume > level_volume.get(depth, 0):
            level_volume[depth] = volume
            if measured_broadcast:
                level_payload[depth] = (node.graph_vertices, aux)

        new_labels: Dict[NodeId, DistanceLabel] = {}
        # Bag vertices: their subtree hub set is exactly B_x (their canonical
        # node is at this depth or above), with exact G_x distances from H_x.
        for u in bag:
            du = apsp_to[u]
            new_labels[u] = DistanceLabel(
                u,
                {s: du.get(s, INF) for s in bag},
                {s: apsp_to[s].get(u, INF) for s in bag},
            )

        # Non-bag vertices: upgrade the child label (Lemma 4) and extend it
        # with distances to/from all of B_x.
        for child_vertices, child_labels in child_info:
            boundary = [v for v in bag if v in child_vertices]
            # The bag APSP's boundary columns, gathered once per child:
            # d_x(s2, s) and d_x(s, s2) for s2 over the boundary, per s ∈ B_x.
            to_cols = [(s, [apsp_to[s2].get(s, INF) for s2 in boundary]) for s in bag]
            from_cols = [(s, [apsp_to[s].get(s2, INF) for s2 in boundary]) for s in bag]
            for u in child_vertices:
                if u in bag:
                    continue
                old_to = child_labels[u].to_dist
                old_from = child_labels[u].from_dist
                # New hub entries: every s ∈ B_x, reached through the boundary
                # (a missing child entry is ∞, and ∞ + x = ∞ never wins).  The
                # outer min(INF, …) stores an unreachable entry as the shared
                # INF object, not as a fresh float per entry.
                to_row = [old_to.get(s2, INF) for s2 in boundary]
                from_row = [old_from.get(s2, INF) for s2 in boundary]
                if boundary:
                    to_dist = {s: min(INF, min(map(add, to_row, col))) for s, col in to_cols}
                    from_dist = {
                        s: min(INF, min(map(add, col, from_row))) for s, col in from_cols
                    }
                else:  # G_{x·i} does not touch B_x
                    to_dist = dict.fromkeys(bag, INF)
                    from_dist = dict.fromkeys(bag, INF)
                # Upgraded deep entries: hubs of the child label not in B_x.
                # Child labels hold exact G_{x·i} distances, so a boundary
                # vertex s2 whose entry did not improve offers
                # d_c(u, s2) + d_c(s2, v) ≥ d_c(u, v) by the triangle
                # inequality inside G_{x·i} (mirrored for from-distances):
                # only the improved entries can lower a deep entry, and with
                # none the child's deep entries carry over unchanged.  (With
                # fractional weights a skipped candidate can differ from the
                # kept entry only by float rounding.)
                improved_to = [
                    (s2, to_dist[s2]) for s2, d in zip(boundary, to_row) if to_dist[s2] < d
                ]
                improved_from = [
                    (s2, from_dist[s2])
                    for s2, d in zip(boundary, from_row)
                    if from_dist[s2] < d
                ]
                if improved_to or improved_from:
                    for v, best_to in old_to.items():
                        if v in bag:
                            continue
                        best_from = old_from.get(v, INF)
                        v_label = child_labels.get(v)
                        if v_label is not None:
                            v_from = v_label.from_dist
                            for s2, d_u_s2 in improved_to:
                                cand = d_u_s2 + v_from.get(s2, INF)
                                if cand < best_to:
                                    best_to = cand
                            v_to = v_label.to_dist
                            for s2, d_s2_u in improved_from:
                                cand = v_to.get(s2, INF) + d_s2_u
                                if cand < best_from:
                                    best_from = cand
                        to_dist[v] = best_to
                        from_dist[v] = best_from
                else:
                    for v, d in old_to.items():
                        if v not in bag:
                            to_dist[v] = d
                            from_dist[v] = old_from.get(v, INF)
                new_labels[u] = DistanceLabel(u, to_dist, from_dist)
            del to_cols, from_cols

        labels_by_node[label] = new_labels
        # Children labelings are no longer needed.
        for child in node.children:
            labels_by_node.pop(child, None)

    # Charge the per-level broadcast cost (BCT(h), Corollary 3): either the
    # cost-model estimate, or — with ``measured_broadcast`` — the rounds the
    # level's maximal H_x broadcast actually takes on the simulation engine.
    measured_rounds: Optional[Dict[int, int]] = {} if measured_broadcast else None
    for depth in sorted(level_volume):
        if measured_broadcast:
            vertices, payload_graph = level_payload[depth]
            chunks = _broadcast_chunks(payload_graph)
            sim = _measured_bct_broadcast(comm, vertices, chunks, engine=broadcast_engine)
            measured_rounds[depth] = sim.rounds
            ledger.charge(
                f"distance_labeling/level_{depth}/broadcast[measured]",
                sim.rounds,
            )
        else:
            ledger.charge(
                f"distance_labeling/level_{depth}/broadcast",
                cost_model.broadcast_multi(width_guess, level_volume[depth]),
            )
        ledger.charge(
            f"distance_labeling/level_{depth}/local_update",
            cost_model.snc(),
        )

    root_labels = labels_by_node.get((), {})
    missing = set(str(v) for v in instance.nodes()) - set(str(v) for v in root_labels)
    if missing:
        raise LabelingError(
            f"distance labeling construction missed {len(missing)} vertices"
        )
    labeling = DistanceLabeling(root_labels)
    return DistanceLabelingResult(
        labeling=labeling,
        decomposition=td,
        rounds=ledger.total(),
        ledger=ledger,
        width_guess=width_guess,
        decomposition_rounds=decomposition.rounds,
        measured_broadcast_rounds=measured_rounds,
    )
