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

The local computations run on index rows: the leaf APSP and the APSP on H_x
are Dijkstra over per-index ``(head_index, weight)`` lists, and H_x stays an
arc map.  No stored value depends on this.  With non-negative weights and
monotone float rounding, a Dijkstra distance is the minimum over all walks of
the walk's float sum taken left to right, whatever the pop order or container;
and a Lemma 4 candidate skipped through an ∞ boundary entry is ∞ + x = ∞.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

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
from repro.labeling.labels import DistanceLabel, DistanceLabeling

NodeId = Hashable
Label = Tuple[int, ...]
Arc = Tuple[NodeId, NodeId, float]
Cols = List[Tuple[NodeId, List[float]]]
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


def _apsp_rows(vertices: List[NodeId], arcs: Iterable[Arc]) -> List[List[float]]:
    """All-pairs shortest paths on index rows: ``rows[i][j]`` = d(vertices[i], vertices[j]).

    Dijkstra from every index over per-index lists of ``(head_index, weight)``,
    with a ``(distance, index)`` heap and lazy deletion.  An unreachable entry
    is the shared ``INF`` object.
    """
    index = {v: i for i, v in enumerate(vertices)}
    out: List[List[Tuple[int, float]]] = [[] for _ in vertices]
    for tail, head, w in arcs:
        out[index[tail]].append((index[head], w))
    n = len(vertices)
    rows = []
    for source in range(n):
        dist = [INF] * n
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:  # stale: u was reached by a shorter walk since
                continue
            for v, w in out[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        rows.append(dist)
    return rows


def _local_apsp_labels(
    vertices: List[NodeId], rows: List[List[float]]
) -> Dict[NodeId, DistanceLabel]:
    """Labels of ``vertices`` holding all their pairwise distances, from APSP rows."""
    return {
        u: DistanceLabel(u, dict(zip(vertices, row)), dict(zip(vertices, col)))
        for u, row, col in zip(vertices, rows, zip(*rows))
    }


def _build_auxiliary_graph(
    instance: WeightedDiGraph,
    bag: FrozenSet[NodeId],
    child_info: List[Tuple[FrozenSet[NodeId], Dict[NodeId, DistanceLabel]]],
) -> Dict[Tuple[NodeId, NodeId], float]:
    """The directed auxiliary graph H_x on the bag B_x (paper §4.2), as its arc map.

    Returns ``{(u, v): w}``, w the least cost of a direct edge or child-graph path.
    """
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

    return best


def _hub_row(
    row: List[float], cols: Cols, compressed: Dict[Tuple[int, ...], Cols], bag: FrozenSet[NodeId]
) -> Dict[NodeId, float]:
    """One vertex's Lemma 4 entries for the new hubs: ``{s: min_i row[i] + col_s[i]}``.

    ``row`` holds child-graph distances to (or from) the boundary; ``cols``
    pairs each s ∈ B_x with its bag-APSP column over it.  ∞ row entries are
    skipped, against columns compressed once per finite-index pattern and kept
    in ``compressed``; ``min(INF, …)`` keeps ∞ as the shared ``INF`` object.
    """
    if INF in row:
        finite = tuple(i for i, d in enumerate(row) if d < INF)
        row = [row[i] for i in finite]
        if finite not in compressed:
            compressed[finite] = [(s, [col[i] for i in finite]) for s, col in cols]
        cols = compressed[finite]
    if not row:  # no boundary vertex is reachable, or G_{x·i} does not touch B_x
        return dict.fromkeys(bag, INF)
    return {s: min(INF, min(map(add, row, col))) for s, col in cols}


def _broadcast_chunks(vertices: Iterable[NodeId], arcs: List[Arc]) -> List[Tuple]:
    """The BCT broadcast payload of one part: its vertex and arc rows.

    One chunk per vertex plus one per directed arc — the ``|V| + |E|``
    volume the cost model charges for the same broadcast — in a
    deterministic order so measured runs are seed-reproducible.
    """
    chunks: List[Tuple] = [("v", u) for u in sorted(vertices, key=str)]
    edges = sorted(arcs, key=lambda t: (str(t[0]), str(t[1]), t[2]))
    chunks.extend(("e", t, h, w) for t, h, w in edges)
    return chunks


def _measured_bct_broadcast(
    comm: Graph,
    vertices: FrozenSet[NodeId],
    chunks: List[Tuple],
):
    """Execute one level's H_x broadcast inside G_x on the simulation engine.

    The part's communication graph is the subgraph of the network induced by
    the part's vertices; the broadcast is the pipelined chunk flooding of
    :func:`~repro.congest.primitives.flood_chunks` from the part's minimal
    vertex.  The per-message budget is sized to the largest chunk (hub ids of
    arbitrary node types can exceed the default CONGEST word budget; the
    model cost of a chunk is still O(1) words).

    The flood runs on :func:`~repro.congest.kernels.array_tier`: the
    array tier (the chunk flood's
    :class:`~repro.congest.kernels.FloodingKernel`) when numpy is available
    and the scalar ``fast`` tier otherwise; both measure the same rounds.
    Raises :class:`~repro.errors.LabelingError` when the flood does
    not reach every vertex of the part, since its rounds would then not be
    the cost of a complete broadcast.
    """
    sub = comm.subgraph(vertices)
    root = min(vertices, key=str)
    total = len(chunks)
    budget = max(
        DEFAULT_WORDS_PER_MESSAGE,
        max((payload_size_words((k, total, c)) for k, c in enumerate(chunks)), default=1),
    )
    network = CongestNetwork(sub, words_per_message=budget)
    received, sim = flood_chunks(network, root, chunks, engine=kernels.array_tier())
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
) -> DistanceLabelingResult:
    """Construct the exact distance labeling of a weighted directed instance.

    Parameters
    ----------
    instance:
        The weighted directed (multi)graph G.  Its underlying undirected
        graph ⟦G⟧ must be connected (``GraphError`` otherwise) unless both
        a ``decomposition`` and a ``cost_model`` are supplied and
        ``measured_broadcast`` is off.
    decomposition:
        Optional pre-built tree decomposition of ⟦G⟧ (with its round cost);
        when omitted it is built here and its rounds are included in the
        result.  A supplied decomposition skips the connectivity check, so
        G may be disconnected when its rounds are modelled on another
        network: the constrained labeling labels G_C − ⊥ with a cost model
        derived from the base graph's ⟦G⟧.  Without a ``cost_model`` the
        diameter of ⟦G⟧ is still computed, which raises ``GraphError``
        when ⟦G⟧ is disconnected; ``measured_broadcast`` floods ⟦G⟧ itself
        and checks its connectivity up front.
    config / cost_model:
        Framework configuration and round-cost model.
    measured_broadcast:
        When ``True``, the per-level BCT broadcast of H_x inside G_x — the
        dominant cost of the construction — is actually executed as a
        pipelined chunk flood on the CONGEST engine (the level's largest
        part, whose cost bounds the level) and the *measured* round counts
        are charged to the ledger instead of the cost model's
        ``broadcast_multi`` estimate.  The local-update SNC term stays
        modeled.  The floods run on
        :func:`~repro.congest.kernels.array_tier`: ``vectorized`` (the chunk
        flood's :class:`~repro.congest.kernels.FloodingKernel`) when numpy
        imports and ``fast`` otherwise, with no fallback warning; both tiers
        measure the same rounds.

    Returns
    -------
    DistanceLabelingResult
        Exact labels for every vertex; ``labeling.distance(u, v)`` equals
        d_G(u, v) for all pairs.
    """
    config = config or FrameworkConfig()
    if instance.num_nodes() == 0:
        raise GraphError("cannot label an empty graph")
    comm: Optional[Graph] = None
    if cost_model is None or decomposition is None or measured_broadcast:
        comm = instance.underlying_graph()
        if (decomposition is None or measured_broadcast) and not comm.is_connected():
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
    # payload (vertices and arcs) are kept; the chunk list is built once per
    # level in the charge loop (only the final maximum survives the sweep).
    level_volume: Dict[int, int] = {}
    level_payload: Dict[int, Tuple[FrozenSet[NodeId], Iterable[NodeId], List[Arc]]] = {}

    for label in order:
        node = td.nodes[label]
        if node.is_leaf or not node.children:
            members = list(node.graph_vertices)
            sub = instance.subgraph(node.graph_vertices)
            rows = _apsp_rows(members, ((e.tail, e.head, e.weight) for e in sub.edges()))
            labels_by_node[label] = _local_apsp_labels(members, rows)
            volume = sub.num_edges() + len(members)
            depth = len(label)
            if volume > level_volume.get(depth, 0):
                level_volume[depth] = volume
                if measured_broadcast:  # a leaf's payload keeps its parallel arcs
                    arcs = [(e.tail, e.head, e.weight) for e in sub.edges()]
                    level_payload[depth] = (node.graph_vertices, members, arcs)
            continue

        child_info: List[Tuple[FrozenSet[NodeId], Dict[NodeId, DistanceLabel]]] = []
        for child in node.children:
            child_node = td.nodes[child]
            child_info.append((child_node.graph_vertices, labels_by_node[child]))

        bag = node.bag
        members = list(bag)
        aux = _build_auxiliary_graph(instance, bag, child_info)
        arcs = [(u, v, w) for (u, v), w in aux.items()]
        # All-pairs shortest paths on H_x = distances of G_x restricted to B_x
        # (Lemma 3); rows[i][j] = d_x(members[i], members[j]).
        rows = _apsp_rows(members, arcs)

        depth = len(label)
        volume = len(arcs) + len(members)
        if volume > level_volume.get(depth, 0):
            level_volume[depth] = volume
            if measured_broadcast:
                level_payload[depth] = (node.graph_vertices, members, arcs)

        # Bag vertices: their subtree hub set is exactly B_x (their canonical
        # node is at this depth or above), with exact G_x distances from H_x.
        new_labels = _local_apsp_labels(members, rows)

        # Non-bag vertices: upgrade the child label (Lemma 4) and extend it
        # with distances to/from all of B_x.
        cols = list(zip(*rows))
        for child_vertices, child_labels in child_info:
            at = [i for i, v in enumerate(members) if v in child_vertices]
            boundary = [members[i] for i in at]
            # The bag APSP's boundary columns, gathered once per child:
            # d_x(s2, s) and d_x(s, s2) for s2 over the boundary, per s ∈ B_x.
            to_cols = [(s, [col[i] for i in at]) for s, col in zip(members, cols)]
            from_cols = [(s, [row[i] for i in at]) for s, row in zip(members, rows)]
            to_compressed: Dict[Tuple[int, ...], Cols] = {}
            from_compressed: Dict[Tuple[int, ...], Cols] = {}
            for u in child_vertices:
                if u in bag:
                    continue
                old_to = child_labels[u].to_dist
                old_from = child_labels[u].from_dist
                # New hub entries: every s ∈ B_x, reached through the boundary
                # (a missing child entry is ∞).
                to_row = [old_to.get(s2, INF) for s2 in boundary]
                from_row = [old_from.get(s2, INF) for s2 in boundary]
                to_dist = _hub_row(to_row, to_cols, to_compressed, bag)
                from_dist = _hub_row(from_row, from_cols, from_compressed, bag)
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
            del to_cols, from_cols, to_compressed, from_compressed

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
            vertices, payload_vertices, payload_arcs = level_payload[depth]
            chunks = _broadcast_chunks(payload_vertices, payload_arcs)
            sim = _measured_bct_broadcast(comm, vertices, chunks)
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
