"""Weighted girth in the CONGEST model (paper §7, Theorem 5).

Directed case
    The length of the shortest directed cycle through an edge (u, v) is
    c(u, v) + d_G(v, u).  After the distance labeling of Theorem 2 is built,
    the endpoints of every edge exchange their labels (Õ(τ²) rounds, all edges
    in parallel), each edge computes its candidate cycle length locally, and a
    global minimum aggregation (O(D) rounds) yields the girth.

Undirected case
    The shortest closed walk through an edge may "fold onto itself", so the
    directed reduction is invalid.  Instead, edges receive independent random
    0/1 labels; by Lemma 6 every *exact count-1* closed walk has weight at
    least the girth g, and if some shortest cycle carries exactly one label-1
    edge, the shortest exact count-1 closed walk through its vertices has
    weight exactly g.  Each node v obtains the shortest exact count-1 closed
    walk length through itself from the constrained distance labeling
    CDL(C_cnt(1)) (a purely local decode of its own label), and a global
    minimum aggregation finishes the trial.  A doubling guess of the number of
    shortest-cycle edges and O(log n) independent trials per guess make the
    estimate exact with high probability; it is an upper bound on g in every
    trial, so the final minimum never undershoots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.tree_decomposition import (
    DecompositionResult,
    build_tree_decomposition,
)
from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.labeling.construction import DistanceLabelingResult, build_distance_labeling
from repro.walks.cdl import build_constrained_labeling
from repro.walks.constraints import CountWalkConstraint

NodeId = Hashable
INF = math.inf


@dataclass
class GirthResult:
    """The computed girth together with provenance and round accounting.

    Attributes
    ----------
    girth:
        The weighted girth (``inf`` for acyclic inputs).
    method:
        ``"directed"`` or ``"undirected"``.
    rounds:
        Charged CONGEST rounds (including the labeling constructions).
    ledger:
        Per-phase breakdown.
    trials:
        Number of random-labeling trials executed (undirected case; 0 for the
        directed case).
    exact_whp:
        ``True`` when the output is exact with high probability under the
        algorithm's analysis (always an upper bound regardless).
    """

    girth: float
    method: str
    rounds: int
    ledger: RoundLedger
    trials: int = 0
    exact_whp: bool = True


def is_symmetric(instance: WeightedDiGraph) -> bool:
    """Heuristic: does every directed edge have an equal-weight reverse twin?"""
    weights: Dict[Tuple[NodeId, NodeId], List[float]] = {}
    for e in instance.edges():
        weights.setdefault((e.tail, e.head), []).append(e.weight)
    for (u, v), ws in weights.items():
        back = weights.get((v, u))
        if back is None or sorted(ws) != sorted(back):
            return False
    return True


# --------------------------------------------------------------------------- #
# Directed girth
# --------------------------------------------------------------------------- #
def directed_girth(
    instance: WeightedDiGraph,
    labeling: Optional[DistanceLabelingResult] = None,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> GirthResult:
    """Weighted girth of a directed multigraph via per-edge label exchange."""
    config = config or FrameworkConfig()
    if cost_model is None:
        cost_model = CostModel.for_graph(instance.underlying_graph(), config)
    ledger = RoundLedger()
    if labeling is None:
        labeling = build_distance_labeling(instance, config=config, cost_model=cost_model)
    ledger.merge(labeling.ledger, prefix="girth/labeling")

    best = INF
    lab = labeling.labeling
    for e in instance.edges():
        if e.tail == e.head:
            best = min(best, e.weight)
            continue
        back = lab.distance(e.head, e.tail)
        if back != INF:
            best = min(best, e.weight + back)

    # Label exchange across every edge in parallel: Õ(label size) rounds; then
    # a global minimum aggregation: O(D) rounds.
    ledger.charge("girth/label_exchange", cost_model._c(3 * lab.max_entries()))
    ledger.charge("girth/aggregate_min", cost_model._c(cost_model.d))
    return GirthResult(
        girth=best,
        method="directed",
        rounds=ledger.total(),
        ledger=ledger,
        trials=0,
        exact_whp=True,
    )


# --------------------------------------------------------------------------- #
# Undirected girth
# --------------------------------------------------------------------------- #
def undirected_girth(
    graph: Graph,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
    trials_per_scale: int = 6,
    scales: Optional[List[int]] = None,
    decomposition: Optional[DecompositionResult] = None,
) -> GirthResult:
    """Weighted girth of an undirected graph via exact count-1 closed walks.

    Parameters
    ----------
    graph:
        A connected, weighted, undirected simple graph.
    trials_per_scale:
        Independent random labelings per doubling guess ĉ (paper: O(log n)).
    scales:
        The doubling guesses ĉ of |F| (the number of edges on shortest
        cycles); defaults to powers of two up to the edge count.
    decomposition:
        Optional pre-built decomposition of the graph, reused by every trial.
    """
    config = config or FrameworkConfig()
    if graph.num_nodes() == 0:
        raise GraphError("cannot compute the girth of an empty graph")
    if not graph.is_connected():
        raise GraphError("undirected_girth requires a connected graph")

    if cost_model is None:
        cost_model = CostModel.for_graph(graph, config)
    rng = config.rng()
    ledger = RoundLedger()
    if decomposition is None:
        decomposition = build_tree_decomposition(graph, config=config, cost_model=cost_model)
    ledger.merge(decomposition.ledger, prefix="girth/decomposition")

    m = graph.num_edges()
    if m == 0:
        return GirthResult(INF, "undirected", ledger.total(), ledger, 0, True)
    if scales is None:
        scales = []
        c = 1
        while c <= 2 * m:
            scales.append(c)
            c *= 2

    undirected_edges = graph.edges()
    constraint = CountWalkConstraint(1)
    target_state = constraint.exact_target_state()
    best = INF
    trials = 0

    for scale in scales:
        p = 1.0 / (3.0 * scale)
        for _ in range(max(1, trials_per_scale)):
            trials += 1
            labels = {edge: (1 if rng.random() < p else 0) for edge in undirected_edges}
            instance = WeightedDiGraph(graph.nodes())
            for (u, v) in undirected_edges:
                w = graph.weight(u, v)
                instance.add_undirected_edge(u, v, weight=w, label=labels[(u, v)])
            cdl = build_constrained_labeling(
                instance,
                constraint,
                config=config,
                cost_model=cost_model,
                decomposition=decomposition,
            )
            # Each node decodes the shortest exact count-1 closed walk through
            # itself from its own label (purely local), then one global min.
            for v in graph.nodes():
                g_v = cdl.labeling.distance(v, v, target_state)
                if g_v < best:
                    best = g_v
            ledger.charge("girth/trial_labeling", cdl.product_label_rounds * cdl.simulation_overhead)
            ledger.charge("girth/trial_aggregate", cost_model._c(cost_model.d))

    return GirthResult(
        girth=best,
        method="undirected",
        rounds=ledger.total(),
        ledger=ledger,
        trials=trials,
        exact_whp=True,
    )


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
def compute_girth(
    instance: WeightedDiGraph,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
    directed: Optional[bool] = None,
    **undirected_kwargs,
) -> GirthResult:
    """Compute the weighted girth, dispatching on the instance's symmetry.

    ``directed=None`` (default) treats a symmetric instance (every edge has an
    equal-weight reverse twin) as an undirected graph — in that case directed
    2-cycles are artefacts of the encoding, not real cycles — and everything
    else as directed.
    """
    if directed is None:
        directed = not is_symmetric(instance)
    if directed:
        return directed_girth(instance, config=config, cost_model=cost_model)
    return undirected_girth(
        instance.underlying_weighted_graph(),
        config=config,
        cost_model=cost_model,
        **undirected_kwargs,
    )
