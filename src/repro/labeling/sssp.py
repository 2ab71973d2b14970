"""Single-source shortest paths from a distance labeling (paper §1.2 / §4).

The reduction is the one sketched in the paper's introduction: once a distance
labeling is available, SSSP from a source s is solved by broadcasting la(s) to
every node, after which each node v computes d_G(s, v) = dec(la(s), la(v))
locally.  The broadcast of an Õ(τ²)-word label costs Õ(D + τ²) rounds
(pipelined flooding), which is dominated by the labeling construction.

Two round accountings are available:

* *modeled* (default) — the broadcast cost is charged through the
  :class:`~repro.core.rounds.CostModel` (D + #label-words), as before;
* *measured* — pass a :class:`~repro.congest.network.CongestNetwork` over the
  communication graph via ``network=`` and the label broadcast is actually
  executed as a pipelined flooding protocol on that network's engine
  (:mod:`repro.congest.engine`), one hub entry per message, and the measured
  round count is used.  Each node's simulated output is the decoded distance
  dec(la(s), la(v)), which the cross-validation suite checks against the
  centralized decode.

This module also exposes the convenience of computing the full distance map
centrally from the labeling, which the tests and experiments use to compare
against Dijkstra and against distributed Bellman-Ford (experiment E4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.congest.kernels import FloodingKernel
from repro.congest.network import CongestNetwork, SimulationResult
from repro.congest.primitives import ChunkFloodNode
from repro.core.rounds import CostModel, RoundLedger
from repro.errors import LabelingError
from repro.labeling.construction import DistanceLabelingResult
from repro.labeling.labels import DistanceLabel, DistanceLabeling, decode_distance

NodeId = Hashable
INF = math.inf


@dataclass
class SSSPResult:
    """Distances from (and to) a source vertex, with round accounting.

    Attributes
    ----------
    source:
        The source vertex s.
    distances:
        d_G(s, v) for every vertex v (``inf`` when unreachable).
    distances_to_source:
        d_G(v, s) for every vertex v — available for free because labels store
        both directions (the paper's labeling is for directed graphs).
    rounds:
        Rounds charged for the SSSP phase alone (label broadcast); the
        labeling construction cost is reported separately by
        :class:`~repro.labeling.construction.DistanceLabelingResult`.
    total_rounds:
        Construction rounds + SSSP rounds, when the labeling result was
        provided.
    simulation:
        When the broadcast was actually executed on a network (``network=``),
        the :class:`~repro.congest.network.SimulationResult` of the run.
    """

    source: NodeId
    distances: Dict[NodeId, float]
    distances_to_source: Dict[NodeId, float]
    rounds: int
    total_rounds: int
    simulation: Optional[SimulationResult] = None


class LabelBroadcastNode(ChunkFloodNode):
    """Pipelined flooding of the source label, one hub entry per message.

    A :class:`~repro.congest.primitives.ChunkFloodNode` whose wire chunks
    are the source's label entries ``(k, C, hub, d_to, d_from)``: the
    broadcast pipelines in O(D + C) rounds, and when a node holds all ``C``
    chunks and has drained its queues it reconstructs la(s), decodes
    ``dec(la(s), la(v))`` against its own label, stores it as its output and
    halts.
    """

    def __init__(
        self,
        node: NodeId,
        source: NodeId,
        source_label: DistanceLabel,
        own_label: Optional[DistanceLabel],
    ) -> None:
        super().__init__(node, source)
        self.source = source
        self.source_label = source_label
        self.own_label = own_label
        # Until the full label arrives the node knows no finite distance.
        self.output = INF

    def _make_chunks(self) -> List[Any]:
        entries = list(self.source_label.to_dist.items())
        total = len(entries)
        return [
            (k, total, hub, d_to, self.source_label.from_dist.get(hub, INF))
            for k, (hub, d_to) in enumerate(entries)
        ]

    def _finish(self) -> None:
        rebuilt = DistanceLabel(self.source)
        for _, _, hub, d_to, d_from in self.chunks.values():
            rebuilt.set_entry(hub, d_to, d_from)
        if self.node == self.source:
            self.output = 0.0
        elif self.own_label is None:
            self.output = INF
        else:
            self.output = decode_distance(rebuilt, self.own_label)


class LabelBroadcastKernel(FloodingKernel):
    """Whole-round vectorized pipelined la(s) flooding (``engine="vectorized"``).

    Bit-for-bit equivalent to :class:`LabelBroadcastNode`.  The transport —
    chunk-index packing, O(1) ``chunk_words`` accounting and the per-arc FIFO
    chunk queues with ``head``/``tail`` cursors — is inherited from
    :class:`~repro.congest.kernels.FloodingKernel`; this subclass only
    supplies the wire chunks (one hub entry each) and the label-decoding
    outputs, mirroring how the scalar ``LabelBroadcastNode`` subclasses
    ``ChunkFloodNode``.
    """

    def __init__(
        self,
        source: NodeId,
        source_label: DistanceLabel,
        labeling: DistanceLabeling,
    ) -> None:
        super().__init__(root=source)
        self.source = source
        self.source_label = source_label
        self.labeling = labeling

    def _chunk_table(self) -> List[Any]:
        entries = list(self.source_label.to_dist.items())
        c = len(entries)
        return [
            (k, c, hub, d_to, self.source_label.from_dist.get(hub, INF))
            for k, (hub, d_to) in enumerate(entries)
        ]

    def outputs(self, state, csr) -> Dict[NodeId, Any]:
        rebuilt = DistanceLabel(self.source)
        for _, _, hub, d_to, d_from in self.chunks:
            rebuilt.set_entry(hub, d_to, d_from)
        halted = state["halted"]
        out: Dict[NodeId, Any] = {}
        for i, u in enumerate(csr.node_ids):
            if not halted[i]:
                out[u] = INF
            elif u == self.source:
                out[u] = 0.0
            elif u in self.labeling:
                out[u] = decode_distance(rebuilt, self.labeling.label(u))
            else:
                out[u] = INF
        return out


def measured_label_broadcast(
    network: CongestNetwork,
    labeling: DistanceLabeling,
    source: NodeId,
    max_rounds: int = 1_000_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
) -> SimulationResult:
    """Execute the pipelined la(s) broadcast on ``network`` and return the run.

    Each node's output is dec(la(s), la(v)) computed from the received label;
    nodes outside ``labeling`` (or unreachable ones) output ``inf``.  Chunks
    carry one hub entry (≈ 5 words + the hub id); size the network's
    ``words_per_message`` accordingly for exotic node-id types.

    With ``engine="vectorized"`` the broadcast runs as the whole-round
    :class:`LabelBroadcastKernel` (identical measured rounds and traffic).
    ``engine="async"`` runs the scalar pipelined flood on the event-driven
    scheduler under ``delay_model`` — the decoded distances are
    schedule-invariant, and the measured rounds/traffic equal the
    synchronous tiers.
    """
    if source not in labeling:
        raise LabelingError(f"source {source!r} has no label")
    src_label = labeling.label(source)

    def factory(u: NodeId) -> LabelBroadcastNode:
        own = labeling.label(u) if u in labeling else None
        return LabelBroadcastNode(u, source, src_label, own)

    return network.run(
        factory,
        max_rounds=max_rounds,
        stop_when_quiet=True,
        engine=engine,
        trace=trace,
        kernel=LabelBroadcastKernel(source, src_label, labeling),
        delay_model=delay_model,
    )


def single_source_shortest_paths(
    labeling: DistanceLabeling,
    source: NodeId,
    cost_model: Optional[CostModel] = None,
    labeling_result: Optional[DistanceLabelingResult] = None,
    network: Optional[CongestNetwork] = None,
) -> SSSPResult:
    """Compute exact SSSP distances from ``source`` using the labeling.

    Parameters
    ----------
    labeling:
        A complete distance labeling of the instance.
    source:
        The source vertex.
    cost_model:
        Optional cost model used to charge the label-broadcast rounds
        (Õ(D + |la(s)|)); without it the SSSP phase is charged 0 rounds.
    labeling_result:
        When provided, its construction rounds are added to ``total_rounds``.
    network:
        Optional :class:`CongestNetwork` over the communication graph: the
        label broadcast is then actually executed on the simulation engine
        and the *measured* round count replaces the cost-model estimate.
    """
    if source not in labeling:
        raise LabelingError(f"source {source!r} has no label")
    src_label = labeling.label(source)
    distances: Dict[NodeId, float] = {}
    distances_to: Dict[NodeId, float] = {}
    for v in labeling.vertices():
        lab_v = labeling.label(v)
        distances[v] = decode_distance(src_label, lab_v)
        distances_to[v] = decode_distance(lab_v, src_label)

    rounds = 0
    simulation: Optional[SimulationResult] = None
    if network is not None:
        simulation = measured_label_broadcast(network, labeling, source)
        rounds = simulation.rounds
    elif cost_model is not None:
        # Pipelined broadcast of the source label: D + (#words) rounds, where
        # each hub entry is a constant number of words.
        rounds = cost_model._c(cost_model.d + 3 * src_label.num_entries())
    total = rounds
    if labeling_result is not None:
        total += labeling_result.rounds
    return SSSPResult(
        source=source,
        distances=distances,
        distances_to_source=distances_to,
        rounds=rounds,
        total_rounds=total,
        simulation=simulation,
    )
