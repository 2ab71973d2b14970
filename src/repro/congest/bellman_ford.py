"""Distributed Bellman-Ford single-source shortest paths.

This is the classical CONGEST baseline for exact SSSP: in every round each
node whose tentative distance improved sends the new value to its neighbours.
The round complexity is the number of *hops* of the deepest shortest path,
which is Θ(n) in the worst case — precisely the behaviour the paper's
Õ(τ²D + τ⁵)-round distance labeling improves on for low-treewidth graphs
(experiment E4).

The implementation works on weighted directed instances: messages travel along
the undirected communication edge but distances propagate only in the edge's
direction, as each node knows the weights/orientations of its incident input
edges (paper §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.congest.faults import resolve_fault_run
from repro.congest.kernels import PackedInbox, PackedSends, RoundKernel
from repro.congest.message import Message, PayloadSchema
from repro.congest.network import CongestNetwork, SimulationResult
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph

NodeId = Hashable
INF = float("inf")

#: Fixed-shape payload of every Bellman-Ford message: the scalar protocol's
#: ``("dist", d)`` tuple packed as one float64 per arc slot (3 words:
#: framing + tag + distance — identical to ``payload_size_words``).
BELLMAN_FORD_SCHEMA = PayloadSchema(fields=(("dist", "f8"),), tag="dist")


class BellmanFordNode(NodeAlgorithm):
    """Per-node distributed Bellman-Ford protocol.

    ``ctx.local_edges`` holds the list of incident *outgoing* input edges as
    ``(head, weight)`` pairs; a distance update at a node is pushed to the
    heads of its outgoing edges (i.e. distances flow along edge orientation).

    The protocol is event-driven: a round without incoming distance updates
    is a no-op, so the simulator's fast path skips idle nodes entirely.
    """

    event_driven = True

    def __init__(self, node: NodeId, source: NodeId) -> None:
        super().__init__()
        self.node = node
        self.source = source
        self.dist: float = INF
        self.parent: Optional[NodeId] = None
        self._best: Optional[Dict[NodeId, float]] = None

    def _push(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        if ctx.local_edges is None:
            return {}
        best = self._best
        if best is None:
            # For each neighbour keep only the lightest parallel edge; the
            # incident edge list never changes, so compute this once.
            neighbor_set = set(ctx.neighbors)
            best = {}
            for head, weight in ctx.local_edges:
                if head == self.node or head not in neighbor_set:
                    continue
                if head not in best or weight < best[head]:
                    best[head] = weight
            self._best = best
        dist = self.dist
        return {head: ("dist", dist + weight) for head, weight in best.items()}

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        if self.node == self.source:
            self.dist = 0.0
            self.output = (0.0, None)
            return self._push(ctx)
        self.output = (INF, None)
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        improved = False
        for msg in inbox:
            tag, d = msg.payload
            if tag != "dist":
                continue
            if d < self.dist:
                self.dist = d
                self.parent = msg.sender
                improved = True
        self.output = (self.dist, self.parent)
        if not improved:
            return {}
        return self._push(ctx)

    def on_link_recovery(self, ctx: NodeContext, neighbor: NodeId) -> Dict[NodeId, Any]:
        # Self-stabilizing re-announce: the neighbour may have missed this
        # node's distance while the link was down (or lost it by restarting
        # from scratch).  Distances only ever decrease and transient faults
        # leave the graph unchanged, so re-sending the current tentative
        # distance along the input edge reconverges the monotone protocol.
        if self.dist == INF or ctx.local_edges is None:
            return {}
        if self._best is None:
            self._push(ctx)
        weight = self._best.get(neighbor)
        if weight is None:
            return {}
        return {neighbor: ("dist", self.dist + weight)}


def _segmented_min_parent(vals, starts, senders, sentinel):
    """Per-segment min of ``vals`` and, among the positions attaining it, the
    smallest ``senders`` entry (``sentinel`` never wins — every segment is
    non-empty)."""
    import numpy as np

    seg_min = np.minimum.reduceat(vals, starts)
    counts = np.diff(np.r_[starts, vals.shape[0]])
    at_min = vals == np.repeat(seg_min, counts)
    sender_key = np.where(at_min, senders, sentinel)
    seg_parent = np.minimum.reduceat(sender_key, starts)
    return seg_min, seg_parent


class BellmanFordKernel(RoundKernel):
    """Whole-round vectorized Bellman-Ford (the ``vectorized`` tier).

    Bit-for-bit equivalent to :class:`BellmanFordNode` on the scalar tiers:

    * **state vectors** — ``dist`` (float64 tentative distances) and
      ``parent`` (int64 neighbour indices, ``-1`` for none);
    * **out-edge structure** — per directed input edge the owning CSR arc
      slot and the lightest parallel weight (the scalar ``_best`` map,
      precomputed once as an arc-aligned weight array);
    * **round** — segmented min over each receiver's inbox slice; the parent
      is the minimum-value sender with ties to the smallest sender index,
      exactly the scalar inbox scan (delivery order is ascending sender
      index, and only strict improvements update).  Improved nodes push
      ``dist + w`` on all their input out-arcs.
    """

    schema = BELLMAN_FORD_SCHEMA
    event_driven = True

    def __init__(self, source: NodeId, local_inputs: Mapping[NodeId, Any]) -> None:
        self.source = source
        self.local_inputs = local_inputs

    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        import numpy as np

        idx = csr.indexed
        # Arc-aligned weights of the directed input edges: w_arc[p] is the
        # lightest parallel input edge from arc p's owner to its neighbour
        # (inf when that owner has no input edge to that neighbour).
        w_arc = np.full(csr.num_arcs, INF, dtype=np.float64)
        has_out = np.zeros(csr.num_arcs, dtype=bool)
        indptr = idx.indptr
        for u, edges in self.local_inputs.items():
            i = idx.index_of.get(u)
            if i is None or not edges:
                continue
            lo, hi = indptr[i], indptr[i + 1]
            pos_of = {idx.neighbor_ids[i][p - lo]: p for p in range(lo, hi)}
            for head, weight in edges:
                if head == u:
                    continue
                p = pos_of.get(head)
                if p is None:
                    continue
                has_out[p] = True
                if weight < w_arc[p]:
                    w_arc[p] = weight

        dist = np.full(csr.num_nodes, INF, dtype=np.float64)
        parent = np.full(csr.num_nodes, -1, dtype=np.int64)
        state["dist"] = dist
        state["parent"] = parent
        state["w_arc"] = w_arc
        state["has_out"] = has_out
        # Preallocated round buffers: every round's traffic is written into
        # the same schema-typed arc-slot array.
        state["send"] = self.schema.alloc(csr.num_arcs)
        state["send_mask"] = np.zeros(csr.num_arcs, dtype=bool)

        src = idx.index_of.get(self.source)
        if src is None:
            return None
        dist[src] = 0.0
        mask = state["send_mask"]
        lo, hi = int(indptr[src]), int(indptr[src + 1])
        mask[lo:hi] = has_out[lo:hi]
        if not mask.any():
            return None
        return PackedSends(mask, self._fill_send(state, csr))

    def _fill_send(self, state: Dict[str, Any], csr) -> Dict[str, Any]:
        """Write ``dist + w`` for every arc into the reusable buffer."""
        import numpy as np

        buffers = state["send"]
        np.add(state["dist"][csr.arc_owner], state["w_arc"], out=buffers["dist"])
        return buffers

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        import numpy as np

        if len(inbox) == 0:
            return None
        vals = inbox["dist"]
        starts, receivers = inbox.segment_starts(csr)
        dist = state["dist"]

        # Parent choice replicates the scalar inbox scan: the first strict
        # improvement reaching the minimum wins, and delivery order is
        # ascending sender index — i.e. the minimum-index sender among the
        # minimum-value messages.
        seg_min, seg_parent = _segmented_min_parent(
            vals, starts, inbox_senders, csr.num_nodes
        )
        improved = seg_min < dist[receivers]
        if not improved.any():
            return None

        upd = receivers[improved]
        dist[upd] = seg_min[improved]
        state["parent"][upd] = seg_parent[improved]

        improved_nodes = np.zeros(csr.num_nodes, dtype=bool)
        improved_nodes[upd] = True
        mask = state["send_mask"]
        m = improved_nodes[csr.arc_owner] & state["has_out"]
        mask[:] = m
        if not m.any():
            return None
        return PackedSends(mask, self._fill_send(state, csr))

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        node_ids = csr.node_ids
        dist = state["dist"]
        parent = state["parent"]
        return {
            node_ids[i]: (
                float(dist[i]),
                node_ids[int(parent[i])] if parent[i] >= 0 else None,
            )
            for i in range(csr.num_nodes)
        }


@dataclass
class BellmanFordResult:
    """Result of a distributed Bellman-Ford execution."""

    distances: Dict[NodeId, float]
    parents: Dict[NodeId, Optional[NodeId]]
    rounds: int
    messages: int
    simulation: SimulationResult


def distributed_bellman_ford(
    instance: WeightedDiGraph,
    source: NodeId,
    max_rounds: Optional[int] = None,
    words_per_message: int = 8,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    fault_schedule=None,
    scheduler: Optional[str] = None,
) -> BellmanFordResult:
    """Run distributed Bellman-Ford SSSP from ``source`` on ``instance``.

    Returns exact shortest-path distances (``inf`` for unreachable nodes) plus
    the measured number of communication rounds.  ``engine``/``trace`` are
    passed through to :meth:`CongestNetwork.run` (the fast indexed engine is
    the default; ``engine="vectorized"`` runs the whole-round
    :class:`BellmanFordKernel`, and ``engine="async"`` executes the scalar
    protocol on the event-driven scheduler under ``delay_model``, with
    schedule-invariant distances and parents — all with identical results).
    ``scheduler`` selects the async tier's event queue (``"bucketed"``
    calendar queue, the default, or the ``"heap"`` reference — identical
    runs).

    ``fault_schedule`` (a :class:`~repro.congest.faults.FaultSchedule` or
    seeded :class:`~repro.congest.faults.FaultModel`) injects node/edge
    crash+recover transitions; it implies ``engine="async"`` when no engine
    is requested, requires the source to eventually recover (a source crashed
    forever can never re-seed distance 0 — rejected with
    :class:`~repro.errors.FaultInjectionError`), and raises the default round
    limit to cover the fault horizon plus reconvergence.
    """
    if not instance.has_node(source):
        raise GraphError(f"source {source!r} not in instance")
    comm = instance.underlying_graph()
    if comm.num_edges() == 0 and comm.num_nodes() > 1:
        raise GraphError("communication graph has no edges; SSSP cannot propagate")
    network = CongestNetwork(comm, words_per_message=words_per_message)
    local_inputs = {
        u: [(e.head, e.weight) for e in instance.out_edges(u)] for u in instance.nodes()
    }
    limit = max_rounds if max_rounds is not None else 4 * instance.num_nodes() + 16
    engine, fault_schedule = resolve_fault_run(
        network, fault_schedule, engine, [source], "Bellman-Ford SSSP"
    )
    if fault_schedule is not None and max_rounds is None:
        limit = 4 * instance.num_nodes() + 2 * fault_schedule.horizon + 32
    result = network.run(
        lambda u: BellmanFordNode(u, source),
        max_rounds=limit,
        local_inputs=local_inputs,
        stop_when_quiet=True,
        engine=engine,
        trace=trace,
        kernel=BellmanFordKernel(source, local_inputs),
        delay_model=delay_model,
        fault_schedule=fault_schedule,
        scheduler=scheduler,
    )
    distances = {u: out[0] for u, out in result.outputs.items() if out is not None}
    parents = {u: out[1] for u, out in result.outputs.items() if out is not None}
    return BellmanFordResult(
        distances=distances,
        parents=parents,
        rounds=result.rounds,
        messages=result.messages_sent,
        simulation=result,
    )
