"""Message-level CONGEST primitives.

These are genuinely distributed (per-node, message-passing) implementations of
the basic building blocks used throughout the paper:

* :func:`build_bfs_tree` — BFS tree from a root in O(D) rounds.
* :func:`broadcast` — flooding broadcast of a value from a root in O(D) rounds.
* :func:`flood_chunks` — pipelined flooding of a *sequence* of chunks from a
  root in O(D + #chunks) rounds (the BCT-style broadcast of the paper's
  labeling construction: one chunk per neighbour per round, FIFO queues).
* :func:`convergecast_sum` — aggregation of values up a rooted tree in
  O(depth) rounds.
* :func:`elect_leader` — minimum-identifier leader election in O(D) rounds.

Each function runs the corresponding protocol on a
:class:`~repro.congest.network.CongestNetwork` and returns both the logical
result and the measured round count.  The higher layers of the library use
these measurements to calibrate the primitive-level cost model (see
:mod:`repro.core.rounds`).

Every primitive runs on all four engine tiers.  The scalar per-node
protocols below are the reference semantics (``legacy``/``fast``/``async``);
each helper also attaches the matching whole-round
:mod:`~repro.congest.kernels` kernel — :class:`BFSTreeKernel`,
:class:`FloodingKernel`, :class:`LeaderElectionKernel`,
:class:`ConvergecastKernel` — so ``engine="vectorized"`` produces
bit-for-bit identical outputs, rounds and ledger.  ``convergecast_sum``
attaches its kernel only for the default summing combiner over plain
numeric values; a custom ``combine`` falls back to the scalar tiers.  The
helpers forward ``scheduler=`` (async event queue: ``"bucketed"``/
``"heap"``) to :meth:`CongestNetwork.run`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.congest.message import Message
from repro.congest.network import CongestNetwork, SimulationResult
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import GraphError
from repro.graphs.graph import Graph

NodeId = Hashable


# --------------------------------------------------------------------------- #
# BFS tree
# --------------------------------------------------------------------------- #
class BFSTreeNode(NodeAlgorithm):
    """Per-node protocol constructing a BFS tree rooted at ``root``.

    Each node outputs ``(parent, depth)``; the root outputs ``(None, 0)``.
    The protocol is event-driven (idle rounds are no-ops).
    """

    event_driven = True

    def __init__(self, node: NodeId, root: NodeId) -> None:
        super().__init__()
        self.node = node
        self.root = root
        self.parent: Optional[NodeId] = None
        self.depth: Optional[int] = None

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        if self.node == self.root:
            self.depth = 0
            self.output = (None, 0)
            self.halt()
            return {v: ("bfs", 0) for v in ctx.neighbors}
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        best: Optional[Tuple[int, NodeId]] = None
        for msg in inbox:
            tag, d = msg.payload
            if tag != "bfs":
                continue
            cand = (d, msg.sender)
            if best is None or cand < best:
                best = cand
        # Only the first receipt counts: it already arrives at BFS distance.
        if best is None or self.depth is not None:
            return {}
        self.depth = best[0] + 1
        self.parent = best[1]
        self.output = (self.parent, self.depth)
        self.halt()
        return {v: ("bfs", self.depth) for v in ctx.neighbors if v != self.parent}


def build_bfs_tree(
    network: CongestNetwork,
    root: NodeId,
    max_rounds: int = 100_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    scheduler: Optional[str] = None,
) -> Tuple[Dict[NodeId, Optional[NodeId]], Dict[NodeId, int], SimulationResult]:
    """Construct a BFS tree rooted at ``root``.

    Returns ``(parent, depth, simulation_result)``; nodes unreachable from the
    root have no entry in either mapping.  ``engine``/``trace`` are passed
    through to :meth:`CongestNetwork.run`.  With ``engine="vectorized"`` the
    construction runs as the whole-round
    :class:`~repro.congest.kernels.BFSTreeKernel`, and ``engine="async"``
    executes the scalar protocol on the event-driven scheduler under
    ``delay_model`` — identical parents/depths and measured traffic on every
    tier.
    """
    if not network.graph.has_node(root):
        raise GraphError(f"root {root!r} not in network")
    from repro.congest.kernels import BFSTreeKernel

    result = network.run(
        lambda u: BFSTreeNode(u, root),
        max_rounds=max_rounds,
        engine=engine,
        trace=trace,
        kernel=BFSTreeKernel(root),
        delay_model=delay_model,
        scheduler=scheduler,
    )
    parent: Dict[NodeId, Optional[NodeId]] = {}
    depth: Dict[NodeId, int] = {}
    for u, out in result.outputs.items():
        if out is None:
            continue
        parent[u], depth[u] = out
    return parent, depth, result


# --------------------------------------------------------------------------- #
# Broadcast
# --------------------------------------------------------------------------- #
class FloodBroadcastNode(NodeAlgorithm):
    """Flood a single value from ``root`` to all nodes (O(D) rounds).

    Event-driven: a node acts exactly once, on first receipt.
    """

    event_driven = True

    def __init__(self, node: NodeId, root: NodeId, value: Any) -> None:
        super().__init__()
        self.node = node
        self.root = root
        self.value = value

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        if self.node == self.root:
            self.output = self.value
            self.halt()
            return {v: self.value for v in ctx.neighbors}
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        # Guard on halted, not on the output value: broadcasting None must
        # not make duplicate deliveries look like a first receipt.
        if self.halted or not inbox:
            return {}
        self.output = inbox[0].payload
        self.halt()
        return {v: self.output for v in ctx.neighbors if v != inbox[0].sender}


def broadcast(
    network: CongestNetwork,
    root: NodeId,
    value: Any,
    max_rounds: int = 100_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    scheduler: Optional[str] = None,
) -> Tuple[Dict[NodeId, Any], SimulationResult]:
    """Broadcast ``value`` from ``root``; returns ``(received_values, result)``."""
    result = network.run(
        lambda u: FloodBroadcastNode(u, root, value),
        max_rounds=max_rounds,
        engine=engine,
        trace=trace,
        delay_model=delay_model,
        scheduler=scheduler,
    )
    return dict(result.outputs), result


# --------------------------------------------------------------------------- #
# Pipelined multi-chunk flooding (BCT-style broadcast)
# --------------------------------------------------------------------------- #
class ChunkFloodNode(NodeAlgorithm):
    """Pipelined flooding of an ordered chunk sequence from ``root``.

    The root enqueues its ``C`` chunks as ``(k, C, payload)`` messages; every
    node forwards each chunk it learns to all neighbours except the one it
    came from, draining at most one chunk per neighbour per round (CONGEST
    discipline), so the broadcast pipelines in O(D + C) rounds.  A node halts
    once it holds all ``C`` chunks and has drained its queues; its output is
    the reassembled payload tuple.

    This is the generic transport that
    :class:`~repro.labeling.sssp.LabelBroadcastNode` subclasses with label
    decoding (overriding :meth:`_make_chunks` / :meth:`_finish`); the
    labeling construction uses it directly to *measure* the per-level H_x
    broadcasts of the paper's BCT routine on the engine.  ``self.chunks``
    holds the full wire chunk per index, so subclasses can define their own
    wire layout after the ``(k, total, ...)`` framing.
    """

    def __init__(self, node: NodeId, root: NodeId, chunks: Sequence[Any] = ()) -> None:
        super().__init__()
        self.node = node
        self.root = root
        self.source_chunks = chunks
        self.chunks: Dict[int, Any] = {}  # chunk index -> full wire chunk
        self.total: Optional[int] = None
        self.queues: Dict[NodeId, deque] = {}

    # -- subclass hooks -------------------------------------------------- #
    def _make_chunks(self) -> List[Any]:
        """Return the root's wire chunks, each starting with ``(k, total)``."""
        total = len(self.source_chunks)
        return [(k, total, payload) for k, payload in enumerate(self.source_chunks)]

    def _finish(self) -> None:
        """Set ``self.output`` from the complete ``self.chunks`` table."""
        self.output = tuple(self.chunks[k][2] for k in range(self.total))

    # -- shared transport mechanics -------------------------------------- #
    def _finish_if_complete(self) -> None:
        if self.total is None or len(self.chunks) < self.total:
            return
        if any(self.queues.values()):
            return
        self._finish()
        self.halt()

    def _learn(self, chunk, exclude: Optional[NodeId], ctx: NodeContext) -> None:
        k = chunk[0]
        if k in self.chunks:
            return
        self.total = chunk[1]
        self.chunks[k] = chunk
        for v in ctx.neighbors:
            if v == exclude:
                continue
            self.queues.setdefault(v, deque()).append(chunk)

    def _drain(self) -> Dict[NodeId, Any]:
        out: Dict[NodeId, Any] = {}
        for v, q in self.queues.items():
            if q:
                out[v] = q.popleft()
        self._finish_if_complete()
        return out

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        if self.node == self.root:
            wire = self._make_chunks()
            self.total = len(wire)
            for chunk in wire:
                self.chunks[chunk[0]] = chunk
                for v in ctx.neighbors:
                    self.queues.setdefault(v, deque()).append(chunk)
            return self._drain()
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        if self.halted:
            return {}
        for msg in inbox:
            self._learn(msg.payload, msg.sender, ctx)
        return self._drain()


def flood_chunks(
    network: CongestNetwork,
    root: NodeId,
    chunks: Sequence[Any],
    max_rounds: int = 1_000_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    scheduler: Optional[str] = None,
) -> Tuple[Dict[NodeId, Any], SimulationResult]:
    """Flood the ordered ``chunks`` from ``root``; O(D + len(chunks)) rounds.

    Returns ``(received, result)`` where ``received`` maps every node that
    completed the broadcast to the reassembled chunk tuple.  Each message
    carries one chunk plus (index, count) framing; size the network's
    ``words_per_message`` to the largest chunk.

    With ``engine="vectorized"`` the broadcast runs as the whole-round
    :class:`~repro.congest.kernels.FloodingKernel` — identical measured
    rounds and traffic on every tier, so engine-measured BCT broadcasts (see
    :func:`~repro.labeling.construction.build_distance_labeling`) can use
    any of them.
    """
    if not network.graph.has_node(root):
        raise GraphError(f"root {root!r} not in network")
    from repro.congest.kernels import FloodingKernel

    # Always attach the kernel (construction is cheap); CongestNetwork.run
    # reads it only on engine="vectorized".
    result = network.run(
        lambda u: ChunkFloodNode(u, root, chunks),
        max_rounds=max_rounds,
        engine=engine,
        trace=trace,
        kernel=FloodingKernel(root, chunks),
        delay_model=delay_model,
        scheduler=scheduler,
    )
    received = {u: out for u, out in result.outputs.items() if out is not None}
    return received, result


# --------------------------------------------------------------------------- #
# Convergecast (tree aggregation)
# --------------------------------------------------------------------------- #
class ConvergecastNode(NodeAlgorithm):
    """Aggregate per-node values up a rooted tree with an associative operator.

    Each node knows its parent and children in the tree (supplied at
    construction).  Leaves send immediately; internal nodes wait until all
    children have reported.  The root's output is the global aggregate.
    Event-driven: progress only happens when a child's report arrives.
    """

    event_driven = True

    def __init__(
        self,
        node: NodeId,
        parent: Optional[NodeId],
        children: List[NodeId],
        value: Any,
        combine: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__()
        self.node = node
        self.parent = parent
        self.children = list(children)
        self.pending = set(children)
        self.acc = value
        self.combine = combine

    def _maybe_send(self) -> Dict[NodeId, Any]:
        if self.pending:
            return {}
        self.output = self.acc
        self.halt()
        if self.parent is not None:
            return {self.parent: self.acc}
        return {}

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        return self._maybe_send()

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        if self.halted:
            return {}
        for msg in inbox:
            if msg.sender in self.pending:
                self.pending.discard(msg.sender)
                self.acc = self.combine(self.acc, msg.payload)
        return self._maybe_send()


def _sum_combine(a: Any, b: Any) -> Any:
    """Default convergecast combiner.

    Module-level (not a lambda) so :func:`convergecast_sum` can recognise
    the default by identity and attach
    :class:`~repro.congest.kernels.ConvergecastKernel` for the kernel tiers.
    """
    return a + b


def _kernel_safe_value(v: Any) -> bool:
    """Whether ``v`` sums exactly in the kernel's ``i8``/``f8`` vectors."""
    if isinstance(v, bool) or isinstance(v, float):
        return True
    return isinstance(v, int) and -(2**31) <= v <= 2**31


def convergecast_sum(
    network: CongestNetwork,
    parent: Dict[NodeId, Optional[NodeId]],
    values: Dict[NodeId, Any],
    combine: Callable[[Any, Any], Any] = _sum_combine,
    max_rounds: int = 100_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    scheduler: Optional[str] = None,
) -> Tuple[Any, SimulationResult]:
    """Aggregate ``values`` up the tree given as a child->parent map.

    Returns ``(root_aggregate, simulation_result)``.  With the default
    summing ``combine`` over plain numeric values the helper attaches
    :class:`~repro.congest.kernels.ConvergecastKernel`, so
    ``engine="vectorized"`` aggregates with whole-round segmented sums —
    bit-for-bit the scalar result; a custom ``combine`` (or exotic value
    types) runs on the scalar tiers only.
    """
    children: Dict[NodeId, List[NodeId]] = {u: [] for u in parent}
    root = None
    for u, p in parent.items():
        if p is None:
            root = u
        else:
            children[p].append(u)
    if root is None:
        raise GraphError("tree has no root")

    def factory(u: NodeId) -> NodeAlgorithm:
        if u in parent:
            return ConvergecastNode(
                u, parent[u], children[u], values.get(u, 0), combine
            )
        # Nodes outside the tree stay silent.
        algo = NodeAlgorithm()
        algo.halt()
        algo.on_round = lambda ctx, inbox: {}  # type: ignore[assignment]
        return algo

    kernel = None
    if combine is _sum_combine and all(
        _kernel_safe_value(values.get(u, 0)) for u in parent
    ):
        from repro.congest.kernels import ConvergecastKernel

        kernel = ConvergecastKernel(parent, values)
    result = network.run(
        factory, max_rounds=max_rounds, engine=engine, trace=trace,
        kernel=kernel, delay_model=delay_model, scheduler=scheduler,
    )
    return result.outputs[root], result


# --------------------------------------------------------------------------- #
# Leader election
# --------------------------------------------------------------------------- #
class LeaderElectionNode(NodeAlgorithm):
    """Minimum-identifier leader election by flooding (O(D) rounds)."""

    def __init__(self, node: NodeId) -> None:
        super().__init__()
        self.node = node
        self.best: Optional[str] = None
        self.best_raw: Any = None

    @staticmethod
    def _key(x: Any) -> str:
        return f"{type(x).__name__}:{x!r}"

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        self.best = self._key(self.node)
        self.best_raw = self.node
        self.output = self.best_raw
        return {v: self.node for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        improved = False
        for msg in inbox:
            k = self._key(msg.payload)
            if self.best is None or k < self.best:
                self.best = k
                self.best_raw = msg.payload
                improved = True
        self.output = self.best_raw
        if not improved:
            self.halt()
            return {}
        return {v: self.best_raw for v in ctx.neighbors}


def elect_leader(
    network: CongestNetwork,
    max_rounds: int = 100_000,
    engine: Optional[str] = None,
    trace=None,
    delay_model=None,
    scheduler: Optional[str] = None,
) -> Tuple[NodeId, SimulationResult]:
    """Elect the minimum-id node as leader; returns ``(leader, result)``.

    Raises :class:`GraphError` if the network is disconnected (nodes would
    disagree on the leader).  The helper attaches
    :class:`~repro.congest.kernels.LeaderElectionKernel`, so
    ``engine="vectorized"`` floods precomputed id ranks with whole-round
    segmented minima — bit-for-bit the scalar election.
    """
    if not network.graph.is_connected():
        raise GraphError("leader election requires a connected network")
    from repro.congest.kernels import LeaderElectionKernel

    result = network.run(
        lambda u: LeaderElectionNode(u), max_rounds=max_rounds, engine=engine,
        trace=trace, kernel=LeaderElectionKernel(),
        delay_model=delay_model, scheduler=scheduler,
    )
    leaders = set(map(str, result.outputs.values()))
    if len(leaders) != 1:
        raise GraphError("leader election did not converge to a unique leader")
    leader = next(iter(result.outputs.values()))
    return leader, result
