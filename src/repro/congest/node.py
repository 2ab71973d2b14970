"""Per-node protocol interface for the CONGEST simulator.

A distributed algorithm is expressed as a :class:`NodeAlgorithm` subclass;
the simulator instantiates one object per network node and drives them in
synchronous rounds.  Nodes only see their own id, their incident neighbour
ids, and the messages addressed to them — exactly the information available
to a CONGEST processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Set

from repro.congest.message import Message

NodeId = Hashable


@dataclass
class NodeContext:
    """The immutable local view a node has of the network.

    Attributes
    ----------
    node:
        This node's identifier.
    neighbors:
        The identifiers of adjacent nodes in the communication graph.
    n:
        The number of nodes in the network (standard CONGEST assumption:
        nodes know n, or a polynomial upper bound on it).
    round_number:
        The current round (0-based), updated by the simulator each round.
    local_edges:
        Application-supplied local input: for weighted/directed instances,
        the incident input edges (each node knows the orientation/weight of
        its incident edges, paper §2.1).
    """

    node: NodeId
    neighbors: Sequence[NodeId]
    n: int
    round_number: int = 0
    local_edges: Any = None


class NodeAlgorithm:
    """Base class for per-node CONGEST protocols.

    Subclasses override :meth:`initialize` and :meth:`on_round`.  A node
    signals local termination by calling :meth:`halt`; the simulation stops
    when every node has halted (or a round limit is reached).

    The division of labour mirrors the model: ``on_round`` receives the
    messages delivered this round and returns the messages to send in the
    next round as a mapping ``neighbor -> payload`` (at most one message per
    neighbour per round; the simulator enforces the word budget).

    Protocols whose ``on_round`` is a no-op on rounds without incoming
    messages may set the class attribute ``event_driven = True``: the
    simulator (both engines) then only invokes them on rounds where they
    receive at least one message.  Event-driven protocols must not rely on
    being polled every round — in particular they must not halt on silence or
    read ``ctx.round_number`` while idle.  This is purely an optimisation
    flag; it never changes the observable execution of a protocol that
    satisfies the contract.

    **Asynchronous execution contract.**  Under ``engine="async"`` the same
    rounds are executed out of lockstep: each node advances through its own
    pulses, and a round's inbox — identical messages, ascending-sender
    delivery order — arrives at a node-specific virtual time.  Each inbox
    :class:`~repro.congest.message.Message` carries ``sent_time`` /
    ``delivery_time`` stamps (``None`` on the synchronous tiers); a protocol
    may *read* them for instrumentation, but its outputs must not depend on
    them — outputs are required to be schedule-invariant, which every
    protocol that treats ``ctx.round_number`` as a logical round counter
    already satisfies.  The α-synchronizer delivers exactly the synchronous
    inboxes, so every protocol runs on the async tier unmodified.
    """

    #: See the class docstring; opt-in skip of idle rounds.
    event_driven = False

    def __init__(self) -> None:
        self._halted = False
        #: Arbitrary per-node output, readable after the simulation.
        self.output: Any = None

    # -- lifecycle ------------------------------------------------------- #
    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        """Called once before round 0; returns the messages to send in round 0."""
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        """Called every round with the messages received; returns messages to send."""
        raise NotImplementedError

    # -- fault recovery (async tier only) -------------------------------- #
    def on_link_recovery(self, ctx: NodeContext, neighbor: NodeId) -> Dict[NodeId, Any]:
        """The link to ``neighbor`` just recovered — re-announce if needed.

        Only the asynchronous tier with a fault schedule calls this hook: once
        per recovered incident link (after an ``edge_up``, or on either side of
        a restarted node once it is back).  Self-stabilizing protocols override
        it to re-send whatever state the neighbour may have missed while the
        link or one of its endpoints was down — typically the same announcement
        they would make on first contact.  The returned mapping is merged into
        the node's next outbox (the regular round's messages win on key
        collisions); the hook may also un-halt the node (``self._halted =
        False``) if reconvergence requires it to resume rounds.  The default
        ignores recoveries, which is correct for protocols that are oblivious
        to message loss.
        """
        return {}

    # -- termination ----------------------------------------------------- #
    def halt(self) -> None:
        """Mark this node as locally terminated."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted


class BroadcastAll(NodeAlgorithm):
    """Utility protocol: every node floods a single value to the whole network.

    Primarily used in tests of the simulator itself; real algorithms use the
    dedicated primitives in :mod:`repro.congest.primitives`.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__()
        self.value = value
        self.known: Set[Any] = set()

    def initialize(self, ctx: NodeContext) -> Dict[NodeId, Any]:
        self.known = {(ctx.node, self.value)}
        return {v: (ctx.node, self.value) for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Dict[NodeId, Any]:
        new = set()
        for msg in inbox:
            if msg.payload not in self.known:
                self.known.add(msg.payload)
                new.add(msg.payload)
        if not new:
            self.halt()
            self.output = self.known
            return {}
        # Forward one newly learned item per neighbour per round (CONGEST!).
        item = next(iter(new))
        return {v: item for v in ctx.neighbors}
