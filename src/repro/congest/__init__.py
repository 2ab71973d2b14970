"""Message-level CONGEST model simulator and baseline distributed algorithms.

The CONGEST model (paper §2.1): the network is a simple undirected unweighted
graph whose nodes are processors with unique O(log n)-bit identifiers.
Computation proceeds in synchronous rounds; in each round every node may send
one O(log n)-bit message to each neighbour, receives all messages sent to it
in the same round, and performs arbitrary local computation.  Only the number
of communication rounds is measured.

This subpackage provides:

* :class:`~repro.congest.network.CongestNetwork` — the synchronous simulator,
  which enforces the per-edge bandwidth budget and counts rounds.
* :mod:`~repro.congest.engine` — the synchronous execution tiers behind
  ``CongestNetwork.run`` (legacy reference loop → indexed ``fast`` worklist →
  ``vectorized`` whole-round kernels), plus :class:`SimulationTrace` for
  round-by-round statistics.  The tiers are cross-certified by a randomized
  equivalence suite.
* :mod:`~repro.congest.scheduler` — the fourth, ``async`` tier: a
  discrete-event scheduler with pluggable seeded :class:`DelayModel`\\ s
  (:class:`UnitDelay`, :class:`UniformDelay`, :class:`PerArcDelay`,
  :class:`SlowLinkDelay`) and an α-synchronizer adapter, bit-for-bit equal
  to the synchronous tiers under unit delays and output-schedule-invariant
  under every seeded model.
* :mod:`~repro.congest.kernels` — the :class:`RoundKernel` API of the
  vectorized tier: per-node and per-arc state vectors, packed numpy payload
  arrays (:class:`~repro.congest.message.PayloadSchema`) keyed by dense CSR
  arc slot, and rounds executed as segmented reductions.
* :class:`~repro.congest.node.NodeAlgorithm` — base class for per-node
  protocols.
* :mod:`~repro.congest.primitives` — message-level BFS tree construction,
  flooding broadcast (single-value and pipelined multi-chunk), convergecast
  and leader election.  These ground the primitive-level cost model used by
  the higher layers.
* :mod:`~repro.congest.bellman_ford` — the classical distributed Bellman-Ford
  SSSP algorithm (scalar protocol and vectorized kernel), used as the
  general-graph baseline the paper's distance labeling is compared against.
"""

from repro.congest.message import Message, PayloadSchema, payload_size_words
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.congest.engine import (
    EngineFallbackWarning,
    RoundStats,
    SimulationTrace,
)
from repro.congest.kernels import (
    BFSTreeKernel,
    FloodingKernel,
    PackedInbox,
    PackedSends,
    RoundKernel,
)
from repro.congest.network import CongestNetwork, SimulationResult
from repro.congest.scheduler import (
    DelayModel,
    EventRecord,
    PerArcDelay,
    SlowLinkDelay,
    UniformDelay,
    UnitDelay,
    run_async,
)
from repro.congest import primitives, bellman_ford

__all__ = [
    "DelayModel",
    "EventRecord",
    "PerArcDelay",
    "SlowLinkDelay",
    "UniformDelay",
    "UnitDelay",
    "run_async",
    "Message",
    "PayloadSchema",
    "payload_size_words",
    "NodeAlgorithm",
    "NodeContext",
    "EngineFallbackWarning",
    "RoundStats",
    "SimulationTrace",
    "BFSTreeKernel",
    "FloodingKernel",
    "PackedInbox",
    "PackedSends",
    "RoundKernel",
    "CongestNetwork",
    "SimulationResult",
    "primitives",
    "bellman_ford",
]
