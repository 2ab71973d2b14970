"""Event-driven asynchronous execution tier for the CONGEST simulator.

This module implements ``engine="async"`` — the fourth execution tier of
:meth:`CongestNetwork.run`.  Instead of the lockstep round loop of the
synchronous tiers, a discrete-event scheduler drives the network from an
event queue: every (arc, message) pair is assigned an integer *delivery
time* by a pluggable :class:`DelayModel`, and nodes advance through their
protocol whenever the messages they are waiting for have arrived.

**Two interchangeable event queues** (``run_async(..., scheduler=...)``):

``"bucketed"`` (default)
    A calendar queue: events are appended to per-instant *buckets* (a dict
    keyed by delivery time plus a small heap of the distinct bucket times),
    and the loop pops whole buckets instead of individual heap entries.
    Because delays are ``>= 1``, every push targets a strictly future
    instant, so a draining bucket never grows and append order within a
    bucket equals the heap's sequence order.  A bucket holds three event
    kinds: envelope, range-tick and fault.  The one fused event is the
    silent pulse under unit delay — the dominant traffic of a converging
    protocol: a node with nothing to send emits its whole run of empty
    pulse markers plus its self-tick as a single range-tick over its
    consecutive CSR arc positions.  Every other envelope (payloads, the
    markers of a node that also sends, anything under a non-unit delay)
    goes through the per-arc loop shared with the heap, one event per arc,
    and every other self-tick is a range-tick over no arcs.  This is the
    fast path: it removes the per-envelope ``heappush``/``heappop`` pair
    (an O(log queue) tuple comparison each) from the hot loop.

``"heap"``
    The reference implementation: one binary-heap entry per envelope and
    per self-tick, ordered by ``(time, seq)``, with its own push and drain.
    The schedule-fuzz sweep and the fault suite cross-check the two queues
    event for event.

Both queues process the same events in the same order, so results, message
ledger, round trace, recorded :class:`EventRecord` streams,
``virtual_time``, fault semantics (``_EV_FAULT`` fires before any
same-instant envelope) and the deterministic ``async_stats`` fields are
bit-for-bit identical — asserted across the equivalence families in
``tests/test_async_scheduler.py``.  The only divergence is the wall-clock
``events_per_sec`` figure.

**The α-synchronizer adapter.**  The protocols of this repository are written
against synchronous rounds (one :meth:`NodeAlgorithm.on_round` call per
round, all round-``r`` messages delivered together).  The async tier runs
them *unmodified* by layering an α-synchronizer on top of the event queue:

* each node proceeds through local *pulses* ``0, 1, 2, ...`` (pulse 0 is
  :meth:`NodeAlgorithm.initialize`; pulse ``p ≥ 1`` is the node's execution
  of synchronous round ``p``);
* when a node completes pulse ``p`` it puts one *envelope* on every incident
  arc — the protocol message for that neighbour if the round's outbox
  contains one, otherwise an empty pulse marker (the synchronizer's "safe"
  signal rides the same wire).  The envelope's travel time is
  ``DelayModel.delay(arc, p)``; a node also pays one local time unit per
  pulse (its self-clock), so virtual time advances even on isolated nodes;
* a node may execute pulse ``p + 1`` once the pulse-``p`` envelope of
  *every* neighbour has arrived (plus its own self-clock tick).  Its inbox
  is exactly the protocol messages its neighbours sent in round ``p``,
  delivered in ascending sender-index order — the delivery order of the
  synchronous tiers.

Because a pulse-``p + 1`` inbox is independent of *when* its envelopes
arrived, the protocol execution (outputs, halting, message traffic) is a
pure function of the protocol and the graph — **schedule-invariant** by
construction.  Under the :class:`UnitDelay` model every envelope takes one
time unit, node pulses coincide with global rounds, and the whole run —
results, message/word/bandwidth ledger, round trace — is bit-for-bit
identical to the three synchronous tiers (asserted across the randomized
equivalence families in ``tests/test_async_scheduler.py``).  Under any other
seeded model, protocol *outputs* are identical while the *timing* changes:
``SimulationResult.virtual_time`` reports the event-queue time of the last
executed pulse, and ``SimulationResult.async_stats`` reports per-arc
in-flight high-water marks (how many payload-carrying envelopes overlapped
on one directed link — > 1 shows pipelining across a slow link).

**Accounting contract.**  Only protocol messages are accounted: empty pulse
markers model the synchronizer's control traffic and are free, so
``messages_sent`` / ``words_sent`` / ``max_words_per_edge_round`` /
``max_message_words`` equal the synchronous tiers under *every* delay model
(the same messages cross the same edges in the same logical rounds).  A
:class:`~repro.congest.engine.SimulationTrace` receives the same per-round
:class:`~repro.congest.engine.RoundStats` records as the synchronous tiers;
constructing it with ``record_events=True`` additionally captures one
:class:`EventRecord` per send / delivery / node execution with virtual
timestamps.

**Termination.**  The scheduler is omniscient: it applies the synchronous
stop rules (global quiescence / all nodes halted / ``max_rounds``) to each
globally completed pulse.  A node that is ready to enter pulse ``p + 1``
while no round-``p`` message has been generated anywhere yet is held until
either some node sends one (the run certainly continues) or every node has
completed pulse ``p`` and the run is known to continue — so no protocol
callback ever runs that the synchronous tiers would not have run.

**Fault injection.**  ``run_async(..., fault_schedule=...)`` accepts a
:class:`~repro.congest.faults.FaultSchedule` (or seeded
:class:`~repro.congest.faults.FaultModel` generator) whose node/edge
crash+recover transitions enter the same event queue as ``_EV_FAULT``
events.  The synchronizer's control plane is modelled as reliable: a
crashed node's pulses keep ticking as scheduler-driven *ghost* pulses that
run no protocol code, so pulse structure, round accounting and the
fault-free fast path are untouched — only protocol payloads (dropped on
crashed links / to-from crashed nodes, but still charged to the ledger at
send) and protocol state (lost on crash, rebuilt from ``initialize`` plus
:meth:`~repro.congest.node.NodeAlgorithm.on_link_recovery` re-announcements
on restart) fail.  See :mod:`repro.congest.faults` for the model,
determinism and reconvergence contracts; the run's fault accounting is
returned as ``SimulationResult.fault_verdict``.

**Delay models** (all deterministic: a delay is a pure seeded function of
``(arc, pulse)``, so a run is reproducible from the model alone):

=====================  =====================================================
:class:`UnitDelay`     every envelope takes 1 time unit (≡ synchronous)
:class:`UniformDelay`  i.i.d. integers from ``[low, high]``, seeded per
                       (arc, pulse)
:class:`PerArcDelay`   fixed per-directed-arc delays given as
                       ``{(u, v): delay}``, default elsewhere
:class:`SlowLinkDelay` adversarial: a seeded random subset of directed arcs
                       is slowed to ``slow_delay``, the rest run at
                       ``fast_delay``
=====================  =====================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import index
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.congest.engine import RoundStats, SimulationTrace
from repro.congest.faults import FaultVerdict, _mix, resolve_fault_schedule
from repro.congest.message import Message, payload_size_words
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import (
    BandwidthExceededError,
    ConvergenceError,
    GraphError,
    SimulationError,
)

NodeId = Hashable

#: Event kinds.  The heap queue uses envelope, tick and fault; the bucketed
#: queue uses envelope, range-tick and fault.
_EV_ENVELOPE = 0  # an envelope reaches its arc head: a protocol payload, or
#                   the _no_payload sentinel for an empty pulse marker
_EV_TICK = 1  # heap queue only: a node's per-pulse self-clock fires
_EV_FAULT = 2  # a scheduled fault transition fires (see repro.congest.faults)
_EV_RANGE_TICK = 3  # bucketed queue only, (kind, lo, hi, p, i): pulse-p
#                     markers on sender i's consecutive arcs [lo, hi), then
#                     i's self-tick.  A silent node under unit delay covers
#                     its whole arc slice; any other self-tick has lo == hi.

#: Event-queue implementations accepted by ``run_async(..., scheduler=...)``.
SCHEDULERS = ("heap", "bucketed")


class _Calendar(dict):
    """The bucketed queue: per-instant event buckets keyed by delivery time.

    ``times`` is a min-heap of the instants that have a bucket.  Indexing
    an instant without a bucket creates it and enters its time in
    ``times`` — the only way a bucket is made, so a time enters ``times``
    exactly once.
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        super().__init__()
        self.times: List[int] = []

    def __missing__(self, t: int) -> List[Tuple]:
        heappush(self.times, t)
        self[t] = bucket = []
        return bucket


# --------------------------------------------------------------------------- #
# Delay models
# --------------------------------------------------------------------------- #
class DelayModel:
    """Assigns every (arc, pulse) envelope an integer travel time ``≥ 1``.

    Subclasses override :meth:`delay` (and optionally :meth:`bind`, called
    once per run with the network's
    :class:`~repro.graphs.indexed.IndexedGraph` snapshot to resolve node-id
    keyed configuration into dense arc positions).  Delays must be a
    deterministic function of the model's construction parameters and
    ``(arc, pulse)`` — never of call order — so that any observed schedule
    is reproducible from the model alone.  The async tier runs every
    instance.
    """

    def bind(self, indexed) -> None:
        """Resolve per-run structure; called once before the event loop.

        Subclasses may precompute dense per-arc tables here.  Keep only what
        :meth:`delay` needs, so a model stays small and reusable across runs
        (do not retain the graph snapshot itself).
        """

    def delay(self, arc: int, pulse: int) -> int:
        """Travel time of the pulse-``pulse`` envelope on arc position ``arc``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class UnitDelay(DelayModel):
    """Every envelope takes exactly one time unit.

    The calibration model: with it the asynchronous execution is bit-for-bit
    identical — results, ledger, trace, and ``virtual_time == rounds`` — to
    the synchronous tiers.
    """

    def delay(self, arc: int, pulse: int) -> int:
        return 1

    def __repr__(self) -> str:
        return "UnitDelay()"


class UniformDelay(DelayModel):
    """Independent uniform integer delays from ``[low, high]``, seeded.

    Each (arc, pulse) pair draws its own delay via a stateless hash of
    ``(seed, arc, pulse)``, so two runs with the same seed see the same
    schedule regardless of execution order.
    """

    def __init__(self, low: int = 1, high: int = 4, seed: int = 0) -> None:
        if not 1 <= int(low) <= int(high):
            raise ValueError(
                f"UniformDelay requires 1 <= low <= high, got [{low}, {high}]"
            )
        self.low = int(low)
        self.high = int(high)
        self.seed = int(seed)

    def delay(self, arc: int, pulse: int) -> int:
        span = self.high - self.low + 1
        return self.low + _mix(self.seed, arc, pulse) % span

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high}, seed={self.seed})"


class PerArcDelay(DelayModel):
    """Fixed per-directed-arc delays, keyed by ``(tail, head)`` node ids.

    ``delays`` maps directed arcs — ``(u, v)`` meaning messages *from* ``u``
    *to* ``v`` — to integer delays; every unlisted arc uses ``default``.
    The two directions of an edge are independent keys.  Unknown arcs raise
    :class:`~repro.errors.GraphError` at bind time.
    """

    def __init__(
        self,
        delays: Optional[Mapping[Tuple[NodeId, NodeId], int]] = None,
        default: int = 1,
    ) -> None:
        if int(default) < 1:
            raise ValueError(f"PerArcDelay default must be >= 1, got {default}")
        self.delays = dict(delays or {})
        self.default = int(default)
        for key, d in self.delays.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValueError(
                    f"PerArcDelay keys are (tail, head) node-id pairs, got {key!r}"
                )
            if int(d) < 1:
                raise ValueError(f"PerArcDelay delay for {key!r} must be >= 1, got {d}")
        self._table: Optional[List[int]] = None

    def bind(self, indexed) -> None:
        table = [self.default] * len(indexed.indices)
        pos_of: Dict[Tuple[NodeId, NodeId], int] = {}
        node_ids = indexed.node_ids
        for i in range(indexed.num_nodes):
            lo, hi = indexed.indptr[i], indexed.indptr[i + 1]
            for pos in range(lo, hi):
                pos_of[(node_ids[i], node_ids[indexed.indices[pos]])] = pos
        for key, d in self.delays.items():
            pos = pos_of.get(key)
            if pos is None:
                raise GraphError(
                    f"PerArcDelay key {key!r} is not a directed arc of the network"
                )
            table[pos] = int(d)
        self._table = table

    def delay(self, arc: int, pulse: int) -> int:
        return self._table[arc]

    def __repr__(self) -> str:
        return f"PerArcDelay({len(self.delays)} keyed arcs, default={self.default})"


class SlowLinkDelay(DelayModel):
    """Adversarial model: a seeded random subset of directed arcs is slow.

    Each directed arc is independently slowed with probability
    ``slow_fraction`` (decided by a stateless hash of ``(seed, arc)``, so
    the slow set is fixed for the whole run); slow arcs take ``slow_delay``
    time units per envelope, the rest ``fast_delay``.  Asymmetric by design:
    the two directions of an edge are slowed independently, which is what
    lets messages pile up on a slow link while its reverse direction keeps
    the synchronizer running (visible as per-arc in-flight high-water marks
    ``> 1`` in ``SimulationResult.async_stats``).
    """

    def __init__(
        self,
        slow_fraction: float = 0.25,
        slow_delay: int = 8,
        fast_delay: int = 1,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction must be in [0, 1], got {slow_fraction}")
        if int(fast_delay) < 1 or int(slow_delay) < int(fast_delay):
            raise ValueError(
                f"need 1 <= fast_delay <= slow_delay, got {fast_delay}, {slow_delay}"
            )
        self.slow_fraction = float(slow_fraction)
        self.slow_delay = int(slow_delay)
        self.fast_delay = int(fast_delay)
        self.seed = int(seed)
        self._slow: Optional[List[bool]] = None

    def bind(self, indexed) -> None:
        threshold = int(self.slow_fraction * (1 << 32))
        self._slow = [
            (_mix(self.seed, arc) & 0xFFFFFFFF) < threshold
            for arc in range(len(indexed.indices))
        ]

    def delay(self, arc: int, pulse: int) -> int:
        return self.slow_delay if self._slow[arc] else self.fast_delay

    def slow_arcs(self) -> List[int]:
        """The arc positions slowed in the currently bound network."""
        if self._slow is None:
            raise SimulationError("SlowLinkDelay is not bound to a network yet")
        return [a for a, s in enumerate(self._slow) if s]

    def __repr__(self) -> str:
        return (
            f"SlowLinkDelay(fraction={self.slow_fraction}, "
            f"slow={self.slow_delay}, fast={self.fast_delay}, seed={self.seed})"
        )


# --------------------------------------------------------------------------- #
# Event records (SimulationTrace(record_events=True))
# --------------------------------------------------------------------------- #
@dataclass
class EventRecord:
    """One scheduler event, captured when the trace records events.

    ``kind`` is ``"execute"`` (a node runs a pulse), ``"send"`` (a protocol
    message departs on an arc) or ``"deliver"`` (a protocol message reaches
    its receiver); ``peer`` is the other endpoint for send/deliver events.
    Runs with a fault schedule additionally record one event per fault
    transition (``kind`` is the fault kind — ``"node_down"``, ``"node_up"``,
    ``"edge_down"``, ``"edge_up"``, with ``peer`` the far endpoint for edge
    faults) and a ``"drop"`` event per lost protocol payload (at the send
    instant when the link/receiver is already down, at the scheduled arrival
    instant when the message was voided mid-flight).
    Times are virtual (event-queue) times, pulses are logical round numbers.
    """

    time: int
    kind: str
    node: NodeId
    pulse: int
    peer: Optional[NodeId] = None
    words: int = 0


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #
def run_async(
    network,
    algorithm_factory: Callable[[NodeId], NodeAlgorithm],
    delay_model: Optional[DelayModel] = None,
    max_rounds: int = 10_000,
    local_inputs: Optional[Mapping[NodeId, Any]] = None,
    stop_when_quiet: bool = True,
    trace: Optional[SimulationTrace] = None,
    fault_schedule=None,
    scheduler: str = "bucketed",
):
    """Execute one protocol on ``network`` through the event-driven tier.

    See the module docstring for the semantics.  Returns a
    :class:`~repro.congest.network.SimulationResult` whose ``rounds`` /
    ``outputs`` / message ledger equal the synchronous tiers (bit-for-bit
    under :class:`UnitDelay`, output-identical under every model) and whose
    ``virtual_time`` / ``async_stats`` report the asynchronous timing.
    ``scheduler`` selects the event-queue implementation — ``"bucketed"``
    (the calendar-queue fast path, default) or ``"heap"`` (the reference
    binary heap); both produce identical runs (see the module docstring).
    ``fault_schedule`` — a :class:`~repro.congest.faults.FaultSchedule` or
    :class:`~repro.congest.faults.FaultModel` — injects seeded node/edge
    crash+recover transitions; the run then reports its fault accounting as
    ``SimulationResult.fault_verdict`` and crashed nodes that never recover
    report ``None`` outputs.  A ``delay_model`` that is not a
    :class:`DelayModel` raises :class:`~repro.errors.SimulationError`.
    """
    from repro.congest.network import SimulationResult

    if scheduler not in SCHEDULERS:
        raise SimulationError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    use_buckets = scheduler == "bucketed"
    if delay_model is not None and not isinstance(delay_model, DelayModel):
        raise SimulationError(
            f"delay_model must be a DelayModel instance, got {type(delay_model)!r}"
        )

    idx = network.indexed
    n = idx.num_nodes
    node_ids = idx.node_ids
    neighbor_ids = idx.neighbor_ids
    indptr = idx.indptr
    indices = idx.indices
    out_maps = network._out_maps  # per node: original neighbour id -> (idx, edge id)
    budget = network.words_per_message

    model = delay_model if delay_model is not None else UnitDelay()
    model.bind(idx)
    unit = type(model) is UnitDelay

    algos: List[NodeAlgorithm] = [None] * n  # type: ignore[list-item]
    ctxs: List[NodeContext] = [None] * n  # type: ignore[list-item]
    for i in range(n):
        u = node_ids[i]
        algo = algorithm_factory(u)
        if not isinstance(algo, NodeAlgorithm):
            raise SimulationError(
                f"algorithm_factory must return NodeAlgorithm instances, got {type(algo)!r}"
            )
        algos[i] = algo
        ctxs[i] = NodeContext(
            node=u,
            neighbors=neighbor_ids[i],
            n=n,
            round_number=0,
            local_edges=None if local_inputs is None else local_inputs.get(u),
        )
    event_flags = [a.event_driven for a in algos]

    num_arcs = len(indices)
    deg = [indptr[i + 1] - indptr[i] for i in range(n)]
    arc_sender = [0] * num_arcs
    arc_pos_of: List[Dict[NodeId, int]] = []
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        arc_pos_of.append({neighbor_ids[i][k]: lo + k for k in range(hi - lo)})
        for pos in range(lo, hi):
            arc_sender[pos] = i

    record_events = trace is not None and getattr(trace, "record_events", False)
    _no_payload = object()  # sentinel: empty envelope / no payload sized yet
    _empty_payloads: Dict[int, Tuple[Any, int]] = {}  # silent node's (read-only) outbox

    # -- ledger (mirrors run_fast's collect()) ---------------------------- #
    messages_sent = 0
    words_sent = 0
    max_message_words = 0
    max_edge_round_words = 0
    sent_msgs: Dict[int, int] = {}  # pulse -> protocol messages sent in it
    sent_words: Dict[int, int] = {}
    edge_batches: Dict[int, Dict[int, int]] = {}  # round -> edge id -> words
    batch_edge_max: Dict[int, int] = {}  # sealed per-round busiest edge
    invoked: Dict[int, int] = {}  # pulse -> on_round/initialize census
    halted_in_pulse: Dict[int, int] = {}
    halted_recorded = 0  # prefix over globally completed pulses (uncontaminated
    #                      by nodes that already ran ahead into the next pulse)
    completed_in_pulse: Dict[int, int] = {}
    release: Dict[int, bool] = {}  # pulse p -> run certainly continues past p
    held: Dict[int, List[int]] = {}  # pulse -> ready nodes awaiting release

    # Per-arc min-heaps of outstanding payload arrival times: the in-flight
    # high-water mark is the maximum [send, arrival) interval overlap, which
    # can only increase at a send instant — arrivals at or before it are
    # popped lazily first, so simultaneous arrive/depart does not overlap.
    arc_outstanding: Dict[int, List[int]] = {}
    arc_high_water: Dict[int, int] = {}

    events_processed = 0
    virtual_time = 0
    rounds = 0
    stopped = False

    heard: List[Dict[int, int]] = [dict() for _ in range(n)]
    # inbuf[i][p]: protocol messages of sender-pulse p awaiting i's pulse p+1,
    # as (sender index, payload, words, sent time, arrival time).
    inbuf: List[Dict[int, List[Tuple[int, Any, int, int, int]]]] = [
        dict() for _ in range(n)
    ]

    heap: List[Tuple] = []
    seq = 0
    todo = deque()  # pending (node, pulse, time) executions
    # Calendar queue (scheduler="bucketed").  Every push targets a strictly
    # future instant (delays are >= 1), so a draining bucket never grows and
    # append order within a bucket is exactly the heap's (time, seq) order.
    buckets = _Calendar()
    times = buckets.times

    # -- fault-injection state (inert when no schedule is given) ---------- #
    bound_faults: List = []
    if fault_schedule is not None:
        bound_faults = resolve_fault_schedule(fault_schedule, idx).bind(network)
    faults_on = bool(bound_faults)
    faults_fired = 0
    last_fault_round = 0
    payloads_dropped = 0
    node_up_ = [True] * n
    node_last_down = [-1] * n  # virtual time of each node's last crash
    restart_pending = [False] * n  # recovered, fresh instance not yet built
    edge_down: set = set()  # edge ids currently crashed
    edge_last_down: Dict[int, int] = {}  # edge id -> time of last crash
    link_notices: List[set] = [set() for _ in range(n)]  # pending recoveries
    arc_eid = [0] * num_arcs
    edge_ends: Dict[int, Tuple[NodeId, NodeId]] = {}
    if faults_on:
        for i in range(n):
            omap = out_maps[i]
            lo = indptr[i]
            for k, nbr in enumerate(neighbor_ids[i]):
                arc_eid[lo + k] = omap[nbr][1]
        for bev in bound_faults:
            if bev.eid >= 0:
                edge_ends.setdefault(bev.eid, (node_ids[bev.u], node_ids[bev.v]))
        # Fault transitions enter the queue first: their sequence numbers are
        # the smallest (equivalently, they sit at the front of their bucket),
        # so at any instant every fault applies before that instant's
        # envelope arrivals (and hence before the executions those arrivals
        # trigger) — faults take effect at the *start* of their time.
        if use_buckets:
            for k, bev in enumerate(bound_faults):
                buckets[bev.time].append((_EV_FAULT, k))
        else:
            fault_tail = (0, _no_payload, 0, 0)  # hoisted sentinel packing
            for k, bev in enumerate(bound_faults):
                seq += 1
                heappush(heap, (bev.time, seq, _EV_FAULT, k) + fault_tail)

    def _apply_fault(bev, now: int) -> None:
        nonlocal faults_fired, last_fault_round
        faults_fired += 1
        last_fault_round = rounds
        if bev.kind == "node_down":
            i = bev.node
            node_up_[i] = False
            node_last_down[i] = now
            algos[i] = None  # fail-stop: all volatile protocol state is lost
            restart_pending[i] = False
            inbuf[i].clear()
            link_notices[i].clear()
            if record_events:
                trace.record_event(EventRecord(now, "node_down", node_ids[i], rounds))
        elif bev.kind == "node_up":
            i = bev.node
            node_up_[i] = True
            restart_pending[i] = True
            # Re-announce both ways across every currently-live link: the
            # restarted node learns its live neighbours, and they learn it.
            for pos in range(indptr[i], indptr[i + 1]):
                jn = indices[pos]
                if node_up_[jn] and arc_eid[pos] not in edge_down:
                    link_notices[i].add(jn)
                    link_notices[jn].add(i)
            if record_events:
                trace.record_event(EventRecord(now, "node_up", node_ids[i], rounds))
        elif bev.kind == "edge_down":
            edge_down.add(bev.eid)
            edge_last_down[bev.eid] = now
            if record_events:
                trace.record_event(
                    EventRecord(now, "edge_down", node_ids[bev.u], rounds,
                                peer=node_ids[bev.v])
                )
        else:  # edge_up
            edge_down.discard(bev.eid)
            if node_up_[bev.u] and node_up_[bev.v]:
                link_notices[bev.u].add(bev.v)
                link_notices[bev.v].add(bev.u)
            if record_events:
                trace.record_event(
                    EventRecord(now, "edge_up", node_ids[bev.u], rounds,
                                peer=node_ids[bev.v])
                )

    def _delay(pos: int, pulse: int) -> int:
        d = model.delay(pos, pulse)
        try:
            if isinstance(d, bool):
                raise TypeError
            d = index(d)  # any integral type (numpy ints included), not floats
        except TypeError:
            d = 0
        if d < 1:
            raise SimulationError(
                f"delay model {model!r} returned {model.delay(pos, pulse)!r} for "
                f"arc {pos}; delays must be integers >= 1"
            )
        return d

    def _drop(now: int, node: int, p: int, peer: int, words: int) -> None:
        """Count a lost protocol payload and record its ``drop`` event.

        ``node`` is the endpoint where the loss shows: the sender when the
        payload dies at send, the receiver when it was voided in flight.
        """
        nonlocal payloads_dropped
        payloads_dropped += 1
        if record_events:
            trace.record_event(
                EventRecord(now, "drop", node_ids[node], p, peer=node_ids[peer],
                            words=words)
            )

    def _deliver(pos: int, j: int, p: int, payload: Any, size: int,
                 sent_at: int, now: int) -> None:
        """A payload on arc ``pos`` reaches ``j``: buffer it for pulse p+1."""
        s = arc_sender[pos]
        if faults_on and (
            arc_eid[pos] in edge_down
            or edge_last_down.get(arc_eid[pos], -1) > sent_at
            or not node_up_[j]
            or node_last_down[j] > sent_at
            or node_last_down[s] > sent_at
        ):
            # Voided mid-flight: the link or either endpoint crashed after
            # the send (strictly — a transition at time t precedes every
            # send at time t) or is still down now.  The envelope degrades
            # to an empty pulse marker.
            _drop(now, j, p, s, size)
            return
        inbuf[j].setdefault(p, []).append((s, payload, size, sent_at, now))
        if record_events:
            trace.record_event(
                EventRecord(now, "deliver", node_ids[j], p, peer=node_ids[s],
                            words=size)
            )

    def _inbox(i: int, entries: List[Tuple]) -> List[Message]:
        """Buffered round mail of node ``i``, in ascending sender index."""
        entries.sort(key=lambda e: e[0])
        return [
            Message(node_ids[s], node_ids[i], payload, sent_time=st, delivery_time=at)
            for s, payload, _w, st, at in entries
        ]

    def _recover(algo: NodeAlgorithm, ctx: NodeContext, notices) -> Dict[NodeId, Any]:
        """Run the pending link-recovery notices in neighbour-index order;
        returns the merged re-announcements."""
        out: Dict[NodeId, Any] = {}
        for jn in sorted(notices):
            ret = algo.on_link_recovery(ctx, node_ids[jn])
            if ret:
                out.update(ret)
        return out

    def _seal_batch(r: int) -> None:
        """Fix round ``r``'s per-edge words once all its sends are known."""
        nonlocal max_edge_round_words
        words = edge_batches.pop(r, None)
        m = max(words.values()) if words else 0
        batch_edge_max[r] = m
        if m > max_edge_round_words:
            max_edge_round_words = m

    def _release(p: int, now: int) -> None:
        """The run certainly continues past pulse ``p``: free the held nodes."""
        release[p] = True
        for j in held.pop(p + 1, ()):
            todo.append((j, p + 1, now))

    def _verdict(p: int, now: int) -> None:
        """All ``n`` nodes completed pulse ``p``: apply the synchronous
        stop rules (the exact check order of the round loops, including the
        convergence check preceding the quiescence breaks)."""
        nonlocal stopped, rounds, halted_recorded
        if faults_on:
            # Crashes and recovery re-announcements can un-halt nodes, so the
            # fault-free prefix accounting does not apply: recount the live
            # halted population (down nodes are crashed, not halted).
            halted_count = sum(
                1 for i2 in range(n)
                if node_up_[i2] and algos[i2] is not None and algos[i2].halted
            )
        else:
            halted_recorded += halted_in_pulse.pop(p, 0)
            halted_count = halted_recorded
        if p >= 1 and trace is not None:
            trace.record(
                RoundStats(
                    round_number=p,
                    active_nodes=invoked.pop(p, 0),
                    messages_delivered=sent_msgs.get(p - 1, 0),
                    words_delivered=sent_words.get(p - 1, 0),
                    max_edge_words=batch_edge_max.pop(p, 0),
                    halted_nodes=halted_count,
                )
            )
        staged = sent_msgs.get(p, 0)
        if p >= max_rounds:
            raise ConvergenceError(
                f"simulation did not terminate within {max_rounds} rounds"
            )
        # Under faults, quiescence may only stop the run once every scheduled
        # transition has fired and every restart / recovery re-announcement
        # has been consumed — otherwise the protocol would be declared done
        # while reconvergence work is still pending.  Pulses keep ticking in
        # the meantime (every node self-clocks >= 1 time unit per pulse), so
        # virtual time always reaches the fault horizon.
        can_stop = not faults_on or (
            faults_fired == len(bound_faults)
            and not any(restart_pending)
            and not any(link_notices)
        )
        if can_stop and (
            (halted_count == n and staged == 0)
            or (stop_when_quiet and staged == 0 and p > 0)
        ):
            stopped = True
            rounds = p
            return
        rounds = p + 1  # round p+1 will run (its executions may already have)
        _seal_batch(p + 1)
        if not release.get(p):
            _release(p, now)

    def _execute(i: int, p: int, now: int) -> None:
        nonlocal messages_sent, words_sent, max_message_words, virtual_time, seq
        algo = algos[i]
        if now > virtual_time:
            virtual_time = now
        outbox: Optional[Mapping[NodeId, Any]] = None
        if faults_on and not node_up_[i]:
            # Ghost pulse: the node is crashed, so no protocol code runs and
            # nothing it would have sent exists — but the synchronizer's
            # control plane is reliable, so the scheduler still emits the
            # pulse markers / self-tick below and counts the completion.
            # Pulse structure is therefore identical to a fault-free run.
            pass
        elif p == 0:
            if record_events:
                trace.record_event(EventRecord(now, "execute", node_ids[i], 0))
            outbox = algo.initialize(ctxs[i])
            if algo.halted:
                halted_in_pulse[0] = halted_in_pulse.get(0, 0) + 1
        elif faults_on and restart_pending[i]:
            # Recovery restart: build a fresh instance (volatile state was
            # lost at crash time) and re-run its init at the current pulse;
            # pending link-recovery notices then let it and its neighbours
            # re-announce, which is what drives reconvergence.
            restart_pending[i] = False
            algo = algorithm_factory(node_ids[i])
            if not isinstance(algo, NodeAlgorithm):
                raise SimulationError(
                    f"algorithm_factory must return NodeAlgorithm instances, "
                    f"got {type(algo)!r}"
                )
            algos[i] = algo
            event_flags[i] = algo.event_driven
            ctx = ctxs[i]
            ctx.round_number = p
            if record_events:
                trace.record_event(EventRecord(now, "execute", node_ids[i], p))
            outbox = algo.initialize(ctx)
            invoked[p] = invoked.get(p, 0) + 1
            notices = link_notices[i]
            if notices:
                link_notices[i] = set()
                recovery_out = _recover(algo, ctx, notices)
                if recovery_out:
                    if outbox:
                        recovery_out.update(outbox)  # init's sends win
                    outbox = recovery_out
            # Everything buffered here is post-recovery mail — the crash
            # cleared the inbox and the in-flight void checks stop anything
            # sent before the restart — so the fresh instance must consume
            # it (neighbours' recovery re-announcements arrive this way).
            entries = inbuf[i].pop(p - 1, None)
            if entries:
                round_out = algo.on_round(ctx, _inbox(i, entries))
                if round_out:
                    if outbox:
                        outbox = dict(outbox)
                        outbox.update(round_out)  # the round's sends win
                    else:
                        outbox = round_out
        else:
            entries = inbuf[i].pop(p - 1, None)
            notices = None
            if faults_on and link_notices[i]:
                notices = link_notices[i]
                link_notices[i] = set()
            # The synchronous worklist rule: every running non-event-driven
            # node runs each round, plus any node (running or halted) that
            # received protocol mail — plus, under faults, any node with a
            # pending link-recovery notice (which may itself un-halt it).
            if entries is not None or notices or not (algo.halted or event_flags[i]):
                was_halted = algo.halted
                ctx = ctxs[i]
                ctx.round_number = p
                recovery_out = _recover(algo, ctx, notices) if notices else None
                if entries is not None or not (algo.halted or event_flags[i]):
                    msgs = _inbox(i, entries) if entries else []
                    if record_events:
                        trace.record_event(EventRecord(now, "execute", node_ids[i], p))
                    outbox = algo.on_round(ctx, msgs)
                    if algo.halted and not was_halted:
                        halted_in_pulse[p] = halted_in_pulse.get(p, 0) + 1
                invoked[p] = invoked.get(p, 0) + 1
                if recovery_out:
                    if outbox:
                        recovery_out.update(outbox)  # the round's sends win
                    outbox = recovery_out

        # -- protocol sends (the collect() analogue) ---------------------- #
        if outbox:
            payload_by_arc: Dict[int, Tuple[Any, int]] = {}
            omap = out_maps[i]
            pos_of = arc_pos_of[i]
            sender_id = node_ids[i]
            sized_payload: Any = _no_payload
            sized_words = 0
            batch = edge_batches.setdefault(p + 1, {})
            count = 0
            wsum = 0
            for receiver, payload in outbox.items():
                target = omap.get(receiver)
                if target is None:
                    raise SimulationError(
                        f"node {sender_id!r} attempted to message non-neighbour {receiver!r}"
                    )
                if payload is sized_payload:
                    size = sized_words
                else:
                    size = payload_size_words(payload)
                    sized_payload = payload
                    sized_words = size
                if size > budget:
                    raise BandwidthExceededError(
                        f"message from {sender_id!r} to {receiver!r} is {size} words "
                        f"(budget {budget})"
                    )
                eid = target[1]
                count += 1
                wsum += size
                if size > max_message_words:
                    max_message_words = size
                batch[eid] = batch.get(eid, 0) + size
                payload_by_arc[pos_of[receiver]] = (payload, size)
            messages_sent += count
            words_sent += wsum
            if count:
                sent_msgs[p] = sent_msgs.get(p, 0) + count
                sent_words[p] = sent_words.get(p, 0) + wsum
                # A round-p message exists, so the run continues past p: any
                # node held at pulse p+1 may go (never past max_rounds — the
                # verdict's ConvergenceError must fire first).
                if not release.get(p) and p < max_rounds:
                    _release(p, now)
        else:
            payload_by_arc = _empty_payloads  # shared, never mutated

        # -- envelopes: one per incident arc, payload or pulse marker ----- #
        lo = indptr[i]
        hi = indptr[i + 1]
        if use_buckets and unit and not payload_by_arc:
            # The one fused emission: a silent node under unit delay sends
            # only markers, all due at now+1 next to its self-tick, so the
            # whole run plus the tick is one range-tick event.
            buckets[now + 1].append((_EV_RANGE_TICK, lo, hi, p, i))
        else:
            for pos in range(lo, hi):
                t = now + 1 if unit else now + _delay(pos, p)
                entry = payload_by_arc.get(pos)
                if entry is None:
                    payload = _no_payload
                    size = 0
                else:
                    payload, size = entry
                    j = indices[pos]
                    if faults_on and (
                        arc_eid[pos] in edge_down or not node_up_[j]
                    ):
                        # Dead at send: the link or the receiver is down
                        # right now.  The message was charged to the ledger
                        # above (the node paid for the send) but the payload
                        # is lost — the envelope goes out as a pulse marker.
                        _drop(now, i, p, j, size)
                        payload = _no_payload
                        size = 0
                    else:
                        outstanding = arc_outstanding.setdefault(pos, [])
                        while outstanding and outstanding[0] <= now:
                            heappop(outstanding)
                        heappush(outstanding, t)
                        if len(outstanding) > arc_high_water.get(pos, 0):
                            arc_high_water[pos] = len(outstanding)
                        if record_events:
                            trace.record_event(
                                EventRecord(now, "send", node_ids[i], p,
                                            peer=node_ids[j], words=size)
                            )
                if use_buckets:
                    buckets[t].append((_EV_ENVELOPE, pos, p, payload, size, now))
                else:
                    seq += 1
                    heappush(
                        heap, (t, seq, _EV_ENVELOPE, pos, p, payload, size, now)
                    )
            if use_buckets:
                buckets[now + 1].append((_EV_RANGE_TICK, hi, hi, p, i))
            else:
                seq += 1
                heappush(heap, (now + 1, seq, _EV_TICK, i, p, _no_payload, 0, now))

        c = completed_in_pulse.get(p, 0) + 1
        completed_in_pulse[p] = c
        if c == n:
            _verdict(p, now)

    def _heard(j: int, p: int, now: int) -> None:
        """One pulse-``p`` item (envelope or self-tick) reached node ``j``."""
        cnt = heard[j].get(p, 0) + 1
        if cnt < deg[j] + 1:
            heard[j][p] = cnt
            return
        heard[j].pop(p, None)
        # All of round p's inputs are in — and the counted self-tick implies
        # j itself already completed pulse p, so pulse p+1 is next: run it,
        # or hold it until the run is known to continue past pulse p.
        if release.get(p):
            todo.append((j, p + 1, now))
        else:
            held.setdefault(p + 1, []).append(j)

    # Pulse 0 (initialize) for every node at virtual time 0, in node order.
    for i in range(n):
        todo.append((i, 0, 0))

    wall_start = perf_counter()
    if use_buckets:
        # Calendar-queue drain.  The structure mirrors the heap loop exactly:
        # the pending-execution queue is drained (and the stop flag checked)
        # between individual events, so ``events_processed`` and the verdict
        # points are identical — a bucket is just the run of heap pops that
        # share one delivery time.  The pulse-marker bookkeeping of `_heard`
        # is inlined here (it is the single hottest call site).  The hot
        # names are re-bound to plain locals: the closures above capture
        # them as cells, which would make every access here a (slower)
        # LOAD_DEREF.
        release_get = release.get
        todo_append = todo.append
        todo_popleft = todo.popleft
        held_sd = held.setdefault
        indices_l = indices
        heard_l = heard
        deg_l = deg
        no_payload = _no_payload
        inbuf_l = inbuf
        arc_sender_l = arc_sender
        bucket: List[Tuple] = []
        bpos = 0
        blen = 0
        now = 0
        while True:
            while todo:
                i, p, t = todo_popleft()
                _execute(i, p, t)
            if stopped:
                break
            if bpos == blen:
                if not times:
                    break
                now = heappop(times)
                bucket = buckets.pop(now)
                bpos = 0
                blen = len(bucket)
            while bpos < blen:
                ev = bucket[bpos]
                bpos += 1
                kind = ev[0]
                if kind == _EV_RANGE_TICK:
                    # (kind, lo, hi, p, i): sender i's pulse-p markers on the
                    # arcs [lo, hi), then its self-tick.  In the heap these
                    # are adjacent entries, and the executions a mid-run
                    # todo drain could interleave are all pulse >= p+1 at
                    # this instant — they cannot touch heard[.][p],
                    # release[p] or the stop flag — so delivering the run in
                    # one go is order-equivalent.
                    p = ev[3]
                    events_processed += ev[2] - ev[1] + 1
                    targets = indices_l[ev[1]:ev[2]]
                    targets.append(ev[4])
                    for j in targets:
                        h = heard_l[j]
                        cnt = h.get(p, 0) + 1
                        if cnt <= deg_l[j]:
                            h[p] = cnt
                        else:
                            h.pop(p, None)
                            if release_get(p):
                                todo_append((j, p + 1, now))
                            else:
                                held_sd(p + 1, []).append(j)
                elif kind == _EV_ENVELOPE:  # (kind, pos, p, payload, size, sent_at)
                    events_processed += 1
                    pos = ev[1]
                    p = ev[2]
                    j = indices_l[pos]
                    if ev[3] is not no_payload:
                        if faults_on or record_events:
                            _deliver(pos, j, p, ev[3], ev[4], ev[5], now)
                        else:
                            # _deliver without faults or records, inlined:
                            # deliveries dominate payload-bound runs.
                            inbuf_l[j].setdefault(p, []).append(
                                (arc_sender_l[pos], ev[3], ev[4], ev[5], now)
                            )
                    h = heard_l[j]
                    cnt = h.get(p, 0) + 1
                    if cnt <= deg_l[j]:
                        h[p] = cnt
                    else:
                        h.pop(p, None)
                        if release_get(p):
                            todo_append((j, p + 1, now))
                        else:
                            held_sd(p + 1, []).append(j)
                else:  # _EV_FAULT: (kind, index into the bound fault list)
                    events_processed += 1
                    _apply_fault(bound_faults[ev[1]], now)
                if todo:
                    break
    else:
        while True:
            while todo:
                i, p, t = todo.popleft()
                _execute(i, p, t)
            if stopped or not heap:
                break
            now, _s, kind, a, p, payload, size, sent_at = heappop(heap)
            events_processed += 1
            if kind == _EV_ENVELOPE:
                j = indices[a]
                if payload is not _no_payload:
                    _deliver(a, j, p, payload, size, sent_at, now)
                _heard(j, p, now)
            elif kind == _EV_TICK:  # node a's pulse-p self-clock
                _heard(a, p, now)
            else:  # _EV_FAULT: scheduled transition a of the bound fault list
                _apply_fault(bound_faults[a], now)
    wall_seconds = perf_counter() - wall_start

    if not stopped:  # pragma: no cover - the verdict always decides first
        raise SimulationError("async scheduler ran out of events before a verdict")

    outputs = {
        node_ids[i]: (None if algos[i] is None else algos[i].output)
        for i in range(n)
    }
    fault_verdict = None
    if fault_schedule is not None:
        down_nodes = tuple(node_ids[i] for i in range(n) if not node_up_[i])
        down_edges = tuple(edge_ends[eid] for eid in sorted(edge_down))
        fault_verdict = FaultVerdict(
            faults_injected=faults_fired,
            reconverged=not down_nodes and not down_edges,
            last_fault_round=last_fault_round,
            rounds_to_reconverge=(
                max(0, rounds - last_fault_round) if faults_fired else 0
            ),
            payloads_dropped=payloads_dropped,
            down_nodes_at_end=down_nodes,
            down_edges_at_end=down_edges,
        )
    if faults_on:
        all_halted = all(
            node_up_[i] and algos[i] is not None and algos[i].halted
            for i in range(n)
        )
    else:
        all_halted = halted_recorded == n
    async_stats = {
        "delay_model": repr(model),
        "events_processed": events_processed,
        # Wall-clock event throughput of this run's main loop.  The single
        # non-deterministic entry (everything else is bit-for-bit
        # reproducible): comparisons of async_stats across runs or across
        # schedulers must exclude it.
        "events_per_sec": (
            events_processed / wall_seconds if wall_seconds > 0.0
            else float(events_processed)
        ),
        "virtual_time": virtual_time,
        "max_arc_in_flight": max(arc_high_water.values(), default=0),
        "congested_arcs": {
            (node_ids[arc_sender[a]], node_ids[indices[a]]): hw
            for a, hw in sorted(arc_high_water.items())
            if hw >= 2
        },
    }
    return SimulationResult(
        rounds=rounds,
        outputs=outputs,
        messages_sent=messages_sent,
        words_sent=words_sent,
        max_words_per_edge_round=max_edge_round_words,
        halted=all_halted,
        max_message_words=max_message_words,
        engine="async",
        trace=trace,
        virtual_time=virtual_time,
        async_stats=async_stats,
        fault_verdict=fault_verdict,
    )
