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
    bucket equals the heap's sequence order.  A bucket holds two event
    kinds: envelope and range-tick.  The one fused event is the
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
    The schedule-fuzz sweep cross-checks the two queues event for event.

Both queues process the same events in the same order, so results, message
ledger, round trace, recorded :class:`EventRecord` streams,
``virtual_time`` and the deterministic ``async_stats`` fields are
bit-for-bit identical — asserted across the equivalence families in
``tests/test_async_scheduler.py``, which also pins them to sha256 digests
(the queues share the per-arc send loop and delivery, so only a digest
sees a bug there).  The only divergence is the wall-clock
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
from repro.congest.message import Message, payload_size_words
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import (
    BandwidthExceededError,
    ConvergenceError,
    GraphError,
    SimulationError,
)

NodeId = Hashable

_M64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """A SplitMix64-style integer hash, order-sensitive and seed-stable.

    The delay models use it instead of :class:`random.Random` state, so
    every delay is a pure function of ``(seed, ...)`` — independent of
    draw order.
    """
    x = 0x9E3779B97F4A7C15
    for v in parts:
        x = (x ^ (v & _M64)) * 0xBF58476D1CE4E5B9 & _M64
        x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 29
    return x


#: Event kinds.  The heap queue uses envelope and tick; the bucketed queue
#: uses envelope and range-tick.
_EV_ENVELOPE = 0  # an envelope reaches its arc head: a protocol payload, or
#                   the _no_payload sentinel for an empty pulse marker
_EV_TICK = 1  # heap queue only: a node's per-pulse self-clock fires
_EV_RANGE_TICK = 2  # bucketed queue only, (kind, lo, hi, p, i): pulse-p
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
    A ``delay_model`` that is not a :class:`DelayModel` raises
    :class:`~repro.errors.SimulationError`.
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

    def _deliver(pos: int, j: int, p: int, payload: Any, size: int,
                 sent_at: int, now: int) -> None:
        """A payload on arc ``pos`` reaches ``j``: buffer it for pulse p+1."""
        s = arc_sender[pos]
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
        halted_recorded += halted_in_pulse.pop(p, 0)
        if p >= 1 and trace is not None:
            trace.record(
                RoundStats(
                    round_number=p,
                    active_nodes=invoked.pop(p, 0),
                    messages_delivered=sent_msgs.get(p - 1, 0),
                    words_delivered=sent_words.get(p - 1, 0),
                    max_edge_words=batch_edge_max.pop(p, 0),
                    halted_nodes=halted_recorded,
                )
            )
        staged = sent_msgs.get(p, 0)
        if p >= max_rounds:
            raise ConvergenceError(
                f"simulation did not terminate within {max_rounds} rounds"
            )
        if (halted_recorded == n and staged == 0) or (
            stop_when_quiet and staged == 0 and p > 0
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
        if p == 0:
            if record_events:
                trace.record_event(EventRecord(now, "execute", node_ids[i], 0))
            outbox = algo.initialize(ctxs[i])
            if algo.halted:
                halted_in_pulse[0] = halted_in_pulse.get(0, 0) + 1
        else:
            entries = inbuf[i].pop(p - 1, None)
            # The synchronous worklist rule: every running non-event-driven
            # node runs each round, plus any node (running or halted) that
            # received protocol mail.
            if entries is not None or not (algo.halted or event_flags[i]):
                was_halted = algo.halted
                ctx = ctxs[i]
                ctx.round_number = p
                msgs = _inbox(i, entries) if entries else []
                if record_events:
                    trace.record_event(EventRecord(now, "execute", node_ids[i], p))
                outbox = algo.on_round(ctx, msgs)
                if algo.halted and not was_halted:
                    halted_in_pulse[p] = halted_in_pulse.get(p, 0) + 1
                invoked[p] = invoked.get(p, 0) + 1

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
                    outstanding = arc_outstanding.setdefault(pos, [])
                    while outstanding and outstanding[0] <= now:
                        heappop(outstanding)
                    heappush(outstanding, t)
                    if len(outstanding) > arc_high_water.get(pos, 0):
                        arc_high_water[pos] = len(outstanding)
                    if record_events:
                        trace.record_event(
                            EventRecord(now, "send", node_ids[i], p,
                                        peer=node_ids[indices[pos]], words=size)
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
                else:  # _EV_ENVELOPE: (kind, pos, p, payload, size, sent_at)
                    events_processed += 1
                    pos = ev[1]
                    p = ev[2]
                    j = indices_l[pos]
                    if ev[3] is not no_payload:
                        if record_events:
                            _deliver(pos, j, p, ev[3], ev[4], ev[5], now)
                        else:
                            # _deliver without records, inlined: deliveries
                            # dominate payload-bound runs.
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
            else:  # _EV_TICK: node a's pulse-p self-clock
                _heard(a, p, now)
    wall_seconds = perf_counter() - wall_start

    if not stopped:  # pragma: no cover - the verdict always decides first
        raise SimulationError("async scheduler ran out of events before a verdict")

    outputs = {node_ids[i]: algos[i].output for i in range(n)}
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
        halted=halted_recorded == n,
        max_message_words=max_message_words,
        engine="async",
        trace=trace,
        virtual_time=virtual_time,
        async_stats=async_stats,
    )
