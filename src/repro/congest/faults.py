"""Seeded fault injection for the asynchronous CONGEST tier.

A failure is just another event class: this module defines deterministic
*fault schedules* — timed crash/recover transitions of nodes and edges —
that :func:`~repro.congest.scheduler.run_async` injects into its event queue
as first-class events, turning the discrete-event tier into a resilience
testbed (``CongestNetwork.run(engine="async", fault_schedule=...)``).

**Fault model (fail-stop with transient message loss).**

* *Edge crash*: while an edge is down — and for any message that was in
  flight when it went down — protocol payloads crossing it are silently
  dropped.  On recovery both endpoints receive an
  :meth:`~repro.congest.node.NodeAlgorithm.on_link_recovery` notice so
  self-stabilizing protocols can re-announce across the healed link.
* *Node crash*: the node stops executing and loses all volatile protocol
  state; payloads it sent that are still in flight, and payloads addressed
  to it, are dropped.
* *Node restart*: the scheduler constructs a **fresh** algorithm instance
  (via the run's ``algorithm_factory``) and re-runs its ``initialize`` —
  the node restarts from its init and re-enters the synchronizer at its
  next pulse.  Recovery notices fire in both directions (the restarted
  node for each live neighbour, and each live neighbour for it), which is
  what lets monotone protocols (Bellman-Ford, BFS tree, flooding)
  reconverge to the centralized oracle on the post-fault graph.

The synchronizer's control plane (empty pulse-marker envelopes and
self-clock ticks) is modelled as reliable and out-of-band: a crashed node's
pulses keep ticking as scheduler-driven *ghost* pulses that run no protocol
code and carry no payloads.  This is the standard perfect-failure-detector
assumption — it keeps the α-synchronizer's pulse structure (and therefore
round accounting, verdicts and the fault-free fast path) exactly identical
to the fault-free tier while only protocol payloads and protocol state
fail.

**Determinism.**  A :class:`FaultSchedule` is plain data (sorted
:class:`FaultEvent` transitions at integer virtual times ≥ 1), and the
ready-made generators (:class:`MassFailure`, :class:`Churn`,
:class:`LinkFlap`) derive every victim and every fault time from a seeded
stateless hash — exactly like the tier's
:class:`~repro.congest.scheduler.DelayModel` machinery — so identical
``(graph, seed, FaultSchedule, DelayModel)`` reproduce bit-for-bit
identical results, ledgers and fault :class:`EventRecord` streams, and an
*empty* schedule is bit-for-bit identical to a fault-free run.

**Reconvergence guarantee.**  The built-in generators emit *transient*
faults: every crash has a matching recovery, so the post-fault graph equals
the original graph and the wired protocols provably reconverge (asserted
against centralized oracles in ``tests/test_fault_injection.py``).  Raw
schedules may leave elements permanently down; monotone protocols then keep
state learned through the dead elements, which is reported honestly —
``FaultVerdict.reconverged`` is ``False`` whenever anything is still down
at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError, SimulationError

NodeId = Hashable

_M64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """A SplitMix64-style integer hash, order-sensitive and seed-stable.

    Fault generators and the scheduler's delay models use it instead of
    :class:`random.Random` state, so every victim, fault time and delay is
    a pure function of ``(seed, ...)`` — independent of draw order.
    """
    x = 0x9E3779B97F4A7C15
    for v in parts:
        x = (x ^ (v & _M64)) * 0xBF58476D1CE4E5B9 & _M64
        x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 29
    return x


#: Recognised fault-event kinds.
FAULT_KINDS = ("node_down", "node_up", "edge_down", "edge_up")


@dataclass(frozen=True)
class FaultEvent:
    """One atomic fault transition at an integer virtual time.

    ``kind`` is one of :data:`FAULT_KINDS`; ``target`` is a node id for
    node events and an unordered ``(u, v)`` endpoint pair for edge events.
    Times are virtual (event-queue) times and must be ``>= 1`` — pulse 0
    (``initialize``) always runs on the intact network.
    """

    time: int
    kind: str
    target: Any

    def is_node_event(self) -> bool:
        return self.kind.startswith("node")


@dataclass
class FaultVerdict:
    """Fault accounting attached to ``SimulationResult.fault_verdict``.

    Attributes
    ----------
    faults_injected:
        Number of fault events that fired during the run.
    reconverged:
        ``True`` when the run reached a quiescent/halted stop with every
        crashed node and edge recovered — i.e. the protocol restabilised
        on the post-fault graph.  ``False`` when anything was still down
        at the end (stale state may then survive; see the module notes).
    last_fault_round:
        The logical round during which the final fault event fired.
    rounds_to_reconverge:
        Rounds executed after the final fault event until the run stopped
        — the protocol's recovery time.
    payloads_dropped:
        Protocol messages lost to crashed links/nodes (sent and charged to
        the ledger, never delivered).
    down_nodes_at_end / down_edges_at_end:
        Elements left permanently failed by the schedule, if any.
    """

    faults_injected: int
    reconverged: bool
    last_fault_round: int
    rounds_to_reconverge: int
    payloads_dropped: int
    down_nodes_at_end: Tuple[Any, ...] = ()
    down_edges_at_end: Tuple[Tuple[Any, Any], ...] = ()


class FaultSchedule:
    """A validated, sorted sequence of :class:`FaultEvent` transitions.

    Construction checks the schedule's internal consistency (kinds, integer
    times ``>= 1``, alternating down/up transitions per element — crashing
    an already-crashed node or recovering a healthy edge is an overlapping
    schedule and raises :class:`~repro.errors.FaultInjectionError`).
    Validation against a concrete network (targets exist as nodes/edges)
    happens in :meth:`bind`, called by the scheduler at run start.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        evs = list(events)
        for ev in evs:
            if not isinstance(ev, FaultEvent):
                raise FaultInjectionError(
                    f"fault schedules hold FaultEvent entries, got {ev!r}"
                )
            if ev.kind not in FAULT_KINDS:
                raise FaultInjectionError(
                    f"unknown fault kind {ev.kind!r}; expected one of {FAULT_KINDS}"
                )
            if not isinstance(ev.time, int) or isinstance(ev.time, bool) or ev.time < 1:
                raise FaultInjectionError(
                    f"fault times are integers >= 1, got {ev.time!r} ({ev.kind})"
                )
            if not ev.is_node_event():
                t = ev.target
                if not isinstance(t, tuple) or len(t) != 2 or t[0] == t[1]:
                    raise FaultInjectionError(
                        f"edge fault targets are (u, v) endpoint pairs, got {t!r}"
                    )
        # Stable sort: same-time events keep their construction order.
        self.events: List[FaultEvent] = sorted(evs, key=lambda e: e.time)
        self._check_transitions()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _element_key(ev: FaultEvent) -> Tuple:
        if ev.is_node_event():
            return ("node", ev.target)
        u, v = ev.target
        a, b = sorted((u, v), key=lambda x: (str(type(x)), repr(x)))
        return ("edge", a, b)

    def _check_transitions(self) -> None:
        down: Dict[Tuple, bool] = {}
        for ev in self.events:
            key = self._element_key(ev)
            is_down = down.get(key, False)
            if ev.kind.endswith("_down"):
                if is_down:
                    raise FaultInjectionError(
                        f"overlapping schedule: {ev.kind} at time {ev.time} targets "
                        f"{ev.target!r}, which is already down"
                    )
                down[key] = True
            else:
                if not is_down:
                    raise FaultInjectionError(
                        f"overlapping schedule: {ev.kind} at time {ev.time} targets "
                        f"{ev.target!r}, which is not down"
                    )
                down[key] = False

    # ------------------------------------------------------------------ #
    @property
    def fault_free(self) -> bool:
        """``True`` when the schedule injects nothing at all."""
        return not self.events

    @property
    def horizon(self) -> int:
        """The last fault time (0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0

    def ensure_eventual_recovery(self, nodes: Iterable[NodeId],
                                 protocol: str = "this protocol") -> None:
        """Reject schedules that permanently crash a protocol-critical node.

        Single-source entry points pass their source/root here: crashing it
        is fine (the restart re-announces), but crashing it with no later
        recovery makes reconvergence impossible and raises
        :class:`~repro.errors.FaultInjectionError`.
        """
        critical = set(nodes)
        last: Dict[NodeId, str] = {}
        for ev in self.events:
            if ev.is_node_event() and ev.target in critical:
                last[ev.target] = ev.kind
        for u, kind in last.items():
            if kind == "node_down":
                raise FaultInjectionError(
                    f"fault schedule crashes node {u!r} with no recovery, but "
                    f"{protocol} requires it alive to reconverge"
                )

    # ------------------------------------------------------------------ #
    def bind(self, network) -> List["BoundFaultEvent"]:
        """Resolve node ids / endpoint pairs against ``network`` and validate.

        Returns the events as dense-index :class:`BoundFaultEvent` records
        ordered by (time, schedule order); unknown targets raise
        :class:`~repro.errors.FaultInjectionError`.
        """
        idx = network.indexed
        index_of = idx.index_of
        out_maps = network._out_maps
        bound: List[BoundFaultEvent] = []
        for ev in self.events:
            if ev.is_node_event():
                i = index_of.get(ev.target)
                if i is None:
                    raise FaultInjectionError(
                        f"fault schedule targets node {ev.target!r}, which is "
                        "not in the network"
                    )
                bound.append(BoundFaultEvent(ev.time, ev.kind, node=i))
            else:
                u, v = ev.target
                iu = index_of.get(u)
                entry = None if iu is None else out_maps[iu].get(v)
                if entry is None:
                    raise FaultInjectionError(
                        f"fault schedule targets edge {ev.target!r}, which is "
                        "not an edge of the network"
                    )
                bound.append(
                    BoundFaultEvent(ev.time, ev.kind, eid=entry[1], u=iu,
                                    v=index_of[v])
                )
        return bound

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events, horizon={self.horizon})"


@dataclass
class BoundFaultEvent:
    """A :class:`FaultEvent` resolved to dense indices (scheduler-internal)."""

    time: int
    kind: str
    node: int = -1
    eid: int = -1
    u: int = -1
    v: int = -1


# --------------------------------------------------------------------------- #
# Seeded schedule generators (the Chord experiment menu)
# --------------------------------------------------------------------------- #
class FaultModel:
    """Deterministic generator of a :class:`FaultSchedule` for a network.

    Subclasses derive every victim and transition time from a seeded
    stateless hash of the construction parameters, mirroring the
    :class:`~repro.congest.scheduler.DelayModel` contract: the schedule is
    a pure function of ``(model, graph)``, never of call order.
    ``CongestNetwork.run`` accepts a model wherever it accepts a schedule
    and materialises it against the run's network snapshot.
    """

    def schedule(self, indexed) -> FaultSchedule:
        """The concrete :class:`FaultSchedule` for this graph snapshot."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _edge_list(indexed) -> List[Tuple[Any, Any]]:
    """The unique undirected edges of a CSR snapshot as id pairs (u, v)."""
    edges = []
    node_ids = indexed.node_ids
    indptr, indices = indexed.indptr, indexed.indices
    for i in range(indexed.num_nodes):
        for pos in range(indptr[i], indptr[i + 1]):
            j = indices[pos]
            if i < j:
                edges.append((node_ids[i], node_ids[j]))
    return edges


class MassFailure(FaultModel):
    """A correlated mass outage: a seeded fraction of elements crashes at
    once and recovers together — the ``exp_3_mass_failure`` scenario.

    Each node (``kind="node"``, default) or edge (``kind="edge"``) is
    independently selected with probability ``fraction`` by a stateless
    hash of ``(seed, position)``; every victim goes down at virtual time
    ``at`` and comes back at ``at + outage``.  All faults are transient,
    so the post-fault graph equals the original.
    """

    def __init__(self, fraction: float = 0.3, at: int = 8, outage: int = 8,
                 kind: str = "node", seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise FaultInjectionError(
                f"MassFailure fraction must be in [0, 1], got {fraction}"
            )
        if int(at) < 1 or int(outage) < 1:
            raise FaultInjectionError(
                f"MassFailure needs at >= 1 and outage >= 1, got {at}, {outage}"
            )
        if kind not in ("node", "edge"):
            raise FaultInjectionError(
                f"MassFailure kind must be 'node' or 'edge', got {kind!r}"
            )
        self.fraction = float(fraction)
        self.at = int(at)
        self.outage = int(outage)
        self.kind = kind
        self.seed = int(seed)

    def schedule(self, indexed) -> FaultSchedule:
        threshold = int(self.fraction * (1 << 32))
        events: List[FaultEvent] = []
        if self.kind == "node":
            targets: Sequence[Any] = indexed.node_ids
        else:
            targets = _edge_list(indexed)
        for pos, target in enumerate(targets):
            if (_mix(self.seed, 0x5EED, pos) & 0xFFFFFFFF) < threshold:
                down = f"{self.kind}_down"
                up = f"{self.kind}_up"
                events.append(FaultEvent(self.at, down, target))
                events.append(FaultEvent(self.at + self.outage, up, target))
        return FaultSchedule(events)

    def __repr__(self) -> str:
        return (
            f"MassFailure({self.fraction}, at={self.at}, outage={self.outage}, "
            f"kind={self.kind!r}, seed={self.seed})"
        )


class Churn(FaultModel):
    """Steady node churn: one seeded victim crashes per period and restarts
    after ``outage`` — the ``exp_4_churn`` scenario.

    Cycle ``c`` crashes its victim at ``start + c * period``.  Victims are
    drawn by a stateless hash of ``(seed, c, attempt)``; a candidate whose
    down interval would overlap one of its own earlier intervals is
    deterministically re-drawn, so the schedule is always well-formed.
    """

    def __init__(self, cycles: int = 4, period: int = 6, outage: int = 3,
                 start: int = 4, seed: int = 0) -> None:
        if int(cycles) < 1 or int(period) < 1 or int(outage) < 1 or int(start) < 1:
            raise FaultInjectionError(
                "Churn needs cycles/period/outage/start all >= 1, got "
                f"{cycles}, {period}, {outage}, {start}"
            )
        self.cycles = int(cycles)
        self.period = int(period)
        self.outage = int(outage)
        self.start = int(start)
        self.seed = int(seed)

    def schedule(self, indexed) -> FaultSchedule:
        n = indexed.num_nodes
        node_ids = indexed.node_ids
        events: List[FaultEvent] = []
        busy_until: Dict[int, int] = {}  # node index -> last down-interval end
        for c in range(self.cycles):
            t = self.start + c * self.period
            victim = None
            for attempt in range(4 * n):
                cand = _mix(self.seed, 0xC4_12, c, attempt) % n
                if busy_until.get(cand, -1) < t:
                    victim = cand
                    break
            if victim is None:
                continue  # tiny graph, every node still down: skip this cycle
            busy_until[victim] = t + self.outage
            events.append(FaultEvent(t, "node_down", node_ids[victim]))
            events.append(FaultEvent(t + self.outage, "node_up", node_ids[victim]))
        return FaultSchedule(events)

    def __repr__(self) -> str:
        return (
            f"Churn(cycles={self.cycles}, period={self.period}, "
            f"outage={self.outage}, start={self.start}, seed={self.seed})"
        )


class LinkFlap(FaultModel):
    """A seeded subset of links flaps down/up periodically.

    Each edge is selected with probability ``fraction`` (stateless hash of
    ``(seed, edge position)``); a selected edge goes down at
    ``start + c * period`` and recovers ``outage`` time units later, for
    each of ``cycles`` flaps.  ``outage`` must be smaller than ``period``
    so consecutive flaps of one link never overlap.
    """

    def __init__(self, fraction: float = 0.2, cycles: int = 2, period: int = 8,
                 outage: int = 3, start: int = 4, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise FaultInjectionError(
                f"LinkFlap fraction must be in [0, 1], got {fraction}"
            )
        if int(outage) >= int(period):
            raise FaultInjectionError(
                f"LinkFlap needs outage < period so flaps cannot overlap, "
                f"got outage={outage}, period={period}"
            )
        if int(cycles) < 1 or int(outage) < 1 or int(start) < 1:
            raise FaultInjectionError(
                "LinkFlap needs cycles/outage/start all >= 1, got "
                f"{cycles}, {outage}, {start}"
            )
        self.fraction = float(fraction)
        self.cycles = int(cycles)
        self.period = int(period)
        self.outage = int(outage)
        self.start = int(start)
        self.seed = int(seed)

    def schedule(self, indexed) -> FaultSchedule:
        threshold = int(self.fraction * (1 << 32))
        events: List[FaultEvent] = []
        for pos, edge in enumerate(_edge_list(indexed)):
            if (_mix(self.seed, 0xF1A9, pos) & 0xFFFFFFFF) >= threshold:
                continue
            for c in range(self.cycles):
                t = self.start + c * self.period
                events.append(FaultEvent(t, "edge_down", edge))
                events.append(FaultEvent(t + self.outage, "edge_up", edge))
        return FaultSchedule(events)

    def __repr__(self) -> str:
        return (
            f"LinkFlap({self.fraction}, cycles={self.cycles}, "
            f"period={self.period}, outage={self.outage}, "
            f"start={self.start}, seed={self.seed})"
        )


# --------------------------------------------------------------------------- #
def resolve_fault_schedule(fault_schedule, indexed) -> FaultSchedule:
    """Materialise ``fault_schedule`` (a schedule or a model) for a snapshot.

    :class:`FaultSchedule` instances pass through unchanged; a
    :class:`FaultModel` is expanded against ``indexed``.  Anything else is
    a caller error.
    """
    if isinstance(fault_schedule, FaultSchedule):
        return fault_schedule
    if isinstance(fault_schedule, FaultModel):
        return fault_schedule.schedule(indexed)
    raise SimulationError(
        "fault_schedule must be a FaultSchedule or FaultModel instance, got "
        f"{type(fault_schedule)!r}"
    )


def resolve_fault_run(network, fault_schedule, engine: Optional[str],
                      critical: Iterable[NodeId], protocol: str):
    """Prepare a protocol entry point's fault schedule; ``(engine, schedule)``.

    ``None`` passes through as ``(engine, None)``.  Otherwise the schedule
    (or model) is materialised against the network's current snapshot, an
    unset ``engine`` becomes ``"async"`` (the one tier that injects
    faults), and the ``critical`` nodes must eventually recover (see
    :meth:`FaultSchedule.ensure_eventual_recovery`; ``protocol`` names the
    caller in its error).
    """
    if fault_schedule is None:
        return engine, None
    schedule = resolve_fault_schedule(fault_schedule, network.graph.to_indexed())
    schedule.ensure_eventual_recovery(critical, protocol=protocol)
    return ("async" if engine is None else engine), schedule
