"""Execution engines for the CONGEST simulator — four tiers.

This module holds the synchronous execution cores behind
:meth:`CongestNetwork.run` (the asynchronous fourth tier lives in
:mod:`repro.congest.scheduler`).  All four tiers execute identical protocol
semantics and are equivalence-tested against each other on randomized
graph families (``tests/test_engine_equivalence.py`` and
``tests/test_async_scheduler.py``): identical round counts, outputs,
message/word counts, per-edge-per-round bandwidth and round traces on every
seeded instance — for the async tier under the unit-delay model (with
protocol outputs additionally schedule-invariant under every seeded delay
model).

1. ``engine="legacy"`` — the dict-based reference loop kept verbatim in
   :mod:`repro.congest.network`.  One inbox rebuild per round, no indexing;
   the ground truth the other tiers are certified against.

2. ``engine="fast"`` (default, :func:`run_fast`) — the indexed scalar path:

   * **Indexed node space** — nodes are the contiguous integers of the
     graph's CSR view (:meth:`Graph.to_indexed`), so per-round bookkeeping
     lives in flat lists instead of dicts keyed by arbitrary hashables.
   * **Preallocated, double-buffered inboxes** — two ``n``-slot inbox tables
     are swapped between rounds; only slots actually touched by a delivery
     are reset, so a quiet round costs O(active), not O(n).
   * **Active-node worklist** — each round processes only nodes that are
     still running or received a message.  Worklists are iterated in
     node-index order, which makes message delivery order (and therefore
     every protocol execution) bit-for-bit identical to the legacy loop.
   * **Per-outbox payload-size caching** — a node broadcasting one payload
     object to all neighbours pays ``payload_size_words`` once, not once per
     receiver.

3. ``engine="vectorized"`` (:func:`run_vectorized`) — the whole-round array
   path for protocols that also provide a
   :class:`~repro.congest.kernels.RoundKernel`: per-node state vectors, a
   round executed as segmented CSR reductions over packed numpy payload
   arrays (:class:`~repro.congest.message.PayloadSchema`), and O(1)
   ``payload_size_words`` per message.  No Python loop runs over nodes or
   messages inside a round.

4. ``engine="async"`` (:func:`~repro.congest.scheduler.run_async`) — the
   event-driven asynchronous tier: a discrete-event scheduler assigns every
   (arc, message) envelope an integer delivery time drawn from a pluggable,
   deterministic, seeded :class:`~repro.congest.scheduler.DelayModel`
   (unit, uniform-integer, per-arc fixed, adversarial slow-link), and an
   α-synchronizer adapter lets every round-based protocol run unmodified:
   each node advances through local pulses, entering round ``p + 1`` once
   every neighbour's pulse-``p`` envelope (protocol message or empty pulse
   marker) has arrived.

   **Two interchangeable event queues** (``run(engine="async",
   scheduler=...)``): the default ``scheduler="bucketed"`` is a calendar
   queue — events land in per-timestamp buckets, and a whole instant's
   batch is released with one dict pop instead of one heap pop per event.
   Its buckets hold two event kinds: envelope and range-tick.
   Markers fuse only for a silent node under unit delay: its whole run of
   empty pulse markers plus its self-tick is one range-tick event.  Every
   other envelope is one event per arc, emitted by the per-arc loop the
   heap shares.  ``scheduler="heap"`` keeps the binary-heap queue as the
   reference implementation.  The two are bit-for-bit interchangeable —
   results, ledger, round/event traces, ``virtual_time`` and deterministic
   ``async_stats`` entries — cross-checked event for event by the
   ``ScheduleFuzzer`` sweep and pinned to sha256 digests by
   ``tests/test_async_scheduler.py``; the bucketed queue simply gets there
   faster (see *When each tier wins*).

   **Accounting contract**: only protocol messages are charged, so the
   message/word/bandwidth ledger equals the synchronous tiers under *every*
   delay model; under :class:`~repro.congest.scheduler.UnitDelay` the whole
   run — results, ledger, round trace — is bit-for-bit identical to the
   three tiers above and ``virtual_time == rounds``.  The result additionally
   carries ``virtual_time`` (event-queue time of the last executed pulse)
   and ``async_stats`` (events processed, per-arc in-flight high-water
   marks — > 1 on a link means messages pipelined across it — and
   ``events_per_sec``, the one wall-clock — hence non-deterministic —
   entry).  A :class:`SimulationTrace` built with ``record_events=True``
   captures one :class:`~repro.congest.scheduler.EventRecord` per
   send/delivery/node execution, identically under either scheduler.

   **When to use**: timing studies, not throughput — the tier simulates one
   envelope per arc per pulse (O(m) queue events per round, the
   synchronizer's control traffic), so it is slower than ``fast``.  Reach
   for it to measure
   how delay distributions stretch virtual completion time, where messages
   pile up on slow links, or to certify a protocol's schedule-invariance by
   fuzzing seeds (the ``ScheduleFuzzer`` harness in
   ``tests/test_async_scheduler.py``); keep the synchronous tiers for speed.

**Per-tier option support** — which ``run()`` knobs each tier honours
(``scheduler=`` with a non-async engine is rejected with
:class:`SimulationError`):

   ============  =====================
   tier          ``scheduler=``
   ============  =====================
   legacy        rejected
   fast          rejected
   vectorized    rejected
   async         bucketed (default)
                 / heap (reference)
   ============  =====================

**When each tier wins** (crossover records in ``BENCH_engine.json``; the
figures below are one full-scale run of ``benchmarks/bench_congest_engine.py``
on a 2-CPU host, Python 3.11, numpy 2.4).  The ``fast`` worklist tier is
best for sparse rounds: on the deep-path Bellman-Ford case (n=2000, ≈ 1
active node per round) it takes 43 ms, 50× faster than ``legacy`` (2.2 s)
and 7× faster than ``vectorized`` (318 ms), whose fixed per-round array
overhead dominates when rounds are nearly empty.  Dense rounds invert the
picture: on complete-graph Bellman-Ford (K_400, ~288k messages in 3 rounds)
``vectorized`` takes 99 ms against ``fast``'s 2.4 s (24×), and on a
1500-chunk pipelined flood over a 10×30 grid (1538 rounds, 1.2M messages)
the queue-free ``FloodingKernel`` takes 0.13 s against 3.9 s (30×, the
``chunk_flood_grid`` record).  ``legacy`` exists
only as the reference the other tiers are certified against (``fast`` is
4.4× faster on the 40×40 BFS+broadcast grid).  On the async tier the
bucketed calendar queue clears 3.3× the heap's events/s on the deep-path
case (0.40M → 1.34M events/s in a later re-run of that case, where a
silent node's markers and self-tick fuse into one range-tick) and 1.5× on
the dense case (payload deliveries dominate there); ``BENCH_engine.json``
records both schedulers as tier pairs
(``async_*_bucketed`` / ``async_*_heap``) at the same ``n`` as the
synchronous tiers, and CI's bench smoke asserts the bucketed queue keeps
its ≥ 2× deep-path lead.  To re-measure any of these crossovers yourself,
run ``benchmarks/bench_congest_engine.py`` with ``--bench-scale full``;
``docs/experiments.md`` gives the pytest command, the floor and the gate
for each ``BENCH_engine.json`` case.

All tiers account bandwidth *per edge per round*: message words are
accumulated into a dense ``edge id -> words`` array per delivery batch, so
``SimulationResult.max_words_per_edge_round`` genuinely reports the busiest
(edge, round) pair rather than the largest single message.  An optional
:class:`SimulationTrace` receives a :class:`RoundStats` record per round
(active nodes, delivered messages and words, busiest edge, halted count) for
benchmarks and scaling studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional

from repro.congest.kernels import PackedInbox
from repro.congest.message import Message, payload_size_words
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import BandwidthExceededError, ConvergenceError, SimulationError

NodeId = Hashable


class EngineFallbackWarning(UserWarning):
    """A ``vectorized`` request ran on ``fast`` instead.

    Emitted exactly once per :meth:`CongestNetwork.run` call whose protocol
    provides no :class:`~repro.congest.kernels.RoundKernel` or whose
    environment has no numpy.  The text names the requested tier, the tier
    that actually ran, and the reason.  No other tier falls back.
    """


@dataclass
class RoundStats:
    """Statistics of one synchronous round.

    Attributes
    ----------
    round_number:
        1-based index of the round (matching ``SimulationResult.rounds``).
    active_nodes:
        Number of nodes whose ``on_round`` was invoked this round.
    messages_delivered / words_delivered:
        Traffic delivered at the start of this round.
    max_edge_words:
        The busiest edge of this round: total words that crossed it (both
        directions summed).
    halted_nodes:
        Number of locally terminated nodes after this round.
    """

    round_number: int
    active_nodes: int
    messages_delivered: int
    words_delivered: int
    max_edge_words: int
    halted_nodes: int


class SimulationTrace:
    """Round-by-round statistics hook for a simulation.

    Pass an instance via ``CongestNetwork.run(..., trace=...)``; after the run
    it holds one :class:`RoundStats` per executed round.  An optional
    ``callback`` is invoked with each record as it is produced (useful for
    live progress reporting on long simulations).

    On the asynchronous tier a trace constructed with ``record_events=True``
    additionally captures one :class:`~repro.congest.scheduler.EventRecord`
    per message send/delivery and per node execution in ``events`` (virtual
    timestamps included); the per-round ``rounds`` records are unaffected, so
    cross-tier trace comparisons via :meth:`as_dicts` keep working.
    """

    def __init__(
        self,
        callback: Optional[Callable[[RoundStats], None]] = None,
        record_events: bool = False,
    ) -> None:
        self.rounds: List[RoundStats] = []
        self.callback = callback
        self.record_events = record_events
        self.events: List[Any] = []

    def record(self, stats: RoundStats) -> None:
        self.rounds.append(stats)
        if self.callback is not None:
            self.callback(stats)

    def record_event(self, event: Any) -> None:
        """Capture one scheduler event (async tier, ``record_events=True``)."""
        self.events.append(event)

    # -- convenience accessors ------------------------------------------- #
    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self):
        return iter(self.rounds)

    def total_messages(self) -> int:
        return sum(r.messages_delivered for r in self.rounds)

    def total_words(self) -> int:
        return sum(r.words_delivered for r in self.rounds)

    def peak_edge_words(self) -> int:
        return max((r.max_edge_words for r in self.rounds), default=0)

    def peak_active_nodes(self) -> int:
        return max((r.active_nodes for r in self.rounds), default=0)

    def as_dicts(self) -> List[Dict[str, int]]:
        """Return the trace as plain dicts (for tables / JSON dumps)."""
        return [vars(r).copy() for r in self.rounds]


def run_fast(
    network,
    algorithm_factory: Callable[[NodeId], NodeAlgorithm],
    max_rounds: int = 10_000,
    local_inputs: Optional[Mapping[NodeId, Any]] = None,
    stop_when_quiet: bool = True,
    trace: Optional[SimulationTrace] = None,
):
    """Execute one protocol on ``network`` through the indexed fast path.

    Semantics are identical to the legacy loop in
    :meth:`CongestNetwork._run_legacy`; see :meth:`CongestNetwork.run` for the
    parameter documentation.  Returns a
    :class:`~repro.congest.network.SimulationResult`.
    """
    from repro.congest.network import SimulationResult

    idx = network.indexed
    n = idx.num_nodes
    node_ids = idx.node_ids
    neighbor_ids = idx.neighbor_ids
    out_maps = network._out_maps  # per node: original neighbour id -> (idx, edge id)
    budget = network.words_per_message

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

    # -- flat per-run state --------------------------------------------- #
    messages_sent = 0
    words_sent = 0
    max_edge_round_words = 0  # max over (edge, round) of summed words
    max_message_words = 0  # largest single message (legacy statistic)

    inboxes: List[List[Message]] = [[] for _ in range(n)]  # delivery buffer
    staging: List[List[Message]] = [[] for _ in range(n)]  # next-round buffer
    touched: List[int] = []  # receivers with a non-empty staging slot
    edge_words: List[int] = [0] * idx.num_edges
    touched_edges: List[int] = []
    pending_msgs = 0  # messages in the staging batch
    pending_words = 0

    _no_payload = object()  # sentinel: no payload sized yet in this outbox

    def collect(sender_idx: int, outbox: Mapping[NodeId, Any]) -> None:
        nonlocal messages_sent, words_sent, max_message_words, pending_msgs, pending_words
        omap = out_maps[sender_idx]
        sender_id = node_ids[sender_idx]
        # Broadcast-style outboxes ship one payload object to every
        # neighbour; size each distinct object once per outbox instead of
        # re-walking it per receiver (identity check — sizing is pure).
        sized_payload: Any = _no_payload
        sized_words = 0
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
            j, eid = target
            messages_sent += 1
            words_sent += size
            pending_msgs += 1
            pending_words += size
            if size > max_message_words:
                max_message_words = size
            if not edge_words[eid]:
                touched_edges.append(eid)
            edge_words[eid] += size
            slot = staging[j]
            if not slot:
                touched.append(j)
            slot.append(Message(sender_id, receiver, payload))

    # Round 0: initialization messages.
    halted_count = 0
    for i in range(n):
        outbox = algos[i].initialize(ctxs[i])
        if outbox:
            collect(i, outbox)
        if algos[i].halted:
            halted_count += 1

    active: List[int] = [i for i in range(n) if not algos[i].halted]
    event_flags: List[bool] = [a.event_driven for a in algos]
    all_event = all(event_flags)
    scheduled = bytearray(n)  # per-round dedup marks for worklist building

    rounds = 0
    while rounds < max_rounds:
        if halted_count == n and not touched:
            break
        if stop_when_quiet and not touched and rounds > 0:
            break
        rounds += 1

        # Seal the staged batch: it is delivered at the start of this round.
        inboxes, staging = staging, inboxes
        delivered = touched
        touched = []
        batch_msgs, pending_msgs = pending_msgs, 0
        batch_words, pending_words = pending_words, 0
        batch_edge_max = 0
        for eid in touched_edges:
            w = edge_words[eid]
            if w > batch_edge_max:
                batch_edge_max = w
            edge_words[eid] = 0
        touched_edges.clear()
        if batch_edge_max > max_edge_round_words:
            max_edge_round_words = batch_edge_max

        # Build the worklist: nodes that must be invoked this round, in node
        # order (matching the legacy loop): every running non-event-driven
        # node, plus every node (running or halted) that received mail.
        if all_event:
            worklist = sorted(delivered)
        else:
            worklist = [i for i in active if not event_flags[i]]
            for i in worklist:
                scheduled[i] = 1
            extra = [r for r in delivered if not scheduled[r]]
            if extra:
                worklist = sorted(worklist + extra)
            for i in worklist:
                scheduled[i] = 0

        for i in worklist:
            algo = algos[i]
            was_halted = algo.halted
            ctx = ctxs[i]
            ctx.round_number = rounds
            outbox = algo.on_round(ctx, inboxes[i])
            if outbox:
                collect(i, outbox)
            if algo.halted and not was_halted:
                halted_count += 1

        # Reset only the touched delivery slots (fresh lists: a protocol may
        # legitimately keep a reference to the inbox it was handed).
        for r in delivered:
            inboxes[r] = []
        if halted_count:
            active = [i for i in active if not algos[i].halted]

        if trace is not None:
            trace.record(
                RoundStats(
                    round_number=rounds,
                    active_nodes=len(worklist),
                    messages_delivered=batch_msgs,
                    words_delivered=batch_words,
                    max_edge_words=batch_edge_max,
                    halted_nodes=halted_count,
                )
            )
    else:
        raise ConvergenceError(f"simulation did not terminate within {max_rounds} rounds")

    outputs = {node_ids[i]: algos[i].output for i in range(n)}
    return SimulationResult(
        rounds=rounds,
        outputs=outputs,
        messages_sent=messages_sent,
        words_sent=words_sent,
        max_words_per_edge_round=max_edge_round_words,
        halted=halted_count == n,
        max_message_words=max_message_words,
        engine="fast",
        trace=trace,
    )


def _deliver_order(rev, indices, pending_arcs):
    """The pending reverse arcs sorted ascending, their senders, and
    ``pending_arcs`` permuted into the same order."""
    import numpy as np

    slots = rev[pending_arcs]
    order = np.argsort(slots)
    arcs = slots[order]
    return arcs, indices[arcs], pending_arcs[order]


def run_vectorized(
    network,
    kernel,
    max_rounds: int = 10_000,
    stop_when_quiet: bool = True,
    trace: Optional[SimulationTrace] = None,
):
    """Execute a :class:`~repro.congest.kernels.RoundKernel` on ``network``.

    The whole-round array tier: one :meth:`RoundKernel.round` call per round,
    operating on packed numpy payload arrays keyed by dense CSR arc slot.
    The loop structure (round counting, quiescence, halting) mirrors
    :func:`run_fast` statement for statement so all tiers agree on every
    :class:`~repro.congest.network.SimulationResult` field.
    """
    import numpy as np

    from repro.congest.network import SimulationResult

    csr = network.indexed.to_arrays()
    n = csr.num_nodes
    budget = network.words_per_message
    schema = kernel.schema
    field_dtypes = dict(schema.fields)

    messages_sent = 0
    words_sent = 0
    max_edge_round_words = 0
    max_message_words = 0

    # Staged batch: arc positions sent on, their value arrays, and the
    # batch statistics sealed at account time (mirroring ``collect``).
    pending_arcs = None
    pending_values: Dict[str, Any] = {}
    pending_msgs = 0
    pending_words = 0
    pending_edge_max = 0

    def account(sends) -> None:
        """Validate and account one round's sends (the collect() analogue)."""
        nonlocal messages_sent, words_sent, max_message_words
        nonlocal pending_arcs, pending_values, pending_msgs, pending_words, pending_edge_max
        pending_arcs = None
        pending_values = {}
        pending_msgs = 0
        pending_words = 0
        pending_edge_max = 0
        if sends is None:
            return
        sent = np.flatnonzero(sends.mask)
        count = int(sent.shape[0])
        if count == 0:
            return
        if sends.words is None:
            batch_max_msg = schema.size_words
            batch_words = schema.size_words * count
            edge_totals = np.bincount(csr.arc_edge_ids[sent]) * schema.size_words
        else:
            w = sends.words[sent]
            batch_max_msg = int(w.max())
            batch_words = int(w.sum())
            edge_totals = np.bincount(csr.arc_edge_ids[sent], weights=w)
        if batch_max_msg > budget:
            raise BandwidthExceededError(
                f"packed message of schema {schema!r} is {batch_max_msg} words "
                f"(budget {budget})"
            )
        messages_sent += count
        words_sent += batch_words
        if batch_max_msg > max_message_words:
            max_message_words = batch_max_msg
        pending_arcs = sent
        pending_values = {f: sends.values[f] for f in field_dtypes}
        pending_msgs = count
        pending_words = batch_words
        pending_edge_max = int(edge_totals.max())

    state: Dict[str, Any] = {}
    account(kernel.init(state, csr))

    halted_vec = state.get("halted")  # kernel-owned boolean vector (optional)
    halted_count = int(halted_vec.sum()) if halted_vec is not None else 0

    empty_arcs = np.empty(0, dtype=np.int64)
    empty_values = {f: np.empty(0, dtype=d) for f, d in field_dtypes.items()}

    rounds = 0
    while rounds < max_rounds:
        has_pending = pending_arcs is not None
        if halted_count == n and not has_pending:
            break
        if stop_when_quiet and not has_pending and rounds > 0:
            break
        rounds += 1

        # Seal and deliver the staged batch: the message sent on arc p lands
        # in the receiver-side slot rev[p]; sorting the slots yields
        # receiver-grouped (CSR segment) order for the kernel's reductions.
        batch_msgs, batch_words, batch_edge_max = pending_msgs, pending_words, pending_edge_max
        if batch_edge_max > max_edge_round_words:
            max_edge_round_words = batch_edge_max
        if has_pending:
            arcs, senders, perm = _deliver_order(csr.rev, csr.indices, pending_arcs)
            values = {f: pending_values[f][perm] for f in field_dtypes}
        else:
            arcs, senders, values = empty_arcs, empty_arcs, empty_values
        inbox = PackedInbox(arcs, values)

        if trace is not None:
            # Same census as the fast worklist: every running node for
            # non-event-driven kernels, plus every receiver.
            _, receivers = inbox.segment_starts(csr)
            if kernel.event_driven:
                active_nodes = int(receivers.shape[0])
            elif halted_vec is not None:
                active_nodes = (n - halted_count) + int(halted_vec[receivers].sum())
            else:
                active_nodes = n

        account(kernel.round(state, inbox, senders, csr))
        halted_vec = state.get("halted")
        halted_count = int(halted_vec.sum()) if halted_vec is not None else 0

        if trace is not None:
            trace.record(
                RoundStats(
                    round_number=rounds,
                    active_nodes=active_nodes,
                    messages_delivered=batch_msgs,
                    words_delivered=batch_words,
                    max_edge_words=batch_edge_max,
                    halted_nodes=halted_count,
                )
            )
    else:
        raise ConvergenceError(f"simulation did not terminate within {max_rounds} rounds")

    return SimulationResult(
        rounds=rounds,
        outputs=kernel.outputs(state, csr),
        messages_sent=messages_sent,
        words_sent=words_sent,
        max_words_per_edge_round=max_edge_round_words,
        halted=halted_count == n,
        max_message_words=max_message_words,
        engine="vectorized",
        trace=trace,
    )
