"""Execution engines for the CONGEST simulator — five tiers.

This module holds the synchronous execution cores behind
:meth:`CongestNetwork.run` (the asynchronous fifth tier lives in
:mod:`repro.congest.scheduler`).  All five tiers execute identical protocol
semantics and are equivalence-tested against each other on randomized
graph families (``tests/test_engine_equivalence.py`` and
``tests/test_async_scheduler.py``): identical round counts, outputs,
message/word counts, per-edge-per-round bandwidth and round traces on every
seeded instance — for the sharded tier at every shard count, and for the
async tier under the unit-delay model (with protocol outputs additionally
schedule-invariant under every seeded delay model).

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

4. ``engine="sharded"`` (:func:`run_sharded`) — the multiprocess tier:
   kernels whose state is declared via a
   :class:`~repro.congest.kernels.StateSchema` are partitioned by a
   :class:`~repro.graphs.sharding.ShardPlan` (contiguous node ranges, hence
   contiguous rows of every state vector and contiguous CSR arc-slot
   ranges).  One worker process per shard executes the kernel over its
   ranges in lockstep rounds; workers come from a persistent
   :class:`ShardPool` (parked between runs, reused across
   :meth:`CongestNetwork.run` calls) or an ephemeral per-run pool, and
   exchange boundary words through one shared-memory arena per run.

   **Memory model — state is owned by shards, not replicated.**  The
   ``multiprocessing.shared_memory`` arena of a run is laid out as one
   *segment group per shard*: the shard-local rows of every declared state
   vector, the shard's double-banked send mask/word slices, and its packed
   boundary payload arrays (one slot per *boundary* arc — an arc whose
   reverse arc another shard owns — per payload field, not one per arc).
   ``kernel.init(state, csr, shard)`` allocates and seeds only the calling
   shard's rows, so per-worker peak declared-state memory is
   O((n + m) / num_shards + boundary), and the whole-arena total is one
   instance, not (num_shards + 1) instances.  Per-tier peak declared-state
   memory for a kernel with S bytes of declared whole-graph state:

   ======================  =========================================
   tier                    peak declared state
   ======================  =========================================
   fast / legacy           n/a (per-node Python objects, O(n + m))
   vectorized              S (one in-process copy)
   sharded, per worker     S / num_shards + O(boundary) exchange
   sharded, whole arena    S + 2·(mask + words + packed boundary)
   ======================  =========================================

   **Packed boundary-exchange contract** (tables precomputed by
   :meth:`ShardPlan.exchange`): per round a worker *publishes* its send
   mask/word slices plus the payload values of its boundary slots — packed,
   O(boundary) words — into the round's arena bank, then *gathers* its
   inbox: interior slots from its private send buffers, foreign slots
   straight from the owning peer's packed array via per-pair
   (packed-position, inbox-slot) index maps.  The banks alternate per round
   (double buffering), so a round needs only **two barriers** (publish →
   verdict) instead of three: publishing round r+1 writes the opposite bank
   from the one peers still gather round r from.  The parent performs the
   bandwidth/ledger accounting from the shared mask+words segments between
   the barriers with the exact array expressions of the vectorized tier —
   which makes ``RoundStats``/``SimulationTrace``/ledger merging
   bit-for-bit by construction rather than by reduction.

   **ShardPool lifecycle**: ``ShardPool(num_shards=k)`` starts workers
   lazily on first use; between runs they park on their job pipe, and each
   run ships only a run header, split into a pickled-once common blob
   (arena name and layout + graph snapshot) and a tiny per-shard suffix
   (shard index + that shard's ``slice_for_shard`` view of the kernel, so
   per-worker header ingest is O(payload / num_shards)) — the graph
   snapshot is cached worker-side until it changes.  A run at a different
   shard count restarts the pool; a failed run (crash, timeout, oversized
   message) discards the worker generation and the next run restarts it
   transparently.  ``close()`` — directly, via the pool's or the owning
   :class:`CongestNetwork`'s context manager, or the interpreter-exit
   finalizer — shuts the (daemonic) workers down; the per-run arena is
   closed+unlinked in a ``finally`` block even when a worker is SIGKILLed
   mid-round, so no shared-memory name outlives a run.

5. ``engine="async"`` (:func:`~repro.congest.scheduler.run_async`) — the
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
   queue — events land in per-timestamp buckets, a whole pulse's batch is
   released with one dict pop instead of ``m`` sift-down heap operations,
   and the silent-node pulse range of each delivery batch is fused into a
   single ranged tick event rather than one heap entry per silent node.
   ``scheduler="heap"`` keeps the original binary-heap queue as the
   reference implementation.  The two are bit-for-bit interchangeable —
   results, ledger, round/event traces, ``virtual_time``, deterministic
   ``async_stats`` entries and fault semantics — cross-checked per delivery
   batch by the ``ScheduleFuzzer`` sweep and the fault-injection suite; the
   bucketed queue simply gets there faster (see *When each tier wins*).

   **Accounting contract**: only protocol messages are charged, so the
   message/word/bandwidth ledger equals the synchronous tiers under *every*
   delay model; under :class:`~repro.congest.scheduler.UnitDelay` the whole
   run — results, ledger, round trace — is bit-for-bit identical to the four
   tiers above and ``virtual_time == rounds``.  The result additionally
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

**Fault injection** (:mod:`repro.congest.faults`) is an async-tier
capability: crash/recovery timing is expressed in event-queue time, which
the lockstep synchronous tiers do not have — a mid-round edge crash has no
well-defined meaning when every message of the round commits atomically.
``run(..., fault_schedule=...)`` therefore requires ``engine="async"``; the
synchronous tiers reject the argument with a :class:`SimulationError`
rather than silently ignoring faults or falling back:

   ======================  ==============================================
   tier                    ``fault_schedule=`` support
   ======================  ==============================================
   legacy / fast           rejected (``SimulationError``)
   vectorized / sharded    rejected (``SimulationError``)
   async                   full: seeded node/edge crash + recovery
                           schedules, payload drops on dead links,
                           self-stabilizing restart via
                           ``on_link_recovery``, ``FaultVerdict`` on the
                           result
   ======================  ==============================================

   An async request that cannot be served (``supports_async = False``
   protocols) normally falls back to ``fast``; with a fault schedule the
   fallback is also an error, because no other tier can honour it.  A
   ``FaultSchedule()`` with no events keeps the async tier on its
   fault-free fast path — bit-for-bit the run without the argument.

**Per-tier option support** — which ``run()`` knobs each tier honours
(``scheduler=`` with a non-async engine and ``fault_schedule=`` with a
synchronous engine are rejected with :class:`SimulationError`):

   ============  =====================
   tier          ``scheduler=``
   ============  =====================
   legacy        rejected
   fast          rejected
   vectorized    rejected
   sharded       rejected
   async         bucketed (default)
                 / heap (reference)
   ============  =====================

**When each tier wins** (crossover records in ``BENCH_engine.json``): the
``fast`` worklist tier is best for sparse rounds — on the deep-path
Bellman-Ford case (n=2000, ≈ 1 active node per round) it runs ~22× faster
than ``legacy`` and ~4.5× faster than ``vectorized``, whose fixed per-round
array overhead dominates when rounds are nearly empty.  Dense rounds invert
the picture: on complete-graph Bellman-Ford (K_400, ~288k messages in 3
rounds) the ``vectorized`` tier is ~18× faster than ``fast``, and a *warm*
pooled ``sharded`` run beats ``fast`` at every measured shard count (~7.6×
at 2 shards with a 50% boundary fraction on a single-core host, up from
3.6× before the pool/packed-exchange/shard-local-init rework; cold first
runs still pay worker startup and the graph ship).  On a one-core host the
sharded win comes from the kernelized per-round compute, not parallelism;
in-process ``vectorized`` still wins outright there, and the tier's target
regime remains per-round kernel work large enough to amortize two barriers
per round — now with the added property that the *instance itself* no
longer has to fit a single process's declared-state budget.  On the async
tier the bucketed calendar queue clears ≥ 2× the heap's events/s on the
deep-path case (~0.66M → ~1.5M events/s at bench scale, where silent-node
pulse ranges fuse into single ticks) and ~1.4× on the dense case (payload
deliveries dominate there); ``BENCH_engine.json`` records both schedulers
as tier pairs (``async_*_bucketed`` / ``async_*_heap``) at the same ``n``
as the synchronous tiers, and CI's bench smoke asserts the bucketed queue
never regresses below the heap.  To re-measure any of these crossovers
yourself, sweep the tiers through the resumable experiment-matrix runner
(``bin/repro-bench run -p bellman_ford -e fast -e vectorized -f dense``);
``docs/experiments.md`` has the matrix spec, the resume semantics, the
gate tolerances and a one-command recipe per ``BENCH_engine.json`` case.

All tiers account bandwidth *per edge per round*: message words are
accumulated into a dense ``edge id -> words`` array per delivery batch, so
``SimulationResult.max_words_per_edge_round`` genuinely reports the busiest
(edge, round) pair rather than the largest single message.  An optional
:class:`SimulationTrace` receives a :class:`RoundStats` record per round
(active nodes, delivered messages and words, busiest edge, halted count) for
benchmarks and scaling studies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional

from repro.congest.kernels import PackedInbox
from repro.congest.message import Message, payload_size_words
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import BandwidthExceededError, ConvergenceError, SimulationError

NodeId = Hashable

#: Parent -> worker commands in the sharded tier's control slot.
_CMD_RUN = 0
_CMD_STOP = 1

#: Default cap on worker processes when ``num_shards`` is not given.
_DEFAULT_SHARD_CAP = 8

#: Default per-phase barrier timeout of the sharded tier (seconds).  Each
#: round has two barriers and the timeout bounds ONE phase's work (a
#: single round's gather+compute+publish, or the parent's accounting), not
#: the whole run; raise it via ``run(..., barrier_timeout=...)`` for
#: instances whose individual rounds legitimately run longer.
DEFAULT_BARRIER_TIMEOUT = 120.0


class EngineFallbackWarning(UserWarning):
    """A requested engine tier was unavailable and the run fell back.

    Emitted exactly once per :meth:`CongestNetwork.run` call, naming the
    requested tier, the tier that actually ran, and the reason (no kernel,
    no numpy, no state schema, non-picklable delay model, ...).
    """


def fallback_message(requested: str, selected: str, reason: str) -> str:
    """The canonical :class:`EngineFallbackWarning` text.

    Every fallback warning goes through this helper so the message always
    names *both* the requested and the selected tier (regression-tested in
    ``tests/test_async_scheduler.py``), not just the reason.
    """
    return (
        f"engine='{requested}' unavailable ({reason}); "
        f"falling back to engine='{selected}'"
    )


def sharded_available() -> bool:
    """Return ``True`` when the sharded tier can run on this platform."""
    try:
        import numpy  # noqa: F401
        from multiprocessing import shared_memory, synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - exercised on exotic platforms
        return False
    return True


def default_num_shards(num_nodes: int) -> int:
    """Default worker count: one per CPU, capped, never more than nodes."""
    import os

    cpus = os.cpu_count() or 1
    return max(1, min(cpus, _DEFAULT_SHARD_CAP, num_nodes))


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
    strict = network.strict_bandwidth

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
            if size > budget and strict:
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
    :class:`~repro.congest.network.SimulationResult` field.  The kernel is
    invoked with the degenerate whole-graph shard — in-process vectorized
    execution is literally the one-shard special case of :func:`run_sharded`.
    """
    import numpy as np

    from repro.congest.kernels import invoke_init
    from repro.congest.network import SimulationResult
    from repro.graphs.sharding import Shard

    csr = network.indexed.to_arrays()
    n = csr.num_nodes
    budget = network.words_per_message
    strict = network.strict_bandwidth
    schema = kernel.schema
    field_dtypes = dict(schema.fields)
    shard = Shard.full(csr)

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
        if batch_max_msg > budget and strict:
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
    account(invoke_init(kernel, state, csr, shard))

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

        account(kernel.round(state, inbox, senders, csr, shard))
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


# --------------------------------------------------------------------------- #
# Sharded tier: shared-memory arena + lockstep worker processes
# --------------------------------------------------------------------------- #

def _arena_layout(specs):
    """Lay out named arrays in one shared-memory block (64-byte aligned).

    Returns ``(layout, total_bytes)`` where ``layout`` maps each name to
    ``(offset, shape, dtype_str)`` — plain picklable data that workers use to
    rebuild their views.
    """
    import numpy as np

    layout = {}
    offset = 0
    for name, shape, dtype in specs:
        dt = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        layout[name] = (offset, tuple(int(x) for x in shape), dt.str)
        offset += (size + 63) & ~63
    # Pad so even zero-size views at the tail have a valid offset.
    return layout, offset + 64


def _arena_views(buf, layout):
    """Materialize the numpy views of an arena layout over ``buf``."""
    import numpy as np

    return {
        name: np.ndarray(shape, dtype=np.dtype(ds), buffer=buf, offset=off)
        for name, (off, shape, ds) in layout.items()
    }


def _attach_arena(name):
    """Attach a worker to the parent's shared-memory block by name.

    Works under both ``fork`` and ``spawn``: workers inherit the parent's
    resource-tracker channel, so their attach-time registration is an
    idempotent set-add and the parent's ``unlink`` retires the name exactly
    once (also when a worker is killed mid-run — the tracker process is
    shared, so no per-worker leak record survives).
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _sharded_specs(plan, schema, state_schema, csr):
    """Build the per-shard arena segment specs of one run.

    The arena is laid out as one *segment group per shard*: the shard's
    double-banked send mask/word slices, its double-banked packed boundary
    value arrays (one slot per boundary arc, per payload field), and the
    shard-local rows of every declared state vector.  Returns ``(specs,
    state_bytes, exchange_bytes)`` where the byte lists (one entry per
    shard) let callers assert that declared state is genuinely shard-local.
    """
    import numpy as np

    specs = [("ctrl", (4,), "i8")]
    state_bytes = []
    exchange_bytes = []
    for shard in plan:
        s = shard.index
        boundary = int(plan.boundary_out(s).shape[0])
        xb = 0
        for bank in (0, 1):
            specs.append((f"mask:{s}:{bank}", (shard.num_arcs,), "?"))
            specs.append((f"words:{s}:{bank}", (shard.num_arcs,), "i8"))
            xb += shard.num_arcs * 9
            for fname, dtype in schema.fields:
                specs.append((f"bvalue:{s}:{fname}:{bank}", (boundary,), dtype))
                xb += boundary * np.dtype(dtype).itemsize
        sb = 0
        for vec in state_schema:
            specs.append((f"state:{s}:{vec.name}", vec.local_shape(shard), vec.dtype))
            sb += vec.local_nbytes(shard)
        state_bytes.append(sb)
        exchange_bytes.append(xb)
    return specs, state_bytes, exchange_bytes


def _boundary_hits(mask, src_idx, slots_tab, val_idx_tab, hitbuf):
    """For every position t with ``mask[src_idx[t]]`` set, collect
    ``slots_tab[t]`` / ``val_idx_tab[t]`` (in t order) and mark
    ``hitbuf[slot] = True``."""
    got = mask[src_idx]
    slots = slots_tab[got]
    hitbuf[slots] = True
    return slots, val_idx_tab[got]


class _ShmWorkerSession:
    """Worker side of one run's arena exchange (two barriers per round).

    The banks alternate per publish (double buffering), which is what removes
    a third barrier: a worker publishing round ``r+1`` writes the opposite
    bank from the one its peers are still gathering round ``r`` from, so
    publish and gather never race.
    """

    def __init__(self, shm_name, layout, plan, shard_index, kernel, barrier,
                 timeout) -> None:
        import numpy as np

        self._np = np
        self._csr = plan.csr
        self._shard_index = s = shard_index
        self._shard = plan.shard(s)
        self._exchange = plan.exchange(s)
        self._kernel = kernel
        self._state_schema = kernel.state_schema(self._csr)
        self._field_names = fns = [name for name, _ in kernel.schema.fields]
        self._size_words = kernel.schema.size_words
        self._alo = self._shard.arc_lo
        self._gather_buf = {
            f: np.empty(self._shard.num_arcs, dtype=np.dtype(d))
            for f, d in kernel.schema.fields
        }
        self._hitbuf = np.zeros(self._shard.num_arcs, dtype=bool)
        self._barrier = barrier
        self._timeout = timeout
        self._shm = _attach_arena(shm_name)
        self._views = views = _arena_views(self._shm.buf, layout)
        self._ctrl = views["ctrl"]
        self._my_mask = [views[f"mask:{s}:{b}"] for b in (0, 1)]
        self._my_words = [views[f"words:{s}:{b}"] for b in (0, 1)]
        self._my_bval = [
            {f: views[f"bvalue:{s}:{f}:{b}"] for f in fns} for b in (0, 1)
        ]
        self._peer_mask = {
            p.peer: [views[f"mask:{p.peer}:{b}"] for b in (0, 1)]
            for p in self._exchange.peers
        }
        self._peer_bval = {
            p.peer: [
                {f: views[f"bvalue:{p.peer}:{f}:{b}"] for f in fns}
                for b in (0, 1)
            ]
            for p in self._exchange.peers
        }
        self._bout_local = plan.boundary_out(s) - self._alo
        self._state_views: Dict[str, Any] = {}
        self._bank = 0
        self._published = False

    def adopt_state(self, state) -> None:
        # Copy this shard's rows into the arena segments and rebind so every
        # subsequent kernel write lands in shared memory.
        for vec in self._state_schema:
            seg = self._views[f"state:{self._shard_index}:{vec.name}"]
            local = state[vec.name]
            if tuple(local.shape) != tuple(seg.shape):
                raise SimulationError(
                    f"kernel {type(self._kernel).__name__} allocated state "
                    f"vector {vec.name!r} with shape {tuple(local.shape)}; "
                    f"the shard-local contract requires {tuple(seg.shape)} "
                    f"(shard {self._shard_index})"
                )
            seg[...] = local
            state[vec.name] = seg
            self._state_views[vec.name] = seg

    def publish(self, sends) -> None:
        if self._published:
            self._bank ^= 1
        else:
            self._published = True
        bank = self._bank
        mask = self._my_mask[bank]
        if sends is None:
            mask[:] = False
        else:
            mask[:] = sends.mask
            words = self._my_words[bank]
            if sends.words is None:
                words[:] = self._size_words
            else:
                words[:] = sends.words
            if self._bout_local.shape[0]:
                bvals = self._my_bval[bank]
                for f in self._field_names:
                    bvals[f][:] = sends.values[f][self._bout_local]
        self._barrier.wait(self._timeout)

    def wait_verdict(self) -> bool:
        self._barrier.wait(self._timeout)
        return self._ctrl[0] != _CMD_STOP

    def gather(self, prev):
        """This shard's inbox: interior slots from its own previous sends,
        foreign slots from the peers' packed boundary arrays."""
        np = self._np
        hitbuf = self._hitbuf
        hitbuf[:] = False
        exchange = self._exchange
        if prev is not None and exchange.int_src.shape[0]:
            slots, src = _boundary_hits(
                prev.mask, exchange.int_src, exchange.int_slots,
                exchange.int_src, hitbuf,
            )
            for f in self._field_names:
                self._gather_buf[f][slots] = prev.values[f][src]
        bank = self._bank
        for p in exchange.peers:
            slots, packed = _boundary_hits(
                self._peer_mask[p.peer][bank], p.src_local, p.recv_slots,
                p.src_packed, hitbuf,
            )
            if not slots.shape[0]:
                continue
            bvals = self._peer_bval[p.peer][bank]
            for f in self._field_names:
                self._gather_buf[f][slots] = bvals[f][packed]
        hit = np.flatnonzero(hitbuf)
        arcs = self._alo + hit
        inbox = PackedInbox(
            arcs, {f: self._gather_buf[f][hit] for f in self._field_names}
        )
        return inbox, self._csr.indices[arcs]

    def check_state(self, state) -> None:
        # Declared vectors must be mutated in place: a rebind would silently
        # detach this worker from the arena (the vectorized tier re-reads the
        # dict, so the bug would not show there).
        for vec in self._state_schema:
            if state[vec.name] is not self._state_views[vec.name]:
                raise SimulationError(
                    f"kernel rebound declared state vector {vec.name!r} "
                    "during round(); sharded kernels must write declared "
                    "state in place"
                )

    def close(self) -> None:
        self._views = None
        self._ctrl = None
        self._my_mask = self._my_words = self._my_bval = None
        self._peer_mask = self._peer_bval = None
        self._state_views = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - state views still referenced
            pass


class _ShmParentSession:
    """Parent side of one run's arena exchange: owns the block, reads live views."""

    def __init__(self, plan, schema, state_schema, csr, barrier,
                 timeout) -> None:
        import numpy as np
        from multiprocessing import shared_memory

        specs, state_bytes, exchange_bytes = _sharded_specs(
            plan, schema, state_schema, csr
        )
        self.layout, total = _arena_layout(specs)
        self._np = np
        self._plan = plan
        self._csr = csr
        self._state_schema = state_schema
        self._barrier = barrier
        self._timeout = timeout
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        self.shm_name = self._shm.name
        self._k = k = plan.num_shards
        self._views = views = _arena_views(self._shm.buf, self.layout)
        self._ctrl = views["ctrl"]
        self._mask = [[views[f"mask:{s}:{b}"] for b in (0, 1)] for s in range(k)]
        self._words = [
            [views[f"words:{s}:{b}"] for b in (0, 1)] for s in range(k)
        ]
        self._halted = (
            [views[f"state:{s}:halted"] for s in range(k)]
            if any(v.name == "halted" for v in state_schema)
            else None
        )
        self._arc_lo = [int(x) for x in plan.arc_starts[:-1]]
        self._bank = 0
        self._started = False
        self.state_bytes = [int(b) for b in state_bytes]
        self.exchange_bytes = [int(b) for b in exchange_bytes]
        self.arena_bytes = int(total)

    def wait_published(self) -> None:
        if self._started:
            self._bank ^= 1
        else:
            self._started = True
        self._barrier.wait(self._timeout)

    def published(self):
        """Yield ``(global arc ids, words)`` of each shard's published sends."""
        np = self._np
        bank = self._bank
        for s in range(self._k):
            idx = np.flatnonzero(self._mask[s][bank])
            if idx.shape[0]:
                yield self._arc_lo[s] + idx, self._words[s][bank][idx]

    def halted_count(self) -> int:
        if self._halted is None:
            return 0
        return sum(int(hv.sum()) for hv in self._halted)

    def fill_halted(self, out) -> None:
        self._np.concatenate(self._halted, out=out)

    def send_verdict(self, stop: bool) -> None:
        self._ctrl[0] = _CMD_STOP if stop else _CMD_RUN
        self._barrier.wait(self._timeout)

    def collect_states(self):
        np = self._np
        merged: Dict[str, Any] = {}
        for vec in self._state_schema:
            full = np.empty(vec.shape(self._csr), dtype=np.dtype(vec.dtype))
            for s in range(self._k):
                full[vec.row_slice(self._plan.shard(s))] = self._views[
                    f"state:{s}:{vec.name}"
                ]
            merged[vec.name] = full
        return merged

    def close(self) -> None:
        # Drop our arena views before closing; if an in-flight exception's
        # traceback still pins one, unlink alone is enough (the mapping dies
        # with the last reference, the name is gone now).
        self._views = None
        self._ctrl = None
        self._mask = self._words = self._halted = None
        try:
            self._shm.close()
        except BufferError:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double cleanup
            pass


def _mp_context():
    """The multiprocessing context of the sharded tier.

    Prefer fork on Linux: workers inherit the parent's numpy import and the
    pool's synchronization primitives for free.  Elsewhere keep the platform
    default (macOS documents fork as unsafe — Accelerate/Objective-C state
    does not survive it); the spawn path works too, it just re-imports.
    """
    import multiprocessing as mp
    import sys

    if sys.platform == "linux" and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _close_pool_workers(worker_box):
    """Best-effort worker shutdown shared by close() and the exit finalizer."""
    for _proc, conn in worker_box:
        try:
            conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
    for proc, _conn in worker_box:
        proc.join(timeout=2)
    for proc, conn in worker_box:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)
        try:
            conn.close()
        except OSError:
            pass
    del worker_box[:]


class ShardPool:
    """A persistent pool of shard worker processes, reusable across runs.

    Creating worker processes and re-running a kernel's whole-graph setup
    used to be paid on *every* ``run(engine="sharded")`` call.  A pool
    amortizes it: workers are started once (lazily, on first use), park on
    their job pipe between runs, and each subsequent run only ships a run
    header: a pickled-once common blob (arena name and layout + graph
    snapshot) plus a tiny per-shard kernel-slice suffix — the graph snapshot
    itself is shipped once and cached worker-side until it changes.

    Usage::

        with ShardPool(num_shards=4) as pool:
            net.run(factory, engine="sharded", kernel=k, shard_pool=pool)
            net.run(factory, engine="sharded", kernel=k, shard_pool=pool)

    or attach it to the network (``CongestNetwork(graph, shard_pool=pool)``)
    and let the network's context manager close it.  Results are bit-for-bit
    identical to fresh-pool and single-process runs (pool-reuse tests in
    ``tests/test_sharding.py``).

    Lifecycle rules:

    * ``ensure(k)`` starts (or restarts) exactly ``k`` workers; a run with a
      different shard count restarts the pool, so reuse pays off for
      repeated runs at one count (the common benchmark/serving shape).
    * a failed run (worker crash, timeout, oversized message) breaks the
      shared barrier; the pool discards its workers and transparently
      restarts them on the next run.
    * ``close()`` (or the context manager, or interpreter exit via a
      ``weakref.finalize`` hook) shuts the workers down; workers are daemon
      processes, so even a hard parent exit cannot leak them.
    """

    def __init__(self, num_shards: Optional[int] = None,
                 barrier_timeout: Optional[float] = None) -> None:
        self.num_shards = num_shards
        self.barrier_timeout = (
            DEFAULT_BARRIER_TIMEOUT if barrier_timeout is None else barrier_timeout
        )
        self._workers: List[Any] = []  # mutated in place; shared with finalizer
        self._barrier = None
        self._errors = None
        self._closed = False
        self._busy = False  # a pool serves one sharded run at a time
        self._cached_graph = None  # (key, indexed) the current workers hold
        self._finalizer = None
        #: Total worker processes ever started / runs dispatched (telemetry;
        #: the pool-reuse tests assert workers_started stays flat across
        #: same-size runs).
        self.workers_started = 0
        self.runs_dispatched = 0

    # -- lifecycle ------------------------------------------------------- #
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """The PIDs of the live worker processes (empty before first use)."""
        return [proc.pid for proc, _conn in self._workers]

    def ensure(self, num_workers: int) -> None:
        """Start (or restart) the pool so it holds ``num_workers`` workers.

        A no-op when the pool already has exactly that many live workers and
        an intact barrier — the reuse fast path.
        """
        import weakref

        if self._closed:
            raise SimulationError("shard pool is closed")
        if self._busy:
            raise SimulationError(
                "shard pool is already executing a run; a ShardPool serves "
                "one sharded run at a time"
            )
        if (
            len(self._workers) == num_workers
            and self._barrier is not None
            and not self._barrier.broken
            and all(proc.is_alive() for proc, _conn in self._workers)
        ):
            return
        self.discard()
        ctx = _mp_context()
        # Start the shared-memory resource tracker *before* forking: workers
        # must inherit the parent's tracker channel, otherwise each worker's
        # arena attach would spawn a private tracker that reports the (by
        # then unlinked) arena as leaked at worker exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker API unavailable
            pass
        self._barrier = ctx.Barrier(num_workers + 1)
        self._errors = ctx.Queue()
        for _ in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker,
                args=(child_conn, self._barrier, self._errors),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self.workers_started += num_workers
        if self._finalizer is None or not self._finalizer.alive:
            self._finalizer = weakref.finalize(
                self, _close_pool_workers, self._workers
            )

    def discard(self) -> None:
        """Terminate the workers; the next run restarts them on demand."""
        for proc, conn in self._workers:
            try:
                conn.close()
            except OSError:
                pass
            if proc.is_alive():
                proc.terminate()
        for proc, _conn in self._workers:
            proc.join(timeout=5)
        del self._workers[:]
        self._barrier = None
        self._errors = None
        self._busy = False
        self._cached_graph = None

    def close(self) -> None:
        """Shut the pool down for good (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _close_pool_workers(self._workers)
        self._barrier = None
        self._errors = None
        self._cached_graph = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"workers={len(self._workers)}"
        return f"ShardPool({state}, runs={self.runs_dispatched})"


def _pool_worker(conn, barrier, errors):
    """Worker main loop: park on the job pipe, execute one run per job.

    Between runs the worker blocks on ``conn.recv()`` — the parked state of
    the persistent pool.  A job is ``(common_bytes, suffix_bytes)``: the
    common blob is pickled *once* per run and shared by all workers (the
    arena name and layout, the graph cache key, the graph snapshot — shipped
    as ``None`` when the worker already holds it from a previous job — the
    cut points and the timeout), while the tiny per-shard suffix carries
    only the shard index and that shard's slice of the kernel
    (:meth:`RoundKernel.slice_for_shard`).  The worker-side graph cache —
    the CSR arrays, their reverse-arc table, the :class:`ShardPlan` and its
    packed exchange tables — is rebuilt only when the graph or the cut
    points change.  Any failure aborts the shared barrier (waking the
    parent and the sibling workers) and ends this worker; the pool restarts
    workers on the next run.
    """
    import pickle

    cache: Dict[Any, Any] = {}
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        common, suffix = job
        shard_index = None
        try:
            (shm_name, layout, graph_key, indexed, node_starts,
             timeout) = pickle.loads(common)
            shard_index, kernel = pickle.loads(suffix)
            if indexed is not None:
                cache.clear()
                cache[graph_key] = {"indexed": indexed}
            entry = cache[graph_key]
            plan = entry.get("plan")
            if plan is None:
                from repro.graphs.sharding import ShardPlan

                plan = ShardPlan(entry["indexed"].to_arrays(), node_starts)
                entry["plan"] = plan
            _shard_worker_run(
                shm_name, layout, plan, kernel, shard_index, barrier, timeout
            )
        except threading.BrokenBarrierError:
            break  # parent or a sibling failed; the pool will restart us
        except BaseException:  # noqa: BLE001 - forward any failure to the parent
            import traceback

            try:
                errors.put((shard_index, traceback.format_exc()))
            except Exception:
                pass
            try:
                barrier.abort()
            except Exception:
                pass
            break
    try:
        conn.close()
    except Exception:
        pass


def _shard_worker_run(shm_name, layout, plan, kernel, shard_index, barrier,
                      timeout):
    """One shard's lockstep execution of a single run (inside a pool worker).

    Round phases:

    * **publish** — run ``kernel.round`` over the shard's local state rows
      and write the send mask/word slices plus the *packed boundary*
      payload values into this round's arena bank;
    * **verdict** — the parent accounts the published round and answers
      RUN/STOP through the arena's control slot;
    * **gather** — read the shard's inbox through the plan's precomputed
      exchange tables: interior slots from the private kernel buffers,
      foreign slots from the peers' packed boundary arrays.

    State is **shard-local**: ``kernel.init(state, csr, shard)`` allocates
    only this shard's rows, which are copied once into the shard's arena
    segment and rebound so every subsequent kernel write lands in shared
    memory.  Peak declared-state memory per worker is
    O((n + m) / num_shards + boundary), not O(n + m).
    """
    session = _ShmWorkerSession(
        shm_name, layout, plan, shard_index, kernel, barrier, timeout
    )
    try:
        csr = plan.csr
        shard = plan.shard(shard_index)
        state: Dict[str, Any] = {}
        sends = kernel.init(state, csr, shard)
        session.adopt_state(state)
        session.publish(sends)
        prev = sends
        while session.wait_verdict():
            inbox, senders = session.gather(prev)
            sends = kernel.round(state, inbox, senders, csr, shard)
            session.check_state(state)
            session.publish(sends)
            prev = sends
    finally:
        session.close()


def run_sharded(
    network,
    kernel,
    num_shards: Optional[int] = None,
    max_rounds: int = 10_000,
    stop_when_quiet: bool = True,
    trace: Optional[SimulationTrace] = None,
    plan=None,
    barrier_timeout: Optional[float] = None,
    pool: Optional[ShardPool] = None,
):
    """Execute a schema-declared kernel across shard worker processes.

    The multiprocess tier: the node space is partitioned by a
    :class:`~repro.graphs.sharding.ShardPlan` (``plan`` overrides
    ``num_shards``; the default is an arc-balanced plan over
    :func:`default_num_shards` workers), and one worker per shard runs
    :func:`_shard_worker_run`'s publish → verdict → gather lockstep loop
    over one shared-memory arena per run.  Workers come from ``pool`` (a
    :class:`ShardPool`, reused across runs) or from an ephemeral pool
    created and closed inside this call.  Jobs reach the parked workers
    over a pipe, so the kernel must be picklable (a module-level class —
    the same requirement spawn-based platforms always had).  The run header
    is split into a pickled-once common blob shared by all workers (arena
    name and layout + graph snapshot; only the snapshot is cached
    worker-side) and a tiny per-shard suffix carrying that shard's
    :meth:`~repro.congest.kernels.RoundKernel.slice_for_shard` view of the
    kernel — so keep constructor payloads small, slice them per shard, or
    trim parent-only attributes via ``__getstate__`` the way
    :class:`~repro.labeling.sssp.LabelBroadcastKernel` drops its labeling.

    A ``num_shards`` request exceeding the node count (or below 1) is
    clamped with a single :class:`EngineFallbackWarning` — a plan can never
    contain an empty shard.

    The parent never touches kernel state: it performs the
    accounting/termination logic of :func:`run_vectorized` on the published
    batches between verdicts (identical expressions, so message/word/
    bandwidth totals, ``ConvergenceError``/``BandwidthExceededError``
    behaviour and the :class:`SimulationTrace` are bit-for-bit equal to the
    single-process tiers), then merges outputs from the collected state.
    The returned result additionally carries ``shard_stats`` (per-shard
    declared state bytes, arena bytes, boundary words published and
    run-header bytes).
    """
    import warnings

    from repro.congest.kernels import supports_shard_init
    from repro.graphs.sharding import ShardPlan

    csr = network.indexed.to_arrays()
    n = csr.num_nodes
    state_schema = kernel.state_schema(csr)
    if state_schema is None:
        raise SimulationError(
            f"kernel {type(kernel).__name__} declares no StateSchema; it cannot run sharded"
        )
    if not supports_shard_init(kernel):
        raise SimulationError(
            f"kernel {type(kernel).__name__}.init is not shard-aware "
            "(expected init(state, csr, shard)); it cannot run sharded"
        )
    if plan is None:
        # ``pool.num_shards`` tracks the *last explicitly requested* size: an
        # explicit per-run num_shards updates it, while per-graph clamping
        # (below) never writes back — so one run on a tiny graph cannot
        # permanently shrink the pool's hint for later large-graph runs.
        if num_shards is not None and pool is not None:
            pool.num_shards = int(num_shards)
        if num_shards is None and pool is not None and pool.num_shards:
            num_shards = pool.num_shards
        requested = default_num_shards(n) if num_shards is None else int(num_shards)
        clamped = min(max(1, requested), n) if n else 1
        if clamped != requested:
            warnings.warn(
                f"engine='sharded': num_shards={requested} cannot be honoured "
                f"on {n} nodes (a shard must own at least one node); clamped "
                f"to {clamped}, still running engine='sharded'",
                EngineFallbackWarning,
                stacklevel=2,
            )
        plan = ShardPlan.balanced(csr, clamped)
    elif plan.csr is not csr:
        raise SimulationError("shard plan was built for a different CSR snapshot")

    if barrier_timeout is None:
        barrier_timeout = (
            pool.barrier_timeout if pool is not None else DEFAULT_BARRIER_TIMEOUT
        )
    own_pool = pool is None
    if own_pool:
        pool = ShardPool(barrier_timeout=barrier_timeout)
    try:
        return _run_sharded_on_pool(
            network, kernel, plan, state_schema, csr, max_rounds,
            stop_when_quiet, trace, barrier_timeout, pool,
        )
    finally:
        if own_pool:
            pool.close()


def _run_sharded_on_pool(network, kernel, plan, state_schema, csr, max_rounds,
                         stop_when_quiet, trace, barrier_timeout, pool):
    """The parent side of one sharded run, on an ensured :class:`ShardPool`."""
    import pickle
    import queue as queue_mod

    import numpy as np

    from repro.congest.kernels import invoke_init
    from repro.congest.network import SimulationResult
    from repro.graphs.sharding import Shard

    n = csr.num_nodes
    budget = network.words_per_message
    strict = network.strict_bandwidth
    schema = kernel.schema
    k = plan.num_shards
    node_starts = [int(x) for x in plan.node_starts]

    pool.ensure(k)
    barrier = pool._barrier
    errors = pool._errors

    # Create the arena before marking the pool busy: an allocation failure
    # here (e.g. ENOSPC on /dev/shm) must leave the pool reusable.
    session = _ShmParentSession(
        plan, schema, state_schema, csr, barrier, barrier_timeout
    )
    pool._busy = True
    aborted = False
    try:
        # Dispatch the run header, split into the pickled-once common blob
        # and a tiny per-shard suffix (shard index + that shard's
        # slice_for_shard view of the kernel): the invariant part is
        # serialized once per run instead of once per worker, and each
        # worker ingests only its own slice of the kernel payload.  The
        # graph snapshot ships only when the workers do not already hold it
        # (worker-side cache keyed by the snapshot identity; the pool pins
        # the cached snapshot so the id cannot be recycled while it is the
        # cache key).
        graph_key = (id(network.indexed), tuple(node_starts))
        cached = pool._cached_graph
        send_graph = cached is None or cached[0] != graph_key
        common = pickle.dumps(
            (session.shm_name, session.layout, graph_key,
             network.indexed if send_graph else None,
             node_starts, barrier_timeout),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        suffixes = [
            pickle.dumps(
                (s, kernel.slice_for_shard(plan.shard(s), csr)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            for s in range(k)
        ]
        for s, (_proc, conn) in enumerate(pool._workers):
            conn.send((common, suffixes[s]))
        pool._cached_graph = (graph_key, network.indexed)
        pool.runs_dispatched += 1

        has_halted = any(v.name == "halted" for v in state_schema)
        # Reusable whole-graph halted buffer for the traced census (refilled
        # in place each round; never allocated per round).
        census_halted = (
            np.empty(n, dtype=bool)
            if trace is not None and has_halted
            else None
        )
        boundary_mask = plan.boundary_arc_mask

        messages_sent = 0
        words_sent = 0
        max_edge_round_words = 0
        max_message_words = 0
        pending_msgs = 0
        pending_words = 0
        pending_edge_max = 0
        has_pending = False
        boundary_words_published = 0
        boundary_messages_published = 0

        def account(parts):
            """Account one published round (run_vectorized's expressions)."""
            nonlocal messages_sent, words_sent, max_message_words
            nonlocal pending_msgs, pending_words, pending_edge_max, has_pending
            nonlocal boundary_words_published, boundary_messages_published
            pending_msgs = 0
            pending_words = 0
            pending_edge_max = 0
            parts_idx = []
            parts_w = []
            for gidx, gw in parts:
                parts_idx.append(gidx)
                parts_w.append(gw)
            has_pending = bool(parts_idx)
            if not parts_idx:
                return None
            sent = np.concatenate(parts_idx)
            w = np.concatenate(parts_w)
            count = int(sent.shape[0])
            batch_max_msg = int(w.max())
            batch_words = int(w.sum())
            edge_totals = np.bincount(csr.arc_edge_ids[sent], weights=w)
            if batch_max_msg > budget and strict:
                raise BandwidthExceededError(
                    f"packed message of schema {schema!r} is {batch_max_msg} words "
                    f"(budget {budget})"
                )
            crossing = boundary_mask[sent]
            boundary_messages_published += int(crossing.sum())
            boundary_words_published += int(w[crossing].sum())
            messages_sent += count
            words_sent += batch_words
            if batch_max_msg > max_message_words:
                max_message_words = batch_max_msg
            pending_msgs = count
            pending_words = batch_words
            pending_edge_max = int(edge_totals.max())
            return sent

        # Private init in the parent too, but on a degenerate *empty* shard:
        # kernels set init-time attributes (chunk tables, rank maps) that
        # ``outputs`` needs, while allocating zero state rows — the parent
        # never holds a whole-graph state copy; every declared vector of
        # this dict is replaced by the merged shard segments at the end.
        parent_state: Dict[str, Any] = {}
        invoke_init(kernel, parent_state, csr, Shard(0, 0, 0, 0, 0))

        session.wait_published()  # workers published their init sends
        sent = account(session.published())
        halted_count = session.halted_count()

        rounds = 0
        converged = True
        while rounds < max_rounds:
            if halted_count == n and not has_pending:
                break
            if stop_when_quiet and not has_pending and rounds > 0:
                break
            rounds += 1
            batch_msgs, batch_words, batch_edge_max = (
                pending_msgs, pending_words, pending_edge_max,
            )
            if batch_edge_max > max_edge_round_words:
                max_edge_round_words = batch_edge_max
            if trace is not None:
                # Same census as run_vectorized, on the pre-round halted
                # state (workers are blocked on the verdict, so the arena
                # is quiescent here).
                slots = np.sort(csr.rev[sent]) if sent is not None else sent
                if slots is None:
                    active_nodes = 0 if kernel.event_driven else (
                        n if not has_halted else n - halted_count
                    )
                else:
                    _, receivers = PackedInbox(slots, {}).segment_starts(csr)
                    if kernel.event_driven:
                        active_nodes = int(receivers.shape[0])
                    elif has_halted:
                        session.fill_halted(census_halted)
                        active_nodes = (n - halted_count) + int(
                            census_halted[receivers].sum()
                        )
                    else:
                        active_nodes = n
            session.send_verdict(stop=False)  # workers gather+compute
            session.wait_published()  # new sends published
            sent = account(session.published())
            halted_count = session.halted_count()
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
            converged = False

        # Workers read STOP and park again, so the pool stays warm (also on
        # ConvergenceError).
        session.send_verdict(stop=True)
        collected = session.collect_states()
        if not converged:
            raise ConvergenceError(
                f"simulation did not terminate within {max_rounds} rounds"
            )

        merged = dict(parent_state)
        merged.update(collected)
        return SimulationResult(
            rounds=rounds,
            outputs=kernel.outputs(merged, csr),
            messages_sent=messages_sent,
            words_sent=words_sent,
            max_words_per_edge_round=max_edge_round_words,
            halted=halted_count == n,
            max_message_words=max_message_words,
            engine="sharded",
            trace=trace,
            shard_stats={
                "num_shards": k,
                "plan": plan.describe(),
                "declared_state_bytes": list(session.state_bytes),
                "exchange_bytes": list(session.exchange_bytes),
                "arena_bytes": int(session.arena_bytes),
                "boundary_messages_published": int(boundary_messages_published),
                "boundary_words_published": int(boundary_words_published),
                "run_header_bytes": {
                    "common": len(common),
                    "per_shard": [len(sfx) for sfx in suffixes],
                },
                "worker_pids": pool.worker_pids(),
                "pool_run_index": pool.runs_dispatched,
            },
        )
    except threading.BrokenBarrierError:
        aborted = True
        detail = "worker process failed or timed out"
        try:
            shard_index, tb = errors.get(timeout=2.0)
            detail = f"shard {shard_index} worker failed:\n{tb}"
        except (queue_mod.Empty, OSError, ValueError):
            pass
        raise SimulationError(f"sharded execution aborted: {detail}") from None
    except ConvergenceError:
        # Raised after the clean STOP handshake: every worker already parked,
        # so the pool stays warm for the next run.
        raise
    except BaseException:
        # Includes KeyboardInterrupt/SystemExit: the workers are mid-run, so
        # the generation must be discarded — reusing its barrier would
        # desynchronize the next run's phases.
        aborted = True
        raise
    finally:
        if aborted:
            # Wake any worker still blocked on the barrier, then drop the
            # whole worker generation — the pool restarts lazily next run.
            try:
                barrier.abort()
            except Exception:
                pass
            pool.discard()
        pool._busy = False
        session.close()
