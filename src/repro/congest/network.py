"""The synchronous CONGEST network simulator.

:class:`CongestNetwork` wraps an undirected communication graph and executes a
:class:`~repro.congest.node.NodeAlgorithm` instance per node in lock-step
synchronous rounds, enforcing the per-edge bandwidth budget of the model and
counting rounds.  The goal is a faithful round/bandwidth accounting; the
sharded tier additionally buys wall-clock parallel speed-up for large dense
rounds.

Five interchangeable execution tiers are provided (see
:mod:`repro.congest.engine` for the full architecture notes):

* ``engine="fast"`` (default) — the indexed CSR scalar path: flat integer
  node space, preallocated double-buffered inboxes, an active-node worklist,
  and dense per-edge bandwidth counters.  Every protocol runs on this tier.
* ``engine="vectorized"`` — the whole-round array tier for protocols that
  also provide a :class:`~repro.congest.kernels.RoundKernel` (packed numpy
  payloads, segmented CSR reductions, no per-node Python calls).
* ``engine="sharded"`` — the multiprocess tier for kernels that declare
  their state via a :class:`~repro.congest.kernels.StateSchema`: the node
  space is partitioned by a :class:`~repro.graphs.sharding.ShardPlan`, each
  shard's state rows live in that shard's segment of a
  ``multiprocessing.shared_memory`` arena, and one worker per shard runs
  lockstep rounds exchanging only *packed* boundary payload slots
  (``num_shards`` controls the worker count; a persistent
  :class:`~repro.congest.engine.ShardPool` — attached to the network or
  passed per run — reuses the workers across runs).
* ``engine="async"`` — the event-driven asynchronous tier
  (:mod:`repro.congest.scheduler`): per-(arc, message) delivery times from a
  pluggable seeded :class:`~repro.congest.scheduler.DelayModel`, nodes driven
  from a binary-heap event queue through an α-synchronizer adapter so every
  round-based protocol runs unmodified.  Bit-for-bit equal to the
  synchronous tiers under the unit-delay model; output-identical (and
  ledger-identical) under every seeded model, with ``virtual_time`` and
  per-arc in-flight high-water marks reporting the asynchronous timing.
* ``engine="legacy"`` — the original dict-based reference loop, kept so the
  randomized equivalence suite can certify that every optimised tier
  produces identical rounds, outputs, and word counts on every instance.

Requests for a tier the protocol/environment cannot satisfy (no kernel, no
numpy, no state schema, a non-picklable delay model, a synchronous-only
protocol) gracefully fall back down the ladder and emit a single
:class:`~repro.congest.engine.EngineFallbackWarning` naming the requested
tier, the selected tier and the reason; the returned result's ``engine``
field reports the tier that actually ran.

All tiers account bandwidth *per edge per round*: the reported
``max_words_per_edge_round`` is the busiest (edge, round) pair with the words
of both directions summed, not merely the largest single message (which is
still available as ``max_message_words``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.congest.engine import (
    EngineFallbackWarning,
    RoundStats,
    ShardPool,
    SimulationTrace,
    fallback_message,
    run_fast,
    run_sharded,
    run_vectorized,
    sharded_available,
)
from repro.congest.faults import FaultVerdict
from repro.congest.kernels import RoundKernel, supports_shard_init, vectorized_available
from repro.congest.message import DEFAULT_WORDS_PER_MESSAGE, Message
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import BandwidthExceededError, ConvergenceError, GraphError, SimulationError
from repro.graphs.graph import Graph

NodeId = Hashable

#: Engines accepted by :meth:`CongestNetwork.run`.
ENGINES = ("fast", "legacy", "vectorized", "sharded", "async")


@dataclass
class SimulationResult:
    """Outcome of one simulated protocol execution.

    Attributes
    ----------
    rounds:
        Number of synchronous communication rounds executed (rounds in which
        at least one message was in flight or at least one node was still
        active).
    outputs:
        Mapping ``node -> algorithm.output`` collected after termination.
    messages_sent:
        Total number of messages delivered over the whole execution.
    words_sent:
        Total payload volume in O(log n)-bit words.
    max_words_per_edge_round:
        The busiest (edge, round) pair: the largest total number of words
        (both directions summed) that crossed a single edge in a single
        round.
    halted:
        ``True`` if every node halted before the round limit.
    max_message_words:
        The largest single-message size observed (the per-direction budget
        check applies to this quantity).
    engine:
        Which execution tier produced the result (``"fast"``/``"legacy"``/
        ``"vectorized"``/``"sharded"``/``"async"``).  A request that fell
        back reports the tier that actually ran.
    trace:
        The :class:`~repro.congest.engine.SimulationTrace` passed to ``run``,
        if any, holding round-by-round statistics.
    shard_stats:
        For sharded runs only: the memory/exchange accounting of the run —
        the ``transport`` that carried it (``"shm"``/``"socket"``),
        per-shard declared-state and exchange-segment bytes, total arena
        bytes (0 on the socket transport), boundary messages/words
        published, the split run-header sizes (``run_header_bytes`` with the
        pickled-once ``common`` blob and the ``per_shard`` kernel-slice
        suffixes), worker PIDs, and — on the socket transport — the bytes
        that actually crossed the wire (``wire_bytes_by_peer`` keyed
        ``"s->t"``, ``wire_control_bytes``, ``wire_bytes_total``).  ``None``
        on the single-process tiers.  Excluded from tier equivalence — it
        describes the execution substrate, not the protocol.
    virtual_time:
        For async runs only: the event-queue time at which the last node
        pulse executed.  Equals ``rounds`` under the unit-delay model;
        ``None`` on the synchronous tiers (where rounds *are* the clock).
    async_stats:
        For async runs only: the timing accounting of the schedule (the
        delay model, events processed, ``virtual_time``, the maximum per-arc
        in-flight high-water mark and the ``congested_arcs`` that reached a
        high-water ≥ 2 — i.e. where messages pipelined across a slow link).
        ``None`` on the synchronous tiers.  Like ``shard_stats``, excluded
        from tier equivalence: it describes the schedule, not the protocol.
    fault_verdict:
        For async runs given a ``fault_schedule``: the
        :class:`~repro.congest.faults.FaultVerdict` accounting of the run —
        faults injected, whether the system reconverged (everything
        recovered at stop time), the last fault round and the rounds the
        protocol needed after it, payloads lost to crashed links/nodes, and
        any elements left permanently down.  ``None`` on runs without a
        fault schedule.
    """

    rounds: int
    outputs: Dict[NodeId, Any]
    messages_sent: int
    words_sent: int
    max_words_per_edge_round: int
    halted: bool
    max_message_words: int = 0
    engine: str = "fast"
    trace: Optional[SimulationTrace] = None
    shard_stats: Optional[Dict[str, Any]] = None
    virtual_time: Optional[int] = None
    async_stats: Optional[Dict[str, Any]] = None
    fault_verdict: Optional[FaultVerdict] = None


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph.

    Parameters
    ----------
    graph:
        The communication network (must be a simple undirected graph; for
        directed/weighted input instances pass ``instance.underlying_graph()``
        and supply the instance's incident edges via ``local_inputs``).
    words_per_message:
        Bandwidth budget per message in O(log n)-bit words.  Because a node
        sends at most one message per neighbour per round, this is equivalent
        to the CONGEST per-direction-per-round budget.
    strict_bandwidth:
        If ``True`` (default) oversized messages raise
        :class:`BandwidthExceededError`; if ``False`` they are still delivered
        but show up in the bandwidth statistics (useful for prototyping new
        protocols).
    engine:
        Default execution engine for :meth:`run` (``"fast"``, ``"legacy"``,
        ``"vectorized"``, ``"sharded"`` or ``"async"``).
    shard_pool:
        Optional :class:`~repro.congest.engine.ShardPool` the network's
        sharded runs reuse (worker processes park between runs instead of
        being re-spawned per call).  The network adopts the pool's
        lifecycle: ``close()`` — or using the network as a context manager —
        shuts it down.  Without a pool, every sharded run spins up and tears
        down its own workers.
    """

    def __init__(
        self,
        graph: Graph,
        words_per_message: int = DEFAULT_WORDS_PER_MESSAGE,
        strict_bandwidth: bool = True,
        engine: str = "fast",
        shard_pool: Optional[ShardPool] = None,
    ) -> None:
        if graph.num_nodes() == 0:
            raise GraphError("cannot simulate an empty network")
        if engine not in ENGINES:
            raise SimulationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.graph = graph
        self.words_per_message = words_per_message
        self.strict_bandwidth = strict_bandwidth
        self.engine = engine
        self.shard_pool = shard_pool
        #: CSR snapshot of the communication graph (contiguous int node ids);
        #: refreshed automatically at ``run()`` if the graph was mutated.
        self.indexed = None
        self._neighbors: Dict[NodeId, List[NodeId]] = {}
        self._out_maps: List[Dict[NodeId, Tuple[int, int]]] = []
        self._refresh_view()

    def _refresh_view(self) -> None:
        """(Re)build the CSR view and lookup tables if the graph changed.

        ``Graph.to_indexed`` is version-cached, so this is O(1) when the
        graph is unmodified.
        """
        idx = self.graph.to_indexed()
        if idx is self.indexed:
            return
        self.indexed = idx
        self._neighbors = {
            u: idx.neighbor_ids[i] for i, u in enumerate(idx.node_ids)
        }
        # O(1) outbox-validation/edge-lookup tables; cached on the snapshot
        # so every network over the same graph shares them (also reused by
        # the legacy loop for edge accounting).
        self._out_maps = idx.neighbor_maps

    # ------------------------------------------------------------------ #
    # ShardPool lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the attached :class:`ShardPool`, if any.

        The network stays fully usable afterwards — subsequent sharded runs
        simply fall back to per-run ephemeral worker pools.
        """
        if self.shard_pool is not None:
            self.shard_pool.close()
            self.shard_pool = None

    def __enter__(self) -> "CongestNetwork":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    def run(
        self,
        algorithm_factory: Callable[[NodeId], NodeAlgorithm],
        max_rounds: int = 10_000,
        local_inputs: Optional[Mapping[NodeId, Any]] = None,
        stop_when_quiet: bool = True,
        engine: Optional[str] = None,
        trace: Optional[SimulationTrace] = None,
        kernel: Optional[RoundKernel] = None,
        num_shards: Optional[int] = None,
        barrier_timeout: Optional[float] = None,
        shard_pool: Optional[ShardPool] = None,
        delay_model=None,
        transport=None,
        fault_schedule=None,
        scheduler: Optional[str] = None,
    ) -> SimulationResult:
        """Execute one protocol on every node and return the round statistics.

        Parameters
        ----------
        algorithm_factory:
            Called once per node id to create that node's protocol instance.
        max_rounds:
            Hard limit on the number of rounds; exceeding it raises
            :class:`ConvergenceError` unless ``stop_when_quiet`` ended the run
            earlier.
        local_inputs:
            Optional per-node application input, exposed to the protocol as
            ``ctx.local_edges``.
        stop_when_quiet:
            If ``True`` the simulation also stops when no messages are in
            flight and no node produced new messages this round, even if some
            nodes have not explicitly halted (global quiescence).  This models
            the standard convention that the round complexity of an algorithm
            is the index of the last round in which a message is sent.
        engine:
            Execution engine override (``"fast"``/``"legacy"``/
            ``"vectorized"``/``"sharded"``/``"async"``); defaults to the
            network's engine.  All tiers produce identical results (the
            async tier bit-for-bit under unit delays, output-identical
            under every seeded delay model).
        trace:
            Optional :class:`~repro.congest.engine.SimulationTrace` collecting
            round-by-round statistics.
        kernel:
            Whole-round :class:`~repro.congest.kernels.RoundKernel` for the
            ``vectorized``/``sharded`` tiers.  When omitted, a
            ``round_kernel`` attribute on ``algorithm_factory`` is used if
            present; with no kernel (or no numpy, or — for ``sharded`` — no
            :class:`~repro.congest.kernels.StateSchema`) the run gracefully
            falls back down the tier ladder with a single
            :class:`~repro.congest.engine.EngineFallbackWarning` — check
            ``SimulationResult.engine`` for the tier that actually ran.
        num_shards:
            Worker-process count for the ``sharded`` tier (default: the
            attached/passed pool's size, else one per CPU, capped; see
            :func:`~repro.congest.engine.default_num_shards`).  Requests
            exceeding the node count are clamped with a single
            :class:`~repro.congest.engine.EngineFallbackWarning`.  Results
            are identical for every shard count.
        barrier_timeout:
            Per-phase synchronization timeout of the ``sharded`` tier in
            seconds (default
            :data:`~repro.congest.engine.DEFAULT_BARRIER_TIMEOUT`).  Bounds
            one round phase, not the whole run; raise it for instances whose
            individual rounds legitimately exceed it.
        shard_pool:
            :class:`~repro.congest.engine.ShardPool` to run the ``sharded``
            tier on (overrides the network's attached pool for this call).
            The pool's workers are reused across runs; ownership stays with
            the caller.
        delay_model:
            :class:`~repro.congest.scheduler.DelayModel` assigning every
            (arc, message) envelope its delivery time on the ``async`` tier
            (default :class:`~repro.congest.scheduler.UnitDelay`).  Only
            meaningful with ``engine="async"``; a non-picklable model (whose
            schedule could not be snapshotted for reproduction) falls back
            to ``fast`` with a single
            :class:`~repro.congest.engine.EngineFallbackWarning`.
        transport:
            Boundary-exchange transport of the ``sharded`` tier:
            ``None``/``"shm"`` (the default shared-memory arena),
            ``"socket"`` (localhost TCP — workers hold no shared memory and
            ``shard_stats`` reports per-peer bytes on the wire), or a
            :class:`~repro.congest.transport.Transport` instance.  Only
            meaningful with ``engine="sharded"``; results are bit-for-bit
            identical under either transport.  If the sharded tier itself
            falls back down the ladder the transport choice is moot (the
            fallback warning already names the tier that ran); a socket
            listener that cannot bind degrades to the shared-memory
            transport with a single
            :class:`~repro.congest.engine.EngineFallbackWarning`.
        fault_schedule:
            :class:`~repro.congest.faults.FaultSchedule` (explicit timed
            node/edge crash+recover transitions) or seeded
            :class:`~repro.congest.faults.FaultModel` generator
            (:class:`~repro.congest.faults.MassFailure` /
            :class:`~repro.congest.faults.Churn` /
            :class:`~repro.congest.faults.LinkFlap`) to inject into the run.
            Only the ``async`` tier supports fault injection: the lockstep
            synchronous tiers have no notion of mid-round crash timing, so
            any other engine raises :class:`~repro.errors.SimulationError`
            (no silent fallback — dropping the faults would silently change
            the experiment).  The run's accounting is returned as
            ``SimulationResult.fault_verdict``.
        scheduler:
            Event-queue implementation of the ``async`` tier:
            ``"bucketed"`` (the calendar-queue fast path, default) or
            ``"heap"`` (the reference binary heap).  Both produce identical
            runs — see :mod:`repro.congest.scheduler`.  Only meaningful with
            ``engine="async"``.
        """
        self._refresh_view()
        chosen = engine if engine is not None else self.engine
        if scheduler is not None and chosen != "async":
            raise SimulationError(
                f"scheduler is only meaningful with engine='async' "
                f"(requested engine {chosen!r})"
            )
        if kernel is None:
            kernel = getattr(algorithm_factory, "round_kernel", None)
        if delay_model is not None and chosen != "async":
            raise SimulationError(
                f"delay_model is only meaningful with engine='async' "
                f"(requested engine {chosen!r})"
            )
        if fault_schedule is not None and chosen != "async":
            raise SimulationError(
                f"fault_schedule requires engine='async' (requested engine "
                f"{chosen!r}): the lockstep synchronous tiers cannot honour "
                "mid-round crash/recovery timing"
            )
        if transport is not None and chosen != "sharded":
            raise SimulationError(
                f"transport is only meaningful with engine='sharded' "
                f"(requested engine {chosen!r})"
            )
        if chosen == "async":
            from repro.congest.scheduler import async_incompatibility, run_async

            reason, probe = async_incompatibility(self, algorithm_factory, delay_model)
            if reason is None:
                return run_async(
                    self,
                    algorithm_factory,
                    delay_model=delay_model,
                    max_rounds=max_rounds,
                    local_inputs=local_inputs,
                    stop_when_quiet=stop_when_quiet,
                    trace=trace,
                    fault_schedule=fault_schedule,
                    scheduler=scheduler if scheduler is not None else "bucketed",
                    _probe=probe,
                )
            if fault_schedule is not None:
                # No silent fallback here: the fast tier cannot inject the
                # faults, so degrading would silently run a different
                # (fault-free) experiment.
                raise SimulationError(
                    f"fault_schedule requires the async tier, which cannot "
                    f"serve this request ({reason})"
                )
            warnings.warn(
                fallback_message("async", "fast", reason),
                EngineFallbackWarning,
                stacklevel=2,
            )
            chosen = "fast"
        if chosen == "sharded":
            if (
                kernel is not None
                and sharded_available()
                and kernel.state_schema(self.indexed.to_arrays()) is not None
                and supports_shard_init(kernel)
            ):
                return run_sharded(
                    self,
                    kernel,
                    num_shards=num_shards,
                    max_rounds=max_rounds,
                    stop_when_quiet=stop_when_quiet,
                    trace=trace,
                    barrier_timeout=barrier_timeout,
                    pool=shard_pool if shard_pool is not None else self.shard_pool,
                    transport=transport,
                )
            if kernel is None:
                reason, chosen = "the protocol provides no RoundKernel", "fast"
            elif not sharded_available():
                reason = "numpy/shared-memory support is unavailable"
                chosen = "vectorized" if vectorized_available() else "fast"
            elif kernel.state_schema(self.indexed.to_arrays()) is None:
                reason = f"kernel {type(kernel).__name__} declares no StateSchema"
                chosen = "vectorized"
            else:
                reason = (
                    f"kernel {type(kernel).__name__}.init is not shard-aware "
                    "(expected init(state, csr, shard))"
                )
                chosen = "vectorized"
            warnings.warn(
                fallback_message("sharded", chosen, reason),
                EngineFallbackWarning,
                stacklevel=2,
            )
        if chosen == "vectorized":
            if kernel is not None and vectorized_available():
                return run_vectorized(
                    self,
                    kernel,
                    max_rounds=max_rounds,
                    stop_when_quiet=stop_when_quiet,
                    trace=trace,
                )
            # Capability check failed (no kernel for this protocol, or numpy
            # missing): run the same protocol on the scalar fast tier.
            reason = (
                "the protocol provides no RoundKernel"
                if kernel is None
                else "numpy is unavailable"
            )
            warnings.warn(
                fallback_message("vectorized", "fast", reason),
                EngineFallbackWarning,
                stacklevel=2,
            )
            chosen = "fast"
        if chosen == "fast":
            return run_fast(
                self,
                algorithm_factory,
                max_rounds=max_rounds,
                local_inputs=local_inputs,
                stop_when_quiet=stop_when_quiet,
                trace=trace,
            )
        if chosen == "legacy":
            return self._run_legacy(
                algorithm_factory,
                max_rounds=max_rounds,
                local_inputs=local_inputs,
                stop_when_quiet=stop_when_quiet,
                trace=trace,
            )
        raise SimulationError(f"unknown engine {chosen!r}; expected one of {ENGINES}")

    # ------------------------------------------------------------------ #
    def _run_legacy(
        self,
        algorithm_factory: Callable[[NodeId], NodeAlgorithm],
        max_rounds: int = 10_000,
        local_inputs: Optional[Mapping[NodeId, Any]] = None,
        stop_when_quiet: bool = True,
        trace: Optional[SimulationTrace] = None,
    ) -> SimulationResult:
        """The original dict-based reference loop (one inbox rebuild per round).

        Kept verbatim (plus per-edge-per-round accounting and tracing) as the
        ground truth the fast engine is equivalence-tested against.
        """
        nodes = self.graph.nodes()
        n = len(nodes)
        index_of = self.indexed.index_of
        algos: Dict[NodeId, NodeAlgorithm] = {}
        ctxs: Dict[NodeId, NodeContext] = {}
        for u in nodes:
            algo = algorithm_factory(u)
            if not isinstance(algo, NodeAlgorithm):
                raise SimulationError(
                    f"algorithm_factory must return NodeAlgorithm instances, got {type(algo)!r}"
                )
            algos[u] = algo
            ctxs[u] = NodeContext(
                node=u,
                neighbors=self._neighbors[u],
                n=n,
                round_number=0,
                local_edges=None if local_inputs is None else local_inputs.get(u),
            )

        messages_sent = 0
        words_sent = 0
        max_message_words = 0
        max_edge_round_words = 0
        batch_edge_words: Dict[int, int] = {}  # edge id -> words in the pending batch

        def validate_and_collect(sender: NodeId, outbox: Mapping[NodeId, Any]) -> List[Message]:
            nonlocal messages_sent, words_sent, max_message_words
            out: List[Message] = []
            if not outbox:
                return out
            omap = self._out_maps[index_of[sender]]
            for receiver, payload in outbox.items():
                target = omap.get(receiver)
                if target is None:
                    raise SimulationError(
                        f"node {sender!r} attempted to message non-neighbour {receiver!r}"
                    )
                msg = Message(sender, receiver, payload)
                size = msg.size_words()
                if size > self.words_per_message and self.strict_bandwidth:
                    raise BandwidthExceededError(
                        f"message from {sender!r} to {receiver!r} is {size} words "
                        f"(budget {self.words_per_message})"
                    )
                messages_sent += 1
                words_sent += size
                max_message_words = max(max_message_words, size)
                eid = target[1]
                batch_edge_words[eid] = batch_edge_words.get(eid, 0) + size
                out.append(msg)
            return out

        # Round 0 message generation (initialization).
        in_flight: List[Message] = []
        for u in nodes:
            in_flight.extend(validate_and_collect(u, algos[u].initialize(ctxs[u])))

        rounds = 0
        while rounds < max_rounds:
            all_halted = all(a.halted for a in algos.values())
            if all_halted and not in_flight:
                break
            if stop_when_quiet and not in_flight and rounds > 0:
                break
            rounds += 1
            # Seal the pending batch: it crosses the edges in this round.
            batch_edge_max = max(batch_edge_words.values(), default=0)
            max_edge_round_words = max(max_edge_round_words, batch_edge_max)
            batch_edge_words = {}
            if trace is not None:
                batch_msgs = len(in_flight)
                batch_words = sum(m.size_words() for m in in_flight)
            # Deliver messages.
            inboxes: Dict[NodeId, List[Message]] = {u: [] for u in nodes}
            for msg in in_flight:
                inboxes[msg.receiver].append(msg)
            in_flight = []
            active_count = 0
            for u in nodes:
                algo = algos[u]
                if not inboxes[u] and (algo.halted or algo.event_driven):
                    continue
                active_count += 1
                ctxs[u].round_number = rounds
                outbox = algo.on_round(ctxs[u], inboxes[u])
                in_flight.extend(validate_and_collect(u, outbox))
            if trace is not None:
                trace.record(
                    RoundStats(
                        round_number=rounds,
                        active_nodes=active_count,
                        messages_delivered=batch_msgs,
                        words_delivered=batch_words,
                        max_edge_words=batch_edge_max,
                        halted_nodes=sum(1 for a in algos.values() if a.halted),
                    )
                )
        else:
            raise ConvergenceError(
                f"simulation did not terminate within {max_rounds} rounds"
            )

        outputs = {u: algos[u].output for u in nodes}
        halted = all(a.halted for a in algos.values())
        return SimulationResult(
            rounds=rounds,
            outputs=outputs,
            messages_sent=messages_sent,
            words_sent=words_sent,
            max_words_per_edge_round=max_edge_round_words,
            halted=halted,
            max_message_words=max_message_words,
            engine="legacy",
            trace=trace,
        )
