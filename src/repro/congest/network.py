"""The synchronous CONGEST network simulator.

:class:`CongestNetwork` wraps an undirected communication graph and executes a
:class:`~repro.congest.node.NodeAlgorithm` instance per node in lock-step
synchronous rounds, enforcing the per-edge bandwidth budget of the model and
counting rounds.  The goal is a faithful round/bandwidth accounting.

Four interchangeable execution tiers are provided, picked per run by
``run(engine=...)`` (see :mod:`repro.congest.engine` for the full
architecture notes):

* ``engine="fast"`` (default) — the indexed CSR scalar path: flat integer
  node space, preallocated double-buffered inboxes, an active-node worklist,
  and dense per-edge bandwidth counters.  Every protocol runs on this tier.
* ``engine="vectorized"`` — the whole-round array tier for protocols that
  also provide a :class:`~repro.congest.kernels.RoundKernel` (packed numpy
  payloads, segmented CSR reductions, no per-node Python calls).
* ``engine="async"`` — the event-driven asynchronous tier
  (:mod:`repro.congest.scheduler`): per-(arc, message) delivery times from a
  pluggable seeded :class:`~repro.congest.scheduler.DelayModel`, nodes driven
  from an event queue (a bucketed calendar queue by default, the reference
  binary heap with ``scheduler="heap"``) through an α-synchronizer adapter
  so every round-based protocol runs unmodified.  Bit-for-bit equal to the
  synchronous tiers under the unit-delay model; output-identical (and
  ledger-identical) under every seeded model, with ``virtual_time`` and
  per-arc in-flight high-water marks reporting the asynchronous timing.
* ``engine="legacy"`` — the original dict-based reference loop, kept so the
  randomized equivalence suite can certify that every optimised tier
  produces identical rounds, outputs, and word counts on every instance.

Every tier runs every protocol, except that ``vectorized`` needs a
:class:`~repro.congest.kernels.RoundKernel` and numpy: without either the
run falls back to ``fast`` and emits a single
:class:`~repro.congest.engine.EngineFallbackWarning` naming the requested
tier, the selected tier and the reason; the returned result's ``engine``
field reports the tier that actually ran.  Every tier raises
:class:`~repro.errors.BandwidthExceededError` on a message over the
per-message word budget.

All tiers account bandwidth *per edge per round*: the reported
``max_words_per_edge_round`` is the busiest (edge, round) pair with the words
of both directions summed, not merely the largest single message (which is
still available as ``max_message_words``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.congest.engine import (
    EngineFallbackWarning,
    RoundStats,
    SimulationTrace,
    run_fast,
    run_vectorized,
)
from repro.congest.faults import FaultVerdict
from repro.congest.kernels import RoundKernel, vectorized_available
from repro.congest.message import DEFAULT_WORDS_PER_MESSAGE, Message
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.errors import BandwidthExceededError, ConvergenceError, GraphError, SimulationError
from repro.graphs.graph import Graph

NodeId = Hashable

#: Engines accepted by :meth:`CongestNetwork.run`.
ENGINES = ("fast", "legacy", "vectorized", "async")


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
        ``"vectorized"``/``"async"``).  A request that fell back reports the
        tier that actually ran.
    trace:
        The :class:`~repro.congest.engine.SimulationTrace` passed to ``run``,
        if any, holding round-by-round statistics.
    virtual_time:
        For async runs only: the event-queue time at which the last node
        pulse executed.  Equals ``rounds`` under the unit-delay model;
        ``None`` on the synchronous tiers (where rounds *are* the clock).
    async_stats:
        For async runs only: the timing accounting of the schedule (the
        delay model, events processed, ``virtual_time``, the maximum per-arc
        in-flight high-water mark and the ``congested_arcs`` that reached a
        high-water ≥ 2 — i.e. where messages pipelined across a slow link).
        ``None`` on the synchronous tiers.  Excluded from tier equivalence:
        it describes the schedule, not the protocol.
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
        Bandwidth budget per message in O(log n)-bit words, an ``int`` ≥ 1
        (anything else raises :class:`SimulationError`).  Because a node
        sends at most one message per neighbour per round, this is equivalent
        to the CONGEST per-direction-per-round budget.  A larger message
        raises :class:`BandwidthExceededError` on every tier.

    The execution tier is chosen per run, by :meth:`run`'s ``engine``.
    """

    def __init__(
        self,
        graph: Graph,
        words_per_message: int = DEFAULT_WORDS_PER_MESSAGE,
    ) -> None:
        if graph.num_nodes() == 0:
            raise GraphError("cannot simulate an empty network")
        if (
            not isinstance(words_per_message, int)
            or isinstance(words_per_message, bool)
            or words_per_message < 1
        ):
            raise SimulationError(
                f"words_per_message must be an int >= 1, got {words_per_message!r}"
            )
        self.graph = graph
        self.words_per_message = words_per_message
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
    def run(
        self,
        algorithm_factory: Callable[[NodeId], NodeAlgorithm],
        max_rounds: int = 10_000,
        local_inputs: Optional[Mapping[NodeId, Any]] = None,
        stop_when_quiet: bool = True,
        engine: Optional[str] = None,
        trace: Optional[SimulationTrace] = None,
        kernel: Optional[RoundKernel] = None,
        delay_model=None,
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
            Execution tier (``"fast"``/``"legacy"``/``"vectorized"``/
            ``"async"``); ``None`` means ``"fast"``.  All tiers produce
            identical results (the async tier bit-for-bit under unit delays,
            output-identical under every seeded delay model).
        trace:
            Optional :class:`~repro.congest.engine.SimulationTrace` collecting
            round-by-round statistics.
        kernel:
            Whole-round :class:`~repro.congest.kernels.RoundKernel` for the
            ``vectorized`` tier.  With no kernel (or no numpy) a
            ``vectorized`` run falls back to ``fast`` with a single
            :class:`~repro.congest.engine.EngineFallbackWarning` — check
            ``SimulationResult.engine`` for the tier that actually ran.
        delay_model:
            :class:`~repro.congest.scheduler.DelayModel` assigning every
            (arc, message) envelope its delivery time on the ``async`` tier
            (default :class:`~repro.congest.scheduler.UnitDelay`).  Only
            meaningful with ``engine="async"``, which runs every protocol
            under every model.
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
        chosen = "fast" if engine is None else engine
        if chosen not in ENGINES:
            raise SimulationError(f"unknown engine {chosen!r}; expected one of {ENGINES}")
        if scheduler is not None and chosen != "async":
            raise SimulationError(
                f"scheduler is only meaningful with engine='async' "
                f"(requested engine {chosen!r})"
            )
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
        if chosen == "async":
            from repro.congest.scheduler import run_async

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
                f"engine='vectorized' unavailable ({reason}); "
                "falling back to engine='fast'",
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
        return self._run_legacy(
            algorithm_factory,
            max_rounds=max_rounds,
            local_inputs=local_inputs,
            stop_when_quiet=stop_when_quiet,
            trace=trace,
        )

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
                if size > self.words_per_message:
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
