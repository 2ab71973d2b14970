"""Fault-injection layer tests (``repro.congest.faults`` + the async tier).

The layer's contract, asserted here:

* **Determinism** — identical (graph, seed, FaultSchedule, DelayModel)
  inputs produce bit-for-bit identical results, ledgers and fault
  :class:`~repro.congest.scheduler.EventRecord` streams; and a *fault-free*
  ``FaultSchedule()`` leaves the async tier bit-for-bit identical to a run
  without the argument.
* **Reconvergence** — after every seeded mass-failure / churn / link-flap
  sweep whose faults are all transient, Bellman-Ford, BFS-tree and flooding
  outputs match the centralized oracle on the (restored) graph; permanent
  faults in raw schedules are honestly reported in the
  :class:`~repro.congest.faults.FaultVerdict` and the protocol converges to
  the *post-fault* graph's oracle instead.
* **Labels after churn** — distance labels are static, so a changed
  instance is answered by a rebuild: the labeling built from the instance
  after weight decreases, increases, arc removals and re-inserts decodes
  every pair to that instance's Dijkstra distance.

The heavy multi-family sweeps are marked ``faults`` (deselected by default;
CI runs them in a dedicated step via ``-m faults``), with every schedule
seeded from the session ``--seed`` through the :class:`ScheduleFuzzer`.
"""

from __future__ import annotations

import math
import random

import pytest

from test_engine_equivalence import _assert_identical

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.engine import SimulationTrace
from repro.congest.faults import (
    Churn,
    FaultEvent,
    FaultSchedule,
    FaultVerdict,
    LinkFlap,
    MassFailure,
    resolve_fault_schedule,
)
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.congest.primitives import broadcast, build_bfs_tree, elect_leader
from repro.congest.scheduler import UniformDelay, UnitDelay
from repro.errors import FaultInjectionError, SimulationError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.properties import dijkstra
from repro.labeling.construction import build_distance_labeling

INF = math.inf


def _mesh(seed: int) -> Graph:
    return generators.partial_k_tree(24, 3, seed=seed)


def _instance(graph: Graph, seed: int):
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=seed
    )


# --------------------------------------------------------------------------- #
# Schedule construction and validation
# --------------------------------------------------------------------------- #
class TestScheduleValidation:
    def test_unknown_kind_and_bad_times_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSchedule([FaultEvent(3, "node_explodes", 0)])
        with pytest.raises(FaultInjectionError, match="integers >= 1"):
            FaultSchedule([FaultEvent(0, "node_down", 0)])
        with pytest.raises(FaultInjectionError, match="integers >= 1"):
            FaultSchedule([FaultEvent(2.5, "node_down", 0)])

    def test_edge_targets_are_endpoint_pairs(self):
        with pytest.raises(FaultInjectionError, match="endpoint pairs"):
            FaultSchedule([FaultEvent(2, "edge_down", 7)])
        with pytest.raises(FaultInjectionError, match="endpoint pairs"):
            FaultSchedule([FaultEvent(2, "edge_down", (3, 3))])

    def test_overlapping_transitions_rejected(self):
        # Crashing an already-crashed node…
        with pytest.raises(FaultInjectionError):
            FaultSchedule([
                FaultEvent(2, "node_down", 0),
                FaultEvent(4, "node_down", 0),
            ])
        # …recovering a healthy edge, in either endpoint order.
        with pytest.raises(FaultInjectionError):
            FaultSchedule([
                FaultEvent(2, "edge_down", (0, 1)),
                FaultEvent(3, "edge_up", (1, 0)),
                FaultEvent(4, "edge_up", (0, 1)),
            ])

    def test_unknown_targets_rejected_at_bind(self):
        net = CongestNetwork(generators.path_graph(4))
        with pytest.raises(FaultInjectionError, match="not in the network"):
            FaultSchedule([FaultEvent(2, "node_down", 99)]).bind(net)
        with pytest.raises(FaultInjectionError, match="not an edge of the network"):
            FaultSchedule([FaultEvent(2, "edge_down", (0, 3))]).bind(net)

    def test_permanently_dead_source_rejected_up_front(self):
        instance = _instance(_mesh(3), 4)
        src = min(instance.nodes())
        dead_src = FaultSchedule([FaultEvent(4, "node_down", src)])
        with pytest.raises(FaultInjectionError, match="no recovery"):
            distributed_bellman_ford(instance, src, fault_schedule=dead_src)

    def test_sync_tiers_reject_fault_schedules(self):
        net = CongestNetwork(generators.path_graph(5))
        schedule = FaultSchedule([
            FaultEvent(2, "node_down", 2), FaultEvent(4, "node_up", 2),
        ])
        for engine in ("fast", "legacy"):
            with pytest.raises(SimulationError, match="async"):
                net.run(lambda u: BroadcastAll(value=u), engine=engine,
                        fault_schedule=schedule)

    def test_generators_expand_deterministically(self):
        net = CongestNetwork(_mesh(5))
        for model in (
            MassFailure(fraction=0.4, at=5, outage=6, kind="node", seed=9),
            MassFailure(fraction=0.4, at=5, outage=6, kind="edge", seed=9),
            Churn(cycles=3, period=5, outage=2, start=3, seed=9),
            LinkFlap(fraction=0.3, cycles=2, period=7, outage=2, seed=9),
        ):
            a = resolve_fault_schedule(model, net.indexed)
            b = resolve_fault_schedule(model, net.indexed)
            assert a.events == b.events
            assert a.events  # non-trivial on this mesh
            # Every generator is transient: down/up transitions pair off.
            downs = sum(1 for e in a.events if e.kind.endswith("_down"))
            ups = sum(1 for e in a.events if e.kind.endswith("_up"))
            assert downs == ups

    def test_linkflap_overlapping_flaps_rejected(self):
        with pytest.raises(FaultInjectionError, match="outage < period"):
            LinkFlap(fraction=0.2, cycles=2, period=4, outage=4)


# --------------------------------------------------------------------------- #
# Determinism and the fault-free fast path
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_empty_schedule_is_bit_for_bit_the_plain_async_run(self, master_seed):
        net = CongestNetwork(_mesh(master_seed % 100))
        plain = net.run(lambda u: BroadcastAll(value=u), engine="async")
        empty = net.run(lambda u: BroadcastAll(value=u), engine="async",
                        fault_schedule=FaultSchedule())
        _assert_identical(plain, empty)
        assert plain.fault_verdict is None
        verdict = empty.fault_verdict
        assert isinstance(verdict, FaultVerdict)
        assert verdict.faults_injected == 0
        assert verdict.reconverged

    def test_identical_inputs_reproduce_bit_for_bit(self, master_seed):
        instance = _instance(_mesh(7), 8)
        src = min(instance.nodes())
        inputs = (
            # Node churn under non-unit delays.
            (Churn(cycles=4, period=5, outage=3, start=3, seed=master_seed),
             UniformDelay(1, 3, seed=master_seed), False),
            # Link flaps from time 1 under unit delay: Bellman-Ford's first
            # floods lose payloads on down links, at send and in flight.
            (LinkFlap(fraction=0.3, cycles=2, period=4, outage=2, start=1,
                      seed=master_seed),
             UnitDelay(), True),
        )
        fault_kinds = ("node_down", "node_up", "edge_down", "edge_up", "drop")
        for model, delay, must_drop in inputs:

            def run(scheduler="bucketed"):
                trace = SimulationTrace(record_events=True)
                bf = distributed_bellman_ford(
                    instance, src, fault_schedule=model, delay_model=delay,
                    trace=trace, scheduler=scheduler,
                )
                return bf, trace

            a, trace_a = run()
            b, trace_b = run()
            assert a.distances == b.distances
            assert a.parents == b.parents
            _assert_identical(a.simulation, b.simulation)
            assert a.simulation.fault_verdict == b.simulation.fault_verdict
            fault_events_a = [e for e in trace_a.events if e.kind in fault_kinds]
            fault_events_b = [e for e in trace_b.events if e.kind in fault_kinds]
            assert fault_events_a == fault_events_b
            assert fault_events_a, model  # the faults actually fired
            # The reference heap queue replays the exact same faulty
            # execution — _EV_FAULT ordering against deliveries/ticks is
            # scheduler-invariant — down to every send, delivery and drop.
            c, trace_c = run(scheduler="heap")
            assert c.distances == a.distances
            _assert_identical(a.simulation, c.simulation)
            assert c.simulation.fault_verdict == a.simulation.fault_verdict
            assert trace_c.events == trace_a.events
            drops = [e for e in trace_a.events if e.kind == "drop"]
            assert len(drops) == a.simulation.fault_verdict.payloads_dropped
            if must_drop:
                assert drops, model

    def test_verdict_reports_the_injection(self):
        net = CongestNetwork(_mesh(11))
        model = MassFailure(fraction=0.3, at=6, outage=5, kind="node", seed=2)
        schedule = resolve_fault_schedule(model, net.indexed)
        _, res = broadcast(net, min(net.graph.nodes()), "payload",
                           fault_schedule=model)
        verdict = res.fault_verdict
        assert verdict.faults_injected == len(schedule.events)
        assert verdict.reconverged
        assert verdict.down_nodes_at_end == ()
        assert verdict.down_edges_at_end == ()
        assert verdict.last_fault_round == schedule.horizon
        assert verdict.rounds_to_reconverge >= 1
        assert res.rounds >= schedule.horizon


# --------------------------------------------------------------------------- #
# Reconvergence to the centralized oracle
# --------------------------------------------------------------------------- #
class TestReconvergence:
    @pytest.mark.parametrize("model", [
        MassFailure(fraction=0.3, at=6, outage=6, kind="node", seed=5),
        MassFailure(fraction=0.3, at=6, outage=6, kind="edge", seed=5),
        Churn(cycles=4, period=5, outage=3, start=4, seed=5),
        LinkFlap(fraction=0.25, cycles=2, period=7, outage=3, seed=5),
    ], ids=["mass_node", "mass_edge", "churn", "flap"])
    def test_bellman_ford_reconverges_to_dijkstra(self, model):
        instance = _instance(_mesh(13), 14)
        src = min(instance.nodes())
        oracle = dijkstra(instance, src)
        bf = distributed_bellman_ford(instance, src, fault_schedule=model)
        assert bf.simulation.fault_verdict.reconverged
        for v in instance.nodes():
            assert bf.distances.get(v, INF) == oracle.get(v, INF)

    def test_bfs_tree_reconverges_after_node_crashes(self):
        graph = _mesh(17)
        net = CongestNetwork(graph)
        root = min(graph.nodes())
        layers = graph.bfs_layers(root)
        model = Churn(cycles=4, period=5, outage=3, start=3, seed=6)
        parent, depth, res = build_bfs_tree(net, root, fault_schedule=model)
        assert res.fault_verdict.reconverged
        assert depth == layers
        for v, p in parent.items():
            if v != root:
                assert depth[v] == depth[p] + 1

    def test_broadcast_and_leader_reconverge(self):
        graph = _mesh(19)
        net = CongestNetwork(graph)
        root = min(graph.nodes())
        model = MassFailure(fraction=0.4, at=5, outage=6, kind="edge", seed=3)
        values, res = broadcast(net, root, ("cfg", 7), fault_schedule=model)
        assert res.fault_verdict.reconverged
        assert values == {u: ("cfg", 7) for u in graph.nodes()}
        leader, res = elect_leader(net, fault_schedule=model)
        assert leader == min(graph.nodes())
        assert res.fault_verdict.reconverged

    def test_root_reboot_mid_broadcast(self):
        graph = _mesh(23)
        net = CongestNetwork(graph)
        root = min(graph.nodes())
        reboot = FaultSchedule([
            FaultEvent(3, "node_down", root),
            FaultEvent(7, "node_up", root),
        ])
        values, res = broadcast(net, root, "v", fault_schedule=reboot)
        assert values == {u: "v" for u in graph.nodes()}
        assert res.fault_verdict.reconverged

    def test_permanent_edge_fault_reported_and_converges_to_post_fault_graph(self):
        # A raw schedule may leave faults standing; the verdict must say so.
        # The edge dies at t=1, before any payload crosses it (pulse-0 sends
        # arrive at t=1, after the fault applies), so the monotone
        # Bellman-Ford converges to the pruned graph's exact distances —
        # with a later crash the already-propagated shorter route would
        # survive, which is exactly why the verdict reports the fault.
        graph = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            graph.add_edge(u, v)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 5), orientation="both", seed=2
        )
        dead = FaultSchedule([FaultEvent(1, "edge_down", (0, 1))])
        bf = distributed_bellman_ford(instance, 0, fault_schedule=dead)
        verdict = bf.simulation.fault_verdict
        assert not verdict.reconverged
        assert verdict.down_edges_at_end == ((0, 1),)
        pruned = instance.copy()
        for e in list(pruned.edges()):
            if {e.tail, e.head} == {0, 1}:
                pruned.remove_edge(e.eid)
        oracle = dijkstra(pruned, 0)
        for v in instance.nodes():
            assert bf.distances.get(v, INF) == oracle.get(v, INF)


# --------------------------------------------------------------------------- #
# Labels after churn: rebuilt from the changed instance
# --------------------------------------------------------------------------- #
def _set_arc(instance, tail, head, weight):
    """Replace every tail -> head arc by one of ``weight`` (no arc for inf)."""
    for e in [x for x in instance.out_edges(tail) if x.head == head]:
        instance.remove_edge(e.eid)
    if weight != INF:
        instance.add_edge(tail, head, weight)


class TestRebuildAfterChurn:
    def _assert_rebuild_exact(self, instance):
        labeling = build_distance_labeling(instance).labeling
        for s in instance.nodes():
            oracle = dijkstra(instance, s)
            for t in instance.nodes():
                assert labeling.distance(s, t) == oracle.get(t, INF), (s, t)

    @staticmethod
    def _forward_arcs(instance):
        # One arc per antiparallel pair, so a removal never takes both
        # directions and the communication graph stays connected.
        return sorted(
            (e.tail, e.head, e.weight) for e in instance.edges() if e.tail < e.head
        )

    @pytest.mark.parametrize("kind", ["decrease", "increase", "removal", "reinsert"])
    def test_rebuild_after_update_matches_dijkstra(self, kind, master_seed):
        instance = _instance(_mesh(29), 30)
        rng = random.Random(master_seed)
        for tail, head, weight in rng.sample(self._forward_arcs(instance), 4):
            if kind == "decrease":
                _set_arc(instance, tail, head, weight / 4)
            elif kind == "increase":
                _set_arc(instance, tail, head, weight + 20.0)
            elif kind == "removal":
                _set_arc(instance, tail, head, INF)
            else:
                _set_arc(instance, tail, head, INF)
                _set_arc(instance, tail, head, float(rng.randint(1, 9)))
        self._assert_rebuild_exact(instance)

    def test_rebuild_after_each_step_of_a_churn_sequence(self, master_seed):
        instance = _instance(_mesh(31), 32)
        rng = random.Random(master_seed + 1)
        arcs = [(tail, head) for tail, head, _ in self._forward_arcs(instance)]
        removed = set()
        for _ in range(8):
            tail, head = rng.choice(arcs)
            if (tail, head) in removed:
                weight = float(rng.randint(1, 9))
                removed.discard((tail, head))
            else:
                weight = rng.choice([0.5, 2.0, 7.0, 20.0, INF])
                if weight == INF:
                    removed.add((tail, head))
            _set_arc(instance, tail, head, weight)
            self._assert_rebuild_exact(instance)


# --------------------------------------------------------------------------- #
# Seeded multi-family sweep (CI: -m faults)
# --------------------------------------------------------------------------- #
@pytest.mark.faults
class TestSeededFaultSweep:
    """Every fault family × several seeded schedules × delay models: exact
    reconvergence to the Dijkstra oracle and bit-for-bit reproducibility,
    all schedules derived from ``--seed``."""

    @pytest.mark.parametrize("kind", ["mass_node", "mass_edge", "churn", "flap"])
    def test_bellman_ford_sweep(self, kind, schedule_fuzzer, master_seed):
        instance = _instance(_mesh(43), 44)
        src = min(instance.nodes())
        oracle = dijkstra(instance, src)
        case = f"bf_{kind}"
        for index, model in enumerate(
            schedule_fuzzer.fault_models(kind, case, 4)
        ):
            delay = schedule_fuzzer.model(
                ("unit", "uniform", "adversarial")[index % 3], case, index
            )
            bf = distributed_bellman_ford(
                instance, src, fault_schedule=model, delay_model=delay
            )
            assert bf.simulation.fault_verdict.reconverged, (kind, index)
            for v in instance.nodes():
                assert bf.distances.get(v, INF) == oracle.get(v, INF), (
                    kind, index, v,
                )
            # Rerun on the reference heap queue: reproducibility and
            # scheduler-equivalence under faults in one check.
            rerun = distributed_bellman_ford(
                instance, src, fault_schedule=model, delay_model=delay,
                scheduler="heap",
            )
            assert rerun.distances == bf.distances
            _assert_identical(bf.simulation, rerun.simulation)
            assert (rerun.simulation.fault_verdict
                    == bf.simulation.fault_verdict)

    @pytest.mark.parametrize("kind", ["mass_node", "mass_edge", "churn", "flap"])
    def test_primitive_sweep(self, kind, schedule_fuzzer):
        graph = _mesh(47)
        net = CongestNetwork(graph)
        root = min(graph.nodes())
        layers = graph.bfs_layers(root)
        for index, model in enumerate(
            schedule_fuzzer.fault_models(kind, f"prim_{kind}", 3)
        ):
            values, res = broadcast(net, root, ("blob", index),
                                    fault_schedule=model)
            assert res.fault_verdict.reconverged, (kind, index)
            assert values == {u: ("blob", index) for u in graph.nodes()}
            _, depth, res = build_bfs_tree(net, root, fault_schedule=model)
            assert res.fault_verdict.reconverged, (kind, index)
            assert depth == layers, (kind, index)
