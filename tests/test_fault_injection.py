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
* **Incremental labels** — ``DistanceLabeling.apply_edge_update`` answers
  every pairwise query identically to a from-scratch rebuild after each
  update of a churn sequence (decreases, increases, removals, re-inserts).

The heavy multi-family sweeps are marked ``faults`` (deselected by default;
CI runs them in a dedicated step via ``-m faults``), with every schedule
seeded from the session ``--seed`` through the :class:`ScheduleFuzzer`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

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
from repro.congest.scheduler import UniformDelay
from repro.errors import FaultInjectionError, LabelingError, SimulationError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.properties import dijkstra
from repro.labeling.construction import build_distance_labeling

INF = math.inf


def _mesh(seed: int, n: int = 24) -> Graph:
    return generators.partial_k_tree(n, 3, seed=seed)


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
        model = Churn(cycles=4, period=5, outage=3, start=3, seed=master_seed)
        delay = UniformDelay(1, 3, seed=master_seed)

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
        fault_events_a = [e for e in trace_a.events
                          if e.kind in ("node_down", "node_up",
                                        "edge_down", "edge_up", "drop")]
        fault_events_b = [e for e in trace_b.events
                          if e.kind in ("node_down", "node_up",
                                        "edge_down", "edge_up", "drop")]
        assert fault_events_a == fault_events_b
        assert fault_events_a  # churn actually fired
        # The reference heap queue replays the exact same faulty execution —
        # _EV_FAULT ordering against deliveries/ticks is scheduler-invariant.
        c, trace_c = run(scheduler="heap")
        assert c.distances == a.distances
        _assert_identical(a.simulation, c.simulation)
        assert c.simulation.fault_verdict == a.simulation.fault_verdict
        assert trace_c.events == trace_a.events

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
# Incremental label maintenance
# --------------------------------------------------------------------------- #
class TestIncrementalLabeling:
    def _all_pairs_match(self, labeling, instance):
        rebuilt = build_distance_labeling(instance).labeling
        for u in instance.nodes():
            for v in instance.nodes():
                assert labeling.distance(u, v) == rebuilt.distance(u, v)

    def test_apply_edge_update_matches_rebuild_under_churn(self, master_seed):
        graph = _mesh(29, n=18)
        instance = _instance(graph, 30)
        labeling = build_distance_labeling(instance).labeling
        labeling.attach_instance(instance)
        shadow = instance.copy()
        rng = random.Random(master_seed)
        arcs = [(e.tail, e.head) for e in instance.edges() if e.tail != e.head]
        removed = set()
        for step in range(12):
            tail, head = arcs[rng.randrange(len(arcs))]
            if (tail, head) in removed:
                weight = float(rng.randint(1, 9))
            else:
                weight = rng.choice([0.5, 2.0, 7.0, 20.0, INF])
            stats = labeling.apply_edge_update(tail, head, weight)
            assert stats.old_weight != weight or stats.entries_rewritten == 0
            for e in [x for x in shadow.out_edges(tail) if x.head == head]:
                shadow.remove_edge(e.eid)
            if weight == INF:
                removed.add((tail, head))
            else:
                removed.discard((tail, head))
                shadow.add_edge(tail, head, weight)
            # Full-rebuild equivalence needs the communication graph intact
            # (the decomposition is rebuilt from it); compare against the
            # exact Dijkstra oracle instead, which is the same guarantee.
            for s in shadow.nodes():
                d = dijkstra(shadow, s)
                for t in shadow.nodes():
                    assert labeling.distance(s, t) == d.get(t, INF)

    def test_rebuild_equivalence_on_weight_only_churn(self):
        instance = _instance(_mesh(31, n=16), 32)
        labeling = build_distance_labeling(instance).labeling
        labeling.attach_instance(instance)
        shadow = instance.copy()
        arcs = [(e.tail, e.head) for e in instance.edges() if e.tail != e.head]
        for k, (tail, head) in enumerate(arcs[::3]):
            weight = float(1 + (k * 5) % 11)
            labeling.apply_edge_update(tail, head, weight)
            for e in [x for x in shadow.out_edges(tail) if x.head == head]:
                shadow.remove_edge(e.eid)
            shadow.add_edge(tail, head, weight)
        self._all_pairs_match(labeling, shadow)

    def test_misuse_raises_labeling_error(self):
        instance = _instance(_mesh(37, n=12), 38)
        labeling = build_distance_labeling(instance).labeling
        with pytest.raises(LabelingError, match="attach_instance"):
            labeling.apply_edge_update(0, 1, 2.0)
        labeling.attach_instance(instance)
        with pytest.raises(LabelingError, match="self-loop"):
            labeling.apply_edge_update(0, 0, 2.0)
        with pytest.raises(LabelingError, match="not.*vert"):
            labeling.apply_edge_update(0, 999, 2.0)
        with pytest.raises(LabelingError, match="non-negative"):
            arc = next(e for e in instance.edges() if e.tail != e.head)
            labeling.apply_edge_update(arc.tail, arc.head, -1.0)
        non_edge = None
        nodes = instance.nodes()
        for a in nodes:
            heads = {e.head for e in instance.out_edges(a)}
            for b in nodes:
                if b != a and b not in heads:
                    non_edge = (a, b)
                    break
            if non_edge:
                break
        with pytest.raises(LabelingError, match="grow the topology"):
            labeling.apply_edge_update(*non_edge, 2.0)

    @pytest.mark.parametrize(
        "bad_tail, weight",
        [(False, "3"), (False, None), (False, [1]), (True, 2.0)],
        ids=["str_weight", "none_weight", "list_weight", "unhashable_endpoint"],
    )
    def test_malformed_update_raises_labeling_error(self, bad_tail, weight):
        instance = _instance(_mesh(43, n=12), 44)
        labeling = build_distance_labeling(instance).labeling
        labeling.attach_instance(instance)
        arc = next(e for e in instance.edges() if e.tail != e.head)

        def entries():
            return {
                u: (dict(labeling.label(u).to_dist), dict(labeling.label(u).from_dist))
                for u in labeling.vertices()
            }

        before = entries()
        with pytest.raises(LabelingError):
            labeling.apply_edge_update([1] if bad_tail else arc.tail, arc.head, weight)
        assert entries() == before
        # Weights that add_edge accepts are still accepted.
        labeling.apply_edge_update(arc.tail, arc.head, 3)
        labeling.apply_edge_update(arc.tail, arc.head, Fraction(5, 2))
        assert labeling.distance(arc.tail, arc.head) <= 2.5

    def test_update_stats_accounting(self):
        instance = _instance(_mesh(41, n=14), 42)
        labeling = build_distance_labeling(instance).labeling
        labeling.attach_instance(instance)
        arc = next(e for e in instance.edges() if e.tail != e.head)
        stats = labeling.apply_edge_update(arc.tail, arc.head, 0.25)
        assert stats.old_weight == arc.weight
        assert stats.new_weight == 0.25
        assert stats.candidate_hubs > 0
        assert stats.from_hubs_recomputed + stats.to_hubs_recomputed > 0
        assert stats.entries_rewritten > 0
        # Re-applying the same weight is a no-op.
        again = labeling.apply_edge_update(arc.tail, arc.head, 0.25)
        assert again.entries_rewritten == 0
        assert again.candidate_hubs == 0


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
