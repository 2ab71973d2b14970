#!/usr/bin/env python3
"""Demo of the fault-injection layer: SSSP that survives churn.

A sensor mesh keeps shortest-path routes to a gateway while nodes reboot
and links flap.  The demo runs distributed Bellman-Ford on the async tier
under three seeded fault scenarios — steady churn, a mass failure taking
out 30% of the links at once, and a flapping link — and checks that the
protocol reconverges to the exact post-fault distances every time.

Run:  python examples/churn_resilient_sssp.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.faults import Churn, FaultEvent, FaultSchedule, LinkFlap, MassFailure
from repro.graphs import generators
from repro.graphs.properties import dijkstra

INF = math.inf


def main() -> None:
    graph = generators.partial_k_tree(60, 3, seed=7)
    instance = generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="both", seed=8
    )
    gateway = min(graph.nodes())
    print(f"mesh: {graph.num_nodes()} nodes, {graph.num_edges()} links, "
          f"gateway {gateway}\n")

    oracle = dijkstra(instance, gateway)
    scenarios = [
        ("steady churn (one node down at a time)",
         Churn(cycles=5, period=5, outage=3, start=4, seed=1)),
        ("mass failure (30% of links, rounds 8-15)",
         MassFailure(fraction=0.3, at=8, outage=8, kind="edge", seed=2)),
        ("flapping link (20% of links, 2 cycles)",
         LinkFlap(fraction=0.2, cycles=2, period=8, outage=3, start=4, seed=3)),
    ]
    for title, model in scenarios:
        bf = distributed_bellman_ford(instance, gateway, fault_schedule=model)
        verdict = bf.simulation.fault_verdict
        wrong = sum(
            1 for v in instance.nodes()
            if abs(bf.distances.get(v, INF) - oracle.get(v, INF)) > 1e-9
        )
        print(f"{title}:")
        print(f"  {verdict.faults_injected} faults injected, "
              f"{verdict.payloads_dropped} payloads dropped, "
              f"reconverged in {verdict.rounds_to_reconverge} rounds "
              f"after the last fault ({bf.rounds} rounds total)")
        print(f"  distances vs Dijkstra oracle: {wrong} mismatches\n")
        if wrong:
            raise SystemExit(f"{title}: {wrong} distances disagree with Dijkstra")

    # Hand-written schedules compose with the generators' output: here the
    # gateway itself reboots (it must come back — a schedule that leaves the
    # source down forever is rejected up front).
    reboot = FaultSchedule([
        FaultEvent(6, "node_down", gateway),
        FaultEvent(10, "node_up", gateway),
    ])
    bf = distributed_bellman_ford(instance, gateway, fault_schedule=reboot)
    verdict = bf.simulation.fault_verdict
    wrong = sum(
        1 for v in instance.nodes()
        if abs(bf.distances.get(v, INF) - oracle.get(v, INF)) > 1e-9
    )
    print("gateway reboot (down rounds 6-9):")
    print(f"  {verdict.faults_injected} faults, reconverged in "
          f"{verdict.rounds_to_reconverge} rounds, {wrong} mismatches")
    if wrong:
        raise SystemExit(f"gateway reboot: {wrong} distances disagree with Dijkstra")


if __name__ == "__main__":
    main()
