#!/usr/bin/env python3
"""Demo of the message-level CONGEST simulator and its primitives.

Shows the substrate the higher layers are calibrated against: BFS-tree
construction, flooding broadcast, convergecast aggregation, leader election
and distributed Bellman-Ford, each with measured round counts and message
volumes under the O(log n)-bit-per-edge-per-round budget.

Run:  python examples/congest_primitives_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.network import CongestNetwork
from repro.congest import primitives
from repro.graphs import generators
from repro.graphs.properties import diameter, dijkstra


def main() -> None:
    graph = generators.partial_k_tree(100, 3, seed=21)
    d = diameter(graph)
    print(f"network: {graph.num_nodes()} nodes, {graph.num_edges()} links, diameter {d}\n")

    network = CongestNetwork(graph)
    root = min(graph.nodes())

    parent, depth, bfs = primitives.build_bfs_tree(network, root)
    print(f"BFS tree from node {root}: depth {max(depth.values())}, "
          f"{bfs.rounds} rounds, {bfs.messages_sent} messages")

    values, bc = primitives.broadcast(network, root, ("topology-version", 42))
    print(f"broadcast: all {len(values)} nodes informed in {bc.rounds} rounds")

    total, cc = primitives.convergecast_sum(network, parent, {u: 1 for u in graph.nodes()})
    print(f"convergecast (count nodes): {total} in {cc.rounds} rounds")

    leader, le = primitives.elect_leader(network)
    print(f"leader election: node {leader} elected in {le.rounds} rounds")

    instance = generators.to_directed_instance(graph, weight_range=(1, 9), orientation="both", seed=22)
    bf = distributed_bellman_ford(instance, root)
    reference = dijkstra(instance, root)
    errors = sum(1 for v in instance.nodes() if abs(bf.distances[v] - reference[v]) > 1e-9)
    print(f"distributed Bellman-Ford SSSP: {bf.rounds} rounds, {bf.messages} messages, "
          f"{errors} mismatches vs Dijkstra")
    if errors:
        raise SystemExit(f"Bellman-Ford disagrees with Dijkstra at {errors} vertices")
    print("\n(The framework's labeling needs many fewer rounds per query once built — "
          "see examples/road_network_routing.py.)")


if __name__ == "__main__":
    main()
