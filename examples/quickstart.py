#!/usr/bin/env python3
"""Quickstart: the full pipeline on one low-treewidth instance.

Builds a random partial 3-tree, wraps it as a weighted directed instance,
and runs every stage of the paper's framework through the high-level
:class:`repro.LowTreewidthSolver` facade:

* distributed tree decomposition (Theorem 1),
* exact distance labeling + single-source shortest paths (Theorem 2),
* exact bipartite maximum matching on a bipartite companion graph (Theorem 4),
* weighted girth (Theorem 5),

printing the CONGEST round accounting of each stage.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import LowTreewidthSolver
from repro.graphs import generators
from repro.graphs.properties import diameter, dijkstra
from repro.graphs.treewidth import treewidth_upper_bound
from repro.matching.hopcroft_karp import hopcroft_karp_matching


def main() -> None:
    # ----------------------------------------------------------------- #
    # 1. Build a workload: a weighted directed partial 3-tree.
    # ----------------------------------------------------------------- #
    graph = generators.partial_k_tree(80, 3, seed=7)
    instance = generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=8
    )
    print("instance:")
    print(f"  nodes              : {graph.num_nodes()}")
    print(f"  edges (undirected) : {graph.num_edges()}")
    print(f"  diameter D         : {diameter(graph)}")
    print(f"  treewidth bound τ  : {treewidth_upper_bound(graph)}")

    solver = LowTreewidthSolver(instance, seed=7)

    # ----------------------------------------------------------------- #
    # 2. Tree decomposition (Theorem 1).
    # ----------------------------------------------------------------- #
    decomposition = solver.tree_decomposition()
    td = decomposition.decomposition
    print("\ntree decomposition (Theorem 1):")
    print(f"  bags   : {td.num_bags()}")
    print(f"  width  : {td.width()}")
    print(f"  depth  : {td.depth()}")
    print(f"  rounds : {decomposition.rounds}")

    # ----------------------------------------------------------------- #
    # 3. Distance labeling and SSSP (Theorem 2).
    # ----------------------------------------------------------------- #
    labeling = solver.distance_labeling()
    source = instance.nodes()[0]
    sssp = solver.single_source_shortest_paths(source)
    reference = dijkstra(instance, source)
    mismatches = sum(
        1
        for v in instance.nodes()
        if abs(sssp.distances[v] - reference.get(v, float("inf"))) > 1e-9
    )
    print("\ndistance labeling + SSSP (Theorem 2):")
    print(f"  max label entries : {labeling.labeling.max_entries()}")
    print(f"  labeling rounds   : {labeling.rounds}")
    print(f"  SSSP total rounds : {sssp.total_rounds}")
    print(f"  mismatches vs Dijkstra: {mismatches}")
    if mismatches:
        raise SystemExit(f"SSSP disagrees with Dijkstra at {mismatches} vertices")

    # ----------------------------------------------------------------- #
    # 4. Bipartite maximum matching (Theorem 4) on a bipartite companion.
    # ----------------------------------------------------------------- #
    bipartite = generators.subdivided_graph(graph)
    matching_solver = LowTreewidthSolver.from_undirected(bipartite, seed=7)
    matching = matching_solver.maximum_matching()
    optimum = len(hopcroft_karp_matching(bipartite))
    print("\nbipartite maximum matching (Theorem 4, on the subdivided graph):")
    print(f"  matching size : {matching.size}  (Hopcroft-Karp optimum: {optimum})")
    print(f"  augmentations : {matching.augmentations}")
    print(f"  rounds        : {matching.rounds}")
    if matching.size != optimum:
        raise SystemExit(
            f"matching size {matching.size} is not the Hopcroft-Karp optimum {optimum}"
        )

    # ----------------------------------------------------------------- #
    # 5. Weighted girth (Theorem 5) — on a randomly oriented copy, so that
    #    antiparallel edge pairs don't trivially form directed 2-cycles.
    # ----------------------------------------------------------------- #
    oriented = generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="random", seed=9
    )
    girth_solver = LowTreewidthSolver(oriented, seed=7)
    girth = girth_solver.girth()
    print("\nweighted girth (Theorem 5, randomly oriented copy):")
    print(f"  girth  : {girth.girth}")
    print(f"  method : {girth.method}")
    print(f"  rounds : {girth.rounds}")

    print("\nround report:", solver.round_report())


if __name__ == "__main__":
    main()
