#!/usr/bin/env python3
"""Scenario: assigning sensing tasks to devices in a linear deployment.

A sensor network deployed along a corridor (pipeline, tunnel, road) is
naturally a *banded bipartite* graph: device i can only serve tasks located
within a few positions of i.  Such graphs have small pathwidth — hence small
treewidth — so the paper's exact bipartite maximum matching (Theorem 4)
computes an optimal device↔task assignment in Õ(τ⁴D + τ⁷) CONGEST rounds,
sublinear in the network size, instead of the Õ(s_max) ≈ Õ(n) rounds of the
general-graph baseline.

The example builds such a deployment, runs the divide-and-conquer matching,
verifies optimality against Hopcroft–Karp and prints how the assignment and
the round cost evolve as the corridor gets longer.

Run:  python examples/sensor_task_assignment.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis.records import ResultTable
from repro.baselines.congest_bounds import matching_baseline_rounds
from repro.core.config import FrameworkConfig
from repro.graphs import generators
from repro.graphs.treewidth import treewidth_upper_bound
from repro.matching.bipartite import maximum_bipartite_matching
from repro.matching.hopcroft_karp import hopcroft_karp_matching


def main() -> None:
    table = ResultTable(
        "sensor/task assignment along a corridor",
        ["devices", "tasks", "treewidth", "assigned", "optimal", "framework_rounds", "baseline_rounds"],
    )
    for size in (20, 40, 80):
        graph = generators.random_banded_bipartite(size, size + 5, band=3, edge_prob=0.5, seed=size)
        result = maximum_bipartite_matching(graph, config=FrameworkConfig(seed=size))
        optimum = len(hopcroft_karp_matching(graph))
        if result.size != optimum:
            raise SystemExit(
                f"framework matching size {result.size} is not the Hopcroft-Karp optimum {optimum}"
            )
        table.add(
            devices=size,
            tasks=size + 5,
            treewidth=treewidth_upper_bound(graph),
            assigned=result.size,
            optimal=optimum,
            framework_rounds=result.rounds,
            baseline_rounds=round(matching_baseline_rounds(optimum)),
        )
    print(table.to_text())
    print(
        "\nNote: the Õ(s_max)-round baseline [AKO18] grows linearly with the number of"
        "\nassigned pairs, while the framework's rounds are governed by the treewidth,"
        "\nthe diameter and log n (Theorem 4)."
    )

    # Show one concrete assignment for the smallest deployment.
    graph = generators.random_banded_bipartite(8, 10, band=2, edge_prob=0.6, seed=1)
    result = maximum_bipartite_matching(graph, config=FrameworkConfig(seed=1))
    print(f"\nexample assignment for 8 devices / 10 tasks ({result.size} pairs):")
    for edge in sorted(result.matching, key=lambda e: sorted(map(str, e))):
        left = next(x for x in edge if x[0] == "L")
        right = next(x for x in edge if x[0] == "R")
        print(f"  device {left[1]:>2} -> task {right[1]:>2}")


if __name__ == "__main__":
    main()
