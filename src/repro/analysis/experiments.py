"""Experiment runners E1–E9 (indexed in docs/experiments.md).

Each function executes one experiment over a list of workloads and returns a
:class:`~repro.analysis.records.ResultTable`.  Benchmarks wrap these runners
with ``pytest-benchmark``; examples print the tables directly.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence

from repro.analysis.records import ResultTable
from repro.analysis.workloads import WorkloadSpec
from repro.baselines.congest_bounds import (
    general_graph_exact_sssp_rounds,
    general_graph_sssp_rounds,
    girth_baseline_rounds,
    matching_baseline_rounds,
)
from repro.congest.bellman_ford import distributed_bellman_ford
from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel
from repro.decomposition.separator import find_balanced_separator
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.decomposition.validation import (
    is_balanced_separator,
    tree_decomposition_violations,
)
from repro.girth.baselines import exact_girth_directed, exact_girth_undirected
from repro.girth.girth import directed_girth, undirected_girth
from repro.graphs import generators
from repro.graphs.properties import diameter, dijkstra
from repro.graphs.treewidth import treewidth_upper_bound
from repro.labeling.construction import build_distance_labeling
from repro.labeling.sssp import single_source_shortest_paths
from repro.matching.bipartite import maximum_bipartite_matching
from repro.matching.hopcroft_karp import hopcroft_karp_matching
from repro.walks.cdl import build_constrained_labeling
from repro.walks.constraints import ColoredWalkConstraint, CountWalkConstraint


def _config(seed: int = 0) -> FrameworkConfig:
    return FrameworkConfig(seed=seed)


# --------------------------------------------------------------------------- #
# E1: balanced separators
# --------------------------------------------------------------------------- #
def run_separator_experiment(workloads: Sequence[WorkloadSpec], seed: int = 0) -> ResultTable:
    """E1 — Lemma 1: separator size ≤ 400(τ+1)², balance, and round scaling."""
    table = ResultTable(
        "E1: balanced separators (Lemma 1)",
        ["workload", "n", "D", "tau_ub", "sep_size", "size_bound", "balance", "method", "rounds"],
    )
    for spec in workloads:
        graph = spec.build_graph()
        desc = spec.describe()
        config = _config(seed)
        cm = CostModel(n=graph.num_nodes(), diameter=int(desc["diameter"]))
        result = find_balanced_separator(
            graph, params=config.separator, seed=seed, cost_model=cm
        )
        tau = int(desc["treewidth_ub"])
        valid = is_balanced_separator(
            graph, result.separator, config.separator.balance_fraction
        )
        table.add(
            workload=spec.name,
            n=desc["n"],
            D=desc["diameter"],
            tau_ub=tau,
            sep_size=result.size(),
            size_bound=400 * (tau + 1) ** 2,
            balance=round(result.balance, 3),
            method=result.method,
            rounds=result.rounds,
            valid=valid,
        )
    return table


# --------------------------------------------------------------------------- #
# E2: tree decomposition
# --------------------------------------------------------------------------- #
def run_decomposition_experiment(workloads: Sequence[WorkloadSpec], seed: int = 0) -> ResultTable:
    """E2 — Theorem 1: width O(τ² log n), depth O(log n), rounds Õ(τ²D + τ³)."""
    table = ResultTable(
        "E2: distributed tree decomposition (Theorem 1)",
        ["workload", "n", "D", "tau_ub", "width", "width_bound", "depth", "depth_bound", "rounds", "valid"],
    )
    for spec in workloads:
        graph = spec.build_graph()
        desc = spec.describe()
        result = build_tree_decomposition(graph, config=_config(seed))
        td = result.decomposition
        tau = max(1, int(desc["treewidth_ub"]))
        log_n = max(1, math.ceil(math.log2(max(2, graph.num_nodes()))))
        table.add(
            workload=spec.name,
            n=desc["n"],
            D=desc["diameter"],
            tau_ub=tau,
            width=td.width(),
            width_bound=400 * (tau + 1) ** 2 * log_n,
            depth=td.depth(),
            depth_bound=4 * log_n,
            rounds=result.rounds,
            valid=not tree_decomposition_violations(graph, td),
        )
    return table


# --------------------------------------------------------------------------- #
# E3: distance labeling
# --------------------------------------------------------------------------- #
def run_labeling_experiment(
    workloads: Sequence[WorkloadSpec], seed: int = 0, check_pairs: int = 200
) -> ResultTable:
    """E3 — Theorem 2: exact directed distance labels, size Õ(τ²), rounds Õ(τ²D + τ⁵)."""
    table = ResultTable(
        "E3: exact directed distance labeling (Theorem 2)",
        ["workload", "n", "D", "tau_ub", "max_label", "label_bits", "rounds", "errors"],
    )
    rng = random.Random(seed)
    for spec in workloads:
        instance = spec.build_instance()
        desc = spec.describe()
        result = build_distance_labeling(instance, config=_config(seed))
        labeling = result.labeling
        nodes = instance.nodes()
        errors = 0
        for _ in range(check_pairs):
            u = rng.choice(nodes)
            v = rng.choice(nodes)
            expected = dijkstra(instance, u).get(v, math.inf)
            if abs(labeling.distance(u, v) - expected) > 1e-9:
                errors += 1
        table.add(
            workload=spec.name,
            n=desc["n"],
            D=desc["diameter"],
            tau_ub=desc["treewidth_ub"],
            max_label=labeling.max_entries(),
            label_bits=labeling.max_size_bits(instance.num_nodes()),
            rounds=result.rounds,
            errors=errors,
        )
    return table


# --------------------------------------------------------------------------- #
# E4: SSSP scaling vs. the general-graph baselines
# --------------------------------------------------------------------------- #
def run_sssp_scaling_experiment(
    ns: Sequence[int], k: int = 3, seed: int = 0, engine: Optional[str] = None
) -> ResultTable:
    """E4 — fully-polynomial SSSP vs distributed Bellman-Ford and √n-type baselines.

    ``engine`` selects the simulation engine for the Bellman-Ford baseline
    (``"fast"``/``"legacy"``; default: the network's fast path).
    """
    table = ResultTable(
        "E4: SSSP round scaling at fixed treewidth (vs general-graph baselines)",
        [
            "n",
            "D",
            "tau_ub",
            "labeling_rounds",
            "sssp_rounds",
            "bellman_ford_rounds",
            "general_approx_sssp",
            "general_exact_sssp",
        ],
    )
    for n in ns:
        graph = generators.partial_k_tree(n, k, seed=seed + n)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 10), orientation="asymmetric", seed=seed + n + 1
        )
        d = diameter(graph, exact=n <= 400)
        cm = CostModel(n=n, diameter=d)
        labeling = build_distance_labeling(instance, config=_config(seed), cost_model=cm)
        source = min(graph.nodes(), key=str)
        sssp = single_source_shortest_paths(
            labeling.labeling, source, cost_model=cm, labeling_result=labeling
        )
        bf = distributed_bellman_ford(instance, source, engine=engine)
        table.add(
            n=n,
            D=d,
            tau_ub=treewidth_upper_bound(graph),
            labeling_rounds=labeling.rounds,
            sssp_rounds=sssp.total_rounds,
            bellman_ford_rounds=bf.rounds,
            general_approx_sssp=round(general_graph_sssp_rounds(n, d)),
            general_exact_sssp=round(general_graph_exact_sssp_rounds(n, d)),
        )
    return table


# --------------------------------------------------------------------------- #
# E5: stateful walks / constrained distance labeling
# --------------------------------------------------------------------------- #
def run_stateful_walk_experiment(
    n: int = 40, k: int = 3, palettes: Sequence[int] = (2, 3, 4), seed: int = 0
) -> ResultTable:
    """E5 — Theorem 3: CDL overhead as a function of the state-space size |Q|."""
    table = ResultTable(
        "E5: constrained distance labeling overhead (Theorem 3)",
        ["constraint", "states", "product_nodes", "rounds", "overhead_factor", "base_rounds"],
    )
    graph = generators.partial_k_tree(n, k, seed=seed)
    rng = random.Random(seed)
    base_instance = generators.to_directed_instance(
        graph, weight_range=(1, 5), orientation="both", seed=seed + 1
    )
    base = build_distance_labeling(base_instance, config=_config(seed))
    for c in palettes:
        instance = base_instance.copy()
        palette = list(range(c))
        for e in instance.edges():
            instance.set_label(e.eid, rng.choice(palette))
        constraint = ColoredWalkConstraint(palette)
        result = build_constrained_labeling(instance, constraint, config=_config(seed))
        table.add(
            constraint=f"colored({c})",
            states=constraint.state_count(),
            product_nodes=result.product.graph.num_nodes(),
            rounds=result.rounds,
            overhead_factor=result.simulation_overhead,
            base_rounds=base.rounds,
        )
    # count-c constraints
    for budget in (1, 2):
        instance = base_instance.copy()
        for e in instance.edges():
            instance.set_label(e.eid, 1 if rng.random() < 0.2 else 0)
        constraint = CountWalkConstraint(budget)
        result = build_constrained_labeling(instance, constraint, config=_config(seed))
        table.add(
            constraint=f"count({budget})",
            states=constraint.state_count(),
            product_nodes=result.product.graph.num_nodes(),
            rounds=result.rounds,
            overhead_factor=result.simulation_overhead,
            base_rounds=base.rounds,
        )
    return table


# --------------------------------------------------------------------------- #
# E6: bipartite maximum matching
# --------------------------------------------------------------------------- #
def run_matching_experiment(workloads: Sequence[WorkloadSpec], seed: int = 0) -> ResultTable:
    """E6 — Theorem 4: exact bipartite matching, rounds vs the Õ(s_max) baseline."""
    table = ResultTable(
        "E6: exact bipartite maximum matching (Theorem 4)",
        ["workload", "n", "tau_ub", "matching_size", "optimal", "exact", "rounds", "baseline_rounds", "augmentations"],
    )
    for spec in workloads:
        graph = spec.build_graph()
        desc = spec.describe()
        result = maximum_bipartite_matching(graph, config=_config(seed))
        optimum = len(hopcroft_karp_matching(graph))
        table.add(
            workload=spec.name,
            n=desc["n"],
            tau_ub=desc["treewidth_ub"],
            matching_size=result.size,
            optimal=optimum,
            exact=result.size == optimum,
            rounds=result.rounds,
            baseline_rounds=round(matching_baseline_rounds(optimum)),
            augmentations=result.augmentations,
        )
    return table


# --------------------------------------------------------------------------- #
# E7: weighted girth
# --------------------------------------------------------------------------- #
def run_girth_experiment(
    directed_workloads: Sequence[WorkloadSpec],
    undirected_workloads: Sequence[WorkloadSpec],
    seed: int = 0,
    trials_per_scale: int = 6,
) -> ResultTable:
    """E7 — Theorem 5: exact weighted girth for directed and undirected graphs."""
    table = ResultTable(
        "E7: weighted girth (Theorem 5)",
        ["workload", "mode", "n", "girth", "exact_girth", "match", "rounds", "baseline_rounds", "trials"],
    )
    for spec in directed_workloads:
        instance = spec.build_instance(orientation="random")
        desc = spec.describe()
        result = directed_girth(instance, config=_config(seed))
        exact = exact_girth_directed(instance)
        table.add(
            workload=spec.name,
            mode="directed",
            n=desc["n"],
            girth=result.girth,
            exact_girth=exact,
            match=abs(result.girth - exact) < 1e-9 or (math.isinf(result.girth) and math.isinf(exact)),
            rounds=result.rounds,
            baseline_rounds=round(girth_baseline_rounds(int(desc["n"]), exact)),
            trials=result.trials,
        )
    for spec in undirected_workloads:
        graph = generators.with_random_weights(spec.build_graph(), 1, 8, seed=seed + 5)
        desc = spec.describe()
        result = undirected_girth(
            graph, config=_config(seed), trials_per_scale=trials_per_scale
        )
        exact = exact_girth_undirected(graph)
        table.add(
            workload=spec.name,
            mode="undirected",
            n=desc["n"],
            girth=result.girth,
            exact_girth=exact,
            match=abs(result.girth - exact) < 1e-9 or (math.isinf(result.girth) and math.isinf(exact)),
            rounds=result.rounds,
            baseline_rounds=round(girth_baseline_rounds(int(desc["n"]), exact)),
            trials=result.trials,
        )
    return table


# --------------------------------------------------------------------------- #
# E8: part-wise aggregation / primitive costs
# --------------------------------------------------------------------------- #
def run_partwise_experiment(ns: Sequence[int], k: int = 3, seed: int = 0) -> ResultTable:
    """E8 — Lemma 9 / Theorem 6: primitive round costs vs measured BFS/broadcast rounds."""
    from repro.congest.network import CongestNetwork
    from repro.congest.primitives import broadcast, build_bfs_tree

    table = ResultTable(
        "E8: primitive costs (Lemma 9, Corollaries 2-3)",
        ["n", "D", "tau_ub", "bfs_rounds_measured", "broadcast_rounds_measured", "pa_rounds_model", "bct16_rounds_model", "mvc16_rounds_model"],
    )
    for n in ns:
        graph = generators.partial_k_tree(n, k, seed=seed + n)
        d = diameter(graph, exact=n <= 400)
        tau = treewidth_upper_bound(graph)
        network = CongestNetwork(graph)
        root = min(graph.nodes(), key=str)
        _, _, bfs_result = build_bfs_tree(network, root)
        _, bc_result = broadcast(network, root, 42)
        cm = CostModel(n=n, diameter=d)
        table.add(
            n=n,
            D=d,
            tau_ub=tau,
            bfs_rounds_measured=bfs_result.rounds,
            broadcast_rounds_measured=bc_result.rounds,
            pa_rounds_model=cm.partwise_aggregation(tau),
            bct16_rounds_model=cm.broadcast_multi(tau, 16),
            mvc16_rounds_model=cm.min_vertex_cut_multi(tau, 16, tau + 1),
        )
    return table


# --------------------------------------------------------------------------- #
# E9: crossover — fully polynomial vs general-graph complexity
# --------------------------------------------------------------------------- #
def run_crossover_experiment(
    ns: Sequence[int], k: int = 3, seed: int = 0
) -> ResultTable:
    """E9 — when does Õ(τ²D + τ⁵) beat the Ω̃(√n + D)-type general bounds?"""
    table = ResultTable(
        "E9: crossover of fully-polynomial vs general-graph rounds",
        ["n", "D", "tau_ub", "framework_rounds", "general_exact_sssp", "advantage"],
    )
    for n in ns:
        graph = generators.partial_k_tree(n, k, seed=seed + n)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 10), orientation="asymmetric", seed=seed + n + 1
        )
        d = diameter(graph, exact=n <= 400)
        cm = CostModel(n=n, diameter=d)
        labeling = build_distance_labeling(instance, config=_config(seed), cost_model=cm)
        general = general_graph_exact_sssp_rounds(n, d)
        table.add(
            n=n,
            D=d,
            tau_ub=treewidth_upper_bound(graph),
            framework_rounds=labeling.rounds,
            general_exact_sssp=round(general),
            advantage=round(general / max(1, labeling.rounds), 3),
        )
    return table
