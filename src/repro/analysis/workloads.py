"""Standard workload specifications for the experiments.

A :class:`WorkloadSpec` names a graph family with fixed parameters and a
seed, and can materialise the undirected communication graph or a weighted
directed instance on demand.  The ``standard_workloads`` factory enumerates
the sweeps used by the benchmark harness (varying n at fixed treewidth,
varying treewidth at fixed n, bipartite families, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter
from repro.graphs.treewidth import treewidth_upper_bound


@dataclass
class WorkloadSpec:
    """A named workload: a graph family with concrete parameters.

    Attributes
    ----------
    name:
        Human-readable identifier (appears in result tables).
    family:
        Family key: ``"partial_k_tree"``, ``"k_tree"``, ``"grid"``,
        ``"cycle_chords"``, ``"series_parallel"``, ``"caterpillar"``,
        ``"banded_bipartite"``, ``"subdivided_k_tree"``.
    params:
        Family-specific parameters.
    seed:
        Seed for the generator's randomness.
    """

    name: str
    family: str
    params: Dict[str, int] = field(default_factory=dict)
    seed: int = 0

    # ------------------------------------------------------------------ #
    def build_graph(self) -> Graph:
        """Materialise the undirected communication graph."""
        p = self.params
        if self.family == "partial_k_tree":
            return generators.partial_k_tree(
                p["n"], p["k"], edge_keep_prob=p.get("keep", 70) / 100.0, seed=self.seed
            )
        if self.family == "k_tree":
            return generators.k_tree(p["n"], p["k"], seed=self.seed)
        if self.family == "grid":
            return generators.grid_graph(p["rows"], p["cols"])
        if self.family == "cycle_chords":
            return generators.cycle_with_chords(p["n"], p["chords"], seed=self.seed)
        if self.family == "series_parallel":
            return generators.series_parallel_graph(p["n"], seed=self.seed)
        if self.family == "caterpillar":
            return generators.caterpillar_graph(p["spine"], p.get("legs", 1))
        if self.family == "banded_bipartite":
            return generators.random_banded_bipartite(
                p["left"], p["right"], band=p.get("band", 3), seed=self.seed
            )
        if self.family == "subdivided_k_tree":
            base = generators.partial_k_tree(p["n"], p["k"], seed=self.seed)
            return generators.subdivided_graph(base)
        raise ValueError(f"unknown workload family {self.family!r}")

    def build_instance(self, orientation: str = "asymmetric") -> WeightedDiGraph:
        """Materialise a weighted directed instance of the workload, with
        integer weights drawn from 1..10."""
        return generators.to_directed_instance(
            self.build_graph(),
            weight_range=(1, 10),
            orientation=orientation,
            seed=self.seed + 1,
        )

    def describe(self) -> Dict[str, float]:
        """Measured structural parameters (n, m, D, treewidth upper bound)."""
        g = self.build_graph()
        return {
            "n": g.num_nodes(),
            "m": g.num_edges(),
            "diameter": diameter(g, exact=g.num_nodes() <= 400),
            "treewidth_ub": treewidth_upper_bound(g),
        }


def workload(name: str, family: str, seed: int = 0, **params: int) -> WorkloadSpec:
    """Convenience constructor for a :class:`WorkloadSpec`."""
    return WorkloadSpec(name=name, family=family, params=dict(params), seed=seed)


def standard_workloads(scale: str = "small") -> List[WorkloadSpec]:
    """The default workload suite used by the benchmark harness.

    ``scale``: ``"small"`` (unit-test friendly), ``"medium"`` (benchmark
    default) or ``"large"`` (longer sweeps for the scaling experiments).
    """
    if scale == "small":
        ns = [40, 80]
        ks = [2, 3]
        grid_cols = [8]
    elif scale == "medium":
        ns = [100, 200, 400]
        ks = [2, 3, 4]
        grid_cols = [10, 20]
    elif scale == "large":
        ns = [200, 400, 800, 1600]
        ks = [2, 3, 4, 6]
        grid_cols = [20, 40]
    else:
        raise ValueError(f"unknown scale {scale!r}")

    specs: List[WorkloadSpec] = []
    for n in ns:
        for k in ks:
            specs.append(workload(f"pkt(n={n},k={k})", "partial_k_tree", seed=n + k, n=n, k=k))
    for cols in grid_cols:
        specs.append(workload(f"grid(5x{cols})", "grid", rows=5, cols=cols))
    specs.append(workload("series_parallel", "series_parallel", seed=7, n=ns[-1]))
    specs.append(
        workload("cycle_chords", "cycle_chords", seed=11, n=ns[-1], chords=4)
    )
    return specs


def sweep_n(fixed_k: int, ns: Iterable[int], seed: int = 0) -> List[WorkloadSpec]:
    """Partial-k-tree workloads sweeping n at a fixed treewidth bound."""
    return [
        workload(f"pkt(n={n},k={fixed_k})", "partial_k_tree", seed=seed + n, n=n, k=fixed_k)
        for n in ns
    ]


def sweep_k(fixed_n: int, ks: Iterable[int], seed: int = 0) -> List[WorkloadSpec]:
    """Partial-k-tree workloads sweeping the treewidth bound at fixed n."""
    return [
        workload(f"pkt(n={fixed_n},k={k})", "partial_k_tree", seed=seed + k, n=fixed_n, k=k)
        for k in ks
    ]


def bipartite_workloads(scale: str = "small") -> List[WorkloadSpec]:
    """Bipartite workloads for the matching experiments."""
    if scale == "small":
        sizes = [(4, 8), (5, 10)]
        banded = [(20, 20)]
    else:
        sizes = [(6, 15), (8, 20), (10, 30)]
        banded = [(40, 40), (80, 80)]
    specs = [
        workload(f"grid({r}x{c})", "grid", rows=r, cols=c) for r, c in sizes
    ]
    for left, right in banded:
        specs.append(
            workload(
                f"banded({left}x{right})",
                "banded_bipartite",
                seed=left,
                left=left,
                right=right,
                band=3,
            )
        )
    specs.append(workload("subdivided_pkt", "subdivided_k_tree", seed=3, n=40, k=3))
    return specs
