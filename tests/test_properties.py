"""Tests for graph properties: diameters, Dijkstra, the tree helper."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.reference import graph_to_networkx
from repro.errors import GraphError
from repro.graphs import generators, properties
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from test_engine_equivalence import FAMILIES


class TestDiameter:
    @pytest.mark.parametrize("family", [name for name, _ in FAMILIES] + ["single_node"])
    def test_exact_equals_max_eccentricity(self, family, master_seed):
        """The exact sweep over integer adjacency lists matches the
        per-node BFS eccentricities, and refuses a disconnected graph."""
        if family == "single_node":
            g = Graph(nodes=["only"])
        else:
            g = dict(FAMILIES)[family](master_seed + len(family))
        if not g.is_connected():
            with pytest.raises(GraphError):
                properties.diameter(g)
            return
        assert properties.diameter(g) == max(
            properties.eccentricity(g, u) for u in g.nodes()
        )

    @staticmethod
    def _all_sources_bfs_diameter(g):
        """The reference: the largest BFS depth over every source."""
        best = 0
        for s in g.nodes():
            depth = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in g.neighbors(u):
                        if v not in depth:
                            depth[v] = depth[u] + 1
                            nxt.append(v)
                frontier = nxt
            best = max(best, max(depth.values()))
        return best

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: Graph(nodes=["only"]),
            lambda r: generators.path_graph(2),
            lambda r: generators.star_graph(20),
            lambda r: generators.complete_graph(12),
            lambda r: generators.cycle_graph(60),
            lambda r: generators.cycle_graph(61),
            lambda r: generators.grid_graph(4, 80),
            lambda r: generators.grid_graph(5, 30),
            lambda r: generators.grid_graph(7, 7, diagonal=True),
            lambda r: generators.random_tree(150, seed=r),
            lambda r: generators.partial_k_tree(200, 1, seed=r),
            lambda r: generators.partial_k_tree(300, 2, seed=r),
            lambda r: generators.partial_k_tree(600, 3, seed=r),
            lambda r: generators.partial_k_tree(120, 5, seed=r),
        ],
        ids=[
            "single_node", "path_2", "star_20", "complete_12", "cycle_60",
            "cycle_61", "grid_4x80", "grid_5x30", "grid_diag_7x7", "tree_150",
            "partial_1_tree_200", "partial_2_tree_300", "partial_3_tree_600",
            "partial_5_tree_120",
        ],
    )
    def test_exact_equals_all_sources_bfs(self, build, master_seed):
        """iFUB stops early on most of these, and must still return the
        largest BFS depth over every source."""
        for offset in range(3):
            g = build(master_seed + offset)
            if not g.is_connected():
                continue
            assert properties.diameter(g) == self._all_sources_bfs_diameter(g)

    def test_exact_where_the_four_sweep_bound_falls_short(self, master_seed):
        """Seeded cycles with chords, series-parallel graphs and trees with
        extra edges, where the 4-sweep lower bound alone is below the
        diameter on a few percent of inputs: those exercise iFUB's level
        loop and its stopping rule."""
        short = 0
        for i in range(100):
            seed = master_seed * 1000 + i
            rng = random.Random(seed)
            tree_plus = Graph(nodes=range(rng.randint(6, 30)))
            n = tree_plus.num_nodes()
            for v in range(1, n):
                tree_plus.add_edge(v, rng.randrange(v))
            for _ in range(rng.randint(0, n)):
                tree_plus.add_edge(*rng.sample(range(n), 2))
            for g in (
                generators.cycle_with_chords(rng.randint(8, 40), rng.randint(1, 6), seed=seed),
                generators.series_parallel_graph(rng.randint(8, 40), seed=seed),
                tree_plus,
            ):
                if not g.is_connected():
                    continue
                want = self._all_sources_bfs_diameter(g)
                assert properties.diameter(g) == want
                index = {u: j for j, u in enumerate(g.nodes())}
                adj = [[index[v] for v in g.neighbors(u)] for u in g.nodes()]
                short += properties._four_sweep(adj)[0] < want
        assert short > 0

    def test_path_diameter(self):
        assert properties.diameter(generators.path_graph(10)) == 9

    def test_cycle_diameter(self):
        assert properties.diameter(generators.cycle_graph(10)) == 5

    def test_grid_diameter(self):
        assert properties.diameter(generators.grid_graph(3, 5)) == 2 + 4

    def test_disconnected_raises(self):
        g = Graph(nodes=[1, 2])
        with pytest.raises(GraphError):
            properties.diameter(g)

    def test_estimate_is_lower_bound_within_factor_two(self):
        g = generators.partial_k_tree(80, 3, seed=4)
        exact = properties.diameter(g, exact=True)
        estimate = properties.diameter(g, exact=False)
        assert estimate <= exact <= 2 * estimate

    def test_eccentricity_is_least_at_the_middle_of_a_path(self):
        g = generators.path_graph(7)
        ecc = {u: properties.eccentricity(g, u) for u in g.nodes()}
        assert ecc[0] == ecc[6] == 6
        assert [u for u, e in ecc.items() if e == min(ecc.values())] == [3]

    def test_eccentricity_stays_within_the_component(self):
        g = Graph(edges=[(1, 2), (2, 3), (10, 11)])
        g.add_node(20)
        assert properties.eccentricity(g, 1) == 2
        assert properties.eccentricity(g, 10) == 1
        assert properties.eccentricity(g, 20) == 0


class TestDijkstra:
    def test_simple_directed_distances(self):
        g = WeightedDiGraph()
        g.add_edge("a", "b", weight=2)
        g.add_edge("b", "c", weight=3)
        g.add_edge("a", "c", weight=10)
        dist = properties.dijkstra(g, "a")
        assert dist["c"] == 5
        assert "a" not in properties.dijkstra(g, "c")  # unreachable backwards

    def test_parallel_edges_use_min_weight(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=10)
        g.add_edge(1, 2, weight=4)
        assert properties.dijkstra(g, 1)[2] == 4

    def test_missing_source_raises(self):
        with pytest.raises(GraphError):
            properties.dijkstra(WeightedDiGraph(), "x")

    def test_every_distance_is_tight_along_an_in_edge(self):
        """No edge offers a shorter distance, and every reached node but the
        source has an in-edge that attains its distance: the distances
        telescope along a shortest-path tree."""
        g = generators.to_directed_instance(
            generators.grid_graph(4, 4), weight_range=(1, 5), orientation="asymmetric", seed=2
        )
        dist = properties.dijkstra(g, (0, 0))
        assert len(dist) == g.num_nodes()
        for e in g.edges():
            assert dist[e.head] <= dist[e.tail] + e.weight
        for v, d in dist.items():
            if v != (0, 0):
                assert min(dist[e.tail] + e.weight for e in g.in_edges(v)) == d

    def test_bidirected_encoding_matches_networkx(self):
        """On the antiparallel encoding of a weighted undirected graph,
        Dijkstra agrees with networkx's undirected Dijkstra."""
        base = generators.with_random_weights(generators.cycle_with_chords(20, 3, seed=1), 1, 7, seed=2)
        inst = WeightedDiGraph.from_undirected(base)
        nxg = graph_to_networkx(base)
        for src in base.nodes()[:5]:
            assert properties.dijkstra(inst, src) == nx.single_source_dijkstra_path_length(nxg, src)

    def test_antipode_of_a_bidirected_cycle(self):
        g = generators.to_directed_instance(generators.cycle_graph(6), orientation="both")
        for s in range(6):
            dist = properties.dijkstra(g, s)
            assert dist[(s + 3) % 6] == 3
            assert max(dist.values()) == 3


class TestTreeHelpers:
    def test_children_map(self):
        parent = {0: None, 1: 0, 2: 0, 3: 1}
        children = properties.tree_children(parent)
        assert sorted(children[0]) == [1, 2]
        assert children[3] == []

    def test_children_of_a_path_tree(self):
        parent = {i: (i - 1 if i > 0 else None) for i in range(5)}
        assert properties.tree_children(parent) == {0: [1], 1: [2], 2: [3], 3: [4], 4: []}

    def test_children_of_a_forest_keep_insertion_order(self):
        parent = {"r": None, "s": None, 3: "r", 1: "r", 2: "s"}
        assert properties.tree_children(parent) == {"r": [3, 1], "s": [2], 3: [], 1: [], 2: []}
        assert properties.tree_children({}) == {}


@given(st.integers(min_value=5, max_value=35), st.integers(min_value=0, max_value=300))
@settings(max_examples=20, deadline=None)
def test_dijkstra_triangle_inequality(n, seed):
    """Property: Dijkstra distances satisfy the triangle inequality."""
    g = generators.to_directed_instance(
        generators.partial_k_tree(n, 2, seed=seed),
        weight_range=(1, 9),
        orientation="asymmetric",
        seed=seed + 1,
    )
    nodes = g.nodes()[:6]
    dist = {u: properties.dijkstra(g, u) for u in nodes}
    for u in nodes:
        for v in nodes:
            for w in nodes:
                duv = dist[u].get(v, math.inf)
                duw = dist[u].get(w, math.inf)
                dwv = dist[w].get(v, math.inf)
                assert duv <= duw + dwv + 1e-9
