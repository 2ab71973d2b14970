"""Tests for graph properties: diameters, Dijkstra, tree helpers."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_radius_center(self):
        g = generators.path_graph(7)
        assert properties.radius(g) == 3
        assert set(properties.center(g)) == {3}

    def test_largest_component(self):
        g = Graph(edges=[(1, 2), (2, 3), (10, 11)])
        assert properties.largest_component(g) == {1, 2, 3}


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

    def test_dijkstra_with_paths_reconstructs_shortest_path(self):
        g = generators.to_directed_instance(
            generators.grid_graph(4, 4), weight_range=(1, 5), orientation="both", seed=2
        )
        dist, pred = properties.dijkstra_with_paths(g, (0, 0))
        # Walk back from the far corner and check the length telescopes.
        node = (3, 3)
        total = 0.0
        while pred[node] is not None:
            prev = pred[node]
            step = min(e.weight for e in g.out_edges(prev) if e.head == node)
            total += step
            node = prev
        assert abs(total - dist[(3, 3)]) < 1e-9

    def test_undirected_dijkstra_matches_directed_encoding(self):
        base = generators.with_random_weights(generators.cycle_with_chords(20, 3, seed=1), 1, 7, seed=2)
        inst = WeightedDiGraph.from_undirected(base)
        for src in list(base.nodes())[:5]:
            d1 = properties.undirected_dijkstra(base, src)
            d2 = properties.dijkstra(inst, src)
            assert d1 == d2

    def test_all_pairs_and_weighted_diameter(self):
        g = generators.to_directed_instance(generators.cycle_graph(6), orientation="both")
        apsp = properties.all_pairs_shortest_paths(g)
        assert apsp[0][3] == 3
        assert properties.weighted_diameter(g) == 3


class TestTreeHelpers:
    def _path_tree(self, n):
        return {i: (i - 1 if i > 0 else None) for i in range(n)}

    def test_subtree_sizes_path(self):
        parent = self._path_tree(5)
        sizes = properties.tree_subtree_sizes(parent)
        assert sizes[0] == 5
        assert sizes[4] == 1

    def test_subtree_sizes_weighted(self):
        parent = self._path_tree(4)
        weights = {0: 0, 1: 1, 2: 0, 3: 1}
        sizes = properties.tree_subtree_sizes(parent, weights)
        assert sizes[0] == 2

    def test_children_map(self):
        parent = {0: None, 1: 0, 2: 0, 3: 1}
        children = properties.tree_children(parent)
        assert sorted(children[0]) == [1, 2]
        assert children[3] == []

    def test_centroid_of_path_is_middle(self):
        parent = self._path_tree(7)
        c = properties.tree_centroid(parent)
        assert c == 3

    def test_centroid_of_star_is_hub(self):
        parent = {0: None}
        parent.update({i: 0 for i in range(1, 8)})
        assert properties.tree_centroid(parent) == 0

    def test_centroid_empty_raises(self):
        with pytest.raises(GraphError):
            properties.tree_centroid({})

    def test_reroot_tree(self):
        parent = self._path_tree(5)
        rerooted = properties.reroot_tree(parent, 4)
        assert rerooted[4] is None
        assert rerooted[0] == 1
        assert len(rerooted) == 5

    def test_reroot_missing_node_raises(self):
        with pytest.raises(GraphError):
            properties.reroot_tree({0: None}, 1)


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
