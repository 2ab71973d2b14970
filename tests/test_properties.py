"""Tests for graph properties: diameters, Dijkstra, tree helpers."""

import math

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
