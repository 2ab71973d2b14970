"""Unit tests for the undirected Graph structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs import generators


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes() == 0
        assert g.num_edges() == 0
        assert g.is_connected()  # vacuously

    def test_add_nodes_and_edges(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3, weight=5.0)
        assert g.num_nodes() == 3
        assert g.num_edges() == 2
        assert g.has_edge(1, 2)
        assert g.has_edge(3, 2)
        assert g.weight(2, 3) == 5.0

    def test_constructor_with_edges(self):
        g = Graph(nodes=[0, 1, 2, 9], edges=[(0, 1), (1, 2, 3.5)])
        assert g.num_nodes() == 4
        assert g.weight(1, 2) == 3.5
        assert g.degree(9) == 0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_duplicate_edge_keeps_min_weight(self):
        g = Graph()
        g.add_edge(1, 2, weight=7)
        g.add_edge(2, 1, weight=3)
        assert g.num_edges() == 1
        assert g.weight(1, 2) == 3

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_node(1)
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_copy_is_independent(self):
        g = Graph(edges=[(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert g.num_nodes() == 2
        assert h.num_nodes() == 3


class TestQueries:
    def test_neighbors_and_degree(self):
        g = generators.star_graph(5)
        assert g.degree(0) == 4
        assert g.neighbors(1) == {0}
        with pytest.raises(GraphError):
            g.neighbors(99)

    def test_weight_of_missing_edge_raises(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            g.weight(1, 3)

    def test_contains_iter_len(self):
        g = generators.path_graph(4)
        assert 2 in g
        assert 7 not in g
        assert len(g) == 4
        assert sorted(iter(g)) == [0, 1, 2, 3]

    def test_weighted_edges(self):
        g = Graph(edges=[(1, 2, 4.0)])
        assert g.weighted_edges() == [(1, 2, 4.0)]


class TestSubgraphs:
    def test_subgraph_induces_edges(self):
        g = generators.complete_graph(5)
        sub = g.subgraph([0, 1, 2])
        assert sub.num_nodes() == 3
        assert sub.num_edges() == 3

    def test_subgraph_missing_nodes_raises(self):
        g = generators.path_graph(3)
        with pytest.raises(GraphError):
            g.subgraph([0, 99])

    def test_without_nodes(self):
        g = generators.path_graph(5)
        h = g.without_nodes([2])
        assert h.num_nodes() == 4
        assert not h.is_connected()

    def test_without_nodes_drops_incident_edges(self):
        g = generators.complete_graph(4)
        h = g.without_nodes([0])
        assert (h.num_nodes(), h.num_edges()) == (3, 3)
        assert not h.has_node(0)
        assert (g.num_nodes(), g.num_edges()) == (4, 6)  # the source graph is untouched


class TestTraversal:
    def test_bfs_layers_on_path(self):
        g = generators.path_graph(6)
        layers = g.bfs_layers(0)
        assert layers[5] == 5
        assert layers[0] == 0

    def test_bfs_order_covers_component(self):
        g = generators.grid_graph(3, 3)
        assert len(g.bfs_order((0, 0))) == 9

    def test_connected_components(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        g.add_node(5)
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_is_connected(self):
        assert generators.cycle_graph(5).is_connected()
        g = Graph(nodes=[1, 2])
        assert not g.is_connected()

    def test_spanning_tree_covers_all_nodes(self):
        g = generators.grid_graph(4, 4)
        parent = g.spanning_tree(root=(0, 0))
        assert len(parent) == 16
        assert parent[(0, 0)] is None
        roots = [u for u, p in parent.items() if p is None]
        assert roots == [(0, 0)]

    def test_spanning_tree_edges_exist(self):
        g = generators.partial_k_tree(30, 3, seed=1)
        parent = g.spanning_tree(root=0)
        for child, par in parent.items():
            if par is not None:
                assert g.has_edge(child, par)


class TestBipartiteness:
    def test_even_cycle_bipartite(self):
        assert generators.cycle_graph(6).is_bipartite()

    def test_odd_cycle_not_bipartite(self):
        assert not generators.cycle_graph(5).is_bipartite()

    def test_grid_bipartite_partition_valid(self):
        g = generators.grid_graph(3, 4)
        left, right = g.bipartition()
        assert left | right == set(g.nodes())
        for u, v in g.edges():
            assert (u in left) != (v in left)


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_random_tree_always_connected_acyclic(n, seed):
    """Property: random trees have n-1 edges and are connected."""
    g = generators.random_tree(n, seed=seed)
    assert g.num_nodes() == n
    assert g.num_edges() == n - 1
    assert g.is_connected()


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_grid_edge_count(rows, cols):
    """Property: an r×c grid has r(c-1) + c(r-1) edges."""
    g = generators.grid_graph(rows, cols)
    assert g.num_nodes() == rows * cols
    assert g.num_edges() == rows * (cols - 1) + cols * (rows - 1)
