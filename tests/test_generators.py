"""Tests for the synthetic low-treewidth graph generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.treewidth import treewidth_upper_bound


class TestElementaryFamilies:
    def test_path_cycle_complete_star_sizes(self):
        assert generators.path_graph(5).num_edges() == 4
        assert generators.cycle_graph(5).num_edges() == 5
        assert generators.complete_graph(5).num_edges() == 10
        assert generators.star_graph(5).num_edges() == 4

    def test_invalid_sizes_raise(self):
        with pytest.raises(GraphError):
            generators.path_graph(0)
        with pytest.raises(GraphError):
            generators.cycle_graph(2)
        with pytest.raises(GraphError):
            generators.k_tree(3, 4, seed=0)

    def test_caterpillar_diameter_controlled(self):
        g = generators.caterpillar_graph(10, legs_per_node=2)
        assert g.num_nodes() == 10 + 20
        assert g.is_connected()
        # Tree => treewidth 1.
        assert treewidth_upper_bound(g) == 1


class TestKTreeFamilies:
    def test_k_tree_width_is_exactly_k(self):
        for k in (1, 2, 3):
            g = generators.k_tree(25, k, seed=k)
            assert treewidth_upper_bound(g) == k
            assert g.is_connected()

    def test_k_tree_edge_count(self):
        # A k-tree on n nodes has k(k+1)/2 + (n-k-1)k edges.
        n, k = 30, 3
        g = generators.k_tree(n, k, seed=1)
        assert g.num_edges() == k * (k + 1) // 2 + (n - k - 1) * k

    def test_partial_k_tree_connected_and_width_bounded(self):
        g = generators.partial_k_tree(60, 4, edge_keep_prob=0.4, seed=5)
        assert g.is_connected()
        assert treewidth_upper_bound(g) <= 4

    def test_partial_k_tree_bad_prob_raises(self):
        with pytest.raises(GraphError):
            generators.partial_k_tree(20, 2, edge_keep_prob=1.5)

    def test_partial_k_tree_deterministic_for_seed(self):
        a = generators.partial_k_tree(40, 3, seed=9)
        b = generators.partial_k_tree(40, 3, seed=9)
        assert set(a.edges()) == set(b.edges())


class TestOtherFamilies:
    def test_series_parallel_width_at_most_two(self):
        g = generators.series_parallel_graph(50, seed=2)
        assert g.is_connected()
        assert treewidth_upper_bound(g) <= 2

    def test_cycle_with_chords_width_bound(self):
        g = generators.cycle_with_chords(40, 3, seed=1)
        assert g.is_connected()
        assert treewidth_upper_bound(g) <= 3 + 2

    def test_grid_treewidth_equals_min_dimension(self):
        g = generators.grid_graph(4, 9)
        assert treewidth_upper_bound(g) >= 4
        assert g.is_bipartite()

    def test_grid_with_diagonal_not_bipartite(self):
        g = generators.grid_graph(3, 3, diagonal=True)
        assert not g.is_bipartite()

    def test_cylinder_graph_connected(self):
        g = generators.cylinder_graph(3, 6)
        assert g.is_connected()
        assert g.num_edges() > generators.grid_graph(3, 6).num_edges()


class TestBipartiteFamilies:
    def test_subdivided_graph_is_bipartite_and_preserves_connectivity(self):
        base = generators.partial_k_tree(20, 3, seed=4)
        sub = generators.subdivided_graph(base)
        assert sub.is_bipartite()
        assert sub.is_connected()
        assert sub.num_nodes() == base.num_nodes() + base.num_edges()

    def test_banded_bipartite_is_bipartite(self):
        g = generators.random_banded_bipartite(15, 20, band=2, seed=3)
        assert g.is_bipartite()
        for u in g.nodes():
            assert u[0] in ("L", "R")


class TestWeightsAndOrientation:
    def test_with_random_weights_in_range(self):
        g = generators.with_random_weights(generators.cycle_graph(10), 2, 6, seed=1)
        for _, _, w in g.weighted_edges():
            assert 2 <= w <= 6

    def test_with_random_weights_invalid_range(self):
        with pytest.raises(GraphError):
            generators.with_random_weights(generators.cycle_graph(4), 5, 2)

    def test_to_directed_instance_both_orientation(self):
        g = generators.cycle_graph(6)
        inst = generators.to_directed_instance(g, orientation="both")
        assert inst.num_edges() == 2 * g.num_edges()

    def test_to_directed_instance_random_orientation(self):
        g = generators.cycle_graph(6)
        inst = generators.to_directed_instance(g, orientation="random", seed=1)
        assert inst.num_edges() == g.num_edges()

    def test_to_directed_instance_unknown_orientation(self):
        with pytest.raises(GraphError):
            generators.to_directed_instance(generators.cycle_graph(4), orientation="bogus")


@given(
    st.integers(min_value=5, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=25, deadline=None)
def test_partial_k_tree_properties(n, k, seed):
    """Property: partial k-trees are connected with treewidth ≤ k."""
    if n < k + 1:
        n = k + 1
    g = generators.partial_k_tree(n, k, seed=seed)
    assert g.num_nodes() == n
    assert g.is_connected()
    assert treewidth_upper_bound(g) <= k
