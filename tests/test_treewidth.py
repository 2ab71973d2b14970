"""Tests for treewidth heuristics and elimination-order decompositions."""

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.convert import graph_to_networkx
from repro.graphs import treewidth as tw


class TestEliminationOrders:
    def test_orders_are_permutations(self, small_partial_k_tree):
        g = small_partial_k_tree
        for order in (tw.min_degree_order(g), tw.min_fill_order(g), tw.reduced_min_fill_order(g)):
            assert sorted(map(str, order)) == sorted(map(str, g.nodes()))

    def test_width_of_order_on_tree_is_one(self):
        g = generators.random_tree(30, seed=3)
        order = tw.min_degree_order(g)
        assert tw.width_of_elimination_order(g, order) == 1

    def test_width_of_bad_order_raises(self):
        g = generators.path_graph(4)
        with pytest.raises(GraphError):
            tw.width_of_elimination_order(g, [0, 1])

    def test_decomposition_from_order_is_valid(self):
        from repro.decomposition.centralized import centralized_tree_decomposition
        from repro.decomposition.validation import tree_decomposition_violations

        g = generators.partial_k_tree(35, 3, seed=2)
        td = centralized_tree_decomposition(g)
        assert tree_decomposition_violations(g, td) == []


class TestBounds:
    def test_exact_values_for_canonical_graphs(self):
        assert tw.treewidth_upper_bound(generators.random_tree(15, seed=1)) == 1
        assert tw.treewidth_upper_bound(generators.cycle_graph(10)) == 2
        assert tw.treewidth_upper_bound(generators.complete_graph(6)) == 5

    def test_lower_bound_not_above_upper_bound(self):
        for seed in range(5):
            g = generators.partial_k_tree(30, 3, seed=seed)
            assert tw.treewidth_lower_bound(g) <= tw.treewidth_upper_bound(g)

    def test_degeneracy_of_complete_graph(self):
        assert tw.degeneracy(generators.complete_graph(5)) == 4

    def test_heuristics_match_networkx_reference(self):
        g = generators.partial_k_tree(40, 3, seed=8)
        nxg = graph_to_networkx(g)
        nx_width, _ = nx.algorithms.approximation.treewidth_min_fill_in(nxg)
        # Both are heuristics; ours should be at least as good as min(ours) vs
        # within a small factor of the networkx result.
        ours = tw.treewidth_upper_bound(g)
        assert ours <= max(3, 2 * nx_width)
        assert nx_width <= 2 * max(1, ours)

    def test_empty_graph(self):
        from repro.graphs.graph import Graph

        assert tw.treewidth_upper_bound(Graph()) == 0

    # Every (n, k, seed) of test_partial_k_tree_properties' domain on which
    # min-degree and min-fill both overshoot k by one.
    @pytest.mark.parametrize(
        "n,k,seed",
        [(12, 4, 22), (22, 4, 276), (30, 4, 267), (32, 4, 188), (35, 4, 26), (36, 4, 448),
         (37, 4, 215), (38, 4, 215), (38, 4, 279), (38, 4, 304), (39, 4, 198), (40, 4, 34)],
    )
    def test_reduction_rules_reach_k_on_partial_k_trees(self, n, k, seed):
        g = generators.partial_k_tree(n, k, seed=seed)
        assert tw.width_of_elimination_order(g, tw.min_fill_order(g)) == k + 1
        assert tw.width_of_elimination_order(g, tw.reduced_min_fill_order(g)) == k
        assert tw.treewidth_upper_bound(g) == k


class TestExactSmall:
    def test_exact_on_small_graphs(self):
        assert tw.treewidth_exact_small(generators.cycle_graph(6)) == 2
        assert tw.treewidth_exact_small(generators.complete_graph(5)) == 4
        assert tw.treewidth_exact_small(generators.path_graph(6)) == 1
        assert tw.treewidth_exact_small(generators.grid_graph(3, 3)) == 3

    def test_exact_rejects_large_graphs(self):
        with pytest.raises(GraphError):
            tw.treewidth_exact_small(generators.path_graph(30))

    def test_exact_matches_heuristic_on_k_trees(self):
        for k in (1, 2, 3):
            g = generators.k_tree(k + 5, k, seed=k)
            assert tw.treewidth_exact_small(g) == k


@given(st.integers(min_value=4, max_value=11), st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_heuristic_upper_bounds_exact(n, seed):
    """Property: the heuristic width never undershoots the exact treewidth."""
    g = generators.partial_k_tree(n, 2, seed=seed)
    exact = tw.treewidth_exact_small(g)
    assert tw.treewidth_upper_bound(g) >= exact
    assert tw.treewidth_lower_bound(g) <= exact
