"""Tests for the centralized Hopcroft-Karp baseline."""

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from repro.baselines.reference import graph_to_networkx
from repro.errors import NotBipartiteError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.matching.augmenting import verify_matching
from repro.matching.hopcroft_karp import hopcroft_karp_matching, maximum_matching_size


class TestBasics:
    def test_empty_graph(self):
        assert hopcroft_karp_matching(Graph()) == set()

    def test_single_edge(self):
        g = Graph(edges=[(1, 2)])
        assert hopcroft_karp_matching(g) == {frozenset({1, 2})}

    def test_even_path_perfect_matching(self):
        g = generators.path_graph(6)
        m = hopcroft_karp_matching(g)
        assert len(m) == 3
        assert verify_matching(g, m)

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotBipartiteError):
            hopcroft_karp_matching(generators.cycle_graph(5))

    def test_star_matches_one(self):
        assert maximum_matching_size(generators.star_graph(8)) == 1

    def test_grid_has_perfect_matching_when_even(self):
        g = generators.grid_graph(4, 6)
        assert maximum_matching_size(g) == 12

    def test_explicit_partition(self):
        g = Graph(edges=[("L0", "R0"), ("L1", "R0")])
        m = hopcroft_karp_matching(g, partition=({"L0", "L1"}, {"R0"}))
        assert len(m) == 1

    def test_partition_must_cover_vertices(self):
        from repro.errors import GraphError

        g = Graph(edges=[(1, 2)])
        g.add_node(3)
        with pytest.raises(GraphError):
            hopcroft_karp_matching(g, partition=({1}, {2}))


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_matches_networkx_on_random_bipartite(n_left, n_right, seed):
    """Property: our Hopcroft-Karp matches networkx's matching size."""
    g = generators.random_banded_bipartite(n_left, n_right, band=3, seed=seed)
    ours = hopcroft_karp_matching(g)
    assert verify_matching(g, ours)
    nxg = graph_to_networkx(g)
    left, _ = g.bipartition()
    theirs = nx.bipartite.maximum_matching(nxg, top_nodes=left)
    assert len(ours) == len(theirs) // 2
