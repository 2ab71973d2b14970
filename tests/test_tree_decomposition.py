"""Tests for the distributed tree decomposition (Theorem 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FrameworkConfig
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.decomposition.validation import (
    is_valid_tree_decomposition,
    tree_decomposition_violations,
    validate_tree_decomposition,
)
from repro.errors import DecompositionError, GraphError
from repro.graphs import generators, properties
from repro.graphs.treewidth import treewidth_upper_bound


FAMILIES = [
    ("partial_k_tree", lambda: generators.partial_k_tree(90, 3, seed=2)),
    ("k_tree", lambda: generators.k_tree(50, 3, seed=3)),
    ("grid", lambda: generators.grid_graph(6, 12)),
    ("series_parallel", lambda: generators.series_parallel_graph(70, seed=4)),
    ("cycle_chords", lambda: generators.cycle_with_chords(60, 5, seed=5)),
    ("tree", lambda: generators.random_tree(60, seed=6)),
    ("caterpillar", lambda: generators.caterpillar_graph(25, 2)),
]


class TestValidityAcrossFamilies:
    @pytest.mark.parametrize("name,factory", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_decomposition_is_valid(self, name, factory):
        graph = factory()
        result = build_tree_decomposition(graph, config=FrameworkConfig(seed=1))
        assert tree_decomposition_violations(graph, result.decomposition) == []

    @pytest.mark.parametrize("name,factory", FAMILIES[:4], ids=[f[0] for f in FAMILIES[:4]])
    def test_width_within_theorem_bound(self, name, factory):
        graph = factory()
        result = build_tree_decomposition(graph, config=FrameworkConfig(seed=1))
        tau = max(1, treewidth_upper_bound(graph))
        log_n = math.ceil(math.log2(graph.num_nodes()))
        # Theorem 1: width O(τ² log n); the practical constants keep it well
        # under the paper's worst-case 400(τ+1)²·log n.
        assert result.decomposition.width() <= 400 * (tau + 1) ** 2 * log_n

    @pytest.mark.parametrize("name,factory", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_child_graph_is_component_plus_adjacent_bag(self, name, factory):
        graph = factory()
        td = build_tree_decomposition(graph, config=FrameworkConfig(seed=1)).decomposition
        for node in td.nodes.values():
            for child in map(td.nodes.get, node.children):
                comp = child.free_vertices
                # Reference: scan each bag vertex's whole neighbourhood.
                adjacent = {b for b in node.bag if any(nb in comp for nb in graph.neighbors(b))}
                assert child.graph_vertices == comp | adjacent

    def test_depth_logarithmic(self):
        graph = generators.partial_k_tree(300, 3, seed=9)
        result = build_tree_decomposition(graph, config=FrameworkConfig(seed=1))
        assert result.decomposition.depth() <= 4 * math.ceil(math.log2(300))


class TestStructureQueries:
    def test_canonical_labels_and_upward_unions(self, small_partial_k_tree, config):
        graph = small_partial_k_tree
        td = build_tree_decomposition(graph, config=config).decomposition
        for v in graph.nodes():
            label = td.canonical_label(v)
            assert v in td.bag(label)
            # No strictly shorter label contains v.
            for anc in td.ancestors(label, include_self=False):
                assert v not in td.bag(anc)
            upward = td.upward_bag_union(v)
            assert v in upward
            assert td.bag(()) <= upward

    def test_levels_and_children_consistent(self, small_partial_k_tree, config):
        td = build_tree_decomposition(small_partial_k_tree, config=config).decomposition
        total = 0
        for depth in range(td.depth() + 1):
            level = td.level(depth)
            total += len(level)
            for label in level:
                for child in td.children(label):
                    assert td.parent(child) == label
                    assert len(child) == len(label) + 1
        assert total == td.num_bags()

    def test_unknown_vertex_raises(self, small_partial_k_tree, config):
        td = build_tree_decomposition(small_partial_k_tree, config=config).decomposition
        with pytest.raises(DecompositionError):
            td.canonical_label("not-a-node")

    def test_covered_vertices_equals_node_set(self, small_partial_k_tree, config):
        td = build_tree_decomposition(small_partial_k_tree, config=config).decomposition
        assert td.covered_vertices() == set(small_partial_k_tree.nodes())


class TestRoundsAndErrors:
    def test_rounds_positive_and_ledger_consistent(self, small_partial_k_tree, config):
        result = build_tree_decomposition(small_partial_k_tree, config=config)
        assert result.rounds == result.ledger.total()
        assert result.rounds > 0

    def test_rounds_scale_with_diameter(self):
        cfg = FrameworkConfig(seed=1)
        short = generators.partial_k_tree(120, 2, seed=1)
        long = generators.caterpillar_graph(120, 0)
        r_short = build_tree_decomposition(short, config=cfg)
        r_long = build_tree_decomposition(long, config=cfg)
        d_short = properties.diameter(short)
        d_long = properties.diameter(long)
        assert d_long > d_short
        # Rounds should grow with the diameter (roughly linearly per Theorem 1).
        assert r_long.rounds > r_short.rounds

    def test_empty_graph_rejected(self):
        from repro.graphs.graph import Graph

        with pytest.raises(GraphError):
            build_tree_decomposition(Graph())

    def test_disconnected_graph_rejected(self):
        from repro.graphs.graph import Graph

        with pytest.raises(GraphError):
            build_tree_decomposition(Graph(edges=[(0, 1), (2, 3)]))

    def test_validate_raises_on_tampered_decomposition(self, small_partial_k_tree, config):
        result = build_tree_decomposition(small_partial_k_tree, config=config)
        td = result.decomposition
        # Remove a vertex from every bag: coverage must now fail.
        victim = next(iter(small_partial_k_tree.nodes()))
        for node in td.nodes.values():
            node.bag = frozenset(node.bag - {victim})
        with pytest.raises(DecompositionError):
            validate_tree_decomposition(small_partial_k_tree, td)


@given(st.integers(min_value=20, max_value=120), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=200))
@settings(max_examples=15, deadline=None)
def test_decomposition_valid_on_random_partial_k_trees(n, k, seed):
    """Property: the construction always yields a valid tree decomposition."""
    graph = generators.partial_k_tree(max(n, k + 2), k, seed=seed)
    result = build_tree_decomposition(graph, config=FrameworkConfig(seed=seed))
    assert is_valid_tree_decomposition(graph, result.decomposition)
