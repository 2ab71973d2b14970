"""Unit tests for the weighted directed multigraph structure."""

import pytest

from repro.errors import GraphError
from repro.graphs.digraph import Edge, WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs import generators


class TestEdges:
    def test_add_edge_returns_distinct_ids(self):
        g = WeightedDiGraph()
        e1 = g.add_edge("a", "b", weight=2)
        e2 = g.add_edge("a", "b", weight=3)
        assert e1 != e2
        assert g.num_edges() == 2
        assert g.max_multiplicity() == 2

    @pytest.mark.parametrize("weight", [-1, float("nan"), "3", None])
    def test_negative_weight_rejected(self, weight):
        g = WeightedDiGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 2, weight=weight)
        assert g.num_edges() == 0

    def test_duplicate_edge_id_rejected(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, eid=5)
        with pytest.raises(GraphError):
            g.add_edge(2, 3, eid=5)

    def test_remove_edge(self):
        g = WeightedDiGraph()
        eid = g.add_edge(1, 2)
        g.remove_edge(eid)
        assert g.num_edges() == 0
        with pytest.raises(GraphError):
            g.remove_edge(eid)

    def test_set_label(self):
        g = WeightedDiGraph()
        eid = g.add_edge(1, 2, label="red")
        g.set_label(eid, "blue")
        assert g.edge(eid).label == "blue"
        assert g.edge(eid).weight == 1.0

    def test_edge_relabeled_preserves_identity(self):
        e = Edge(3, "u", "v", 2.5, "x")
        e2 = e.relabeled("y")
        assert e2.eid == 3 and e2.weight == 2.5 and e2.label == "y"
        assert e.label == "x"

    def test_add_undirected_edge_creates_pair(self):
        g = WeightedDiGraph()
        e1, e2 = g.add_undirected_edge(1, 2, weight=4)
        assert g.edge(e1).endpoints() == (1, 2)
        assert g.edge(e2).endpoints() == (2, 1)
        assert g.edge(e1).weight == g.edge(e2).weight == 4


class TestQueries:
    def test_out_in_edges_and_degrees(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.add_edge(3, 1)
        assert g.out_degree(1) == 2
        assert g.in_degree(1) == 1
        assert g.successors(1) == {2, 3}
        assert g.predecessors(1) == {3}

    def test_missing_node_queries_raise(self):
        g = WeightedDiGraph()
        with pytest.raises(GraphError):
            g.out_edges("nope")
        with pytest.raises(GraphError):
            g.edge(99)

    def test_total_weight(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=2)
        g.add_edge(2, 3, weight=3)
        assert g.total_weight() == 5


class TestDerivedGraphs:
    def test_reverse_swaps_endpoints(self):
        g = WeightedDiGraph()
        g.add_edge("a", "b", weight=2, label="L")
        r = g.reverse()
        e = r.edges()[0]
        assert e.tail == "b" and e.head == "a" and e.weight == 2 and e.label == "L"

    def test_subgraph_preserves_edge_ids(self):
        g = WeightedDiGraph()
        kept = g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = g.subgraph([1, 2])
        assert sub.num_edges() == 1
        assert sub.edge(kept).endpoints() == (1, 2)

    def test_underlying_graph_drops_direction_weight_multiplicity(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=5)
        g.add_edge(2, 1, weight=7)
        g.add_edge(1, 2, weight=9)
        g.add_edge(3, 3)  # self loop dropped
        u = g.underlying_graph()
        assert u.num_edges() == 1
        assert u.has_edge(1, 2)
        assert u.has_node(3)

    def test_underlying_weighted_graph_keeps_min_weight(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=5)
        g.add_edge(2, 1, weight=3)
        u = g.underlying_weighted_graph()
        assert u.weight(1, 2) == 3

    def test_from_undirected_round_trip(self):
        base = generators.with_random_weights(generators.cycle_graph(6), 1, 5, seed=1)
        inst = WeightedDiGraph.from_undirected(base)
        assert inst.num_edges() == 2 * base.num_edges()
        assert set(inst.underlying_graph().edges()) == set(base.edges())

    def test_from_edge_list_directed_and_undirected(self):
        directed = WeightedDiGraph.from_edge_list([(1, 2, 3.0), (2, 3)])
        assert directed.num_edges() == 2
        undirected = WeightedDiGraph.from_edge_list([(1, 2)], directed=False)
        assert undirected.num_edges() == 2

    def test_copy_is_independent(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2)
        h = g.copy()
        h.add_edge(2, 3)
        assert g.num_edges() == 1
        assert h.num_edges() == 2


def _filtered_subgraph(g, nodes):
    """Reference: the induced subgraph by a filter over every arc of ``g``."""
    keep = set(nodes)
    ref = WeightedDiGraph(keep)
    for e in g.edges():
        if e.tail in keep and e.head in keep:
            ref.add_edge(e.tail, e.head, weight=e.weight, label=e.label, eid=e.eid)
    return ref


def _assert_same_subgraph(g, nodes):
    sub, ref = g.subgraph(nodes), _filtered_subgraph(g, nodes)
    assert set(sub.nodes()) == set(ref.nodes())
    assert sub.num_edges() == ref.num_edges()
    assert sub.edges() == ref.edges()
    for u in ref.nodes():
        assert sub.out_edges(u) == ref.out_edges(u)
        assert sub.in_edges(u) == ref.in_edges(u)
    # The next free edge id is the parent's, not one past the subgraph's largest.
    u = nodes[0]
    assert sub.copy().add_edge(u, u) == g.copy().add_edge(u, u)
    return sub


class TestSubgraph:
    def test_parallel_arcs_and_self_loops(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=4, label="a")
        g.add_edge(2, 3)
        g.add_edge(1, 2, weight=1, label="b")
        g.add_edge(2, 2, weight=7)
        g.add_edge(3, 1)
        g.add_edge(2, 1)
        g.add_edge(1, 2, weight=4, label="a")
        g.add_edge(3, 3)
        sub = _assert_same_subgraph(g, [1, 2])
        assert sub.num_edges() == 5
        assert [e.label for e in sub.out_edges(1)] == ["a", "b", "a"]

    def test_out_of_order_explicit_edge_ids(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, eid=10)
        g.add_edge(2, 3, eid=3)
        g.add_edge(3, 1, eid=7)
        g.add_edge(1, 3)
        g.add_edge(2, 1, eid=0)
        g.add_edge(3, 2, eid=5)
        assert [e.eid for e in _assert_same_subgraph(g, [1, 2, 3]).edges()] == [10, 3, 7, 13, 0, 5]
        assert [e.eid for e in _assert_same_subgraph(g, [1, 2]).edges()] == [10, 0]
        _assert_same_subgraph(g, [3, 2])

    def test_readded_edge_id_moves_to_the_end(self):
        g = WeightedDiGraph()
        for u, v in [(1, 2), (2, 3), (3, 1), (1, 3)]:
            g.add_edge(u, v)
        g.remove_edge(1)
        g.add_edge(2, 3, weight=9, eid=1)
        sub = _assert_same_subgraph(g, [1, 2, 3])
        assert [e.eid for e in sub.edges()] == [0, 2, 3, 1]

    def test_tuple_and_string_node_ids(self):
        grid = WeightedDiGraph.from_undirected(generators.grid_graph(3, 4))
        _assert_same_subgraph(grid, [(0, 0), (0, 1), (1, 1), (2, 3)])
        words = WeightedDiGraph.from_edge_list(
            [("a", "b", 2.0), ("b", "c"), ("c", "a"), ("a", "b", 5.0), ("c", "d")]
        )
        _assert_same_subgraph(words, ["a", "b", "c"])

    def test_subgraph_of_subgraph(self):
        g = generators.to_directed_instance(
            generators.partial_k_tree(30, 3, seed=2), weight_range=(1, 9),
            orientation="asymmetric", seed=3,
        )
        outer = _assert_same_subgraph(g, list(range(20)))
        _assert_same_subgraph(outer, list(range(5, 15)))

    def test_missing_node_raises(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2)
        with pytest.raises(GraphError):
            g.subgraph([1, 99])
