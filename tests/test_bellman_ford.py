"""Tests for the distributed Bellman-Ford SSSP baseline."""

import math

import pytest

from repro.congest.bellman_ford import (
    _segmented_min_parent,
    distributed_bellman_ford,
)
from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.properties import dijkstra


class TestCorrectness:
    def test_matches_dijkstra_on_partial_k_tree(self):
        g = generators.partial_k_tree(50, 3, seed=5)
        inst = generators.to_directed_instance(g, weight_range=(1, 9), orientation="both", seed=6)
        result = distributed_bellman_ford(inst, 0)
        expected = dijkstra(inst, 0)
        for v in inst.nodes():
            assert abs(result.distances[v] - expected.get(v, math.inf)) < 1e-9

    def test_directed_unreachable_nodes_are_infinite(self):
        inst = WeightedDiGraph()
        inst.add_edge("a", "b", weight=1)
        inst.add_edge("c", "b", weight=1)  # c unreachable from a
        result = distributed_bellman_ford(inst, "a")
        assert result.distances["b"] == 1
        assert math.isinf(result.distances["c"])

    def test_asymmetric_weights_respected(self):
        g = generators.cycle_graph(8)
        inst = generators.to_directed_instance(g, weight_range=(1, 9), orientation="asymmetric", seed=3)
        result = distributed_bellman_ford(inst, 0)
        expected = dijkstra(inst, 0)
        assert all(abs(result.distances[v] - expected[v]) < 1e-9 for v in inst.nodes())

    def test_missing_source_raises(self):
        with pytest.raises(GraphError):
            distributed_bellman_ford(WeightedDiGraph(["a"]), "b")


class TestRoundBehaviour:
    def test_rounds_grow_with_hop_depth(self):
        """The baseline's rounds track the shortest-path hop depth (≈ n on paths)."""
        short = generators.to_directed_instance(generators.star_graph(40), orientation="both")
        long = generators.to_directed_instance(generators.path_graph(40), orientation="both")
        r_short = distributed_bellman_ford(short, 0).rounds
        r_long = distributed_bellman_ford(long, 0).rounds
        assert r_long >= 35
        assert r_short <= 5
        assert r_long > 4 * r_short

    def test_parents_form_shortest_path_tree(self):
        g = generators.partial_k_tree(30, 2, seed=9)
        inst = generators.to_directed_instance(g, weight_range=(1, 5), orientation="both", seed=10)
        result = distributed_bellman_ford(inst, 0)
        for v, parent in result.parents.items():
            if parent is None:
                continue
            # The parent relation must be consistent with the distances.
            edge_w = min(
                (e.weight for e in inst.out_edges(parent) if e.head == v), default=math.inf
            )
            assert abs(result.distances[parent] + edge_w - result.distances[v]) < 1e-9


class TestSegmentedMinParent:
    def test_min_and_smallest_sender_per_segment(self):
        np = pytest.importorskip("numpy")
        vals = np.array([5.0, 2.0, 2.0, 7.0, 1.0, 3.0, 3.0])
        starts = np.array([0, 3, 4])
        senders = np.array([9, 4, 2, 8, 5, 3, 1])
        seg_min, seg_parent = _segmented_min_parent(
            vals, starts, senders, np.int64(10**6)
        )
        assert seg_min.tolist() == [2.0, 7.0, 1.0]
        # Among positions attaining the min, the smallest sender wins.
        assert seg_parent.tolist() == [2, 8, 5]
