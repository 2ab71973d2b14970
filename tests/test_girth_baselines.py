"""Tests for the exact centralized girth baselines."""

import math

import pytest

from repro.girth.baselines import exact_girth_directed, exact_girth_undirected
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph


class TestUndirectedBaseline:
    def test_tree_has_infinite_girth(self):
        assert math.isinf(exact_girth_undirected(generators.random_tree(20, seed=1)))

    def test_unit_cycle(self):
        assert exact_girth_undirected(generators.cycle_graph(7)) == 7

    def test_weighted_cycle(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, (i + 1) % 5, weight=2)
        assert exact_girth_undirected(g) == 10

    def test_chord_shortens_girth(self):
        g = generators.cycle_graph(10)
        g.add_edge(0, 3)
        assert exact_girth_undirected(g) == 4

    def test_weighted_chord_choice(self):
        # Two triangles sharing an edge, with different weights.
        g = Graph()
        g.add_edge("a", "b", weight=1)
        g.add_edge("b", "c", weight=1)
        g.add_edge("a", "c", weight=1)
        g.add_edge("c", "d", weight=10)
        g.add_edge("d", "a", weight=10)
        assert exact_girth_undirected(g) == 3

    def test_unit_weights_give_the_shortest_cycle_length(self):
        assert exact_girth_undirected(generators.grid_graph(3, 3)) == 4
        assert exact_girth_undirected(generators.complete_graph(4)) == 3
        assert exact_girth_undirected(generators.subdivided_graph(generators.complete_graph(4))) == 6

    def test_empty_graph(self):
        assert math.isinf(exact_girth_undirected(Graph()))


class TestDirectedBaseline:
    def test_acyclic_dag_is_infinite(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=1)
        g.add_edge(2, 3, weight=1)
        g.add_edge(1, 3, weight=1)
        assert math.isinf(exact_girth_directed(g))

    def test_directed_two_cycle(self):
        g = WeightedDiGraph()
        g.add_edge("a", "b", weight=3)
        g.add_edge("b", "a", weight=4)
        assert exact_girth_directed(g) == 7

    def test_self_loop_counts(self):
        g = WeightedDiGraph()
        g.add_edge("a", "a", weight=2)
        g.add_edge("a", "b", weight=1)
        assert exact_girth_directed(g) == 2

    def test_directed_cycle_weighted(self):
        g = WeightedDiGraph()
        weights = [2, 3, 4, 5]
        for i, w in enumerate(weights):
            g.add_edge(i, (i + 1) % 4, weight=w)
        assert exact_girth_directed(g) == sum(weights)

    def test_random_orientation_consistent_with_bidirected(self):
        base = generators.cycle_with_chords(16, 3, seed=2)
        inst = generators.to_directed_instance(base, orientation="both")
        # With antiparallel unit edges, the directed girth is 2 (u→v→u).
        assert exact_girth_directed(inst) == 2
