"""Tests for the high-level LowTreewidthSolver facade."""

import importlib
import math
import random
import sys

import pytest

from repro import LowTreewidthSolver
from repro.core.config import FrameworkConfig
from repro.errors import GraphError
from repro.girth.baselines import exact_girth_directed, exact_girth_undirected
from repro.girth.girth import directed_girth, is_symmetric
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs.properties import dijkstra
from repro.matching.hopcroft_karp import hopcroft_karp_matching


class TestConstruction:
    def test_from_undirected(self, small_partial_k_tree):
        solver = LowTreewidthSolver.from_undirected(small_partial_k_tree, seed=1)
        assert solver.instance.num_edges() == 2 * small_partial_k_tree.num_edges()

    def test_empty_instance_rejected(self):
        with pytest.raises(GraphError):
            LowTreewidthSolver(WeightedDiGraph())

    def test_disconnected_instance_rejected(self):
        inst = WeightedDiGraph()
        inst.add_edge(1, 2)
        inst.add_node(3)
        with pytest.raises(GraphError):
            LowTreewidthSolver(inst)

    def test_seed_overrides_config(self):
        g = generators.cycle_graph(8)
        solver = LowTreewidthSolver.from_undirected(g, config=FrameworkConfig(seed=1), seed=99)
        assert solver.config.seed == 99


class TestPipelines:
    def test_sssp_matches_dijkstra(self, weighted_instance):
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        source = weighted_instance.nodes()[0]
        result = solver.single_source_shortest_paths(source)
        expected = dijkstra(weighted_instance, source)
        for v in weighted_instance.nodes():
            want = expected.get(v, math.inf)
            got = result.distances[v]
            assert (math.isinf(got) and math.isinf(want)) or abs(got - want) < 1e-9
        assert result.total_rounds > 0

    def test_pairwise_distance_and_caching(self, weighted_instance):
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        u, v = weighted_instance.nodes()[:2]
        first = solver.pairwise_distance(u, v)
        # The labeling is cached: a second query must not rebuild it.
        labeling_obj = solver.distance_labeling()
        second = solver.pairwise_distance(u, v)
        assert first == second
        assert solver.distance_labeling() is labeling_obj
        rebuilt = solver.distance_labeling(rebuild=True)
        assert rebuilt is not labeling_obj

    def test_tree_decomposition_valid_and_cached(self, small_partial_k_tree):
        from repro.decomposition.validation import is_valid_tree_decomposition

        solver = LowTreewidthSolver.from_undirected(small_partial_k_tree, seed=2)
        result = solver.tree_decomposition()
        assert is_valid_tree_decomposition(small_partial_k_tree, result.decomposition)
        assert solver.tree_decomposition() is result

    def test_matching_via_solver(self):
        g = generators.grid_graph(4, 7)
        solver = LowTreewidthSolver.from_undirected(g, seed=5)
        result = solver.maximum_matching()
        assert result.size == len(hopcroft_karp_matching(g))

    def test_girth_via_solver(self):
        g = generators.cycle_graph(9)
        solver = LowTreewidthSolver.from_undirected(g, seed=6)
        result = solver.girth()
        assert result.girth >= exact_girth_undirected(g) - 1e-9

    def test_round_report_accumulates(self, weighted_instance):
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        assert solver.round_report() == {}
        solver.distance_labeling()
        report = solver.round_report()
        assert set(report) == {"tree_decomposition", "distance_labeling"}
        assert all(v > 0 for v in report.values())


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through any ``repro`` module binding it."""
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestArtefactReuse:
    """Every artefact is built once per solver; ``girth()`` reuses the cached ones."""

    def test_pipeline_builds_decomposition_and_labeling_once(self, monkeypatch, weighted_instance):
        assert not is_symmetric(weighted_instance)
        decompositions = _count_calls(
            monkeypatch, "repro.decomposition.tree_decomposition", "build_tree_decomposition"
        )
        labelings = _count_calls(
            monkeypatch, "repro.labeling.construction", "build_distance_labeling"
        )
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        solver.distance_labeling()
        solver.single_source_shortest_paths(weighted_instance.nodes()[0])
        result = solver.girth()
        assert result.method == "directed"
        assert len(decompositions) == 1
        assert len(labelings) == 1

    def test_directed_girth_equals_standalone(self, weighted_instance):
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        solver.distance_labeling()
        got = solver.girth()
        want = directed_girth(weighted_instance, config=FrameworkConfig(seed=3))
        assert (got.girth, got.rounds) == (want.girth, want.rounds)
        assert got.ledger.breakdown() == want.ledger.breakdown()
        assert got.girth == exact_girth_directed(weighted_instance)

    def test_symmetric_girth_reuses_decomposition(self, monkeypatch):
        g = generators.with_random_weights(generators.cycle_with_chords(12, 3, seed=4), 1, 9, seed=5)
        decompositions = _count_calls(
            monkeypatch, "repro.decomposition.tree_decomposition", "build_tree_decomposition"
        )
        solver = LowTreewidthSolver.from_undirected(g, seed=6)
        solver.tree_decomposition()
        result = solver.girth()
        assert result.method == "undirected"
        assert len(decompositions) == 1
        assert result.girth >= exact_girth_undirected(g) - 1e-9

    def test_labeling_builds_one_subgraph_per_decomposition_node(
        self, monkeypatch, weighted_instance
    ):
        # A leaf induces G_x for its local APSP, an internal node induces B_x
        # for H_x's direct edges; nothing else re-reads the instance.
        original = WeightedDiGraph.subgraph
        calls = []

        def counted(self, nodes):
            calls.append(frozenset(nodes))
            return original(self, nodes)

        monkeypatch.setattr(WeightedDiGraph, "subgraph", counted)
        solver = LowTreewidthSolver(weighted_instance, seed=3)
        td = solver.tree_decomposition().decomposition
        solver.distance_labeling()
        leaves = [n for n in td.nodes.values() if n.is_leaf or not n.children]
        internal = [n for n in td.nodes.values() if n.children and not n.is_leaf]
        assert len(leaves) > 1 and internal
        expected = [n.graph_vertices for n in leaves] + [n.bag for n in internal]
        assert sorted(calls, key=sorted) == sorted(expected, key=sorted)


def _relabeled(graph, name):
    relabeled = Graph(nodes=[name(u) for u in graph.nodes()])
    for u, v in graph.edges():
        relabeled.add_edge(name(u), name(v))
    return relabeled


def _adversarial_instance(family, seed, n=30):
    base = generators.partial_k_tree(n, 2, seed=seed)

    def weigh(graph, low=1, high=9, orientation="asymmetric"):
        return generators.to_directed_instance(
            graph, weight_range=(low, high), orientation=orientation, seed=seed
        )

    if family == "zero_weights":
        return weigh(base, low=0, high=2)
    if family == "parallel_arcs":
        instance = weigh(base)
        rng = random.Random(seed)
        for e in list(instance.edges())[::3]:
            instance.add_edge(e.tail, e.head, weight=rng.randint(1, 9))
        return instance
    if family == "weight_ties":
        return weigh(base, low=1, high=2, orientation="both")
    if family == "string_ids":
        return weigh(_relabeled(base, lambda u: f"v{u}"), orientation="random")
    if family == "tuple_ids":
        return weigh(_relabeled(base, lambda u: (u % 3, u)))
    if family == "mixed_ids":
        return weigh(
            _relabeled(base, lambda u: u if u % 2 else f"s{u}"), orientation="both"
        )
    assert family == "hub_fan"
    fan = generators.star_graph(n)
    for i in range(1, n - 1):
        fan.add_edge(i, i + 1)
    return weigh(fan, orientation="random")


class TestAdversarialFamilies:
    """Inputs off the generators' beaten path, checked against the oracles."""

    @pytest.mark.parametrize(
        "family",
        ["zero_weights", "parallel_arcs", "weight_ties", "string_ids",
         "tuple_ids", "mixed_ids", "hub_fan"],
    )
    def test_solver_matches_oracles(self, family, master_seed):
        instance = _adversarial_instance(family, master_seed)
        solver = LowTreewidthSolver(instance, seed=master_seed)
        nodes = sorted(instance.nodes(), key=str)
        for source in nodes[:3]:
            want = dijkstra(instance, source)
            got = solver.single_source_shortest_paths(source).distances
            for v in nodes:
                assert got[v] == want.get(v, math.inf), (source, v)
        rng = random.Random(master_seed)
        for _ in range(15):
            u, v = rng.choice(nodes), rng.choice(nodes)
            want = dijkstra(instance, u).get(v, math.inf)
            assert solver.pairwise_distance(u, v) == want, (u, v)
        if is_symmetric(instance):
            want_girth = exact_girth_undirected(
                instance.underlying_weighted_graph()
            )
        else:
            want_girth = exact_girth_directed(instance)
        assert solver.girth().girth == want_girth
