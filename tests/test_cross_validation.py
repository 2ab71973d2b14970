"""Property-style cross-validation of simulator outputs against centralized oracles.

Every check runs a *distributed* (or framework) computation on a seeded random
instance and compares against the corresponding centralized reference from
:mod:`repro.graphs.properties`, :mod:`repro.girth.baselines` and
:mod:`repro.baselines.reference` — so protocol bugs surface on fresh random
instances without hand-built fixtures.  All randomness derives from the
session ``--seed``.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.reference import graph_to_networkx, reference_matching_size
from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.network import CongestNetwork
from repro.congest.primitives import build_bfs_tree
from repro.core.config import FrameworkConfig
from repro.errors import ReproError
from repro.girth.baselines import exact_girth_directed, exact_girth_undirected
from repro.girth.girth import directed_girth, undirected_girth
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter, dijkstra
from repro.labeling.construction import build_distance_labeling
from repro.labeling.sssp import measured_label_broadcast, single_source_shortest_paths
from repro.matching.bipartite import maximum_bipartite_matching


def _instances(rng, count, n_range=(16, 42), k_range=(2, 3)):
    """Yield ``count`` seeded (graph, instance) pairs of low-treewidth families."""
    for _ in range(count):
        n = rng.randint(*n_range)
        k = rng.randint(*k_range)
        graph = generators.partial_k_tree(n, k, seed=rng.randrange(1 << 30))
        instance = generators.to_directed_instance(
            graph,
            weight_range=(1, 9),
            orientation=rng.choice(["both", "asymmetric"]),
            seed=rng.randrange(1 << 30),
        )
        yield graph, instance


class TestSSSPCrossValidation:
    def test_bellman_ford_matches_dijkstra(self, rng):
        for graph, instance in _instances(rng, 8):
            source = min(graph.nodes(), key=str)
            bf = distributed_bellman_ford(instance, source)
            ref = dijkstra(instance, source)
            for v in graph.nodes():
                assert bf.distances[v] == pytest.approx(ref.get(v, math.inf)), (
                    f"BF mismatch at {v!r} (n={graph.num_nodes()})"
                )

    def test_labeling_sssp_matches_dijkstra(self, rng, config):
        for graph, instance in _instances(rng, 4, n_range=(14, 30)):
            labeling = build_distance_labeling(instance, config=config)
            source = min(graph.nodes(), key=str)
            sssp = single_source_shortest_paths(labeling.labeling, source)
            ref = dijkstra(instance, source)
            for v in graph.nodes():
                assert sssp.distances[v] == pytest.approx(ref.get(v, math.inf))

    def test_simulated_label_broadcast_matches_dijkstra(self, rng, config):
        """The engine-executed la(s) broadcast decodes the exact distances."""
        for graph, instance in _instances(rng, 3, n_range=(14, 26)):
            labeling = build_distance_labeling(instance, config=config)
            source = min(graph.nodes(), key=str)
            network = CongestNetwork(instance.underlying_graph())
            sim = measured_label_broadcast(network, labeling.labeling, source)
            assert sim.halted
            ref = dijkstra(instance, source)
            for v in graph.nodes():
                assert sim.outputs[v] == pytest.approx(ref.get(v, math.inf))
            # Pipelined flooding: D + #chunks rounds, up to queueing slack.
            d = diameter(graph, exact=True)
            entries = labeling.labeling.label(source).num_entries()
            assert sim.rounds <= d * (entries + 2) + entries + 2


class TestBFSCrossValidation:
    def test_bfs_depths_match_hop_distances(self, rng):
        for _ in range(6):
            n = rng.randint(12, 40)
            graph = generators.partial_k_tree(n, 3, seed=rng.randrange(1 << 30))
            network = CongestNetwork(graph)
            root = min(graph.nodes(), key=str)
            _, depth, result = build_bfs_tree(network, root)
            assert depth == graph.bfs_layers(root)
            assert result.rounds <= max(depth.values()) + 1


class TestMatchingCrossValidation:
    def test_matching_size_matches_hopcroft_karp(self, rng, config):
        builders = [
            lambda: generators.grid_graph(rng.randint(2, 4), rng.randint(3, 6)),
            lambda: generators.random_banded_bipartite(
                rng.randint(6, 12), rng.randint(6, 12), band=2, seed=rng.randrange(1 << 30)
            ),
            lambda: generators.subdivided_graph(
                generators.partial_k_tree(rng.randint(8, 14), 2, seed=rng.randrange(1 << 30))
            ),
        ]
        for _ in range(6):
            graph = rng.choice(builders)()
            result = maximum_bipartite_matching(graph, config=config)
            assert result.size == reference_matching_size(graph)

    def test_reference_raises_on_a_size_disagreement(self, monkeypatch):
        """The oracle's networkx cross-check must not swallow a mismatch."""
        from repro.baselines import reference

        exact = reference.hopcroft_karp_matching

        def one_short(graph):
            return set(sorted(exact(graph), key=repr)[1:])

        graph = generators.grid_graph(4, 5)
        assert reference_matching_size(graph) == 10
        monkeypatch.setattr(reference, "hopcroft_karp_matching", one_short)
        with pytest.raises(ReproError, match="networkx matches 10"):
            reference_matching_size(graph)

    def test_reference_matching_size_on_known_graphs(self):
        assert reference_matching_size(generators.path_graph(5)) == 2
        assert reference_matching_size(generators.cycle_graph(6)) == 3
        assert reference_matching_size(generators.star_graph(6)) == 1
        assert reference_matching_size(generators.grid_graph(3, 3)) == 4
        assert reference_matching_size(Graph()) == 0

    def test_graph_to_networkx_keeps_nodes_edges_and_weights(self):
        g = generators.with_random_weights(generators.partial_k_tree(25, 3, seed=1), 1, 9, seed=2)
        g.add_node("isolated")
        nxg = graph_to_networkx(g)
        assert set(nxg.nodes()) == set(g.nodes())
        assert nxg.number_of_edges() == g.num_edges()
        for u, v, w in g.weighted_edges():
            assert nxg[u][v]["weight"] == w


class TestGirthCrossValidation:
    def test_directed_girth_matches_exact(self, rng, config):
        for _ in range(3):
            n = rng.randint(10, 18)
            graph = generators.cycle_with_chords(n, rng.randint(1, 3), seed=rng.randrange(1 << 30))
            instance = generators.to_directed_instance(
                graph, weight_range=(1, 6), orientation="random", seed=rng.randrange(1 << 30)
            )
            result = directed_girth(instance, config=config)
            exact = exact_girth_directed(instance)
            if math.isinf(exact):
                assert math.isinf(result.girth)
            else:
                assert result.girth == pytest.approx(exact)

    def test_undirected_girth_matches_exact(self, rng, config):
        for _ in range(3):
            n = rng.randint(8, 14)
            graph = generators.with_random_weights(
                generators.cycle_with_chords(n, 2, seed=rng.randrange(1 << 30)),
                1,
                6,
                seed=rng.randrange(1 << 30),
            )
            result = undirected_girth(graph, config=config)
            exact = exact_girth_undirected(graph)
            assert result.girth == pytest.approx(exact)
