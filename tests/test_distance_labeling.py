"""Tests for the distance-labeling construction (Theorem 2): exactness is the headline claim."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_api import _adversarial_instance

from repro.core.config import FrameworkConfig
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.properties import dijkstra
from repro.labeling.construction import build_distance_labeling
from repro.walks.constraints import ColoredWalkConstraint
from repro.walks.product import build_product_graph, lift_tree_decomposition


def _assert_exact(instance, labeling, sources=None, tol=1e-9):
    nodes = instance.nodes()
    sources = sources if sources is not None else nodes
    for u in sources:
        expected = dijkstra(instance, u)
        for v in nodes:
            got = labeling.distance(u, v)
            want = expected.get(v, math.inf)
            assert (math.isinf(got) and math.isinf(want)) or abs(got - want) < tol, (
                f"d({u!r},{v!r}) = {got}, expected {want}"
            )


class TestExactness:
    def test_directed_asymmetric_partial_k_tree(self, config):
        g = generators.partial_k_tree(50, 3, seed=3)
        inst = generators.to_directed_instance(g, weight_range=(1, 9), orientation="asymmetric", seed=4)
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling, sources=inst.nodes()[:12])

    def test_randomly_oriented_instance_with_unreachable_pairs(self, config):
        g = generators.partial_k_tree(40, 2, seed=5)
        inst = generators.to_directed_instance(g, weight_range=(1, 5), orientation="random", seed=6)
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling, sources=inst.nodes()[:12])

    def test_undirected_grid(self, config):
        g = generators.with_random_weights(generators.grid_graph(5, 8), 1, 7, seed=7)
        inst = WeightedDiGraph.from_undirected(g)
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling, sources=inst.nodes()[:10])

    def test_unit_weight_cycle(self, config):
        inst = generators.to_directed_instance(generators.cycle_graph(20), orientation="both")
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling)

    def test_tree_instance(self, config):
        g = generators.with_random_weights(generators.random_tree(35, seed=8), 1, 4, seed=9)
        inst = WeightedDiGraph.from_undirected(g)
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling, sources=inst.nodes()[:10])

    def test_multigraph_parallel_edges(self, config):
        inst = generators.to_directed_instance(generators.cycle_graph(12), orientation="both")
        # Add heavier parallel edges that must never shorten any distance.
        for e in list(inst.edges())[:6]:
            inst.add_edge(e.tail, e.head, weight=e.weight + 10)
        result = build_distance_labeling(inst, config=config)
        _assert_exact(inst, result.labeling)


def _assert_entries_exact(instance, decomposition, labeling):
    """Every stored entry is exact: d(u, s) and d(s, u) for each hub s ∈ B↑(u)."""
    from_hub = {}
    for u in instance.nodes():
        lab = labeling.label(u)
        hubs = decomposition.upward_bag_union(u)
        assert set(lab.to_dist) == set(lab.from_dist) == hubs, u
        to_u = dijkstra(instance, u)
        for s in hubs:
            if s not in from_hub:
                from_hub[s] = dijkstra(instance, s)
            assert lab.to_dist[s] == to_u.get(s, math.inf), (u, s)
            assert lab.from_dist[s] == from_hub[s].get(u, math.inf), (s, u)


class TestStoredEntries:
    """Each stored entry, not only each decoded distance, equals Dijkstra."""

    @pytest.mark.parametrize(
        "family, n",
        [("zero_weights", 60), ("parallel_arcs", 60), ("weight_ties", 60),
         ("string_ids", 60), ("tuple_ids", 60), ("mixed_ids", 60), ("hub_fan", 200)],
    )
    def test_adversarial_families(self, family, n, master_seed):
        instance = _adversarial_instance(family, master_seed, n=n)
        result = build_distance_labeling(instance, config=FrameworkConfig(seed=master_seed))
        _assert_entries_exact(instance, result.decomposition, result.labeling)

    @pytest.mark.parametrize("orientation", ["asymmetric", "random"])
    def test_grid_and_partial_3_tree(self, orientation, master_seed):
        ktree = generators.partial_k_tree(60, 3, seed=master_seed)
        for graph in (generators.grid_graph(5, 60), ktree):
            instance = generators.to_directed_instance(
                graph, weight_range=(0, 9), orientation=orientation, seed=master_seed
            )
            result = build_distance_labeling(instance, config=FrameworkConfig(seed=master_seed))
            _assert_entries_exact(instance, result.decomposition, result.labeling)

    def test_product_graph_labeling(self, master_seed):
        base = generators.to_directed_instance(
            generators.partial_k_tree(24, 2, seed=master_seed), weight_range=(0, 6),
            orientation="asymmetric", seed=master_seed,
        )
        rng = random.Random(master_seed)
        for e in base.edges():
            base.set_label(e.eid, rng.choice("rb"))
        constraint = ColoredWalkConstraint(["r", "b"])
        config = FrameworkConfig(seed=master_seed)
        decomposition = build_tree_decomposition(base.underlying_graph(), config=config)
        product = build_product_graph(base, constraint)
        lifted = lift_tree_decomposition(decomposition, constraint)
        result = build_distance_labeling(product.graph, decomposition=lifted, config=config)
        _assert_entries_exact(product.graph, lifted.decomposition, result.labeling)


class TestLabelSizeAndRounds:
    def test_label_entries_grow_with_width_not_n(self, config):
        small = generators.partial_k_tree(60, 3, seed=1)
        large = generators.partial_k_tree(240, 3, seed=2)
        inst_small = generators.to_directed_instance(small, orientation="both", weight_range=(1, 5), seed=3)
        inst_large = generators.to_directed_instance(large, orientation="both", weight_range=(1, 5), seed=4)
        res_small = build_distance_labeling(inst_small, config=FrameworkConfig(seed=1))
        res_large = build_distance_labeling(inst_large, config=FrameworkConfig(seed=1))
        # Õ(τ² log n) entries: quadrupling n must not quadruple the label size.
        assert res_large.labeling.max_entries() <= 4 * res_small.labeling.max_entries()
        assert res_large.labeling.max_entries() < large.num_nodes()

    def test_rounds_reported_and_ledger_totals(self, weighted_instance, config):
        result = build_distance_labeling(weighted_instance, config=config)
        assert result.rounds == result.ledger.total()
        assert result.rounds >= result.decomposition_rounds > 0

    def test_reuses_supplied_decomposition(self, weighted_instance, config):
        comm = weighted_instance.underlying_graph()
        decomposition = build_tree_decomposition(comm, config=config)
        result = build_distance_labeling(weighted_instance, decomposition=decomposition, config=config)
        assert result.decomposition is decomposition.decomposition
        _assert_exact(weighted_instance, result.labeling, sources=weighted_instance.nodes()[:8])


class TestErrors:
    def test_empty_instance_rejected(self, config):
        with pytest.raises(GraphError):
            build_distance_labeling(WeightedDiGraph(), config=config)

    def test_disconnected_communication_graph_rejected(self, config):
        inst = WeightedDiGraph()
        inst.add_edge(1, 2)
        inst.add_node(99)
        with pytest.raises(GraphError):
            build_distance_labeling(inst, config=config)


@given(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=12, deadline=None)
def test_labeling_exact_on_random_instances(n, k, seed):
    """Property: decoded distances equal Dijkstra distances on random instances."""
    g = generators.partial_k_tree(max(n, k + 2), k, seed=seed)
    inst = generators.to_directed_instance(g, weight_range=(1, 8), orientation="asymmetric", seed=seed + 1)
    result = build_distance_labeling(inst, config=FrameworkConfig(seed=seed))
    nodes = inst.nodes()
    sample = nodes[:: max(1, len(nodes) // 5)]
    _assert_exact(inst, result.labeling, sources=sample)
