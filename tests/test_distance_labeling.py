"""Tests for the distance-labeling construction (Theorem 2): exactness is the headline claim."""

import hashlib
import math
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from test_api import _adversarial_instance

from repro.core.config import FrameworkConfig
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.properties import dijkstra
from repro.labeling.construction import _apsp_rows, _hub_row, build_distance_labeling
from repro.walks.cdl import build_constrained_labeling
from repro.walks.constraints import ColoredWalkConstraint, CountWalkConstraint
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


def _label_digest(labeling, rounds):
    """sha256 over every stored entry's bits, in ``repr`` order, plus ``rounds``."""
    h = hashlib.sha256()
    for v in sorted(labeling.vertices(), key=repr):
        lab = labeling.label(v)
        for s in sorted(lab.to_dist, key=repr):
            h.update(
                f"{v!r}|{s!r}|{float.hex(lab.to_dist[s])}|{float.hex(lab.from_dist[s])}\n".encode()
            )
    h.update(f"rounds|{rounds}".encode())
    return h.hexdigest()


def _fractional_ktree_digest():
    """Partial 3-tree: u→v weighs [0, 10), a reverse arc of [0, 1/3) kept w.p. 0.7."""
    rng = random.Random(11)
    graph = generators.partial_k_tree(300, 3, seed=3)
    instance = WeightedDiGraph(graph.nodes())
    for u, v in graph.edges():
        instance.add_edge(u, v, weight=rng.random() * 10)
        if rng.random() < 0.7:
            instance.add_edge(v, u, weight=rng.random() / 3)
    result = build_distance_labeling(instance, config=FrameworkConfig(seed=5))
    return _label_digest(result.labeling, result.rounds)


def _count1_cdl_digest():
    """The count-1 CDL of a 4×8 grid with fractional weights and 0/1 labels."""
    rng = random.Random(11)
    grid = generators.grid_graph(4, 8)
    instance = WeightedDiGraph(grid.nodes())
    for u, v in grid.edges():
        instance.add_undirected_edge(u, v, weight=rng.random() * 10, label=rng.randrange(2))
    cdl = build_constrained_labeling(
        instance, CountWalkConstraint(1), config=FrameworkConfig(seed=5)
    )
    return _label_digest(cdl.labeling._labeling, cdl.rounds)


def _parallel_zero_arcs_digest():
    """Partial 2-tree, both directions: 30% zero weights, 40% extra parallel arcs."""
    rng = random.Random(11)
    graph = generators.partial_k_tree(150, 2, seed=7)
    instance = WeightedDiGraph(graph.nodes())
    for u, v in graph.edges():
        for tail, head in ((u, v), (v, u)):
            instance.add_edge(tail, head, weight=0.0 if rng.random() < 0.3 else rng.random() * 5)
            if rng.random() < 0.4:
                instance.add_edge(tail, head, weight=rng.random() * 5)
    result = build_distance_labeling(instance, config=FrameworkConfig(seed=5))
    return _label_digest(result.labeling, result.rounds)


class TestBitExact:
    """Stored label bits are pinned, not only compared to Dijkstra within 1e-9.

    With fractional weights, two summation orders of one walk can round
    differently, so a change to how local shortest paths are computed can
    move a label's last bits while every tolerance check still passes.
    Re-pin the literals only in a change that means to alter label bits.
    """

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                _fractional_ktree_digest,
                "fa7681572602615dd0d3635ff2436f3f0cc4708621d2113997646c4005984a9c",
            ),
            (
                _count1_cdl_digest,
                "6941b35a818871f81e6ab86a6ee1d0f70ae14ed60d713e69eb8ee579e1ca3fff",
            ),
            (
                _parallel_zero_arcs_digest,
                "38dfe8b546ca1f036dbdc8e108aac9cb3bc88c854cc994b7a29723d64a1a9b88",
            ),
        ],
        ids=["fractional_ktree", "count1_cdl_grid", "parallel_zero_arcs"],
    )
    def test_label_digest_is_pinned(self, build, digest):
        assert build() == digest


def _random_digraph(rng, n, m):
    """Zero, fractional and parallel arcs on ``range(n)``, one-way, plus a sink ``n``."""
    graph = WeightedDiGraph(range(n + 1))
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        weight = 0.0 if rng.random() < 0.2 else rng.random() * rng.choice((1, 10, 1000))
        graph.add_edge(u, v, weight=weight)
        if rng.random() < 0.25:
            graph.add_edge(u, v, weight=rng.random() * 10)
    graph.add_edge(rng.randrange(n), n, weight=rng.random())
    return graph


def _assert_rows_match_dijkstra(graph):
    nodes = graph.nodes()
    rows = _apsp_rows(nodes, [(e.tail, e.head, e.weight) for e in graph.edges()])
    assert len(rows) == len(nodes)
    for u, row in zip(nodes, rows):
        expected = dijkstra(graph, u)
        for v, d in zip(nodes, row):
            if v in expected:
                assert float.hex(d) == float.hex(expected[v]), (u, v)
            else:
                assert d is math.inf, (u, v)


def _reference_hub_row(row, cols, bag):
    """The Lemma 4 new-hub row taken over every boundary entry, ∞ ones included."""
    if not row:
        return dict.fromkeys(bag, math.inf)
    return {s: min(math.inf, min(map(add, row, col))) for s, col in cols}


def _assert_same_hub_row(got, want):
    assert list(got) == list(want)
    for s, d in want.items():
        assert float.hex(got[s]) == float.hex(d), s
        if d is math.inf:
            assert got[s] is math.inf, s


class TestLocalHelpers:
    """The index-row APSP and the Lemma 4 row helper against their references."""

    @pytest.mark.parametrize(
        "n, m", [(1, 0), (1, 3), (2, 1), (6, 9), (12, 30), (25, 60), (40, 200)]
    )
    def test_apsp_rows_match_dijkstra(self, n, m, master_seed):
        _assert_rows_match_dijkstra(_random_digraph(random.Random(master_seed * 97 + n), n, m))

    def test_apsp_rows_single_vertex_and_sink(self):
        _assert_rows_match_dijkstra(WeightedDiGraph(["only"]))
        graph = WeightedDiGraph()
        graph.add_edge("a", "b", weight=0.1)
        graph.add_edge("b", "a", weight=0.2)
        graph.add_edge("b", "sink", weight=0.3)
        _assert_rows_match_dijkstra(graph)

    def test_hub_row_matches_reference(self):
        inf = math.inf
        bag = frozenset([0, 1, 2, (3, "q"), "s", 5])
        values = {
            0: [0.5, inf, 1.25, 0.0], 1: [inf, inf, inf, inf], 2: [0.1, 0.2, 0.3, 0.4],
            (3, "q"): [inf, 7.5, inf, 0.3], "s": [2.2, 0.0, inf, 1e-9], 5: [0.7, 0.7, 0.7, inf],
        }
        cols = [(s, values[s]) for s in bag]
        rows = [
            [0.5, 1.25, 3.0, 0.0],  # no ∞
            [inf, 2.5, inf, 0.1],  # some ∞ ...
            [inf, 0.7, inf, 9.3],  # ... twice more with the same pattern
            [inf, 1e-3, inf, 0.25],
            [inf, inf, inf, 0.3],  # its only finite entry meets ∞ and finite columns
            [inf, inf, inf, inf],  # all ∞
        ]
        compressed = {}
        for row in rows:
            got = _hub_row(row, cols, compressed, bag)
            _assert_same_hub_row(got, _reference_hub_row(row, cols, bag))
        assert {(1, 3), (3,)} <= set(compressed)
        empty = [(s, []) for s in bag]  # the child graph does not touch the bag
        _assert_same_hub_row(_hub_row([], empty, {}, bag), _reference_hub_row([], empty, bag))

    def test_hub_row_matches_reference_on_random_rows(self, master_seed):
        rng = random.Random(master_seed)
        bag = frozenset(range(9))

        def entry(p_inf):
            return math.inf if rng.random() < p_inf else rng.random() * rng.choice((1, 100))

        for width in range(7):
            cols = [(s, [entry(0.2) for _ in range(width)]) for s in bag]
            patterns = [[rng.random() < 0.4 for _ in range(width)] for _ in range(3)]
            compressed = {}
            for _ in range(20):
                row = [math.inf if cut else entry(0) for cut in rng.choice(patterns)]
                got = _hub_row(row, cols, compressed, bag)
                _assert_same_hub_row(got, _reference_hub_row(row, cols, bag))


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


# --------------------------------------------------------------------------- #
# Labels after churn: labels are static, so a changed instance is rebuilt
# --------------------------------------------------------------------------- #
INF = math.inf


def _mesh(seed: int):
    return generators.partial_k_tree(24, 3, seed=seed)


def _instance(graph, seed: int):
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=seed
    )


def _set_arc(instance, tail, head, weight):
    """Replace every tail -> head arc by one of ``weight`` (no arc for inf)."""
    for e in [x for x in instance.out_edges(tail) if x.head == head]:
        instance.remove_edge(e.eid)
    if weight != INF:
        instance.add_edge(tail, head, weight)


class TestRebuildAfterChurn:
    def _assert_rebuild_exact(self, instance):
        labeling = build_distance_labeling(instance).labeling
        for s in instance.nodes():
            oracle = dijkstra(instance, s)
            for t in instance.nodes():
                assert labeling.distance(s, t) == oracle.get(t, INF), (s, t)

    @staticmethod
    def _forward_arcs(instance):
        # One arc per antiparallel pair, so a removal never takes both
        # directions and the communication graph stays connected.
        return sorted(
            (e.tail, e.head, e.weight) for e in instance.edges() if e.tail < e.head
        )

    @pytest.mark.parametrize("kind", ["decrease", "increase", "removal", "reinsert"])
    def test_rebuild_after_update_matches_dijkstra(self, kind, master_seed):
        instance = _instance(_mesh(29), 30)
        rng = random.Random(master_seed)
        for tail, head, weight in rng.sample(self._forward_arcs(instance), 4):
            if kind == "decrease":
                _set_arc(instance, tail, head, weight / 4)
            elif kind == "increase":
                _set_arc(instance, tail, head, weight + 20.0)
            elif kind == "removal":
                _set_arc(instance, tail, head, INF)
            else:
                _set_arc(instance, tail, head, INF)
                _set_arc(instance, tail, head, float(rng.randint(1, 9)))
        self._assert_rebuild_exact(instance)

    def test_rebuild_after_each_step_of_a_churn_sequence(self, master_seed):
        instance = _instance(_mesh(31), 32)
        rng = random.Random(master_seed + 1)
        arcs = [(tail, head) for tail, head, _ in self._forward_arcs(instance)]
        removed = set()
        for _ in range(8):
            tail, head = rng.choice(arcs)
            if (tail, head) in removed:
                weight = float(rng.randint(1, 9))
                removed.discard((tail, head))
            else:
                weight = rng.choice([0.5, 2.0, 7.0, 20.0, INF])
                if weight == INF:
                    removed.add((tail, head))
            _set_arc(instance, tail, head, weight)
            self._assert_rebuild_exact(instance)
