"""Tests for the product graph G_C and the Lemma 5 correspondence."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FrameworkConfig
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.decomposition.validation import tree_decomposition_violations
from repro.errors import ConstraintError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.walks.constraints import (
    INITIAL_STATE,
    REJECT_STATE,
    ColoredWalkConstraint,
    CountWalkConstraint,
    walk_state,
)
from repro.walks.product import (
    build_product_graph,
    lift_tree_decomposition,
    shortest_constrained_walk,
)


def _colored_instance(seed=0, n=20):
    g = generators.partial_k_tree(n, 2, seed=seed)
    inst = generators.to_directed_instance(g, weight_range=(1, 5), orientation="both", seed=seed + 1)
    rng = random.Random(seed)
    for e in inst.edges():
        inst.set_label(e.eid, rng.choice(["r", "b"]))
    return inst


class TestConstruction:
    def test_node_and_edge_counts(self):
        inst = _colored_instance()
        constraint = ColoredWalkConstraint(["r", "b"])
        product = build_product_graph(inst, constraint)
        q = constraint.state_count()
        assert product.graph.num_nodes() == q * inst.num_nodes()
        # |Q| product edges per input edge + (|Q|-1) structural edges per node.
        expected = q * inst.num_edges() + (q - 1) * inst.num_nodes()
        assert product.graph.num_edges() == expected

    def test_structural_edges_lead_to_reject_only(self):
        inst = _colored_instance()
        product = build_product_graph(inst, ColoredWalkConstraint(["r", "b"]))
        for eid, origin in product.edge_origin.items():
            e = product.graph.edge(eid)
            if origin is None:
                assert e.head[1] == REJECT_STATE
                assert e.tail[0] == e.head[0]
                assert e.weight == 0.0

    def test_diameter_of_product_comm_graph_close_to_base(self):
        from repro.graphs.properties import diameter

        inst = _colored_instance(n=16)
        product = build_product_graph(inst, ColoredWalkConstraint(["r", "b"]))
        base_d = diameter(inst.underlying_graph())
        prod_d = diameter(product.graph.underlying_graph())
        assert prod_d <= base_d + 2


class TestLemma5Correspondence:
    def test_shortest_colored_walk_matches_bruteforce(self):
        inst = _colored_instance(seed=3, n=12)
        constraint = ColoredWalkConstraint(["r", "b"])
        product = build_product_graph(inst, constraint)
        nodes = inst.nodes()
        s, t = nodes[0], nodes[-1]
        result = shortest_constrained_walk(product, s, t, ("color", "r"))
        brute = _brute_force_constrained_distance(inst, constraint, s, t, ("color", "r"))
        if result is None:
            assert math.isinf(brute)
        else:
            length, edges = result
            assert abs(length - brute) < 1e-9
            # The returned walk must genuinely satisfy the constraint and end in state r.
            assert walk_state(constraint, edges) == ("color", "r")
            assert edges[0].tail == s and edges[-1].head == t
            assert abs(sum(e.weight for e in edges) - length) < 1e-9

    def test_reject_state_not_queryable(self):
        inst = _colored_instance(n=10)
        product = build_product_graph(inst, ColoredWalkConstraint(["r", "b"]))
        with pytest.raises(ConstraintError):
            shortest_constrained_walk(product, inst.nodes()[0], inst.nodes()[1], REJECT_STATE)


def _brute_force_constrained_distance(instance, constraint, source, target, target_state, max_len=8):
    """Exhaustive search over walks of bounded edge count (test oracle)."""
    best = math.inf
    frontier = [(0.0, source, INITIAL_STATE)]
    # Dijkstra-like BFS over (vertex, state) using the constraint directly —
    # independent of the product-graph construction under test.
    import heapq

    dist = {(source, INITIAL_STATE): 0.0}
    heap = [(0.0, 0, source, INITIAL_STATE)]
    counter = 0
    while heap:
        d, _, u, q = heapq.heappop(heap)
        if d > dist.get((u, q), math.inf):
            continue
        if u == target and q == target_state:
            best = min(best, d)
        for e in instance.out_edges(u):
            nq = constraint.delta(q, e)
            if nq == REJECT_STATE:
                continue
            nd = d + e.weight
            if nd < dist.get((e.head, nq), math.inf):
                dist[(e.head, nq)] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head, nq))
    return best


class TestDecompositionLifting:
    def test_lifted_decomposition_is_valid_for_product_graph(self, config):
        inst = _colored_instance(seed=5, n=18)
        constraint = ColoredWalkConstraint(["r", "b"])
        comm = inst.underlying_graph()
        base = build_tree_decomposition(comm, config=config)
        lifted = lift_tree_decomposition(base, constraint)
        product = build_product_graph(inst, constraint)
        accepting = product.accepting_graph()
        assert set(accepting.nodes()) == {
            (v, q) for v in inst.nodes() for q in constraint.accepting_states()
        }
        violations = tree_decomposition_violations(
            accepting.underlying_graph(), lifted.decomposition
        )
        assert violations == []
        # Each vertex becomes its |Q| − 1 accepting copies: width (|Q|−1)·(width+1) − 1.
        q = constraint.state_count()
        assert lifted.decomposition.width() == (q - 1) * (base.decomposition.width() + 1) - 1
        # The width guess keeps the full |Q| (Theorem 3's factor).
        assert lifted.width_guess == base.width_guess * q


@given(st.integers(min_value=6, max_value=16), st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_count_walk_product_distances_match_oracle(n, seed):
    """Property: product-graph shortest constrained walks match a direct state-space search."""
    g = generators.partial_k_tree(n, 2, seed=seed)
    inst = generators.to_directed_instance(g, weight_range=(1, 4), orientation="both", seed=seed + 1)
    rng = random.Random(seed)
    for e in inst.edges():
        inst.set_label(e.eid, 1 if rng.random() < 0.3 else 0)
    constraint = CountWalkConstraint(1)
    product = build_product_graph(inst, constraint)
    nodes = inst.nodes()
    s, t = nodes[0], nodes[-1]
    target = constraint.exact_target_state()
    result = shortest_constrained_walk(product, s, t, target)
    oracle = _brute_force_constrained_distance(inst, constraint, s, t, target)
    if result is None:
        assert math.isinf(oracle)
    else:
        assert abs(result[0] - oracle) < 1e-9
