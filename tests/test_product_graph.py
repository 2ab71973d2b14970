"""Tests for the product graph G_C − ⊥ and the Lemma 5 correspondence."""

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
from repro.walks.cdl import build_constrained_labeling
from repro.walks.constraints import (
    REJECT_STATE,
    AlternatingWalkConstraint,
    ColoredWalkConstraint,
    CountWalkConstraint,
    walk_state,
)
from repro.walks.product import (
    build_product_graph,
    lift_tree_decomposition,
    shortest_constrained_walk,
)
from walk_oracle import constrained_distances


def _colored_instance(seed=0, n=20):
    g = generators.partial_k_tree(n, 2, seed=seed)
    inst = generators.to_directed_instance(g, weight_range=(1, 5), orientation="both", seed=seed + 1)
    rng = random.Random(seed)
    for e in inst.edges():
        inst.set_label(e.eid, rng.choice(["r", "b"]))
    return inst


def _constraint_cases():
    """(instance, constraint) params: colored, count-1 and alternating walks."""
    colored = _colored_instance()
    counted = _colored_instance(seed=1)
    rng = random.Random(1)
    for e in counted.edges():
        counted.set_label(e.eid, 1 if rng.random() < 0.3 else 0)
    grid = generators.grid_graph(3, 5)
    alternating = WeightedDiGraph(grid.nodes())
    for u, v in grid.edges():
        alternating.add_undirected_edge(u, v)
    matching = {((0, 0), (0, 1)), ((1, 2), (2, 2))}
    return [
        pytest.param(colored, ColoredWalkConstraint(["r", "b"]), id="colored2"),
        pytest.param(counted, CountWalkConstraint(1), id="count1"),
        pytest.param(alternating, AlternatingWalkConstraint(matching), id="alternating"),
    ]


CONSTRAINT_CASES = _constraint_cases()


class _LeavesStateSet(CountWalkConstraint):
    """count-1 walks, except that δ_e leaves Q for every edge id from 100 on,
    so a check of only the first 64 edges would accept this."""

    def transition(self, state, edge):
        if edge.eid >= 100:
            return ("count", 7)
        return super().transition(state, edge)


class _LeavesReject(CountWalkConstraint):
    """count-1 walks, except that δ_e(⊥) = ("count", 0) for every edge id
    from 100 on: ⊥ is not absorbing there, and a check of only the first 64
    edges would accept this."""

    def delta(self, state, edge):
        if state == REJECT_STATE and edge.eid >= 100:
            return ("count", 0)
        return super().delta(state, edge)


def _labelled_grid_4x20():
    grid = generators.grid_graph(4, 20)
    inst = WeightedDiGraph(grid.nodes())
    for u, v in grid.edges():
        inst.add_undirected_edge(u, v, label=0)
    assert inst.num_edges() == 272
    return inst


class TestConstruction:
    @pytest.mark.parametrize("inst, constraint", CONSTRAINT_CASES)
    def test_accepting_copies_and_arcs(self, inst, constraint):
        product = build_product_graph(inst, constraint)
        accepting = constraint.accepting_states()
        assert product.graph.num_nodes() == (constraint.state_count() - 1) * inst.num_nodes()
        assert set(product.graph.nodes()) == {(v, q) for v in inst.nodes() for q in accepting}
        # One arc per (e, q ≠ ⊥) with δ_e(q) ≠ ⊥; no ⊥ copy, no give-up arc.
        expected = [
            (e.eid, (e.tail, q), (e.head, constraint.delta(q, e)))
            for e in inst.edges()
            for q in accepting
            if constraint.delta(q, e) != REJECT_STATE
        ]
        assert product.graph.num_edges() == len(expected)
        got = [(product.edge_origin[pe.eid], pe.tail, pe.head) for pe in product.graph.edges()]
        assert sorted(got, key=repr) == sorted(expected, key=repr)
        assert set(product.edge_origin) == {pe.eid for pe in product.graph.edges()}
        for pe in product.graph.edges():
            origin = product.edge_origin[pe.eid]
            assert isinstance(origin, int)
            base = inst.edge(origin)
            assert (pe.tail[0], pe.head[0]) == (base.tail, base.head)
            assert (pe.weight, pe.label) == (base.weight, base.label)

    @pytest.mark.parametrize("inst, constraint", CONSTRAINT_CASES)
    def test_out_edges_follow_instance_order(self, inst, constraint):
        """(v, q) lists (e.head, δ_e(q)) for e in ``instance.out_edges(v)``, in
        that order, ⊥ skipped: the order that matching's tie-breaks follow."""
        product = build_product_graph(inst, constraint)
        for v in inst.nodes():
            for q in constraint.accepting_states():
                want = [
                    (e.eid, (e.head, constraint.delta(q, e)))
                    for e in inst.out_edges(v)
                    if constraint.delta(q, e) != REJECT_STATE
                ]
                got = [
                    (product.edge_origin[pe.eid], pe.head)
                    for pe in product.graph.out_edges((v, q))
                ]
                assert got == want, (v, q)

    @pytest.mark.parametrize(
        "build", [build_product_graph, build_constrained_labeling], ids=["product", "cdl"]
    )
    def test_transition_leaving_the_state_set_is_refused(self, build):
        inst = _labelled_grid_4x20()
        constraint = _LeavesStateSet(1)
        with pytest.raises(ConstraintError, match="leaves the state set"):
            build(inst, constraint)

    @pytest.mark.parametrize(
        "build", [build_product_graph, build_constrained_labeling], ids=["product", "cdl"]
    )
    def test_reject_state_not_absorbing_is_refused(self, build):
        """G_C − ⊥ loses no walk only if ⊥ is absorbing, so every edge's
        δ_e(⊥) is checked, not only the first 64."""
        inst = _labelled_grid_4x20()
        constraint = _LeavesReject(1)
        with pytest.raises(ConstraintError, match="absorbing"):
            build(inst, constraint)

    def test_state_set_without_the_special_states_is_refused(self):
        class NoSpecials(CountWalkConstraint):
            def states(self):
                return [("count", i) for i in range(self.budget + 1)]

        with pytest.raises(ConstraintError, match="must contain"):
            build_product_graph(_labelled_grid_4x20(), NoSpecials(1))


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


def _brute_force_constrained_distance(instance, constraint, source, target, target_state):
    """The C(q)-distance from the (vertex, state) Dijkstra of ``walk_oracle``,
    which is independent of the product-graph construction under test."""
    return constrained_distances(instance, constraint, source).get(
        (target, target_state), math.inf
    )


class TestDecompositionLifting:
    def test_lifted_decomposition_is_valid_for_product_graph(self, config):
        inst = _colored_instance(seed=5, n=18)
        constraint = ColoredWalkConstraint(["r", "b"])
        comm = inst.underlying_graph()
        base = build_tree_decomposition(comm, config=config)
        lifted = lift_tree_decomposition(base, constraint)
        product = build_product_graph(inst, constraint)
        violations = tree_decomposition_violations(
            product.graph.underlying_graph(), lifted.decomposition
        )
        assert violations == []
        # Each vertex becomes its |Q| − 1 accepting copies: width (|Q|−1)·(width+1) − 1.
        q = constraint.state_count()
        assert lifted.decomposition.width() == (q - 1) * (base.decomposition.width() + 1) - 1
        # The width guess keeps the full |Q| (Theorem 3's factor).
        assert lifted.width_guess == base.width_guess * q
        # The lift is local: it charges no rounds of its own or of the base.
        assert lifted.rounds == 0 and lifted.ledger.total() == 0
        assert base.rounds > 0


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
