"""Tests for constrained distance labeling CDL(C) (Theorem 3)."""

import dataclasses
import math
import random

import pytest

from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.tree_decomposition import build_tree_decomposition
from repro.errors import ConstraintError, GraphError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.properties import dijkstra
from repro.labeling.construction import build_distance_labeling
from repro.walks.cdl import build_constrained_labeling
from repro.walks.constraints import (
    REJECT_STATE,
    ColoredWalkConstraint,
    CountWalkConstraint,
)
from repro.walks.product import (
    build_product_graph,
    lift_tree_decomposition,
    shortest_constrained_walk,
)
from walk_oracle import constrained_distances


def _instance_with_labels(n=24, seed=0, colors=("r", "b")):
    g = generators.partial_k_tree(n, 2, seed=seed)
    inst = generators.to_directed_instance(g, weight_range=(1, 6), orientation="both", seed=seed + 1)
    rng = random.Random(seed + 2)
    for e in inst.edges():
        inst.set_label(e.eid, rng.choice(colors))
    return inst


class TestConstrainedLabeling:
    def test_distances_match_product_graph_search(self, config):
        inst = _instance_with_labels(seed=4)
        constraint = ColoredWalkConstraint(["r", "b"])
        result = build_constrained_labeling(inst, constraint, config=config)
        product = build_product_graph(inst, constraint)
        nodes = inst.nodes()
        rng = random.Random(0)
        for _ in range(25):
            u, v = rng.choice(nodes), rng.choice(nodes)
            for color in ("r", "b"):
                state = ("color", color)
                direct = shortest_constrained_walk(product, u, v, state)
                decoded = result.labeling.distance(u, v, state)
                if direct is None:
                    assert math.isinf(decoded)
                else:
                    assert abs(decoded - direct[0]) < 1e-9

    def test_constrained_distance_takes_min_over_states(self, config):
        inst = _instance_with_labels(seed=6)
        constraint = ColoredWalkConstraint(["r", "b"])
        result = build_constrained_labeling(inst, constraint, config=config)
        nodes = inst.nodes()
        u, v = nodes[0], nodes[3]
        per_state = [
            result.labeling.distance(u, v, ("color", c)) for c in ("r", "b")
        ]
        assert result.labeling.constrained_distance(u, v) == min(per_state)

    def test_reject_state_query_rejected(self, config):
        inst = _instance_with_labels(seed=7, n=12)
        result = build_constrained_labeling(inst, ColoredWalkConstraint(["r", "b"]), config=config)
        with pytest.raises(ConstraintError):
            result.labeling.distance(inst.nodes()[0], inst.nodes()[1], REJECT_STATE)

    def test_rounds_include_simulation_overhead(self, config):
        inst = _instance_with_labels(seed=8, n=16)
        constraint = ColoredWalkConstraint(["r", "b"])
        result = build_constrained_labeling(inst, constraint, config=config)
        assert result.simulation_overhead == constraint.state_count() * inst.max_multiplicity()
        assert result.rounds >= result.product_label_rounds

    def test_reuses_base_decomposition(self, config):
        inst = _instance_with_labels(seed=9, n=16, colors=(0, 1))
        comm = inst.underlying_graph()
        decomposition = build_tree_decomposition(comm, config=config)
        result = build_constrained_labeling(
            inst, CountWalkConstraint(1), config=config, decomposition=decomposition
        )
        # Base decomposition rounds are carried into the CDL ledger.
        assert result.ledger.breakdown(1).get("base_decomposition", 0) == decomposition.ledger.total()
        # Exactly once: the lift charges nothing, so the same decomposition
        # with no rounds gives the same product labeling rounds and a total
        # smaller by exactly the base decomposition's.
        free = dataclasses.replace(decomposition, rounds=0, ledger=RoundLedger())
        unpaid = build_constrained_labeling(
            inst, CountWalkConstraint(1), config=config, decomposition=free
        )
        assert decomposition.ledger.total() > 0
        assert result.product_label_rounds == unpaid.product_label_rounds
        assert result.rounds - unpaid.rounds == decomposition.ledger.total()

    def test_label_entry_counts_cover_accepting_states(self, config):
        inst = _instance_with_labels(seed=10, n=14, colors=(0, 1))
        constraint = CountWalkConstraint(1)
        result = build_constrained_labeling(inst, constraint, config=config)
        u = inst.nodes()[0]
        assert result.labeling.label_entries(u) > 0
        assert result.labeling.max_label_entries() >= result.labeling.label_entries(u)

    @pytest.mark.parametrize(
        "constraint, colors",
        [(CountWalkConstraint(1), (0, 1)), (ColoredWalkConstraint(["r", "b"]), ("r", "b"))],
        ids=["count1", "colored2"],
    )
    def test_no_reject_labels_or_hubs_are_stored(self, config, constraint, colors):
        inst = _instance_with_labels(seed=12, n=16, colors=colors)
        result = build_constrained_labeling(inst, constraint, config=config)
        product_labeling = result.labeling._labeling
        accepting = constraint.accepting_states()
        assert sorted(product_labeling.vertices(), key=repr) == sorted(
            ((v, q) for v in inst.nodes() for q in accepting), key=repr
        )
        for vertex in product_labeling.vertices():
            lab = product_labeling.label(vertex)
            assert all(s[1] != REJECT_STATE for s in lab.to_dist), vertex
            assert all(s[1] != REJECT_STATE for s in lab.from_dist), vertex
        for u in inst.nodes():
            assert result.labeling.label_entries(u) == sum(
                product_labeling.label((u, q)).num_entries() for q in accepting
            )
        assert result.labeling.max_label_entries() == max(
            result.labeling.label_entries(u) for u in inst.nodes()
        )


class TestDisconnectedAcceptingPart:
    """With no edge of label 1, G_C − ⊥ splits into the ▽/count-0 part and the
    count-1 layer, while the CDL's communication graph stays ⟦G⟧."""

    def _setup(self):
        inst = _instance_with_labels(seed=13, n=18, colors=(0,))
        constraint = CountWalkConstraint(1)
        accepting = build_product_graph(inst, constraint).graph
        assert not accepting.underlying_graph().is_connected()
        return inst, constraint, accepting

    def test_all_zero_labels_match_dijkstra(self, config):
        inst, constraint, _ = self._setup()
        result = build_constrained_labeling(inst, constraint, config=config)
        exact = constraint.exact_target_state()
        for s in inst.nodes():
            oracle = constrained_distances(inst, constraint, s)
            for t in inst.nodes():
                for q in constraint.accepting_states():
                    got = result.labeling.distance(s, t, q)
                    assert got == oracle.get((t, q), math.inf), (s, t, q)
                assert result.labeling.distance(s, t, exact) == math.inf, (s, t)

    def test_supplied_decomposition_skips_the_connectivity_check(self, config):
        inst, constraint, accepting = self._setup()
        comm = inst.underlying_graph()
        cost_model = CostModel.for_graph(comm, config)
        lifted = lift_tree_decomposition(
            build_tree_decomposition(comm, config=config, cost_model=cost_model), constraint
        )
        result = build_distance_labeling(
            accepting, decomposition=lifted, config=config, cost_model=cost_model
        )
        for u in accepting.nodes():
            oracle = dijkstra(accepting, u)
            for v in accepting.nodes():
                assert result.labeling.distance(u, v) == oracle.get(v, math.inf), (u, v)
        # Without a cost model the diameter of the disconnected graph is undefined.
        with pytest.raises(GraphError):
            build_distance_labeling(accepting, decomposition=lifted, config=config)
        # A measured broadcast floods the graph itself, so it is refused up front.
        with pytest.raises(GraphError, match="connected"):
            build_distance_labeling(
                accepting, decomposition=lifted, config=config, cost_model=cost_model,
                measured_broadcast=True,
            )


@pytest.mark.scale
def test_count1_cdl_matches_dijkstra_at_scale(master_seed):
    """The count-1 CDL of a 5×40 grid against Dijkstra over (vertex, state) pairs.

    Integer weights 0–9 keep every sum exact, so decoded C(q)-distances must
    equal the oracle's from (s, ▽) bit for bit, for every q ≠ ⊥ and every
    target, from 8 seeded sources.
    """
    rng = random.Random(master_seed)
    grid = generators.grid_graph(5, 40)
    instance = WeightedDiGraph(grid.nodes())
    for u, v in grid.edges():
        label = 1 if rng.random() < 0.1 else 0
        instance.add_undirected_edge(u, v, weight=float(rng.randint(0, 9)), label=label)
    constraint = CountWalkConstraint(1)
    result = build_constrained_labeling(
        instance, constraint, config=FrameworkConfig(seed=master_seed)
    )
    nodes = sorted(instance.nodes())
    for s in rng.sample(nodes, 8):
        oracle = constrained_distances(instance, constraint, s)
        for t in nodes:
            for q in constraint.accepting_states():
                want = oracle.get((t, q), math.inf)
                assert result.labeling.distance(s, t, q) == want, (s, t, q)

