"""Tests for stateful walk constraints (Definition 2, Examples 1-2, alternating walks)."""

import pytest

from repro.errors import ConstraintError
from repro.graphs.digraph import Edge, WeightedDiGraph
from repro.walks.constraints import (
    INITIAL_STATE,
    REJECT_STATE,
    AlternatingWalkConstraint,
    ColoredWalkConstraint,
    CountWalkConstraint,
    is_walk_in_constraint,
    walk_state,
)
from repro.walks.product import build_product_graph


def _edge(eid, u, v, label=None):
    return Edge(eid, u, v, 1.0, label)


class TestColoredWalks:
    def setup_method(self):
        self.constraint = ColoredWalkConstraint(["r", "b"])

    def test_state_set_contains_specials(self):
        states = self.constraint.states()
        assert INITIAL_STATE in states and REJECT_STATE in states
        assert self.constraint.state_count() == 4

    def test_alternating_colors_accepted(self):
        walk = [_edge(0, "a", "b", "r"), _edge(1, "b", "c", "b"), _edge(2, "c", "d", "r")]
        assert is_walk_in_constraint(self.constraint, walk)
        assert walk_state(self.constraint, walk) == ("color", "r")

    def test_monochromatic_consecutive_rejected(self):
        walk = [_edge(0, "a", "b", "r"), _edge(1, "b", "c", "r")]
        assert not is_walk_in_constraint(self.constraint, walk)

    def test_empty_walk_has_initial_state(self):
        assert walk_state(self.constraint, []) == INITIAL_STATE

    def test_unknown_color_raises(self):
        with pytest.raises(ConstraintError):
            walk_state(self.constraint, [_edge(0, "a", "b", "green")])

    def test_empty_palette_rejected(self):
        with pytest.raises(ConstraintError):
            ColoredWalkConstraint([])

    def test_reject_state_absorbing(self):
        e = _edge(0, "a", "b", "r")
        assert self.constraint.delta(REJECT_STATE, e) == REJECT_STATE


class TestCountWalks:
    def setup_method(self):
        self.constraint = CountWalkConstraint(2)

    def test_budget_respected(self):
        walk = [_edge(0, "a", "b", 1), _edge(1, "b", "c", 0), _edge(2, "c", "d", 1)]
        assert walk_state(self.constraint, walk) == ("count", 2)
        walk.append(_edge(3, "d", "e", 1))
        assert walk_state(self.constraint, walk) == REJECT_STATE

    def test_none_label_counts_as_zero(self):
        walk = [_edge(0, "a", "b", None), _edge(1, "b", "c", None)]
        assert walk_state(self.constraint, walk) == ("count", 0)

    def test_non_binary_label_rejected(self):
        with pytest.raises(ConstraintError):
            walk_state(self.constraint, [_edge(0, "a", "b", 5)])

    def test_negative_budget_rejected(self):
        with pytest.raises(ConstraintError):
            CountWalkConstraint(-1)

    def test_exact_target_state(self):
        assert CountWalkConstraint(1).exact_target_state() == ("count", 1)

    def test_state_count(self):
        assert self.constraint.state_count() == 2 + 3


class TestAlternatingWalks:
    def setup_method(self):
        self.constraint = AlternatingWalkConstraint([("a", "b"), ("c", "d")])

    def test_augmenting_shape_accepted(self):
        walk = [
            _edge(0, "x", "a"),       # unmatched
            _edge(1, "a", "b"),       # matched
            _edge(2, "b", "y"),       # unmatched
        ]
        assert walk_state(self.constraint, walk) == AlternatingWalkConstraint.UNMATCHED

    def test_first_edge_must_be_unmatched(self):
        walk = [_edge(0, "a", "b")]  # matched edge first
        assert walk_state(self.constraint, walk) == REJECT_STATE

    def test_two_consecutive_unmatched_rejected(self):
        walk = [_edge(0, "x", "y"), _edge(1, "y", "z")]
        assert walk_state(self.constraint, walk) == REJECT_STATE

    def test_matched_set_is_undirected(self):
        walk = [_edge(0, "x", "b"), _edge(1, "b", "a")]  # (b, a) is matched
        assert walk_state(self.constraint, walk) == AlternatingWalkConstraint.MATCHED


class TestValidation:
    """``build_product_graph`` checks the Definition-2 conditions on every
    edge of its instance."""

    def test_colored_constraint_builds(self):
        g = WeightedDiGraph()
        g.add_edge("a", "b", label="r")
        g.add_edge("b", "c", label="b")
        product = build_product_graph(g, ColoredWalkConstraint(["r", "b"]))
        assert product.graph.num_nodes() == 3 * g.num_nodes()

    def test_alternating_constraint_builds(self):
        g = WeightedDiGraph()
        g.add_undirected_edge("a", "b")
        g.add_undirected_edge("b", "c")
        constraint = AlternatingWalkConstraint([("c", "b")])
        product = build_product_graph(g, constraint)
        assert product.graph.num_nodes() == 3 * g.num_nodes()
        # Matched and unmatched arcs both occur, in both directions.
        after_unmatched = {
            (e.tail, e.head): constraint.delta(AlternatingWalkConstraint.UNMATCHED, e)
            for e in g.edges()
        }
        assert after_unmatched == {
            ("a", "b"): REJECT_STATE,
            ("b", "a"): REJECT_STATE,
            ("b", "c"): AlternatingWalkConstraint.MATCHED,
            ("c", "b"): AlternatingWalkConstraint.MATCHED,
        }

    def test_missing_specials_refused(self):
        class Broken(ColoredWalkConstraint):
            def states(self):
                return [("color", c) for c in self.palette]

        g = WeightedDiGraph()
        g.add_edge("a", "b", label="r")
        with pytest.raises(ConstraintError, match="must contain"):
            build_product_graph(g, Broken(["r"]))

    def test_state_escape_refused(self):
        class Escaping(CountWalkConstraint):
            def transition(self, state, edge):
                return ("count", 999)

        g = WeightedDiGraph()
        g.add_edge("a", "b", label=0)
        with pytest.raises(ConstraintError, match="leaves the state set"):
            build_product_graph(g, Escaping(1))
