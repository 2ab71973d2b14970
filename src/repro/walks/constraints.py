"""Stateful walk constraints (paper Definition 2) and the worked examples.

A constraint is described by

* a finite state set Q containing the two special states ▽ (the state of the
  empty walk) and ⊥ (the absorbing reject state);
* per-edge transition functions δ_e : Q → Q with δ_e(⊥) = ⊥;
* implicitly, the classifier M(w): the state reached by running the walk's
  edges through δ starting from ▽; a walk belongs to C iff its state is not ⊥.

Concrete constraints implement :class:`StatefulWalkConstraint` by providing
``states()`` and ``transition(state, edge)``; the module also provides the
paper's Example 1 (c-colored walks), Example 2 (count-c walks) and the
alternating-walk constraint used by the matching algorithm of §6 (a 2-colored
walk whose colours are "matched"/"unmatched" edges).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.errors import ConstraintError
from repro.graphs.digraph import Edge

NodeId = Hashable
State = Hashable

#: The state ▽ of the empty walk φ.
INITIAL_STATE: State = "INIT"
#: The absorbing reject state ⊥.
REJECT_STATE: State = "REJECT"


class StatefulWalkConstraint:
    """Interface of a stateful walk constraint (Q, M, δ).

    Subclasses must implement :meth:`states` (the full state set Q, including
    the two special states) and :meth:`transition` (the function δ_e applied
    to a non-reject state).  The base class supplies δ_e with the
    absorbing-reject rule and the induced classifier M;
    :func:`~repro.walks.product.build_product_graph` checks the Definition-2
    conditions on every edge of the instance it is given.
    """

    #: Human-readable name used in reports.
    name: str = "stateful"

    def states(self) -> List[State]:
        """The full state set Q (must contain INITIAL_STATE and REJECT_STATE)."""
        raise NotImplementedError

    def transition(self, state: State, edge: Edge) -> State:
        """δ_e(state) for a non-reject ``state``; must return a member of Q."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def delta(self, state: State, edge: Edge) -> State:
        """δ_e including the absorbing-reject rule (Definition 2, condition 3)."""
        if state == REJECT_STATE:
            return REJECT_STATE
        nxt = self.transition(state, edge)
        return nxt

    def accepting_states(self) -> List[State]:
        """All states other than ⊥ (walks in C end in one of these)."""
        return [q for q in self.states() if q != REJECT_STATE]

    def state_count(self) -> int:
        return len(self.states())


def walk_state(constraint: StatefulWalkConstraint, walk: Sequence[Edge]) -> State:
    """M(w): the state of a walk (the empty walk has state ▽)."""
    state: State = INITIAL_STATE
    for edge in walk:
        state = constraint.delta(state, edge)
        if state == REJECT_STATE:
            return REJECT_STATE
    return state


# --------------------------------------------------------------------------- #
# Example 1: c-colored walks
# --------------------------------------------------------------------------- #
class ColoredWalkConstraint(StatefulWalkConstraint):
    """c-colored walks: no two consecutive edges share a colour (paper Example 1).

    Edge colours are read from ``edge.label`` (any hashable value drawn from
    the supplied palette).  The walk state is the colour of its last edge.
    """

    name = "colored"

    def __init__(self, palette: Iterable[Any]) -> None:
        self.palette = list(dict.fromkeys(palette))
        if not self.palette:
            raise ConstraintError("the colour palette must be non-empty")

    def states(self) -> List[State]:
        return [INITIAL_STATE, REJECT_STATE] + [("color", c) for c in self.palette]

    def transition(self, state: State, edge: Edge) -> State:
        color = edge.label
        if color not in self.palette:
            raise ConstraintError(f"edge {edge.eid} has colour {color!r} outside the palette")
        if state == INITIAL_STATE:
            return ("color", color)
        assert isinstance(state, tuple) and state[0] == "color"
        if state[1] == color:
            return REJECT_STATE
        return ("color", color)


# --------------------------------------------------------------------------- #
# Example 2: count-c walks
# --------------------------------------------------------------------------- #
class CountWalkConstraint(StatefulWalkConstraint):
    """count-c walks: at most ``c`` edges of label 1 (paper Example 2).

    Edge labels are read from ``edge.label`` and interpreted as 0/1 (``None``
    counts as 0).  The walk state is the number of label-1 edges so far; walks
    exceeding ``c`` are rejected.  The subset C(c) of *exact* count-c walks is
    obtained by querying the constrained labeling at target state ``c``
    (see §5.1, "Subsets of stateful walk constraints").
    """

    name = "count"

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ConstraintError("the count budget must be non-negative")
        self.budget = budget

    def states(self) -> List[State]:
        return [INITIAL_STATE, REJECT_STATE] + [("count", i) for i in range(self.budget + 1)]

    @staticmethod
    def _edge_value(edge: Edge) -> int:
        value = edge.label
        if value in (None, 0, False):
            return 0
        if value in (1, True):
            return 1
        raise ConstraintError(f"edge {edge.eid} has non-binary label {value!r}")

    def transition(self, state: State, edge: Edge) -> State:
        value = self._edge_value(edge)
        if state == INITIAL_STATE:
            count = value
        else:
            assert isinstance(state, tuple) and state[0] == "count"
            count = state[1] + value
        if count > self.budget:
            return REJECT_STATE
        return ("count", count)

    def exact_target_state(self) -> State:
        """The state identifying *exact* count-c walks (the subset C(c))."""
        return ("count", self.budget)


# --------------------------------------------------------------------------- #
# Alternating walks (used by the matching algorithm, §6)
# --------------------------------------------------------------------------- #
class AlternatingWalkConstraint(StatefulWalkConstraint):
    """Alternating (matched / unmatched) walks for augmenting-path search.

    This is the 2-colored constraint of Example 1 with the palette
    {"matched", "unmatched"}, read from a set of matched edge keys rather than
    from edge labels, plus the convention that an augmenting walk must *start*
    with an unmatched edge (enforced by rejecting a matched first edge, since
    the walk starts at an unmatched vertex which has no incident matched edge
    anyway — keeping it in the automaton makes the constraint self-contained).
    """

    name = "alternating"

    MATCHED: State = ("color", "matched")
    UNMATCHED: State = ("color", "unmatched")

    def __init__(self, matched_pairs: Iterable[Tuple[NodeId, NodeId]]) -> None:
        self.matched: Set[frozenset] = {frozenset(p) for p in matched_pairs}

    def states(self) -> List[State]:
        return [INITIAL_STATE, REJECT_STATE, self.MATCHED, self.UNMATCHED]

    def _edge_color(self, edge: Edge) -> State:
        if frozenset((edge.tail, edge.head)) in self.matched:
            return self.MATCHED
        return self.UNMATCHED

    def transition(self, state: State, edge: Edge) -> State:
        color = self._edge_color(edge)
        if state == INITIAL_STATE:
            # Augmenting walks leave an unmatched vertex along an unmatched edge.
            return color if color == self.UNMATCHED else REJECT_STATE
        if state == color:
            return REJECT_STATE
        return color
