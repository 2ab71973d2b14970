"""Constrained distance labeling CDL(C) (paper §5.2, Theorem 3).

Given a stateful walk constraint C with state set Q, the constrained distance
labeling assigns every vertex u a label sla(u) such that for any target state
q and any pair (u, v), the C(q)-distance — the length of the shortest walk
from u to v whose state is q — can be decoded from sla(u) and sla(v).

The construction is the reduction of §5.2: build the product graph G_C, run
the (unconstrained) distance labeling of Theorem 2 on it, and let sla(u) be
the collection of product-graph labels of the group U_Q(u) = {u} × Q.  What
is built and labelled is G_C − ⊥, the product graph without its (v, ⊥)
copies (:func:`~repro.walks.product.build_product_graph`), with the base
decomposition lifted to the accepting copies {v} × (Q − {⊥}).  That is
exact: ⊥ is absorbing (Definition 2, condition 3), so a walk that enters ⊥
never leaves it, and by Lemma 5 no walk between two non-⊥ product vertices
visits ⊥.  Every C(q)-distance with q ≠ ⊥ is therefore the same in G_C and in
G_C − ⊥, and ⊥ is no valid query target.  G_C − ⊥ need not be connected (with
no edge of label 1, the count-0 and count-1 layers of a count-c constraint
share no arc); the communication graph stays ⟦G⟧.

Rounds are charged for the labeling that runs, with the paper's G_C kept in
the model.  The levels' H_x broadcast volumes are those of G_C − ⊥; the
lifted decomposition's width guess, the product cost model's |Q|·n nodes and
the simulation overhead all read the full |Q|, and the cost model keeps
G_C's diameter D + 2.  The base decomposition is charged once: lifting it is
local and charges nothing.  The CONGEST simulation overhead of running on
G_C instead of G is a factor O(|Q| · p_max) in rounds (every physical edge
simulates the ≤ |Q|·p_max product edges between two groups), which
Theorem 3 folds into the Õ(|Q|·p_max·((|Q|τ)²D + (|Q|τ)⁴)) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.tree_decomposition import (
    DecompositionResult,
    build_tree_decomposition,
)
from repro.errors import ConstraintError, LabelingError
from repro.graphs.digraph import WeightedDiGraph
from repro.labeling.construction import build_distance_labeling
from repro.labeling.labels import DistanceLabeling
from repro.walks.constraints import (
    INITIAL_STATE,
    REJECT_STATE,
    State,
    StatefulWalkConstraint,
)
from repro.walks.product import ProductGraph, build_product_graph, lift_tree_decomposition

NodeId = Hashable
INF = math.inf


class ConstrainedDistanceLabeling:
    """The decoder side of CDL(C): per-vertex labels over G_C − ⊥.

    ``product_labeling`` labels the accepting copies (u, q), q ≠ ⊥, with
    hubs among them; no (u, ⊥) label is stored, and ⊥ is refused as a
    query target.
    """

    def __init__(
        self,
        constraint: StatefulWalkConstraint,
        product_labeling: DistanceLabeling,
    ) -> None:
        self.constraint = constraint
        self._labeling = product_labeling

    def distance(self, u: NodeId, v: NodeId, target_state: State) -> float:
        """d_{G,C(q)}(u, v): the shortest length of a walk in C with state q from u to v."""
        if target_state == REJECT_STATE:
            raise ConstraintError("the reject state is not a valid query target")
        try:
            return self._labeling.distance((u, INITIAL_STATE), (v, target_state))
        except LabelingError as exc:
            raise LabelingError(f"no constrained label for {u!r} or {v!r}") from exc

    def constrained_distance(self, u: NodeId, v: NodeId) -> float:
        """The C-distance: minimum over all accepting target states."""
        best = INF
        for q in self.constraint.accepting_states():
            if q == INITIAL_STATE and u != v:
                continue
            d = self.distance(u, v, q)
            if d < best:
                best = d
        return best

    def label_entries(self, u: NodeId) -> int:
        """Total hub entries stored at u (u simulates its accepting copies)."""
        total = 0
        for q in self.constraint.accepting_states():
            total += self._labeling.label((u, q)).num_entries()
        return total

    def max_label_entries(self) -> int:
        vertices = {v for (v, _q) in self._labeling.vertices()}
        return max((self.label_entries(v) for v in vertices), default=0)


@dataclass
class ConstrainedLabelingResult:
    """CDL(C) together with its construction cost."""

    labeling: ConstrainedDistanceLabeling
    product: ProductGraph
    rounds: int
    ledger: RoundLedger
    simulation_overhead: int
    product_label_rounds: int


def build_constrained_labeling(
    instance: WeightedDiGraph,
    constraint: StatefulWalkConstraint,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
    decomposition: Optional[DecompositionResult] = None,
) -> ConstrainedLabelingResult:
    """Build CDL(C) for ``instance`` under ``constraint`` (Theorem 3).

    Parameters
    ----------
    instance:
        The weighted directed multigraph G.
    constraint:
        A stateful walk constraint C.
    config / cost_model:
        Framework configuration and cost model for the *base* communication
        graph ⟦G⟧ (the simulation overhead on the product graph is applied on
        top, per Theorem 3).
    decomposition:
        Optional decomposition of ⟦G⟧; it is lifted to ⟦G_C − ⊥⟧ rather than
        recomputed.

    The labeling of Theorem 2 runs on ``product.graph``, which is G_C − ⊥
    (see the module docstring).
    """
    config = config or FrameworkConfig()
    if cost_model is None or decomposition is None:
        comm = instance.underlying_graph()
        if cost_model is None:
            cost_model = CostModel.for_graph(comm, config)
        if decomposition is None:
            decomposition = build_tree_decomposition(comm, config=config, cost_model=cost_model)

    product = build_product_graph(instance, constraint)
    lifted = lift_tree_decomposition(decomposition, constraint)

    # Cost model for the communication graph of the paper's G_C, ⊥ layer
    # included: same diameter (up to +2, §5.2), |Q|·n nodes.
    num_states = constraint.state_count()
    product_cost_model = CostModel(
        n=instance.num_nodes() * num_states,
        diameter=cost_model.diameter + 2,
        log_factor_exponent=cost_model.log_factor_exponent,
        constant=cost_model.constant,
    )
    dl = build_distance_labeling(
        product.graph,
        decomposition=lifted,
        config=config,
        cost_model=product_cost_model,
    )

    # Theorem 3: each round on G_C costs O(|Q| · p_max) rounds on ⟦G⟧.
    p_max = max(1, instance.max_multiplicity())
    overhead = num_states * p_max
    ledger = RoundLedger()
    ledger.merge(decomposition.ledger, prefix="base_decomposition")
    ledger.charge("cdl/simulated_product_labeling", dl.rounds * overhead)

    labeling = ConstrainedDistanceLabeling(constraint, dl.labeling)
    return ConstrainedLabelingResult(
        labeling=labeling,
        product=product,
        rounds=ledger.total(),
        ledger=ledger,
        simulation_overhead=overhead,
        product_label_rounds=dl.rounds,
    )

