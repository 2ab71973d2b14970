"""Distributed tree decomposition from balanced separators (paper §3.4, Theorem 1).

The construction recursively decomposes the graph: at decomposition-tree node
``x`` (identified, as in the paper, by a string — here a tuple of child
indices, with the root being the empty tuple ψ = ()):

* ``G_x`` is the subgraph handled at ``x`` and ``G'_x = G_x − B_{p(x)}`` is its
  "free" part, which is a connected component of ``G − B_{p(x)}``
  (Proposition 3);
* an (X, α)-balanced separator ``S'_x`` of ``G'_x`` is computed with ``Sep``
  (Lemma 1);
* the bag is ``B_x = (V(G_x) ∩ B_{p(x)}) ∪ S'_x
  = V(G_x) ∩ ⋃_{x'⊑x} S_{x'}``;
* every connected component ``G'_{x•i}`` of ``G_x − B_x`` becomes a child,
  with ``G_{x•i}`` additionally containing the bag vertices adjacent to the
  component (so that boundary edges are covered by descendant bags).

Recursion stops when the free part is small, in which case ``B_x = V(G_x)``.
The resulting width is O(τ² log n) and the depth O(log n); the CONGEST round
cost is dominated by the separator computations, Õ(τ²D + τ³), with the
separators of all parts at one level computed in parallel (the parts are
vertex-disjoint, so Lemma 9 / Theorem 6 apply).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import FrameworkConfig, SeparatorParams
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.separator import BalancedSeparator, SeparatorResult
from repro.errors import DecompositionError, GraphError
from repro.graphs.graph import Graph

NodeId = Hashable
Label = Tuple[int, ...]


@dataclass
class DecompositionNode:
    """One node of the decomposition tree.

    Attributes
    ----------
    label:
        The identifying string of the node (tuple of child indices; the root
        is the empty tuple).
    bag:
        The bag B_x ⊆ V(G).
    graph_vertices:
        V(G_x): the vertices of the subgraph handled at this node.
    free_vertices:
        V(G'_x) = V(G_x) − B_{p(x)}: the vertices first "owned" here.
    separator:
        S'_x, the new separator vertices introduced at this node (empty for
        leaves, whose bag is all of V(G_x)).
    parent:
        Label of the parent (``None`` for the root).
    children:
        Labels of the children, in index order.
    is_leaf:
        Whether the recursion terminated at this node.
    """

    label: Label
    bag: FrozenSet[NodeId]
    graph_vertices: FrozenSet[NodeId]
    free_vertices: FrozenSet[NodeId]
    separator: FrozenSet[NodeId]
    parent: Optional[Label]
    children: List[Label] = field(default_factory=list)
    is_leaf: bool = False


class TreeDecomposition:
    """A rooted tree decomposition Φ = (T, {B_x}) with the paper's string labels.

    Provides the queries needed by the distance-labeling layer: canonical
    strings c*(v), ancestor bag unions B↑(v), and per-level node sets A_ℓ(T).
    """

    def __init__(self) -> None:
        self.nodes: Dict[Label, DecompositionNode] = {}
        self._canonical: Dict[NodeId, Label] = {}

    # -- construction (used by the builder) ------------------------------ #
    def _add_node(self, node: DecompositionNode) -> None:
        self.nodes[node.label] = node
        if node.parent is not None:
            self.nodes[node.parent].children.append(node.label)

    def _finalize(self) -> None:
        """Compute canonical labels after all nodes are present."""
        self._canonical = {}
        # BFS over the tree from the root so shorter labels are seen first.
        order = sorted(self.nodes.keys(), key=len)
        for label in order:
            for v in self.nodes[label].bag:
                if v not in self._canonical:
                    self._canonical[v] = label

    # -- basic queries ---------------------------------------------------- #
    @property
    def root(self) -> Label:
        return ()

    def bag(self, label: Label) -> FrozenSet[NodeId]:
        return self.nodes[label].bag

    def children(self, label: Label) -> List[Label]:
        return self.nodes[label].children

    def parent(self, label: Label) -> Optional[Label]:
        return self.nodes[label].parent

    def labels(self) -> List[Label]:
        return list(self.nodes.keys())

    def num_bags(self) -> int:
        return len(self.nodes)

    def width(self) -> int:
        """Width of the decomposition: max bag size − 1."""
        if not self.nodes:
            return -1
        return max(len(node.bag) for node in self.nodes.values()) - 1

    def depth(self) -> int:
        """Depth of the decomposition tree (root has depth 0)."""
        if not self.nodes:
            return 0
        return max(len(label) for label in self.nodes)

    def level(self, ell: int) -> List[Label]:
        """A_ℓ(T): all node labels of length ℓ."""
        return [label for label in self.nodes if len(label) == ell]

    # -- paper-specific queries ------------------------------------------- #
    def canonical_label(self, v: NodeId) -> Label:
        """c*(v): the shortest label whose bag contains v."""
        if v not in self._canonical:
            raise DecompositionError(f"vertex {v!r} not covered by the decomposition")
        return self._canonical[v]

    def ancestors(self, label: Label, include_self: bool = True) -> List[Label]:
        """Labels on the root path (prefixes of ``label``), shortest first."""
        out = [label[:i] for i in range(len(label) + 1)]
        if not include_self:
            out = out[:-1]
        return out

    def upward_bag_union(self, v: NodeId) -> Set[NodeId]:
        """B↑(v) = ⋃_{x' ⊑ c*(v)} B_{x'} (paper §4.1)."""
        union: Set[NodeId] = set()
        for label in self.ancestors(self.canonical_label(v)):
            union |= self.nodes[label].bag
        return union

    def bags_containing(self, v: NodeId) -> List[Label]:
        """All labels whose bag contains ``v``."""
        return [label for label, node in self.nodes.items() if v in node.bag]

    def covered_vertices(self) -> Set[NodeId]:
        out: Set[NodeId] = set()
        for node in self.nodes.values():
            out |= node.bag
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeDecomposition(bags={self.num_bags()}, width={self.width()}, "
            f"depth={self.depth()})"
        )


@dataclass
class DecompositionResult:
    """A tree decomposition together with its CONGEST round accounting."""

    decomposition: TreeDecomposition
    rounds: int
    ledger: RoundLedger
    width_guess: int
    separator_calls: int


def build_tree_decomposition(
    graph: Graph,
    config: Optional[FrameworkConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> DecompositionResult:
    """Build a tree decomposition of ``graph`` following §3.4 of the paper.

    Parameters
    ----------
    graph:
        A connected undirected graph (the communication network ⟦G⟧).
    config:
        Framework configuration (separator constants, seed, leaf size).
    cost_model:
        Optional round-cost model; when omitted a default model with the
        graph's measured diameter is created, so ``rounds`` is always
        populated.

    Returns
    -------
    DecompositionResult
        The decomposition, the total charged CONGEST rounds and the per-phase
        ledger.  The construction never fails for a valid connected input: in
        the worst case the doubling loop inside ``Sep`` reaches the trivial
        separator and the decomposition degenerates gracefully.
    """
    if graph.num_nodes() == 0:
        raise GraphError("cannot decompose an empty graph")
    if not graph.is_connected():
        raise GraphError("tree decomposition requires a connected graph")

    config = config or FrameworkConfig()
    config.validate()
    rng = config.rng()
    if cost_model is None:
        cost_model = CostModel.for_graph(graph, config)
    ledger = RoundLedger()
    separator_engine = BalancedSeparator(
        params=config.separator, rng=rng, cost_model=cost_model
    )

    td = TreeDecomposition()
    width_guess_seen = config.initial_width_guess
    separator_calls = 0

    # Work queue of (label, G_x vertex set, parent bag ∩ V(G_x)).
    # Each level of the tree is processed together so that the CONGEST cost of
    # a level is the *scheduled* cost of its (vertex-disjoint) separator
    # computations rather than their sum.
    current_level: List[Tuple[Label, Set[NodeId], Set[NodeId]]] = [
        ((), set(graph.nodes()), set())
    ]
    level_index = 0
    while current_level:
        next_level: List[Tuple[Label, Set[NodeId], Set[NodeId]]] = []
        level_sep_rounds = 0
        for label, gx_vertices, boundary in current_level:
            gx = graph.subgraph(gx_vertices)
            free = gx_vertices - boundary
            free_graph = gx.without_nodes(boundary) if boundary else gx

            leaf_threshold = max(config.leaf_size, 1)
            make_leaf = len(free) <= leaf_threshold or len(free) == 0
            sep_result: Optional[SeparatorResult] = None
            if not make_leaf:
                separator_calls += 1
                sep_result = separator_engine.find(
                    free_graph,
                    focus=None,
                    initial_t=config.initial_width_guess,
                    max_t=config.max_width,
                )
                width_guess_seen = max(width_guess_seen, sep_result.width_guess)
                level_sep_rounds = max(level_sep_rounds, sep_result.rounds)
                # Paper termination rule: if the graph is barely larger than
                # its separator, keep everything in one bag.
                if len(gx_vertices) <= 2 * max(1, len(sep_result.separator)):
                    make_leaf = True

            if make_leaf:
                node = DecompositionNode(
                    label=label,
                    bag=frozenset(gx_vertices),
                    graph_vertices=frozenset(gx_vertices),
                    free_vertices=frozenset(free),
                    separator=frozenset(),
                    parent=label[:-1] if label else None,
                    is_leaf=True,
                )
                td._add_node(node)
                continue

            assert sep_result is not None
            new_sep = set(sep_result.separator)
            bag = (boundary & gx_vertices) | new_sep
            node = DecompositionNode(
                label=label,
                bag=frozenset(bag),
                graph_vertices=frozenset(gx_vertices),
                free_vertices=frozenset(free),
                separator=frozenset(new_sep),
                parent=label[:-1] if label else None,
                is_leaf=False,
            )
            td._add_node(node)

            remaining = gx.without_nodes(bag)
            components = sorted(
                remaining.connected_components(), key=lambda c: min(str(v) for v in c)
            )
            for idx, comp in enumerate(components):
                # G_{x•i}: the component plus the adjacent bag vertices, found
                # from the component side in O(vol(comp) + |bag|) rather than
                # O(vol(bag)), which matters when the bag holds high-degree
                # hubs.  Filtering ``bag`` keeps the set's insertion order, so
                # the decomposition is unchanged.
                touched = {nb for v in comp for nb in graph.neighbors(v) if nb in bag}
                adjacent_bag = {b for b in bag if b in touched}
                child_vertices = set(comp) | adjacent_bag
                next_level.append((label + (idx,), child_vertices, bag & child_vertices))

        if level_sep_rounds:
            ledger.charge(f"tree_decomposition/level_{level_index}/separators", level_sep_rounds)
            ledger.charge(
                f"tree_decomposition/level_{level_index}/ccd",
                cost_model.subgraph_operation(width_guess_seen),
            )
        current_level = next_level
        level_index += 1

    td._finalize()
    return DecompositionResult(
        decomposition=td,
        rounds=ledger.total(),
        ledger=ledger,
        width_guess=width_guess_seen,
        separator_calls=separator_calls,
    )
