"""Centralized reference tree decompositions.

The paper's distributed decomposition produces width O(τ² log n); the natural
baseline it is compared against (experiment E2) is the quality achievable by
standard *centralized* heuristics — min-degree / min-fill elimination orders —
which typically achieve width close to τ.  This module wraps those heuristics
(implemented in :mod:`repro.graphs.treewidth`) in the same
:class:`~repro.decomposition.tree_decomposition.TreeDecomposition` interface so
that validation and comparison code can treat both uniformly.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.decomposition.tree_decomposition import DecompositionNode, TreeDecomposition
from repro.errors import DecompositionError, GraphError
from repro.graphs import treewidth as tw
from repro.graphs.graph import Graph

NodeId = Hashable


def _tree_from_bag_parent(
    bags: Dict[int, set], parent: Dict[int, Optional[int]], graph: Graph
) -> TreeDecomposition:
    """Convert an (integer-indexed) bag tree into a labeled TreeDecomposition."""
    children: Dict[int, List[int]] = {i: [] for i in bags}
    roots = []
    for i, p in parent.items():
        if p is None:
            roots.append(i)
        else:
            children[p].append(i)
    if len(roots) != 1:
        raise DecompositionError("expected a single root in the elimination-order tree")
    root = roots[0]

    td = TreeDecomposition()
    all_vertices = set(graph.nodes())

    # Iterative DFS to avoid recursion limits on path-like decompositions.
    stack: List[Tuple[int, Tuple[int, ...], Optional[Tuple[int, ...]]]] = [(root, (), None)]
    while stack:
        node_idx, label, parent_label = stack.pop()
        node = DecompositionNode(
            label=label,
            bag=frozenset(bags[node_idx]),
            graph_vertices=frozenset(all_vertices),
            free_vertices=frozenset(),
            separator=frozenset(),
            parent=parent_label,
            is_leaf=not children[node_idx],
        )
        td._add_node(node)
        for child_pos, child_idx in enumerate(sorted(children[node_idx])):
            stack.append((child_idx, label + (child_pos,), label))
    td._finalize()
    return td


def centralized_tree_decomposition(graph: Graph, heuristic: str = "min_fill") -> TreeDecomposition:
    """Build a tree decomposition with a centralized elimination-order heuristic.

    Parameters
    ----------
    graph:
        Any undirected graph.
    heuristic:
        ``"min_fill"`` (default) or ``"min_degree"``.

    Returns
    -------
    TreeDecomposition
        A valid decomposition whose width is the heuristic's upper bound on
        the treewidth.
    """
    if graph.num_nodes() == 0:
        raise GraphError("cannot decompose an empty graph")
    if heuristic == "min_fill":
        order = tw.min_fill_order(graph)
    elif heuristic == "min_degree":
        order = tw.min_degree_order(graph)
    else:
        raise GraphError(f"unknown heuristic {heuristic!r}")
    bags, parent = tw.decomposition_from_elimination_order(graph, order)
    # Note: the elimination-order tree is built child -> parent on bag indices.
    return _tree_from_bag_parent(bags, parent, graph)
