"""Validation of tree decompositions and separators.

Every randomized construction in the library is checked against the
*definitions* (paper §2.2 for tree decompositions, §3.1 for balanced
separators) rather than trusted.  The functions here return detailed
violation lists so that tests and experiments can assert emptiness and report
useful diagnostics on failure.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.graphs.graph import Graph

NodeId = Hashable


def tree_decomposition_violations(graph: Graph, td: TreeDecomposition) -> List[str]:
    """Return all violations of the tree-decomposition definition (paper §2.2).

    Conditions checked:

    (a) every vertex of the graph appears in at least one bag;
    (b) every edge of the graph is covered by at least one bag;
    (c) for every vertex, the set of decomposition-tree nodes whose bags
        contain it induces a connected subtree.
    Additionally the label structure itself is checked (each non-root label's
    parent exists; children lists are consistent).
    """
    problems: List[str] = []
    if not td.nodes:
        return ["decomposition has no bags"]

    # Structural sanity of the label tree.
    for label, node in td.nodes.items():
        if label == ():
            if node.parent is not None:
                problems.append("root node has a parent")
        else:
            if label[:-1] not in td.nodes:
                problems.append(f"node {label} has no parent node {label[:-1]}")
            elif label not in td.nodes[label[:-1]].children:
                problems.append(f"node {label} missing from its parent's child list")

    # (a) vertex coverage.
    covered = td.covered_vertices()
    missing = set(graph.nodes()) - covered
    if missing:
        problems.append(f"{len(missing)} vertices not covered by any bag (e.g. {sorted(map(str, missing))[:3]})")

    # (b) edge coverage.
    uncovered_edges = 0
    example = None
    bags_by_vertex: Dict[NodeId, List] = {}
    for label, node in td.nodes.items():
        for v in node.bag:
            bags_by_vertex.setdefault(v, []).append(label)
    for u, v in graph.edges():
        labels_u = set(bags_by_vertex.get(u, ()))
        labels_v = set(bags_by_vertex.get(v, ()))
        if not labels_u & labels_v:
            uncovered_edges += 1
            if example is None:
                example = (u, v)
    if uncovered_edges:
        problems.append(f"{uncovered_edges} edges not covered by any bag (e.g. {example})")

    # (c) connectivity of the bags containing each vertex.
    for v, labels in bags_by_vertex.items():
        if len(labels) <= 1:
            continue
        label_set = set(labels)
        # The labels form a subtree iff every non-minimal label's parent is in the set
        # OR the set is connected through the tree; check via union-find over parent links.
        roots_in_set = 0
        for label in labels:
            if label == () or label[:-1] not in label_set:
                roots_in_set += 1
        if roots_in_set != 1:
            problems.append(
                f"bags containing vertex {v!r} do not induce a connected subtree "
                f"({roots_in_set} root labels)"
            )
    return problems


def is_valid_tree_decomposition(graph: Graph, td: TreeDecomposition) -> bool:
    """``True`` iff ``td`` satisfies the tree-decomposition definition for ``graph``."""
    return not tree_decomposition_violations(graph, td)


def is_balanced_separator(
    graph: Graph,
    separator: Iterable[NodeId],
    alpha: float,
    focus: Optional[Set[NodeId]] = None,
) -> bool:
    """Check the (X, α)-balanced-separator definition (paper §3.1).

    Every connected component of ``graph − separator`` must contain at most
    ``α · |X|`` vertices of the focus set X (X defaults to all vertices).
    """
    sep = set(separator)
    focus_set = set(graph.nodes()) if focus is None else set(focus)
    total = len(focus_set)
    if total == 0:
        return True
    remaining = graph.without_nodes(sep)
    for comp in remaining.connected_components():
        if len(comp & focus_set) > alpha * total:
            return False
    return True


def separator_quality(graph: Graph, separator: Iterable[NodeId]) -> Dict[str, float]:
    """Return quality metrics of a separator: size, balance, number of parts.

    ``balance`` is the fraction of all vertices in the heaviest remaining
    component (lower is better; 0 means the separator swallowed every
    vertex).
    """
    sep = set(separator)
    total = max(1, graph.num_nodes())
    remaining = graph.without_nodes(sep)
    comps = remaining.connected_components()
    heaviest = max((len(c) for c in comps), default=0)
    return {
        "size": float(len(sep)),
        "balance": heaviest / total,
        "components": float(len(comps)),
    }
