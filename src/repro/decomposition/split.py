"""The ``Split`` tree-splitting procedure (paper §3.3, step 2).

Given a connected graph G, a weight function μ = μ_X (each vertex weighs 1 if
it belongs to the focus set X, else 0) and a width guess ``t``, ``Split``
decomposes a spanning tree T* of G into a collection of *split trees* such
that

* every split tree is a connected subtree of T*,
* split trees are vertex-disjoint **except for their root vertices**, which
  may be shared,
* the split trees cover V(T*), and
* each split tree has μ-size between ``μ(G)/(lower·t)`` and ``μ(G)/(upper·t)``
  (paper: lower = 12, upper = 4), except that when the whole graph is lighter
  than the lower bound a single tree containing everything is returned.

The paper describes an iterative centroid-based procedure whose point is an
efficient *parallel* CONGEST implementation (O(log t) invocations of subgraph
operations).  Logically the output is exactly a bottom-up carving of the
spanning tree; we implement the carving directly (single post-order pass).
``BalancedSeparator._sep_once`` charges the CONGEST cost of the paper's
procedure, O(log t) subgraph operations, through
:meth:`~repro.core.rounds.CostModel.subgraph_operation`.  All output invariants
listed above are the ones the correctness proof of ``Sep`` relies on
(Appendix B.1) and are checked by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DecompositionError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import tree_children

NodeId = Hashable


@dataclass(frozen=True)
class SplitTree:
    """A single split tree: a connected subtree of the spanning tree.

    Attributes
    ----------
    root:
        The root vertex — the only vertex this tree may share with others.
    vertices:
        All vertices of the split tree (including the root).
    mu_size:
        Total μ-weight of the vertices (i.e. |vertices ∩ X|).
    """

    root: NodeId
    vertices: FrozenSet[NodeId]
    mu_size: int

    def __len__(self) -> int:
        return len(self.vertices)


def split_spanning_tree(
    parent: Dict[NodeId, Optional[NodeId]],
    mu: Dict[NodeId, int],
    chunk_size: int,
) -> List[SplitTree]:
    """Carve the tree (child → parent map) into split trees of μ-size ≈ ``chunk_size``.

    Parameters
    ----------
    parent:
        A rooted spanning tree as a ``child -> parent`` map (root maps to ``None``).
    mu:
        Per-vertex μ-weight (0/1 in the paper; any non-negative ints accepted).
    chunk_size:
        Target lower bound ``s`` on the μ-size of each split tree.  The carving
        guarantees every split tree has μ-size < 2·s + max-vertex-weight, and
        ≥ s except possibly for a single residual tree that is merged into the
        last carved tree when one exists.

    Returns
    -------
    list of :class:`SplitTree`
        Covering all vertices of the tree, pairwise vertex-disjoint except for
        shared roots.
    """
    if not parent:
        return []
    if chunk_size < 1:
        raise DecompositionError("chunk_size must be >= 1")
    roots = [u for u, p in parent.items() if p is None]
    if len(roots) != 1:
        raise DecompositionError("split_spanning_tree expects exactly one root")
    root = roots[0]
    children = tree_children(parent)

    carved: List[Tuple[NodeId, Set[NodeId], int]] = []  # (root, vertices, mu)
    # residue[v] = (vertex set, mu weight) of the not-yet-carved part hanging at v.
    residue_vertices: Dict[NodeId, Set[NodeId]] = {}
    residue_mu: Dict[NodeId, int] = {}

    # Iterative post-order traversal.
    stack: List[Tuple[NodeId, bool]] = [(root, False)]
    while stack:
        v, processed = stack.pop()
        if not processed:
            stack.append((v, True))
            for c in children[v]:
                stack.append((c, False))
            continue
        acc_vertices: Set[NodeId] = {v}
        acc_mu = mu.get(v, 0)
        for c in children[v]:
            child_vertices = residue_vertices.pop(c)
            child_mu = residue_mu.pop(c)
            acc_vertices |= child_vertices
            acc_mu += child_mu
            if acc_mu - mu.get(v, 0) >= chunk_size or acc_mu >= 2 * chunk_size:
                # Carve the accumulated chunk, rooted at v; v stays behind as
                # the shared root of both this chunk and whatever follows.
                carved.append((v, set(acc_vertices), acc_mu))
                acc_vertices = {v}
                acc_mu = mu.get(v, 0)
        residue_vertices[v] = acc_vertices
        residue_mu[v] = acc_mu

    leftover_vertices = residue_vertices.pop(root)
    leftover_mu = residue_mu.pop(root)
    if carved and (leftover_mu < chunk_size):
        # Merge the light residue into the most recent carve rooted at the
        # tree root if one exists, else into the last carve (which shares the
        # root by construction of the final accumulation at `root`).
        target_idx = None
        for idx in range(len(carved) - 1, -1, -1):
            if carved[idx][0] == root:
                target_idx = idx
                break
        if target_idx is None:
            target_idx = len(carved) - 1
        r, verts, m = carved[target_idx]
        carved[target_idx] = (r, verts | leftover_vertices, m + leftover_mu)
    else:
        carved.append((root, leftover_vertices, leftover_mu))

    return [
        SplitTree(root=r, vertices=frozenset(verts), mu_size=m) for r, verts, m in carved
    ]


def split_graph(
    graph: Graph,
    focus: Optional[Set[NodeId]],
    t: int,
    lower_divisor: int = 12,
    root: Optional[NodeId] = None,
) -> List[SplitTree]:
    """Run ``Split`` on a connected graph: spanning tree + carving.

    Parameters
    ----------
    graph:
        A connected graph (the current residual graph G_i of ``Sep``).
    focus:
        The focus set X (``None`` means X = V(G)); μ(v) = 1 iff v ∈ X.
    t:
        The width guess; the chunk size is ``ceil(μ(G) / (lower_divisor · t))``.
    lower_divisor:
        The paper's 12 (practical preset uses 6).
    root:
        Optional spanning-tree root (deterministic tests); defaults to the
        smallest vertex by string order.
    """
    if graph.num_nodes() == 0:
        return []
    if not graph.is_connected():
        raise GraphError("split_graph requires a connected graph")
    if t < 1:
        raise DecompositionError("width guess t must be >= 1")
    nodes = graph.nodes()
    if root is None:
        root = min(nodes, key=str)
    mu = {u: (1 if focus is None or u in focus else 0) for u in nodes}
    total = sum(mu.values())
    chunk = max(1, math.ceil(total / (lower_divisor * t))) if total > 0 else 1
    parent = graph.spanning_tree(root=root)
    return split_spanning_tree(parent, mu, chunk)


def split_tree_roots(trees: Sequence[SplitTree]) -> Set[NodeId]:
    """Return the set R of root vertices of the split trees."""
    return {tree.root for tree in trees}


def verify_split_invariants(
    graph: Graph, trees: Sequence[SplitTree], chunk_size: Optional[int] = None
) -> List[str]:
    """Return a list of human-readable invariant violations (empty = all good).

    Checked invariants (used by the correctness proof of ``Sep``):
    coverage of V(G), pairwise disjointness except at roots, and connectivity
    of every split tree in G.
    """
    problems: List[str] = []
    all_vertices: Set[NodeId] = set()
    for tree in trees:
        all_vertices |= tree.vertices
        if tree.root not in tree.vertices:
            problems.append(f"root {tree.root!r} missing from its own tree")
        sub = graph.subgraph(tree.vertices)
        if not sub.is_connected():
            problems.append(f"split tree rooted at {tree.root!r} is not connected")
    if all_vertices != set(graph.nodes()):
        problems.append("split trees do not cover all vertices")
    roots = split_tree_roots(trees)
    for i, a in enumerate(trees):
        for b in trees[i + 1 :]:
            shared = a.vertices & b.vertices
            if shared - roots:
                problems.append(
                    f"trees rooted at {a.root!r} and {b.root!r} share non-root vertices"
                )
    if chunk_size is not None:
        for tree in trees:
            if tree.mu_size > 3 * chunk_size + 1 and len(trees) > 1:
                problems.append(
                    f"split tree rooted at {tree.root!r} has mu-size {tree.mu_size} "
                    f"exceeding 3·chunk+1 = {3 * chunk_size + 1}"
                )
    return problems
