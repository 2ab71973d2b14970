"""Treewidth estimation and elimination-order tree decompositions.

The distributed algorithms of the paper never need to *know* the treewidth τ:
they guess a width parameter ``t`` and double it on failure.  The experiment
harness, however, needs a reference value of τ to (i) report results as a
function of τ and (ii) validate the O(τ² log n) width bound of the distributed
decomposition.  This module provides:

* ``min_degree_order`` / ``min_fill_order`` — classical elimination-order
  heuristics giving *upper bounds* on the treewidth (these are the same
  heuristics exposed by networkx; our implementation keeps the library
  self-contained and returns the full elimination order).
* ``reduced_min_fill_order`` — min-fill with the simplicial and almost
  simplicial reduction rules applied first.
* ``decomposition_from_elimination_order`` — the standard construction of a
  tree decomposition from an elimination order.
* ``treewidth_upper_bound`` — min over the three orders.
* ``treewidth_lower_bound`` — the degeneracy (MMD) lower bound.
* ``treewidth_exact_small`` — exact treewidth by trying all widths with a
  simple recursive QuickBB-flavoured search, intended only for graphs with at
  most ~14 vertices (used in unit tests to pin heuristic quality).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph

NodeId = Hashable


# --------------------------------------------------------------------------- #
# Elimination orders
# --------------------------------------------------------------------------- #
def _copy_adj(graph: Graph) -> Dict[NodeId, Set[NodeId]]:
    return {u: set(graph.neighbors(u)) for u in graph.nodes()}


def min_degree_order(graph: Graph) -> List[NodeId]:
    """Return an elimination order chosen greedily by minimum degree."""
    adj = _copy_adj(graph)
    strs = {u: str(u) for u in adj}
    order: List[NodeId] = []
    while adj:
        u = min(adj, key=lambda x: (len(adj[x]), strs[x]))
        order.append(u)
        nbrs = adj.pop(u)
        for a in nbrs:
            adj[a].discard(u)
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
    return order


def min_fill_order(graph: Graph) -> List[NodeId]:
    """Return an elimination order chosen greedily by minimum fill-in.

    Fill-in counts are cached and recomputed only for vertices whose
    neighbourhood (or a pair inside it) changed — i.e. the eliminated
    vertex's neighbours and *their* neighbours — which turns the classical
    O(n · Σdeg²) loop into one that is near-linear per step on
    bounded-degree/low-treewidth graphs.  The produced order is identical to
    the naive recompute-everything greedy.
    """
    return _greedy_fill_order(graph, reduce=False)


def reduced_min_fill_order(graph: Graph) -> List[NodeId]:
    """Return a min-fill order that applies the safe reduction rules first.

    At every step a simplicial vertex (fill-in 0) is eliminated if there is
    one, raising the running lower bound ``low`` to its degree; otherwise an
    almost simplicial vertex (its neighbourhood is a clique once one
    neighbour is left out) of degree ≤ ``low`` is eliminated; otherwise the
    min-fill choice is taken.  ``low`` starts at the degeneracy.  Both rules
    are the treewidth-preserving pre-processing rules of Bodlaender & Koster;
    plain min-fill can miss them when an almost simplicial vertex has more
    fill-in than some other vertex, and then overshoots the treewidth of
    some partial k-trees by one.
    """
    return _greedy_fill_order(graph, reduce=True)


def _greedy_fill_order(graph: Graph, reduce: bool) -> List[NodeId]:
    adj = _copy_adj(graph)
    strs = {u: str(u) for u in adj}
    order: List[NodeId] = []

    def fill_in(u: NodeId) -> int:
        nbrs = adj[u]
        k = len(nbrs)
        if k < 2:
            return 0
        # Count adjacent pairs inside N(u) by set intersection (each
        # unordered pair is seen from both endpoints).
        present = 0
        for a in nbrs:
            present += len(nbrs & adj[a])
        return k * (k - 1) // 2 - present // 2

    def update_almost(u: NodeId) -> None:
        # ``almost`` holds the reducible vertices: degree ≤ low, not
        # simplicial, and every missing pair inside N(u) shares one endpoint
        # w, i.e. w alone accounts for all fill[u] of them.  Vertices above
        # ``low`` wait in ``high`` until ``low`` reaches their degree.
        nbrs = adj[u]
        f = fill[u]
        almost.discard(u)
        high.discard(u)
        if len(nbrs) > low:
            high.add(u)
        elif 0 < f < len(nbrs) and any(len(nbrs - adj[w]) - 1 == f for w in nbrs):
            almost.add(u)

    def key(x: NodeId) -> Tuple[int, int, str]:
        return fill[x], len(adj[x]), strs[x]

    fill: Dict[NodeId, int] = {u: fill_in(u) for u in adj}
    almost: Set[NodeId] = set()
    high: Set[NodeId] = set()
    low = 0
    if reduce:
        low = degeneracy(graph)
        for x in adj:
            update_almost(x)

    while adj:
        u = min(adj, key=key)
        if reduce:
            if fill[u] == 0:
                if len(adj[u]) > low:
                    low = len(adj[u])
                    for x in [x for x in high if len(adj[x]) <= low]:
                        update_almost(x)
            else:
                u = min(almost, key=key, default=u)
            almost.discard(u)
            high.discard(u)
        order.append(u)
        nbrs = adj.pop(u)
        del fill[u]
        for a in nbrs:
            adj[a].discard(u)
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        # fill_in (and with it almost simpliciality) can only have changed
        # for the eliminated vertex's neighbours (their neighbourhood
        # changed) and the neighbours of those (a fill edge may have closed
        # one of their missing pairs).
        affected: Set[NodeId] = set()
        for a in nbrs:
            affected.add(a)
            affected |= adj[a]
        affected &= adj.keys()
        for x in affected:
            fill[x] = fill_in(x)
        if reduce:
            for x in affected:
                update_almost(x)
    return order


def width_of_elimination_order(graph: Graph, order: Sequence[NodeId]) -> int:
    """Return the width induced by eliminating ``order`` (max bag size − 1)."""
    if set(order) != set(graph.nodes()):
        raise GraphError("elimination order must be a permutation of the node set")
    adj = _copy_adj(graph)
    width = 0
    for u in order:
        nbrs = adj.pop(u)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a].discard(u)
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def decomposition_from_elimination_order(
    graph: Graph, order: Sequence[NodeId]
) -> Tuple[Dict[int, Set[NodeId]], Dict[int, Optional[int]]]:
    """Build a tree decomposition from an elimination order.

    Returns ``(bags, parent)`` where bags are indexed by the position of the
    eliminated vertex in ``order`` and ``parent`` gives the decomposition-tree
    structure (root maps to ``None``).  The construction is the textbook one:
    bag i = {order[i]} ∪ (higher-numbered neighbours in the fill-in graph),
    and bag i's parent is the bag of the lowest-numbered vertex of
    bag i − {order[i]}.
    """
    if set(order) != set(graph.nodes()):
        raise GraphError("elimination order must be a permutation of the node set")
    position = {u: i for i, u in enumerate(order)}
    adj = _copy_adj(graph)
    bags: Dict[int, Set[NodeId]] = {}
    for i, u in enumerate(order):
        nbrs = adj.pop(u)
        bags[i] = {u} | set(nbrs)
        for a in nbrs:
            adj[a].discard(u)
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
    parent: Dict[int, Optional[int]] = {}
    n = len(order)
    for i in range(n):
        later = [position[v] for v in bags[i] if position[v] > i]
        parent[i] = min(later) if later else None
    # Exactly one root when the graph is connected; for disconnected graphs,
    # attach secondary roots to the last bag to keep a single tree.
    roots = [i for i, p in parent.items() if p is None]
    if len(roots) > 1:
        anchor = roots[-1]
        for r in roots[:-1]:
            parent[r] = anchor
    return bags, parent


# --------------------------------------------------------------------------- #
# Bounds
# --------------------------------------------------------------------------- #
def treewidth_upper_bound(graph: Graph) -> int:
    """Best heuristic upper bound (min over the three elimination orders)."""
    if graph.num_nodes() == 0:
        return 0
    return min(
        width_of_elimination_order(graph, order(graph))
        for order in (min_degree_order, min_fill_order, reduced_min_fill_order)
    )


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy of the graph (a lower bound on treewidth)."""
    adj = _copy_adj(graph)
    strs = {u: str(u) for u in adj}
    best = 0
    while adj:
        u = min(adj, key=lambda x: (len(adj[x]), strs[x]))
        best = max(best, len(adj[u]))
        nbrs = adj.pop(u)
        for a in nbrs:
            adj[a].discard(u)
    return best


def treewidth_lower_bound(graph: Graph) -> int:
    """A cheap treewidth lower bound (degeneracy / MMD bound)."""
    return degeneracy(graph)


# --------------------------------------------------------------------------- #
# Exact treewidth for tiny graphs
# --------------------------------------------------------------------------- #
def _has_order_of_width(graph: Graph, k: int) -> bool:
    """Decide whether ``graph`` has an elimination order of width ≤ k.

    Memoised recursion on the set of remaining vertices; exponential — only
    intended for |V| ≤ ~14 (unit-test scale).
    """
    nodes = tuple(sorted(graph.nodes(), key=str))
    index = {u: i for i, u in enumerate(nodes)}
    base_adj = {u: {index[v] for v in graph.neighbors(u)} for u in nodes}
    adj_bits = [base_adj[u] for u in nodes]
    full_mask = (1 << len(nodes)) - 1
    memo: Dict[int, bool] = {}

    def neighbors_in(v: int, mask: int) -> Set[int]:
        """Neighbours of v in the graph where eliminated vertices (not in mask)
        have been 'absorbed': we take the connected reachability through
        eliminated vertices, which equals the fill-in neighbourhood."""
        seen = {v}
        stack = [v]
        result: Set[int] = set()
        while stack:
            x = stack.pop()
            for y in adj_bits[x]:
                if y in seen:
                    continue
                seen.add(y)
                if mask & (1 << y):
                    result.add(y)
                else:
                    stack.append(y)
        return result

    def solve(mask: int) -> bool:
        if mask == 0:
            return True
        if mask in memo:
            return memo[mask]
        ok = False
        for v in range(len(nodes)):
            if not mask & (1 << v):
                continue
            if len(neighbors_in(v, mask & ~(1 << v))) <= k:
                if solve(mask & ~(1 << v)):
                    ok = True
                    break
        memo[mask] = ok
        return ok

    return solve(full_mask)


def treewidth_exact_small(graph: Graph, max_nodes: int = 14) -> int:
    """Exact treewidth by incremental width search (tiny graphs only).

    Raises :class:`GraphError` if the graph has more than ``max_nodes`` nodes.
    """
    n = graph.num_nodes()
    if n == 0:
        return 0
    if n > max_nodes:
        raise GraphError(
            f"treewidth_exact_small supports at most {max_nodes} nodes (got {n})"
        )
    upper = treewidth_upper_bound(graph)
    lower = treewidth_lower_bound(graph)
    for k in range(lower, upper + 1):
        if _has_order_of_width(graph, k):
            return k
    return upper
