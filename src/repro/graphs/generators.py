"""Synthetic low-treewidth graph families.

The paper evaluates nothing empirically; to exercise its algorithms we need
workload generators that produce connected graphs with *known or tightly
bounded treewidth* and controllable diameter, so that the experiments can
sweep (n, τ, D) independently.  The families provided here are standard:

* ``path_graph`` / ``cycle_graph`` / ``tree_graph`` — treewidth 1 / 2 / 1.
* ``grid_graph(rows, cols)`` — treewidth = min(rows, cols).
* ``k_tree(n, k)`` — treewidth exactly k (the canonical maximal family).
* ``partial_k_tree(n, k, edge_keep_prob)`` — treewidth ≤ k; the workhorse
  family for the experiments (connectivity is enforced).
* ``series_parallel_graph(n)`` — treewidth ≤ 2.
* ``cycle_with_chords(n, num_chords)`` — small treewidth for few chords.
* ``caterpillar_graph`` — tree with long spine, controls diameter precisely.
* bipartite families for the matching experiments: grids, edge subdivisions
  (bipartite, treewidth preserved up to +1) and random bipartite "banded"
  graphs of bounded pathwidth.

All generators accept an explicit ``seed``/``rng`` and return
:class:`~repro.graphs.graph.Graph` (undirected); helpers at the bottom turn an
undirected graph into a weighted directed instance.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph


def _rng(seed_or_rng) -> random.Random:
    """Normalise a seed / Random instance / None into a ``random.Random``."""
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


# --------------------------------------------------------------------------- #
# Elementary families
# --------------------------------------------------------------------------- #
def path_graph(n: int) -> Graph:
    """Path on ``n`` nodes (treewidth 1, diameter n-1)."""
    if n <= 0:
        raise GraphError("path_graph requires n >= 1")
    g = Graph(nodes=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` nodes (treewidth 2 for n >= 3)."""
    if n < 3:
        raise GraphError("cycle_graph requires n >= 3")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def complete_graph(n: int) -> Graph:
    """Complete graph K_n (treewidth n-1)."""
    if n <= 0:
        raise GraphError("complete_graph requires n >= 1")
    g = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def star_graph(n: int) -> Graph:
    """Star with one hub and ``n - 1`` leaves (treewidth 1, diameter 2)."""
    if n <= 0:
        raise GraphError("star_graph requires n >= 1")
    g = Graph(nodes=range(n))
    for i in range(1, n):
        g.add_edge(0, i)
    return g


def random_tree(n: int, seed=None) -> Graph:
    """Uniform-ish random tree built by random attachment (treewidth 1)."""
    rng = _rng(seed)
    if n <= 0:
        raise GraphError("random_tree requires n >= 1")
    g = Graph(nodes=range(n))
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    return g


def caterpillar_graph(spine: int, legs_per_node: int = 1) -> Graph:
    """Caterpillar tree: a path of ``spine`` nodes, each with pendant leaves.

    Useful for controlling the diameter exactly (D = spine - 1 + up to 2)
    while keeping treewidth 1.
    """
    if spine <= 0:
        raise GraphError("caterpillar_graph requires spine >= 1")
    g = path_graph(spine)
    next_id = spine
    for i in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(i, next_id)
            next_id += 1
    return g


# --------------------------------------------------------------------------- #
# Grid-like families
# --------------------------------------------------------------------------- #
def grid_graph(rows: int, cols: int, diagonal: bool = False) -> Graph:
    """A ``rows × cols`` grid (treewidth = min(rows, cols); bipartite unless diagonal).

    ``diagonal=True`` adds one diagonal per cell (a "king-move lite" grid),
    which increases the treewidth to at most ``2 * min(rows, cols)`` and makes
    the graph non-bipartite.
    """
    if rows <= 0 or cols <= 0:
        raise GraphError("grid_graph requires positive dimensions")
    g = Graph(nodes=((r, c) for r in range(rows) for c in range(cols)))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
            if diagonal and r + 1 < rows and c + 1 < cols:
                g.add_edge((r, c), (r + 1, c + 1))
    return g


def cylinder_graph(rows: int, cols: int) -> Graph:
    """Grid with wrap-around columns (treewidth ≈ 2·min dimension)."""
    g = grid_graph(rows, cols)
    if cols >= 3:
        for r in range(rows):
            g.add_edge((r, cols - 1), (r, 0))
    return g


# --------------------------------------------------------------------------- #
# k-trees and partial k-trees
# --------------------------------------------------------------------------- #
def k_tree(n: int, k: int, seed=None) -> Graph:
    """A random k-tree on ``n`` nodes (treewidth exactly ``k`` for n > k).

    Construction: start from the clique K_{k+1}; each new vertex is joined to
    a uniformly random existing k-clique.  The cliques are tracked explicitly,
    so the generator also certifies treewidth ``k``.
    """
    rng = _rng(seed)
    if k < 1:
        raise GraphError("k_tree requires k >= 1")
    if n < k + 1:
        raise GraphError(f"k_tree requires n >= k + 1 (got n={n}, k={k})")
    g = complete_graph(k + 1)
    cliques: List[Tuple[int, ...]] = [tuple(range(k + 1))]
    # Every (k)-subset of the initial clique is a candidate attachment face.
    faces: List[Tuple[int, ...]] = []
    base = list(range(k + 1))
    for skip in range(k + 1):
        faces.append(tuple(base[:skip] + base[skip + 1 :]))
    for v in range(k + 1, n):
        face = faces[rng.randrange(len(faces))]
        g.add_node(v)
        for u in face:
            g.add_edge(v, u)
        new_clique = tuple(sorted(face + (v,)))
        cliques.append(new_clique)
        members = list(new_clique)
        for skip in range(len(members)):
            faces.append(tuple(members[:skip] + members[skip + 1 :]))
    return g


def partial_k_tree(
    n: int,
    k: int,
    edge_keep_prob: float = 0.7,
    seed=None,
) -> Graph:
    """A random partial k-tree: a random subgraph of a random k-tree.

    Treewidth is at most ``k``.  A spanning tree of the k-tree is always
    retained so the result is connected (required by every distributed
    algorithm in the paper).
    """
    rng = _rng(seed)
    if not 0.0 <= edge_keep_prob <= 1.0:
        raise GraphError("edge_keep_prob must be in [0, 1]")
    full = k_tree(n, k, seed=rng)
    g = Graph(nodes=full.nodes())
    kept_tree: Set[Tuple[int, int]] = set()
    parent = full.spanning_tree(root=0)
    for child, par in parent.items():
        if par is not None:
            kept_tree.add(tuple(sorted((child, par))))
    for u, v in full.edges():
        key = tuple(sorted((u, v)))
        if key in kept_tree or rng.random() < edge_keep_prob:
            g.add_edge(u, v)
    return g


def series_parallel_graph(n: int, seed=None) -> Graph:
    """A random series-parallel graph on roughly ``n`` nodes (treewidth ≤ 2).

    Built by repeatedly replacing a random edge by either a series composition
    (subdivide) or a parallel composition (duplicate path of length 2, since
    the simple-graph model cannot hold true parallel edges).
    """
    rng = _rng(seed)
    if n < 2:
        raise GraphError("series_parallel_graph requires n >= 2")
    g = Graph(nodes=[0, 1])
    g.add_edge(0, 1)
    next_id = 2
    while g.num_nodes() < n:
        edges = g.edges()
        u, v = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            # Series: subdivide (u, v) with a fresh node.
            g.remove_edge(u, v)
            g.add_edge(u, next_id)
            g.add_edge(next_id, v)
            next_id += 1
        else:
            # Parallel: add a new length-2 path alongside (u, v).
            g.add_edge(u, next_id)
            g.add_edge(next_id, v)
            next_id += 1
    return g


def cycle_with_chords(n: int, num_chords: int, seed=None) -> Graph:
    """A cycle on ``n`` nodes with ``num_chords`` random chords.

    Treewidth is at most ``num_chords + 2``; useful for girth experiments
    because short cycles are created by chords.
    """
    rng = _rng(seed)
    g = cycle_graph(n)
    attempts = 0
    added = 0
    while added < num_chords and attempts < 50 * max(1, num_chords):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v)
        added += 1
    return g


# --------------------------------------------------------------------------- #
# Bipartite families (for the matching experiments)
# --------------------------------------------------------------------------- #
def subdivided_graph(graph: Graph) -> Graph:
    """Subdivide every edge once: the result is bipartite and treewidth is preserved
    (up to max(tw, 1))."""
    g = Graph(nodes=graph.nodes())
    next_id = 0
    existing = set(graph.nodes())
    for u, v in graph.edges():
        while ("sub", next_id) in existing:
            next_id += 1
        mid = ("sub", next_id)
        next_id += 1
        g.add_edge(u, mid)
        g.add_edge(mid, v)
    return g


def random_banded_bipartite(
    n_left: int, n_right: int, band: int = 3, edge_prob: float = 0.6, seed=None
) -> Graph:
    """Random bipartite graph where left node ``i`` only connects to right nodes
    within ``band`` positions of ``i`` (pathwidth, hence treewidth, O(band)).

    A spanning structure is kept so the graph is connected.
    """
    rng = _rng(seed)
    if n_left <= 0 or n_right <= 0:
        raise GraphError("random_banded_bipartite requires positive part sizes")
    g = Graph()
    left = [("L", i) for i in range(n_left)]
    right = [("R", j) for j in range(n_right)]
    for u in left + right:
        g.add_node(u)
    for i in range(n_left):
        lo = max(0, int(i * n_right / n_left) - band)
        hi = min(n_right - 1, int(i * n_right / n_left) + band)
        candidates = list(range(lo, hi + 1))
        # Guarantee at least one incident edge per left node.
        forced = rng.choice(candidates)
        for j in candidates:
            if j == forced or rng.random() < edge_prob:
                g.add_edge(("L", i), ("R", j))
    # Stitch the right side together through existing structure if disconnected:
    # connect consecutive right nodes through their band-overlapping left nodes.
    comps = g.connected_components()
    if len(comps) > 1:
        comps_sorted = sorted(comps, key=lambda c: min(str(x) for x in c))
        for a, b in zip(comps_sorted, comps_sorted[1:]):
            u = next(iter(x for x in a if x[0] == "L"), next(iter(a)))
            v = next(iter(x for x in b if x[0] == "R"), next(iter(b)))
            if u[0] == v[0]:
                # Same side; bridge via any opposite-side node in either component.
                continue
            g.add_edge(u, v)
    return g


# --------------------------------------------------------------------------- #
# Weighted / directed instance helpers
# --------------------------------------------------------------------------- #
def with_random_weights(
    graph: Graph, low: int = 1, high: int = 10, seed=None
) -> Graph:
    """Return a copy of ``graph`` with integer edge weights drawn uniformly from [low, high]."""
    rng = _rng(seed)
    if low < 0 or high < low:
        raise GraphError("weights must satisfy 0 <= low <= high")
    g = Graph(nodes=graph.nodes())
    for u, v in graph.edges():
        g.add_edge(u, v, weight=rng.randint(low, high))
    return g


def to_directed_instance(
    graph: Graph,
    weight_range: Optional[Tuple[int, int]] = None,
    orientation: str = "both",
    seed=None,
) -> WeightedDiGraph:
    """Turn an undirected graph into a weighted directed instance.

    Parameters
    ----------
    weight_range:
        ``(low, high)`` for uniform integer weights; ``None`` keeps the
        undirected weights (default 1).
    orientation:
        ``"both"`` — every undirected edge becomes two antiparallel directed
        edges (possibly with different weights); ``"random"`` — a single random
        orientation per edge; ``"asymmetric"`` — antiparallel edges with
        independent random weights.
    """
    rng = _rng(seed)
    dg = WeightedDiGraph(graph.nodes())

    def draw(u, v) -> float:
        if weight_range is None:
            return graph.weight(u, v)
        return float(rng.randint(weight_range[0], weight_range[1]))

    for u, v in graph.edges():
        if orientation == "both":
            w = draw(u, v)
            dg.add_edge(u, v, weight=w)
            dg.add_edge(v, u, weight=w)
        elif orientation == "asymmetric":
            dg.add_edge(u, v, weight=draw(u, v))
            dg.add_edge(v, u, weight=draw(u, v))
        elif orientation == "random":
            if rng.random() < 0.5:
                dg.add_edge(u, v, weight=draw(u, v))
            else:
                dg.add_edge(v, u, weight=draw(u, v))
        else:
            raise GraphError(f"unknown orientation {orientation!r}")
    return dg
