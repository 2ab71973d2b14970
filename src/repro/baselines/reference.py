"""Centralized matching oracle, cross-checked against networkx.

networkx is a test-only dependency: both functions below import it in their
bodies, so ``import repro`` never loads it.  The other centralized references
live next to the code they certify (:func:`repro.graphs.properties.dijkstra`,
:func:`repro.girth.baselines.exact_girth_directed` and
:func:`~repro.girth.baselines.exact_girth_undirected`).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.matching.hopcroft_karp import hopcroft_karp_matching


def graph_to_networkx(graph: Graph):
    """Convert an undirected :class:`Graph` to a :class:`networkx.Graph`
    with the same nodes, edges and ``weight`` attributes."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    for u, v, w in graph.weighted_edges():
        g.add_edge(u, v, weight=w)
    return g


def reference_matching_size(graph: Graph) -> int:
    """Maximum matching size of a bipartite graph.

    Hopcroft–Karp's size, cross-checked against networkx's Hopcroft–Karp
    given the bipartition.  A disagreement raises
    :class:`~repro.errors.ReproError`; only an error networkx itself raises
    skips the cross-check.
    """
    import networkx as nx

    own = len(hopcroft_karp_matching(graph))
    parts = graph.bipartition()
    if parts is None or graph.num_nodes() == 0:
        return own
    try:
        nx_match = nx.bipartite.maximum_matching(graph_to_networkx(graph), top_nodes=parts[0])
    except nx.NetworkXException:
        return own
    if own != len(nx_match) // 2:
        raise ReproError(
            f"Hopcroft–Karp matches {own} pairs but networkx matches {len(nx_match) // 2}"
        )
    return own
