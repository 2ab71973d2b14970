"""Seeded inputs for every workload, generated by the benchmark itself.

Each workload runs on a fixed topology: round counts and label sizes depend
only on the topology, so fixing it keeps those counts comparable from seed to
seed.  The workload seed draws everything else — edge weights, sources,
query pairs and the solver's own random choices.  The library receives only
the finished graphs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph

#: Seed of the fixed topologies (never the workload seed).
TOPOLOGY_SEED = 20220711

Arc = Tuple[object, object, float]


def partial_ktree_edges(n: int, k: int, keep: float) -> List[Tuple[int, int]]:
    """Undirected edges of a random partial k-tree on 0..n-1 (treewidth <= k).

    Vertex ``v`` joins a random k-clique of the k-tree built so far; its edge
    to the clique's first vertex is always kept, so the result is connected.
    """
    rng = random.Random(TOPOLOGY_SEED + 1000 * k + n)
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    faces = [tuple(x for x in range(k + 1) if x != skip) for skip in range(k + 1)]
    kept = [e for i, e in enumerate(edges) if i < k or rng.random() < keep]
    for v in range(k + 1, n):
        face = faces[rng.randrange(len(faces))]
        for i, u in enumerate(face):
            if i == 0 or rng.random() < keep:
                kept.append((u, v))
        clique = face + (v,)
        faces.extend(tuple(x for x in clique if x != skip) for skip in clique)
    return kept


def grid_edges(rows: int, cols: int) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                out.append(((r, c), (r + 1, c)))
            if c + 1 < cols:
                out.append(((r, c), (r, c + 1)))
    return out


def caterpillar_edges(spine: int) -> List[Tuple[int, int]]:
    """A path of ``spine`` vertices, each with one pendant leaf."""
    out = [(i, i + 1) for i in range(spine - 1)]
    out.extend((i, spine + i) for i in range(spine))
    return out


def asymmetric_arcs(edges, rng: random.Random, low: int, high: int) -> List[Arc]:
    """Both directions of every edge, each with its own integer weight."""
    arcs: List[Arc] = []
    for u, v in edges:
        arcs.append((u, v, float(rng.randint(low, high))))
        arcs.append((v, u, float(rng.randint(low, high))))
    return arcs


def digraph(nodes, arcs: List[Arc]) -> WeightedDiGraph:
    g = WeightedDiGraph(nodes)
    for u, v, w in arcs:
        g.add_edge(u, v, weight=w)
    return g


def undirected(nodes, edges, weights=None) -> Graph:
    g = Graph(nodes=nodes)
    for i, (u, v) in enumerate(edges):
        g.add_edge(u, v, weight=1.0 if weights is None else weights[i])
    return g


def nodes_of(edges) -> List[object]:
    seen: Dict[object, None] = {}
    for u, v in edges:
        seen.setdefault(u, None)
        seen.setdefault(v, None)
    return list(seen)
