"""Centralized oracles the benchmark checks every output against.

Shortest paths come from a plain heap Dijkstra over the generated arc list,
written here so that it shares no code with the library it checks.  Girth
and matching use the library's own exact baselines
(``repro.girth.baselines``, ``repro.matching.hopcroft_karp``), which exist to
certify the distributed algorithms.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from typing import Dict, Iterable, List

INF = math.inf


def adjacency(arcs) -> Dict[object, List[tuple]]:
    adj: Dict[object, List[tuple]] = defaultdict(list)
    for u, v, w in arcs:
        adj[u].append((v, w))
    return adj


def reverse_arcs(arcs):
    return [(v, u, w) for u, v, w in arcs]


def dijkstra(adj, source) -> Dict[object, float]:
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tie = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                tie += 1
                heapq.heappush(heap, (nd, tie, v))
    return dist


def bfs_depths(edges, root) -> Dict[object, int]:
    nbrs: Dict[object, List[object]] = defaultdict(list)
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def rows_match(got: Dict[object, float], expected: Dict[object, float],
               nodes: Iterable[object]) -> bool:
    """Exact agreement on every node (integer weights make sums exact)."""
    return all(got.get(v, INF) == expected.get(v, INF) for v in nodes)


class Checks:
    """Counts checked operations and failures; keeps the first few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.record(False, f"{what}: {type(exc).__name__}: {exc}")
