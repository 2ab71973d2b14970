"""Dijkstra over the (vertex, state) pairs of a stateful walk constraint.

The test oracle for the product graph G_C and the constrained distance
labeling.  It builds no product graph: it reads the base instance's
out-edges and steps each walk's state with ``constraint.delta``, so it
shares no code with :mod:`repro.walks.product` or :mod:`repro.walks.cdl`.
"""

import heapq
import math

from repro.walks.constraints import INITIAL_STATE, REJECT_STATE


def constrained_distances(instance, constraint, source):
    """Map every reachable (t, q), q ≠ ⊥, to the C(q)-distance from ``source`` to t.

    That is the least weight of a walk from ``source`` to t whose state is
    q; (``source``, ▽) is at distance 0, and a pair that no walk reaches is
    absent.
    """
    dist = {(source, INITIAL_STATE): 0.0}
    heap = [(0.0, 0, source, INITIAL_STATE)]
    counter = 0
    while heap:
        d, _, u, q = heapq.heappop(heap)
        if d > dist[(u, q)]:
            continue
        for e in instance.out_edges(u):
            nq = constraint.delta(q, e)
            if nq == REJECT_STATE:
                continue
            nd = d + e.weight
            if nd < dist.get((e.head, nq), math.inf):
                dist[(e.head, nq)] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head, nq))
    return dist
