"""Tests for alternating-walk augmenting path search."""

import heapq
import math
import random

import pytest

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph
from repro.matching.augmenting import (
    augment_along_path,
    find_augmenting_path,
    matched_vertices,
    verify_matching,
)
from repro.matching.hopcroft_karp import hopcroft_karp_matching
from repro.walks.constraints import INITIAL_STATE, REJECT_STATE, AlternatingWalkConstraint
from repro.walks.product import build_product_graph
from test_matching import BIPARTITE_FAMILIES


class TestHelpers:
    def test_matched_vertices(self):
        m = {frozenset({1, 2}), frozenset({3, 4})}
        assert matched_vertices(m) == {1, 2, 3, 4}

    def test_verify_matching_accepts_valid(self):
        g = generators.path_graph(6)
        assert verify_matching(g, {frozenset({0, 1}), frozenset({2, 3})})

    def test_verify_matching_rejects_shared_vertex(self):
        g = generators.path_graph(4)
        assert not verify_matching(g, {frozenset({0, 1}), frozenset({1, 2})})

    def test_verify_matching_rejects_non_edges(self):
        g = generators.path_graph(4)
        assert not verify_matching(g, {frozenset({0, 3})})

    def test_augment_along_path_flips_edges(self):
        matching = {frozenset({1, 2})}
        path = [0, 1, 2, 3]  # augmenting path: (0,1) unmatched, (1,2) matched, (2,3) unmatched
        new = augment_along_path(matching, path)
        assert new == {frozenset({0, 1}), frozenset({2, 3})}

    def test_augment_even_length_path_rejected(self):
        with pytest.raises(GraphError):
            augment_along_path(set(), [0, 1, 2])


class TestAugmentingSearch:
    def test_finds_path_on_even_path_graph(self):
        g = generators.path_graph(4)
        matching = {frozenset({1, 2})}
        path = find_augmenting_path(g, matching, 0)
        assert path == [0, 1, 2, 3]

    def test_no_path_when_matching_is_maximum(self):
        g = generators.star_graph(5)
        matching = {frozenset({0, 1})}
        assert find_augmenting_path(g, matching, 2) is None

    def test_matched_source_rejected(self):
        g = generators.path_graph(4)
        with pytest.raises(GraphError):
            find_augmenting_path(g, {frozenset({0, 1})}, 0)

    def test_source_outside_allowed_rejected(self):
        g = generators.path_graph(4)
        with pytest.raises(GraphError):
            find_augmenting_path(g, set(), 0, allowed={1, 2, 3})

    def test_allowed_restriction_blocks_paths(self):
        g = generators.path_graph(6)
        matching = {frozenset({1, 2}), frozenset({3, 4})}
        # Full graph: augmenting path 0..5 exists.
        assert find_augmenting_path(g, matching, 0) is not None
        # Restricting to the first half removes the free endpoint 5.
        restricted = find_augmenting_path(
            g, {frozenset({1, 2})}, 0, allowed={0, 1, 2, 3}
        )
        assert restricted == [0, 1, 2, 3]

    def test_reject_state_is_never_expanded(self, monkeypatch):
        """⊥ reaches no target, so the search never calls δ from it."""
        states = []
        delta = AlternatingWalkConstraint.delta

        def spy(self, state, edge):
            states.append(state)
            return delta(self, state, edge)

        monkeypatch.setattr(AlternatingWalkConstraint, "delta", spy)
        g = generators.grid_graph(3, 4)
        matching = {frozenset({(0, 1), (1, 1)}), frozenset({(1, 2), (2, 2)})}
        for source in sorted(g.nodes()):
            if source not in matched_vertices(matching):
                find_augmenting_path(g, matching, source)
        assert find_augmenting_path(generators.star_graph(5), {frozenset({0, 1})}, 2) is None
        assert states
        assert REJECT_STATE not in states

    def test_repeated_augmentation_reaches_maximum(self):
        g = generators.grid_graph(3, 4)
        matching = set()
        free = sorted(g.nodes(), key=str)
        progress = True
        while progress:
            progress = False
            for v in free:
                if v in matched_vertices(matching):
                    continue
                path = find_augmenting_path(g, matching, v)
                if path is not None:
                    matching = augment_along_path(matching, path)
                    assert verify_matching(g, matching)
                    progress = True
        assert len(matching) == len(hopcroft_karp_matching(g))


def _reference_search(graph, matching, source, allowed=None):
    """The search on a built G_C − ⊥: one instance and one product graph per call.

    A Dijkstra with a (distance, push counter) tie-break, reading successors
    from ``build_product_graph(...).graph.out_edges``.
    :func:`find_augmenting_path` must return the same path.
    """
    allowed = set(graph.nodes()) if allowed is None else set(allowed)
    covered = matched_vertices(matching)
    sub = graph.subgraph(allowed)
    instance = WeightedDiGraph(sub.nodes())
    for u, v in sub.edges():
        instance.add_undirected_edge(u, v, weight=1.0)
    constraint = AlternatingWalkConstraint(
        {tuple(edge) for edge in matching if set(edge) <= allowed}
    )
    graph_c = build_product_graph(instance, constraint).graph
    start = (source, INITIAL_STATE)
    dist = {start: 0.0}
    pred = {}
    heap = [(0.0, 0, start)]
    counter = 0
    settled = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        vertex, state = node
        if (
            state == AlternatingWalkConstraint.UNMATCHED
            and vertex != source
            and vertex not in covered
        ):
            path = [vertex]
            while node != start:
                node = pred[node]
                path.append(node[0])
            return path[::-1]
        for e in graph_c.out_edges(node):
            nd = d + e.weight
            if nd < dist.get(e.head, math.inf):
                dist[e.head] = nd
                pred[e.head] = node
                counter += 1
                heapq.heappush(heap, (nd, counter, e.head))
    return None


def _random_matching(graph, rng):
    """A seeded random matching: shuffled edges, each free pair kept with p = 1/2."""
    edges = sorted(graph.edges(), key=repr)
    rng.shuffle(edges)
    matching, covered = set(), set()
    for u, v in edges:
        if u not in covered and v not in covered and rng.random() < 0.5:
            matching.add(frozenset((u, v)))
            covered.update((u, v))
    return matching


MATCHING_DRAWS = 6


class TestSearchOrder:
    """The on-demand search returns the path the built-G_C search returns.

    Several shortest augmenting paths can tie; the successor order and the
    tie-break pick one, and that pick decides the driver's matching.
    A search that visits neighbours in another order still finds *an*
    augmenting path of the right length, so only a path-for-path comparison
    against the built product graph catches it.
    """

    @pytest.mark.parametrize(
        "name,factory", BIPARTITE_FAMILIES, ids=[f[0] for f in BIPARTITE_FAMILIES]
    )
    def test_same_path_as_built_product_graph(self, name, factory, master_seed):
        graph = factory()
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(f"{master_seed}/{name}")
        found = 0
        for draw in range(MATCHING_DRAWS):
            matching = _random_matching(graph, rng)
            allowed = None
            if draw % 2:
                allowed = {v for v in nodes if rng.random() < 0.75}
            covered = matched_vertices(matching)
            for source in nodes:
                if source in covered or (allowed is not None and source not in allowed):
                    continue
                path = find_augmenting_path(graph, matching, source, allowed=allowed)
                assert path == _reference_search(graph, matching, source, allowed), (
                    draw,
                    source,
                )
                found += path is not None
        # Paths were returned, so the tie-breaks were compared, not only None.
        assert found > 0
