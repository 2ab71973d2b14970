"""Oracle checks of the distance labeling at benchmark scale (marker ``scale``).

Deselected by default (see ``pytest.ini``); run with
``PYTHONPATH=src python -m pytest -q -m scale``.  The instances are the
sizes at which the labeling's near-linear behaviour is measured: a 5×800
grid and a partial 3-tree with n = 16,000.  Each is built once, by one
:class:`~repro.core.api.LowTreewidthSolver` that every test of the family
shares, and checked two ways:

* for 16 seeded vertices u, every stored entry of u's label must equal
  Dijkstra on G (d(u, s)) and on reversed G (d(s, u)), and 16 decoded
  distances must equal Dijkstra too;
* the solver's SSSP from 2 seeded sources must match Dijkstra at every
  vertex: ``distances`` on G and ``distances_to_source`` on reversed G.
"""

import math
import random

import pytest

from repro.core.api import LowTreewidthSolver
from repro.core.config import FrameworkConfig
from repro.graphs import generators
from repro.graphs.properties import dijkstra

pytestmark = pytest.mark.scale

SAMPLED_VERTICES = 16
SSSP_SOURCES = 2


def _instance(family, seed):
    if family == "grid5x800":
        graph, weights = generators.grid_graph(5, 800), (1, 9)
    else:
        graph, weights = generators.partial_k_tree(16_000, 3, seed=seed), (0, 9)
    return generators.to_directed_instance(
        graph, weight_range=weights, orientation="asymmetric", seed=seed
    )


@pytest.fixture(scope="module", params=["grid5x800", "ktree3_16000"])
def solver(request, master_seed):
    """One built solver per family, so its labeling is constructed once."""
    solver = LowTreewidthSolver(
        _instance(request.param, master_seed), config=FrameworkConfig(seed=master_seed)
    )
    solver.distance_labeling()
    return solver


def test_labels_match_dijkstra_at_scale(solver, master_seed):
    instance = solver.instance
    result = solver.distance_labeling()
    labeling, decomposition = result.labeling, result.decomposition
    reverse = instance.reverse()
    rng = random.Random(master_seed)
    nodes = sorted(instance.nodes(), key=str)
    for u in rng.sample(nodes, SAMPLED_VERTICES):
        lab = labeling.label(u)
        hubs = decomposition.upward_bag_union(u)
        assert set(lab.to_dist) == set(lab.from_dist) == hubs, u
        to_u, from_u = dijkstra(instance, u), dijkstra(reverse, u)
        for s in hubs:
            assert lab.to_dist[s] == to_u.get(s, math.inf), (u, s)
            assert lab.from_dist[s] == from_u.get(s, math.inf), (s, u)
        v = rng.choice(nodes)
        assert labeling.distance(u, v) == to_u.get(v, math.inf), (u, v)


def test_sssp_matches_dijkstra_at_scale(solver, master_seed):
    instance = solver.instance
    reverse = instance.reverse()
    nodes = sorted(instance.nodes(), key=str)
    for source in random.Random(master_seed + 1).sample(nodes, SSSP_SOURCES):
        result = solver.single_source_shortest_paths(source)
        assert set(result.distances) == set(result.distances_to_source) == set(nodes)
        from_s, to_s = dijkstra(instance, source), dijkstra(reverse, source)
        for v in nodes:
            assert result.distances[v] == from_s.get(v, math.inf), (source, v)
            assert result.distances_to_source[v] == to_s.get(v, math.inf), (v, source)
