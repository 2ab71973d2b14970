"""Oracle checks of the distance labeling at benchmark scale (marker ``scale``).

Deselected by default (see ``pytest.ini``); run with
``PYTHONPATH=src python -m pytest -q -m scale``.  For 16 seeded vertices u of
each instance, every stored entry of u's label must equal Dijkstra on G
(d(u, s)) and on reversed G (d(s, u)), and 16 decoded distances must equal
Dijkstra too.  The instances are the sizes at which the labeling's
near-linear behaviour is measured: a 5×800 grid and a partial 3-tree with
n = 16,000.
"""

import math
import random

import pytest

from repro.core.config import FrameworkConfig
from repro.graphs import generators
from repro.graphs.properties import dijkstra
from repro.labeling.construction import build_distance_labeling

pytestmark = pytest.mark.scale

SAMPLED_VERTICES = 16


def _instance(family, seed):
    if family == "grid5x800":
        graph, weights = generators.grid_graph(5, 800), (1, 9)
    else:
        graph, weights = generators.partial_k_tree(16_000, 3, seed=seed), (0, 9)
    return generators.to_directed_instance(
        graph, weight_range=weights, orientation="asymmetric", seed=seed
    )


@pytest.mark.parametrize("family", ["grid5x800", "ktree3_16000"])
def test_labels_match_dijkstra_at_scale(family, master_seed):
    instance = _instance(family, master_seed)
    result = build_distance_labeling(instance, config=FrameworkConfig(seed=master_seed))
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
