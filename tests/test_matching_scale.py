"""Oracle checks of the bipartite matching at benchmark scale (marker ``scale``).

Deselected by default (see ``pytest.ini``); run with
``PYTHONPATH=src python -m pytest -q -m scale``.  The divide-and-conquer
matching of Theorem 4 runs on a 5×800 grid (n = 4,000) and on a banded
bipartite graph with 400 + 400 vertices, and must agree with the centralized
Hopcroft–Karp matching in size, be a valid matching of the input, and charge
exactly the rounds its ledger lists.
"""

import pytest

from repro.core.config import FrameworkConfig
from repro.graphs import generators
from repro.matching.augmenting import verify_matching
from repro.matching.bipartite import maximum_bipartite_matching
from repro.matching.hopcroft_karp import hopcroft_karp_matching

pytestmark = pytest.mark.scale

FAMILIES = {
    "grid5x800": lambda: generators.grid_graph(5, 800),
    "banded400x400": lambda: generators.random_banded_bipartite(400, 400, band=3, seed=7),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matching_is_maximum_at_scale(family, master_seed):
    graph = FAMILIES[family]()
    result = maximum_bipartite_matching(graph, config=FrameworkConfig(seed=master_seed))
    assert result.size == len(hopcroft_karp_matching(graph))
    assert verify_matching(graph, result.matching)
    assert result.rounds == result.ledger.total()
