"""Graph substrate: data structures, generators and treewidth tooling.

This subpackage provides the graph-theoretic foundation of the library:

* :class:`~repro.graphs.graph.Graph` — simple undirected graphs (the
  communication network :math:`[\\![G]\\!]` of the CONGEST model).
* :class:`~repro.graphs.digraph.WeightedDiGraph` — weighted directed
  multigraphs (the *input instances* of the paper's problems: distance
  labeling, stateful walks, girth).
* :mod:`~repro.graphs.generators` — synthetic low-treewidth graph families
  (k-trees, partial k-trees, grids, series-parallel, cycles with chords,
  bipartite families) used as workloads for experiments.
* :mod:`~repro.graphs.treewidth` — treewidth upper/lower bound heuristics
  (min-degree, min-fill) and exact computation for small graphs.
* :mod:`~repro.graphs.properties` — diameter, eccentricities, connectivity
  and other graph properties used by the round-cost model.
"""

from repro.graphs.graph import Graph
from repro.graphs.digraph import WeightedDiGraph, Edge
from repro.graphs.indexed import IndexedGraph
from repro.graphs import generators, treewidth, properties, convert

__all__ = [
    "Graph",
    "WeightedDiGraph",
    "Edge",
    "IndexedGraph",
    "generators",
    "treewidth",
    "properties",
    "convert",
]
