"""repro — Fully Polynomial-Time Distributed Computation in Low-Treewidth Graphs.

A reproduction of Izumi, Kitamura, Naruse & Schwartzman (SPAA 2022,
arXiv:2205.14897) as a self-contained Python library.  The package provides:

* a CONGEST-model simulator (:mod:`repro.congest`),
* low-treewidth graph substrates and generators (:mod:`repro.graphs`),
* the paper's fully polynomial-time balanced separator and tree
  decomposition algorithms (:mod:`repro.decomposition`),
* exact distance labeling and single-source shortest paths
  (:mod:`repro.labeling`),
* the stateful-walk constraint framework (:mod:`repro.walks`),
* exact bipartite maximum matching (:mod:`repro.matching`),
* weighted girth computation (:mod:`repro.girth`),
* centralized baselines (:mod:`repro.baselines`) and experiment tooling
  (:mod:`repro.analysis`).

The high-level facade lives in :mod:`repro.core.api`:

>>> from repro import LowTreewidthSolver
>>> from repro.graphs import generators
>>> g = generators.partial_k_tree(60, 3, seed=1)
>>> solver = LowTreewidthSolver.from_undirected(g, seed=1)
>>> dist = solver.single_source_shortest_paths(source=0)
"""

from repro._version import __version__
from repro.core.api import LowTreewidthSolver

__all__ = ["__version__", "LowTreewidthSolver"]
