"""High-level facade: :class:`LowTreewidthSolver`.

The solver bundles the full pipeline of the paper for a single input
instance: tree decomposition (Theorem 1), distance labeling (Theorem 2),
single-source shortest paths, constrained distance labeling for stateful walk
constraints (Theorem 3), exact bipartite maximum matching (Theorem 4) and
weighted girth (Theorem 5) — all with CONGEST round accounting.

Intermediate artefacts (the decomposition, the labeling) are cached on the
solver so repeated queries don't redo the expensive construction, mirroring
how a deployed distributed system would reuse the labeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional, TYPE_CHECKING

from repro.core.config import FrameworkConfig, SeparatorParams
from repro.core.rounds import CostModel, RoundLedger
from repro.errors import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - type-checking only imports
    from repro.decomposition.tree_decomposition import DecompositionResult
    from repro.labeling.construction import DistanceLabelingResult
    from repro.labeling.sssp import SSSPResult
    from repro.matching.bipartite import MatchingResult
    from repro.girth.girth import GirthResult

NodeId = Hashable


class LowTreewidthSolver:
    """One-stop interface to the paper's algorithms for a single instance.

    Parameters
    ----------
    instance:
        A weighted directed (multi)graph.  Use :meth:`from_undirected` to wrap
        an undirected graph (each edge becomes an antiparallel pair).
    config:
        Framework configuration; a fresh default (practical separator
        constants) is used when omitted.
    seed:
        Convenience override of ``config.seed``.
    """

    def __init__(
        self,
        instance: WeightedDiGraph,
        config: Optional[FrameworkConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        if instance.num_nodes() == 0:
            raise GraphError("cannot create a solver for an empty instance")
        self.instance = instance
        self.config = config or FrameworkConfig()
        if seed is not None:
            self.config.seed = seed
        self.config.validate()
        self.communication_graph = instance.underlying_graph()
        if not self.communication_graph.is_connected():
            raise GraphError("the communication graph must be connected")
        self._cost_model: Optional[CostModel] = None
        self._decomposition: Optional["DecompositionResult"] = None
        self._labeling: Optional["DistanceLabelingResult"] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_undirected(
        cls,
        graph: Graph,
        config: Optional[FrameworkConfig] = None,
        seed: Optional[int] = None,
    ) -> "LowTreewidthSolver":
        """Wrap an undirected (optionally weighted) graph as a symmetric instance."""
        return cls(WeightedDiGraph.from_undirected(graph), config=config, seed=seed)

    # ------------------------------------------------------------------ #
    # Shared infrastructure
    # ------------------------------------------------------------------ #
    @property
    def cost_model(self) -> CostModel:
        """The round-cost model for this instance's communication graph."""
        if self._cost_model is None:
            self._cost_model = CostModel.for_graph(self.communication_graph, self.config)
        return self._cost_model

    def tree_decomposition(self, rebuild: bool = False) -> "DecompositionResult":
        """Build (and cache) the distributed tree decomposition (Theorem 1)."""
        from repro.decomposition.tree_decomposition import build_tree_decomposition

        if self._decomposition is None or rebuild:
            self._decomposition = build_tree_decomposition(
                self.communication_graph, config=self.config, cost_model=self.cost_model
            )
        return self._decomposition

    def distance_labeling(self, rebuild: bool = False) -> "DistanceLabelingResult":
        """Build (and cache) the exact distance labeling (Theorem 2)."""
        from repro.labeling.construction import build_distance_labeling

        if self._labeling is None or rebuild:
            self._labeling = build_distance_labeling(
                self.instance,
                decomposition=self.tree_decomposition(),
                config=self.config,
                cost_model=self.cost_model,
            )
        return self._labeling

    # ------------------------------------------------------------------ #
    # Problems
    # ------------------------------------------------------------------ #
    def single_source_shortest_paths(self, source: NodeId) -> "SSSPResult":
        """Exact directed SSSP from ``source`` via the distance labeling."""
        from repro.labeling.sssp import single_source_shortest_paths

        labeling_result = self.distance_labeling()
        return single_source_shortest_paths(
            labeling_result.labeling,
            source,
            cost_model=self.cost_model,
            labeling_result=labeling_result,
        )

    def pairwise_distance(self, u: NodeId, v: NodeId) -> float:
        """Exact d_G(u, v) decoded from the two labels."""
        return self.distance_labeling().labeling.distance(u, v)

    def maximum_matching(self) -> "MatchingResult":
        """Exact maximum matching of a bipartite undirected instance (Theorem 4)."""
        from repro.matching.bipartite import maximum_bipartite_matching

        return maximum_bipartite_matching(
            self.communication_graph,
            config=self.config,
            cost_model=self.cost_model,
        )

    def girth(self) -> "GirthResult":
        """Weighted girth of the instance (Theorem 5).

        Dispatches on symmetry like :func:`~repro.girth.girth.compute_girth`,
        and reuses the solver's cached artefacts instead of rebuilding them: a
        directed instance decodes its girth from :meth:`distance_labeling`,
        and a symmetric one runs its count-1 trials over
        :meth:`tree_decomposition`.
        """
        from repro.girth.girth import directed_girth, is_symmetric, undirected_girth

        if is_symmetric(self.instance):
            return undirected_girth(
                self.instance.underlying_weighted_graph(),
                config=self.config,
                cost_model=self.cost_model,
                decomposition=self.tree_decomposition(),
            )
        return directed_girth(
            self.instance,
            labeling=self.distance_labeling(),
            config=self.config,
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def round_report(self) -> Dict[str, int]:
        """Rounds charged so far by the cached constructions, per major phase."""
        report: Dict[str, int] = {}
        if self._decomposition is not None:
            report["tree_decomposition"] = self._decomposition.rounds
        if self._labeling is not None:
            report["distance_labeling"] = self._labeling.rounds
        return report
