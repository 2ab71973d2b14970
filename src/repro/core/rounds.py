"""Round accounting: the CONGEST cost model for subgraph primitives.

The paper's algorithms are built from a small set of communication primitives
(part-wise aggregation and the subgraph operations of Lemma 8 / Corollaries
2–3), whose round complexities are known in closed form for bounded-treewidth
communication graphs:

* Lemma 9 — part-wise aggregation (PA) over a near-disjoint collection has
  dilation Õ(τ·D) and congestion Õ(τ).
* Lemma 8 — RST / STA / SLE / CCD / BCT are each Õ(1) invocations of PA and
  SNC; MVC(t) is Õ(t) invocations.
* Corollary 2 — MVC(h, t): h simultaneous vertex-cut instances cost
  Õ(t·τ·D + h·t·τ) rounds.
* Corollary 3 — BCT(h): h simultaneous broadcasts cost Õ(τ·D + h·τ) rounds.

:class:`CostModel` turns these formulas into concrete round charges (with the
polylog factors made explicit and configurable), and :class:`RoundLedger`
accumulates the charges per named phase so that experiments can report both
totals and breakdowns.  The message-level simulator
(:mod:`repro.congest`) is used to *measure* the base quantities (D, BFS/
broadcast rounds) that parameterise the model.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.config import FrameworkConfig
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter


@dataclass
class CostModel:
    """Closed-form round costs for the subgraph primitives.

    Parameters
    ----------
    n:
        Number of nodes in the communication graph.
    diameter:
        Unweighted diameter D of the communication graph.
    log_factor_exponent:
        The Õ(·) notation hides polylog(n) factors; the model charges
        ``ceil(log2 n) ** log_factor_exponent`` for each hidden polylog.
        The default of 1 keeps the charges conservative and the *shape*
        (dependence on τ, D, h, t) intact, which is what the experiments
        measure.
    constant:
        A uniform leading constant applied to every primitive.
    """

    n: int
    diameter: int
    log_factor_exponent: int = 1
    constant: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("CostModel requires n >= 1")
        if self.diameter < 0:
            raise ValueError("CostModel requires diameter >= 0")

    @classmethod
    def for_graph(cls, graph: Graph, config: FrameworkConfig) -> "CostModel":
        """The cost model of communication graph ``graph`` under ``config``.

        D is exact (a BFS from every node) up to 600 nodes and a sampled
        estimate above that.
        """
        n = graph.num_nodes()
        return cls(
            n=n,
            diameter=diameter(graph, exact=n <= 600),
            log_factor_exponent=config.cost_log_exponent,
            constant=config.cost_constant,
        )

    # -- helpers --------------------------------------------------------- #
    @property
    def log_n(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.n))))

    @property
    def polylog(self) -> float:
        return float(self.log_n ** self.log_factor_exponent)

    def _c(self, value: float) -> int:
        """Apply the leading constant and round up to whole rounds."""
        return max(1, math.ceil(self.constant * value))

    @property
    def d(self) -> int:
        """Effective diameter (at least 1, so D=0 singletons still cost rounds)."""
        return max(1, self.diameter)

    # -- primitive costs (all in rounds) --------------------------------- #
    def snc(self) -> int:
        """Single-round neighbourhood communication (SNC)."""
        return 1

    def partwise_aggregation(self, width: int) -> int:
        """One PA invocation over a near-disjoint collection (Lemma 9 dilation Õ(τD))."""
        return self._c(max(1, width) * self.d * self.polylog)

    def subgraph_operation(self, width: int) -> int:
        """One RST / STA / SLE / CCD / BCT invocation (Lemma 8: Õ(1) PAs + SNCs)."""
        return self._c(self.partwise_aggregation(width) + self.snc())

    def broadcast_multi(self, width: int, h: int) -> int:
        """BCT(h): h simultaneous per-part broadcasts (Corollary 3: Õ(τD + hτ))."""
        w = max(1, width)
        return self._c((w * self.d + max(1, h) * w) * self.polylog)

    def min_vertex_cut_multi(self, width: int, h: int, t: int) -> int:
        """MVC(h, t): h simultaneous size-≤t vertex cuts (Corollary 2: Õ(tτD + htτ))."""
        w = max(1, width)
        t = max(1, t)
        return self._c((t * w * self.d + max(1, h) * t * w) * self.polylog)


class RoundLedger:
    """Accumulates round charges per named phase.

    Phases are hierarchical strings (``"tree_decomposition/separator/pa"``);
    :meth:`breakdown` can report at any prefix depth.  Ledgers are additive
    (:meth:`merge`) so sub-algorithms can keep their own ledgers that the
    caller folds into the global one.
    """

    def __init__(self) -> None:
        self._charges: "OrderedDict[str, int]" = OrderedDict()
        self._stack: List[str] = []

    # -- charging --------------------------------------------------------- #
    def charge(self, phase: str, rounds: int) -> None:
        """Add ``rounds`` to ``phase`` (prefixed by any active phase scopes)."""
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        full = "/".join(self._stack + [phase]) if self._stack else phase
        self._charges[full] = self._charges.get(full, 0) + int(rounds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope subsequent charges under ``name``."""
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def merge(self, other: "RoundLedger", prefix: str = "") -> None:
        """Fold another ledger's charges into this one (optionally under a prefix)."""
        for phase, rounds in other._charges.items():
            full = f"{prefix}/{phase}" if prefix else phase
            self._charges[full] = self._charges.get(full, 0) + rounds

    # -- reporting -------------------------------------------------------- #
    def total(self) -> int:
        """Total number of charged rounds."""
        return sum(self._charges.values())

    def breakdown(self, depth: Optional[int] = None) -> Dict[str, int]:
        """Return charges grouped by phase prefix truncated to ``depth`` segments."""
        if depth is None:
            return dict(self._charges)
        out: Dict[str, int] = {}
        for phase, rounds in self._charges.items():
            key = "/".join(phase.split("/")[:depth])
            out[key] = out.get(key, 0) + rounds
        return out

    def __getitem__(self, phase: str) -> int:
        return self._charges.get(phase, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundLedger(total={self.total()}, phases={len(self._charges)})"
