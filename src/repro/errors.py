"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch a single base class.  Errors are deliberately fine-grained: algorithmic
failures (e.g. a randomized separator run that did not succeed) are distinct
from usage errors (bad arguments, malformed graphs), which in turn are distinct
from simulator violations (bandwidth overruns in the CONGEST simulator).

The full hierarchy::

    ReproError
    ├── GraphError              — malformed graph arguments / preconditions
    │   ├── NotBipartiteError   — bipartite input required
    │   └── DisconnectedGraphError — connected input required
    ├── DecompositionError      — invalid/unproducible tree decomposition
    │   └── SeparatorFailure    — one randomized ``Sep`` run failed (retryable)
    ├── LabelingError           — malformed labels / incompatible decode
    ├── ConstraintError         — invalid stateful-walk constraint definition
    ├── SimulationError         — CONGEST simulator protocol/usage violation
    │   └── BandwidthExceededError — per-edge per-round word budget overrun
    └── ConvergenceError        — round/iteration budget exhausted
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """A graph argument is malformed or violates a documented precondition."""


class NotBipartiteError(GraphError):
    """An algorithm requiring a bipartite input graph received a non-bipartite one."""


class DisconnectedGraphError(GraphError):
    """An algorithm requiring a connected input graph received a disconnected one."""


class DecompositionError(ReproError):
    """A tree decomposition or separator is invalid or could not be produced."""


class SeparatorFailure(DecompositionError):
    """The randomized separator algorithm ``Sep`` failed for the current width guess.

    The caller (typically the doubling loop) is expected to retry with a larger
    width parameter ``t``; this exception escaping to user code indicates the
    doubling loop itself was exhausted, which should be impossible for valid
    inputs.
    """


class LabelingError(ReproError):
    """A distance label is malformed or a decode was attempted with incompatible labels."""


class ConstraintError(ReproError):
    """A stateful walk constraint definition violates Definition 2 of the paper."""


class SimulationError(ReproError):
    """The CONGEST simulator detected a protocol violation (e.g. oversized message)."""


class BandwidthExceededError(SimulationError):
    """A node attempted to send more than the per-edge per-round bandwidth budget."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its round/iteration budget."""
