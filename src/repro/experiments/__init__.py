"""Unified experiment-matrix runner with resumable persistence.

``repro-bench`` (``python -m repro.experiments`` or ``bin/repro-bench``)
sweeps a declarative matrix of
``(engine tier x protocol/primitive x graph family x scale x seed)``
cells through the existing :meth:`CongestNetwork.run` / serving /
analysis entry points, persists one atomically-written record per cell
keyed by the content hash of its spec (so interrupted sweeps resume
exactly where they left off), gates the committed ``BENCH_*.json``
trajectories against the repo's speedup claims, and exports fresh cells
back into those trajectories through the hardened merge-writer.

See ``docs/experiments.md`` for the matrix spec, the hashing/resume
semantics, the gate tolerances and the one-command recipes.
"""

from .export import export_store
from .gates import GateReport, check_store, check_trajectory, run_gates
from .matrix import (
    ENGINES,
    FAMILIES,
    SCALES,
    SCHEMA_VERSION,
    CellSpec,
    Matrix,
    family_size,
    make_matrix,
)
from .protocols import REGISTRY, ProtocolAdapter, register_protocol
from .runner import RunSummary, execute_cell, run_matrix
from .store import ResultStore
from .trajectory import (
    TrajectoryCorruptWarning,
    load_trajectory,
    merge_trajectory_record,
    write_json_atomic,
)

__all__ = [
    "CellSpec",
    "ENGINES",
    "FAMILIES",
    "GateReport",
    "Matrix",
    "ProtocolAdapter",
    "REGISTRY",
    "ResultStore",
    "RunSummary",
    "SCALES",
    "SCHEMA_VERSION",
    "TrajectoryCorruptWarning",
    "check_store",
    "check_trajectory",
    "execute_cell",
    "export_store",
    "family_size",
    "load_trajectory",
    "make_matrix",
    "merge_trajectory_record",
    "register_protocol",
    "run_gates",
    "run_matrix",
    "write_json_atomic",
]
