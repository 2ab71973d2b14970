"""Benchmark trajectories and their regression gates.

The bench modules under ``benchmarks/`` write their measurements to the
``BENCH_*.json`` trajectories through :mod:`.trajectory` and assert
their speedup floors as they do.  ``python -m repro.experiments gate``
re-checks the committed files against the same floors (:mod:`.gates`).

See ``docs/experiments.md`` for the pytest command behind each BENCH
case, its floor and the gate.
"""

from .gates import GateReport, check_trajectory, run_gates
from .trajectory import (
    TrajectoryCorruptWarning,
    load_trajectory,
    merge_trajectory_record,
    write_json_atomic,
)

__all__ = [
    "GateReport",
    "TrajectoryCorruptWarning",
    "check_trajectory",
    "load_trajectory",
    "merge_trajectory_record",
    "run_gates",
    "write_json_atomic",
]
