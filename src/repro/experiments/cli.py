"""``python -m repro.experiments gate`` — the trajectory gate CLI.

Checks ``BENCH_engine.json`` and ``BENCH_serving.json`` (run from the
repo root, or pass their paths) against :data:`.gates.ENGINE_GATES` and
:data:`.gates.SERVING_GATES`, prints the report and exits 1 on any
violation.  A missing file is a violation.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .gates import run_gates


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regression gates over the committed BENCH_*.json trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gate_p = sub.add_parser("gate", help="check trajectories against the gates")
    gate_p.add_argument("--engine-trajectory", default="BENCH_engine.json")
    gate_p.add_argument("--serving-trajectory", default="BENCH_serving.json")
    args = parser.parse_args(argv)
    report = run_gates(args.engine_trajectory, args.serving_trajectory)
    print(report.render(), flush=True)
    return 0 if report.ok else 1
